"""The law of the Monte Carlo counts: binomial and multinomial draws from
the splitmix64 stream against their exact distributions.

Each statistic is a fixed function of seeded draws, so these tests repeat
exactly; their bounds are those a correct sampler exceeds with probability
about 1e-6 (chi-square) or 6e-7 (5 standard errors) on a fresh seed. The
file needs no numpy.
"""

import math
from collections import Counter
from itertools import chain, product

import pytest

from growthprice import oracle

RUNS = 20_000

# The 1 - 1e-6 quantile of the standard normal.
Z_TAIL = 4.753


def chi_square_bound(dof: int) -> float:
    """The 1 - 1e-6 quantile of chi-square with dof degrees of freedom, by
    the Wilson-Hilferty approximation."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + Z_TAIL * math.sqrt(c)) ** 3


def chi_square(observed: dict, expected: dict) -> tuple[float, int]:
    """Pearson's statistic and its degrees of freedom, with the cells whose
    expected count is below 5 pooled into one."""
    stat, rest_observed, rest_expected, cells = 0.0, 0, 0.0, 0
    for cell, e in expected.items():
        o = observed.get(cell, 0)
        if e < 5.0:
            rest_observed += o
            rest_expected += e
        else:
            stat += (o - e) ** 2 / e
            cells += 1
    assert sum(observed.values()) == round(sum(expected.values()))
    if rest_expected > 0.0:
        stat += (rest_observed - rest_expected) ** 2 / rest_expected
        cells += 1
    return stat, cells - 1


def binomial_pmf(n: int, p: float, k: int) -> float:
    log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return math.exp(log_comb + k * math.log(p) + (n - k) * math.log1p(-p))


def draws(sample, seed: int, runs: int = RUNS) -> list:
    uniform = oracle._uniforms(seed).__next__
    return [sample(uniform) for _ in range(runs)]


@pytest.mark.parametrize(
    "weights", [(0.2, 0.3, 0.5), (0.05, 0.8, 0.15)], ids=["spread", "skewed"]
)
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_multinomial_counts_follow_the_exact_law(n, weights):
    # every composition of n into 3 counts, by enumeration
    expected = {}
    for c in product(range(n + 1), repeat=2):
        if sum(c) <= n:
            cell = (*c, n - sum(c))
            ways = math.factorial(n) // math.prod(map(math.factorial, cell))
            probability = math.prod(w**k for k, w in zip(cell, weights))
            expected[cell] = RUNS * ways * probability
    observed = Counter(
        draws(lambda u: tuple(oracle._multinomial(n, list(weights), u)), n)
    )
    stat, dof = chi_square(observed, expected)
    assert dof >= 1
    assert stat <= chi_square_bound(dof)


@pytest.mark.parametrize(
    "n, p, runs",
    [
        (10, 0.5, RUNS),
        (40, 0.3, 10 * RUNS),
        (40, 0.7, RUNS),
        (1000, 0.5, RUNS),
        (10**6, 3e-5, RUNS),
    ],
    ids=["inversion_n10", "btrs_n40", "btrs_n40_mirrored", "btrs_n1000", "btrs_np30"],
)
def test_binomial_draws_follow_the_exact_law(n, p, runs):
    # every value a draw may take, up to 12 standard deviations out; the
    # longer run at n = 40 holds BTRS to smaller departures from the law
    width = 12 * math.isqrt(n) + 10
    span = range(max(0, round(n * p) - width), min(n, round(n * p) + width) + 1)
    expected = {k: runs * binomial_pmf(n, p, k) for k in span}
    observed = Counter(draws(lambda u: oracle._binomial(n, p, u), 17, runs))
    assert set(observed) <= set(span)
    stat, dof = chi_square(observed, expected)
    assert stat <= chi_square_bound(dof)


@pytest.mark.parametrize(
    "p",
    [0.3, 0.5, 0.7, 3e-6, 1.0 - 3e-6, 9e-6, 2e-5],
    ids=[
        "btrs",
        "btrs_half",
        "btrs_mirrored",
        "inversion_low",
        "inversion_high",
        "inversion_np9",
        "btrs_np20",
    ],
)
def test_binomial_mean_and_variance_at_a_million(p):
    # n * min(p, q) below 10 is drawn by inversion, above it by BTRS
    n = 10**6
    xs = draws(lambda u: oracle._binomial(n, p, u), 5)
    mean = math.fsum(xs) / RUNS
    var = math.fsum((x - mean) ** 2 for x in xs) / (RUNS - 1)
    npq = n * p * (1.0 - p)
    excess_kurtosis = (1.0 - 6.0 * p * (1.0 - p)) / npq
    assert abs(mean - n * p) <= 5.0 * math.sqrt(npq / RUNS)
    assert abs(var - npq) <= 5.0 * npq * math.sqrt((2.0 + excess_kurtosis) / RUNS)


def exact_log_pmf_ratio(n: int, p: float, m: int, k: int) -> float:
    """log(f(k) / f(m)) for the Binomial(n, p) pmf f, q = 1 - p exactly, as
    an exactly rounded sum of the logs of f(i)/f(i - 1) = (n - i + 1) p/(i q),
    each taken as log1p of the ratio less 1 in integer arithmetic."""
    big_p, den = p.as_integer_ratio()
    big_q = den - big_p
    if k >= m:
        steps = range(m + 1, k + 1)
        less_1 = (((n - i + 1) * big_p - i * big_q) / (i * big_q) for i in steps)
    else:
        steps = range(k + 1, m + 1)
        less_1 = (
            (i * big_q - (n - i + 1) * big_p) / ((n - i + 1) * big_p) for i in steps
        )
    return math.fsum(map(math.log1p, less_1))


@pytest.mark.parametrize(
    "n, p",
    [(40, 0.25), (50, 0.3), (10**9, 0.3), (10**12, 0.5), (10**12, 0.3), (10**15, 0.5)],
)
def test_acceptance_log_ratio_is_accurate_at_any_n(n, p):
    # BTRS accepts k where log v <= log(f(k)/f(m)); a difference of lgamma
    # values is off by about n log n 2**-53 here, 3e-3 at n = 10**12
    m = math.floor((n + 1) * p)
    offsets = [-(10**5), -3000, -16, -1, 0, 1, 2, 16, 3000, 10**5]
    ks = range(n + 1) if n <= 50 else [m + d for d in offsets]
    for k in ks:
        exact = exact_log_pmf_ratio(n, p, m, k)
        got = oracle._log_pmf_ratio(n, p, m, k)
        assert abs(got - exact) <= 1e-13 * (abs(k - m) + 1), (k, got, exact)


@pytest.mark.parametrize("n, p", [(40, 0.3), (1000, 0.5), (10**6, 0.9)])
def test_btrs_redraws_the_uniform_one(n, p):
    # a BTRS trial's first uniform at 1.0 puts k at infinity: the trial
    # draws again, so the 1.0 is skipped and the rest of the stream decides
    plain = oracle._uniforms(23)
    with_one = chain([1.0], oracle._uniforms(23))
    assert oracle._binomial(n, p, with_one.__next__) == oracle._binomial(
        n, p, plain.__next__
    )
    assert next(with_one) == next(plain)


@pytest.mark.parametrize("n", [0, 1, 7, 10**6, 10**15])
def test_certain_outcomes_take_every_draw_or_none(n):
    uniform = oracle._uniforms(3).__next__
    assert oracle._binomial(n, 0.0, uniform) == 0
    assert oracle._binomial(n, 1.0, uniform) == n
    assert oracle._multinomial(n, [1.0], uniform) == [n]


@pytest.mark.parametrize("n", [1, 7, 10**5, 10**12])
@pytest.mark.parametrize("k", [2, 5, 64])
def test_counts_cover_every_draw(k, n):
    weights = [(j + 1) / (k * (k + 1) / 2) for j in range(k)]
    counts = oracle._multinomial(n, weights, oracle._uniforms(k).__next__)
    assert len(counts) == k
    assert sum(counts) == n
    assert min(counts) >= 0


def test_stream_reference_outputs():
    # splitmix64 at seed 0: the first three outputs of the reference
    # implementation (Vigna), as 53-bit fractions plus one ulp
    outputs = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    uniform = oracle._uniforms(0).__next__
    assert [uniform() for _ in outputs] == [
        ((z >> 11) + 1) * 2.0**-53 for z in outputs
    ]
    top = oracle._uniforms(2**64 - 1)
    assert all(0.0 < next(top) <= 1.0 for _ in range(1000))
