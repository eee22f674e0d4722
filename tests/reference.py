"""A 50-digit reference for the optimal price and the threshold shift.

Independent of the library: stdlib decimal arithmetic, Decimal.ln, and
Newton steps kept inside a bracket by bisection. A game is a list of
(payout, weight) floats, converted exactly and used as given; the rate is a
float, also converted exactly. Results are Decimals.

Price: below the regime boundary log B(0) = log(sum p/a) + sum p log a, the
price u in (1/H, E) solves L*(u) = r, where L*(u) = max_t sum p log(1 +
t (a - u)/u), the best log growth, and, by the envelope theorem,
dL*/du = -(t/u) sum p a/(u + t (a - u)). At or above it the price is
exp(sum p log a - r).

Continuous uniform price: for the payoff uniform on [alpha, beta] the
first-order sum g and the log growth L have closed forms (uniform_price),
so the price of the continuous game needs no quadrature.

Threshold: the shift n0 >= 0 solves log B(n) = r with log B(n) =
log(sum p/(a + n)) + sum p log(a + n) and d log B/dn = H - H2/H.
"""

from decimal import Decimal, localcontext

DIGITS = 50
_STEPS = 200


def _solve(f, lo, hi, x):
    """Root of a decreasing f on [lo, hi] from x; f returns (value, slope)."""
    for _ in range(_STEPS):
        value, slope = f(x)
        if value == 0:
            return x
        if value > 0:
            lo = x
        else:
            hi = x
        nxt = x - value / slope if slope < 0 else lo
        if not lo < nxt < hi:
            nxt = (lo + hi) / 2
        if abs(nxt - x) <= abs(x) * Decimal(10) ** (8 - DIGITS):
            return nxt
        x = nxt
    raise ArithmeticError("reference solve did not converge")


def _game(pairs):
    return [(Decimal(a), Decimal(p)) for a, p in pairs]


def _proportion(game, u, t):
    """The root in (0, 1) of the first-order sum at a price u above the fair
    price, from t."""

    def foc(t):
        terms = [(a - u, u + t * (a - u)) for a, _ in game]
        value = sum(p * x / d for (x, d), (_, p) in zip(terms, game))
        slope = -sum(p * (x / d) ** 2 for (x, d), (_, p) in zip(terms, game))
        return value, slope

    return _solve(foc, Decimal(0), Decimal(1), t)


def _log_growth(game, u, t):
    return sum(p * (1 + t * (a - u) / u).ln() for a, p in game)


def best_log_growth(pairs, u: float) -> Decimal:
    """L*(u), the log of the best growth at a price u in (1/H, E)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        game = _game(pairs)
        price = Decimal(u)
        return _log_growth(game, price, _proportion(game, price, Decimal("0.5")))


def log_boundary(pairs, n: float = 0.0) -> Decimal:
    """log B(n), the log boundary growth of the game shifted by n."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        game = [(a + Decimal(n), p) for a, p in _game(pairs)]
        return sum(p / a for a, p in game).ln() + sum(p * a.ln() for a, p in game)


def price(pairs, r: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        game = _game(pairs)
        rate = Decimal(r)
        log_moment = sum(p * a.ln() for a, p in game)
        harmonic = sum(p / a for a, p in game)
        if rate >= harmonic.ln() + log_moment:
            return (log_moment - rate).exp()
        expectation = sum(p * a for a, p in game)
        t = Decimal("0.5")

        def excess(u):
            nonlocal t
            t = _proportion(game, u, t)
            growth = _log_growth(game, u, t)
            slope = -t / u * sum(p * a / (u + t * (a - u)) for a, p in game)
            return growth - rate, slope

        fair = 1 / harmonic
        return _solve(excess, fair, expectation, (fair + expectation) / 2)


def threshold(pairs, r: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        game = _game(pairs)
        rate = Decimal(r)

        def excess(n):
            h = sum(p / (a + n) for a, p in game)
            h2 = sum(p / (a + n) ** 2 for a, p in game)
            value = h.ln() + sum(p * (a + n).ln() for a, p in game) - rate
            return value, h - h2 / h

        hi = sum(p * a for a, p in game)
        while excess(hi)[0] > 0:
            hi *= 2
        return _solve(excess, Decimal(0), hi, hi / 2)


def uniform_price(alpha: float, beta: float, r: float) -> Decimal:
    """The optimal price at rate r of the payoff uniform on [alpha, beta], for
    r below its log regime boundary, from the closed forms, with
    y(a) = u + t (a - u), c = 1 - t and k = t/u:

        g(t; u) = 1/t - u/(t**2 (beta - alpha)) log(y(beta)/y(alpha)),
        L(t; u) = (F(beta) - F(alpha))/(beta - alpha),
        F(x) = ((c + k x) log(c + k x) - (c + k x))/k.

    Here c + k a = y(a)/u. The proportion solves g = 0, with slope
    dg/dt = -[y - 2u log y - u**2/y]/(t**3 (beta - alpha)) taken between
    y(alpha) and y(beta); the price solves L = r, with the envelope slope
    -(t/u) E[a/y(a)], E[a/y(a)] = [a/t - u c log y(a)/t**2]/(beta - alpha)
    between the ends. The slopes only steer _solve's Newton. The fair price
    is (beta - alpha)/log(beta/alpha)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        lo, hi, rate = Decimal(alpha), Decimal(beta), Decimal(r)
        width = hi - lo
        t = Decimal("0.5")

        def between(f, u, t):
            """f(y, a) at a = beta less at a = alpha, y = u + t (a - u)."""
            return f(u + t * (hi - u), hi) - f(u + t * (lo - u), lo)

        def foc(t, u):
            value = 1 / t - u / (t * t * width) * between(lambda y, a: y.ln(), u, t)
            spread = between(lambda y, a: y - 2 * u * y.ln() - u * u / y, u, t)
            return value, -spread / (t**3 * width)

        def excess(u):
            nonlocal t
            t = _solve(lambda s: foc(s, u), Decimal(0), Decimal(1), t)
            c, k = 1 - t, t / u
            growth = between(lambda y, a: ((y / u).ln() - 1) * y / u / k, u, t) / width
            mean = between(lambda y, a: a / t - u * c * y.ln() / (t * t), u, t) / width
            return growth - rate, -t / u * mean

        fair = width / (hi / lo).ln()
        expectation = (lo + hi) / 2
        return _solve(excess, fair, expectation, (fair + expectation) / 2)
