"""Command-line entry point: ``python -m growthprice <command> ...``."""

from .cli import main

if __name__ == "__main__":
    main()
