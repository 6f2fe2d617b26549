"""Command-line entry point: python -m betaforge <subcommand> [options]."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
