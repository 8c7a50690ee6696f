"""`python -m yanglab ...`: the command-line interface (`cli.main`)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
