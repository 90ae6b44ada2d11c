"""``python -m dephcap``: the command line where no console script is installed."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
