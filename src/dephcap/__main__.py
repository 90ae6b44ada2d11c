"""``python -m dephcap``: the command line where no console script is installed."""

from .cli import entry

if __name__ == "__main__":
    entry()
