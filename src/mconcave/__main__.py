"""``python -m mconcave``: the command-line interface of ``mconcave.cli``."""

from .cli import entry

if __name__ == "__main__":
    entry()
