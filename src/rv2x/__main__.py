"""``python -m rv2x``: the command-line interface of :mod:`rv2x.harness`."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
