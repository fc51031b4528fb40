"""``python -m dixlab``: the same command line as the ``dixlab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
