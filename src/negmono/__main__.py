"""python -m negmono: the command line interface of negmono.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
