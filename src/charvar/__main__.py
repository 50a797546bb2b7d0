"""`python -m charvar`: the command-line interface of charvar.cli."""

import sys

from charvar.cli import main

if __name__ == "__main__":
    sys.exit(main())
