"""`python -m tiltphase ...` runs the command line interface."""

import sys

from tiltphase.cli import main

if __name__ == "__main__":
    sys.exit(main())
