"""`python -m anosovlab VERB --config ...` runs the anosovlab command."""

import sys

from anosovlab.cli import main

if __name__ == "__main__":
    sys.exit(main())
