"""``python -m nlpcheck``: the ``nlpcheck`` command line."""

import sys

from nlpcheck.cli import main

if __name__ == "__main__":
    sys.exit(main())
