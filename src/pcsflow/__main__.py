"""``python -m pcsflow ...``: the ``pcsflow`` command without the installed script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
