"""Entry point of ``python -m gdmopt``, the same as the ``gdmopt`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
