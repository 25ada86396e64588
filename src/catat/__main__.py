"""``python -m catat``: the command-line driver (``cli.main``)."""

import sys

from .cli import main

sys.exit(main())
