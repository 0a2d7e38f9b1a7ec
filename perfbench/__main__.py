"""``python -m perfbench``: see README.md in this directory."""

import sys

from .cli import main

sys.exit(main())
