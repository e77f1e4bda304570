"""``python -m snnmesh``: the same command line as the ``snnmesh`` script."""

import sys

from .cli import main

sys.exit(main())
