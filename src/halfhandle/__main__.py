"""``python -m halfhandle``: the command line of ``halfhandle.cli_io``."""

import sys

from halfhandle.cli_io import main

sys.exit(main())
