#!/usr/bin/env python3
"""Print tau-tilting counts for the rad-square-zero A or D series.

Usage:
    python scripts/series_table.py --kind A --max 8 [--closed-form]

The options are those of ``taured series``; the exit code is its exit code.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from taured.cli import main as cli_main


def main(argv=None):
    return cli_main(["series"] + (sys.argv[1:] if argv is None else list(argv)))


if __name__ == "__main__":
    sys.exit(main())
