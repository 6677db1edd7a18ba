#!/usr/bin/env python3
"""Run the checks of ``taured verify`` over the built-in corpus of algebras.

Usage:
    python scripts/verify_corpus.py [--field rational|fp:<p>]

Prints each member's name, then its check lines as ``taured verify`` prints
them.  Exit code 0 iff no check fails on any corpus member.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from taured.cli import verify_suite
from taured.corpus import standard_corpus
from taured.linalg import field_from_name
from taured.tilting import build_inventory


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--field", type=field_from_name, default="rational",
                    help="rational (default) or fp:<p>")
    args = ap.parse_args(argv)
    bad = []
    t0 = time.perf_counter()
    for name, algebra in standard_corpus(field=args.field).items():
        report = verify_suite(algebra, name, build_inventory(algebra))
        print(name, *report.lines(), sep="\n")
        bad += [f"{name}: {c.name}" for c in report.checks if c.passed is False]
    print(f"total {time.perf_counter() - t0:.1f}s")
    if bad:
        print("FAILURES:", *bad, sep="\n  ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
