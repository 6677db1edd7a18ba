#!/usr/bin/env python3
"""Run the full invariant suite over the built-in corpus of algebras.

Usage:
    python scripts/verify_corpus.py [--skip-oracle] [--field rational|fp:<p>]

Exit code 0 iff every check passes on every corpus member.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from taured.corpus import standard_corpus
from taured.errors import HasseError, NoProjInjective
from taured.linalg import field_from_name
from taured.reduction import verify_reduction
from taured.tilting import build_inventory, oracle_stpairs_via_quotients


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--skip-oracle", action="store_true")
    ap.add_argument("--field", type=field_from_name, default="rational",
                    help="rational (default) or fp:<p>")
    args = ap.parse_args(argv)
    bad = []
    t0 = time.perf_counter()
    for name, algebra in standard_corpus(field=args.field).items():
        inv = build_inventory(algebra)
        pairs = inv.pairs
        status = [f"{len(pairs)} pairs"]
        if not args.skip_oracle:
            oracle = oracle_stpairs_via_quotients(inv)
            if {p.key() for p in pairs} != {p.key() for p in oracle}:
                bad.append(f"{name}: oracle mismatch")
                status.append("oracle MISMATCH")
            else:
                status.append("oracle ok")
        try:
            status.append(f"hasse ok ({len(inv.hasse_quiver.arrows)} arrows)")
        except HasseError as e:
            # the reduction checks read the Hasse quiver, so they cannot run
            bad.append(f"{name}: hasse-certificate: {e}")
            status.append("hasse FAILED")
        else:
            try:
                rep = verify_reduction(algebra, name, inv=inv)
                if rep.passed:
                    status.append(f"{len(rep.checks)} reduction checks ok")
                else:
                    fails = [c.name for c in rep.checks if not c.passed]
                    bad.append(f"{name}: {fails}")
                    status.append(f"reduction FAILED {fails}")
            except NoProjInjective:
                status.append("no projective-injective")
        print(f"{name:12s} " + ", ".join(status))
    print(f"total {time.perf_counter() - t0:.1f}s")
    if bad:
        print("FAILURES:", *bad, sep="\n  ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
