#!/usr/bin/env python3
"""Emit DOT and JSON for the three-vertex demo algebra and its socle quotient.

Usage:
    python scripts/draw_example_quivers.py [--out DIR]

Writes hasse.dot / hasse.json for the algebra in a3sq.alg and
hasse_quotient.dot for its reduction at the first projective-injective,
with the boundary family highlighted.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from taured.dsl import parse_file
from taured.emit import emit_dot, json_payload
from taured.reduction import compute_nsets, find_proj_injectives, socle_quotient
from taured.tilting import build_inventory


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument("--file", default=os.path.join(os.path.dirname(__file__), "a3sq.alg"))
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    af = parse_file(args.file)
    algebra, _ = af.build()
    inv = build_inventory(algebra)
    pairs, H = inv.pairs, inv.hasse_quiver
    tt = {i for i, p in enumerate(pairs) if p.is_tau_tilting}
    with open(os.path.join(args.out, "hasse.dot"), "w", encoding="utf-8") as f:
        f.write(emit_dot(H, [inv.pair_label(p) for p in pairs], double_border=tt))
    with open(os.path.join(args.out, "hasse.json"), "w", encoding="utf-8") as f:
        json.dump(json_payload(af.name, inv, pairs, H), f, indent=2, ensure_ascii=False)

    v = next(iter(find_proj_injectives(algebra)))
    ctx = socle_quotient(algebra, v, inv)
    records = ctx.quotient_inv.records
    extend = {frozenset(records[i].name for i in mods) for mods in compute_nsets(ctx).extend}
    # the quotient's pairs and quiver from its own inventory; its records share the names
    qinv = build_inventory(ctx.quotient)
    qpairs, QH = qinv.pairs, qinv.hasse_quiver
    qtt = {j for j, p in enumerate(qpairs) if p.is_tau_tilting}
    boundary = {j for j, p in enumerate(qpairs)
                if frozenset(qinv.records[i].name for i in p.modules) in extend}
    with open(os.path.join(args.out, "hasse_quotient.dot"), "w", encoding="utf-8") as f:
        f.write(emit_dot(QH, [qinv.pair_label(p) for p in qpairs],
                         double_border=qtt, highlight=boundary))
    print(f"wrote {args.out}/hasse.dot ({H.n} vertices), "
          f"{args.out}/hasse_quotient.dot ({QH.n} vertices), {args.out}/hasse.json")


if __name__ == "__main__":
    main()
