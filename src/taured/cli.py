"""Command line interface.

Subcommands: enumerate, hasse, reduce, series, verify.  Field mode is taken
from the input file, overridden by the TAURED_FIELD environment variable,
overridden by --field.  Exit codes: 0 success, 1 check failure, 2 usage or
parse error, 141 (128 + SIGPIPE) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import extract_presentation
from .dsl import AlgebraFile, emit as emit_dsl, parse_file
from .emit import emit_dot, json_payload
from .errors import (
    BadIndex,
    HasseError,
    NoProjInjective,
    NotStringAlgebra,
    ParseError,
    TauredError,
    UsageError,
)
from .linalg import field_from_name
from .reduction import Report, find_proj_injectives, reductions, verify_reduction
from .series import closed_form, series_counts
from .tilting import build_inventory, full_subquiver, oracle_stpairs_via_quotients


def _field_override(args) -> str | None:
    """The --field or TAURED_FIELD mode, checked here: only commands that load a file read it."""
    source, override = "--field", getattr(args, "field", None)
    if not override:
        source, override = "TAURED_FIELD", os.environ.get("TAURED_FIELD") or None
    if override:
        try:
            field_from_name(override)
        except ValueError as e:
            raise UsageError(f"{source} {override!r}: {e}; want rational or fp:<prime>")
    return override


def _load(args):
    af = parse_file(args.file)
    algebra, supplied = af.build(field_override=_field_override(args))
    return af, algebra, build_inventory(algebra, supplied=supplied)


def _cmd_enumerate(args) -> int:
    af, algebra, inv = _load(args)
    pairs = inv.pairs
    keep = [i for i, p in enumerate(pairs) if p.is_tau_tilting or not args.tau_tilt_only]
    pairs = [pairs[i] for i in keep]
    # built in every format, since the Hasse certificate checks the pair list; the
    # restriction is the full subquiver on tau-tilting vertices, not a recomputed
    # Hasse quiver of the subposet
    H = full_subquiver(inv.hasse_quiver, keep)
    if args.format == "json":
        import json

        print(json.dumps(json_payload(af.name, inv, pairs, H),
                         indent=2, ensure_ascii=False))
    elif args.format == "dot":
        print(_dot(inv, pairs, H), end="")
    else:
        print(f"algebra {af.name}: dim {algebra.dim}, "
              f"{len(inv.records)} indecomposables, {len(pairs)} pairs")
        for r in inv.records:
            flags = []
            if r.is_projective:
                flags.append(f"projective P_{r.projective_vertex}")
            if r.is_tau_rigid:
                flags.append("rigid")
            print(f"  [{r.id}] {r.name}  dim {r.dim_vector}  {', '.join(flags)}")
        for p in pairs:
            sup = ("  support {" + ",".join(sorted(p.supports)) + "}") if p.supports else ""
            star = " *" if p.is_tau_tilting else ""
            print(f"  pair {inv.pair_label(p)}{sup}{star}")
    return 0


def _dot(inv, pairs, H, ascii_labels: bool = False) -> str:
    tt = {i for i, p in enumerate(pairs) if p.is_tau_tilting}
    return emit_dot(H, [inv.pair_label(p) for p in pairs], double_border=tt,
                    ascii_labels=ascii_labels)


def _cmd_hasse(args) -> int:
    af, algebra, inv = _load(args)
    H = inv.hasse_quiver
    text = _dot(inv, inv.pairs, H, args.ascii)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"wrote {args.out}: {H.n} vertices, {len(H.arrows)} arrows")
    return 0


def _cmd_reduce(args) -> int:
    af, algebra, inv = _load(args)
    if args.vertex is not None and args.vertex not in algebra.vertices:
        raise UsageError(f"--vertex {args.vertex!r}: no such vertex; "
                         f"vertices: {', '.join(algebra.vertices)}")
    pis = find_proj_injectives(algebra)
    if not pis:
        print("no indecomposable projective-injective module", file=sys.stderr)
        return 1
    vertex = next(iter(pis)) if args.vertex is None else args.vertex
    if vertex not in pis:
        print(f"P_{vertex} is not projective-injective; candidates: "
              f"{', '.join(pis)}", file=sys.stderr)
        return 1
    # keep the chosen vertex's reduction; the others are dropped once checked
    report = Report(af.name)
    chosen, = [r for r in reductions(algebra, report, inv, pis) if r.ctx.vertex == vertex]
    ctx, nsets = chosen.ctx, chosen.nsets
    print("projective-injectives: "
          + ", ".join(f"P_{v}~I_{s}" for v, (_, s, _) in pis.items()))
    print(f"reducing at Q = P_{vertex}; socle lives at vertex {ctx.socle_vertex}; "
          f"Q is {'simple' if ctx.q_is_simple else 'not simple'}")
    if args.emit_quotient:
        quiver, rels = extract_presentation(ctx.quotient)
        qf = AlgebraFile(
            name=f"{af.name}_mod_socle",
            field_mode=af.field_mode,
            vertices=list(quiver.vertices),
            arrows=[(a.name, a.src, a.tgt) for a in quiver.arrows],
            relations=list(rels),
        )
        print(emit_dsl(qf), end="")
    qinv = ctx.quotient_inv

    def fmt(mods):
        return "+".join(sorted(qinv.records[i].name for i in mods)) or "0"

    print(f"keep ({len(nsets.keep)}):   " + "  ".join(fmt(m) for m in nsets.keep))
    print(f"extend ({len(nsets.extend)}): " + "  ".join(fmt(m) for m in nsets.extend))
    print(f"swap ({len(nsets.swap)}):   " + "  ".join(fmt(m) for m in nsets.swap))
    surgery = qinv.listed(ctx.members[False, True])
    print(f"surgery set ({len(surgery)}): " + "  ".join(qinv.pair_label(p) for p in surgery))
    recon = chosen.reconstructed
    print(f"reconstructed tau-tilting modules ({len(recon)}): "
          + "  ".join("+".join(sorted(inv.records[i].name for i in s)) for s in recon))
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_series(args) -> int:
    try:
        rep = series_counts(args.kind, args.max)
    except BadIndex as e:
        raise UsageError(f"--max {args.max}: {e}") from None
    header = f"{'n':>3}  {'count':>8}  {'recurrence':>10}  {'boundary':>8}"
    if args.closed_form:
        header += f"  {'closed':>8}"
    print(header)
    ok = True
    mark = {None: "-", True: "ok", False: "FAIL"}
    for row in rep.rows:
        rec, st = mark[row.recurrence_checked], mark[row.boundary_structure_checked]
        line = f"{row.n:>3}  {row.count:>8}  {rec:>10}  {st:>8}"
        if args.closed_form:
            cf = closed_form(args.kind, row.n)
            line += f"  {cf:>8}"
            ok = ok and cf == row.count
        print(line)
    if not rep.ok() or not ok:
        print("series check FAILED", file=sys.stderr)
        return 1
    return 0


def verify_suite(algebra, name: str, inv) -> Report:
    """The checks of ``taured verify``: clique enumeration against the oracle, the
    Hasse certificate, then the reduction claims of :func:`verify_reduction`."""
    report = Report(name)
    pairs = inv.pairs
    try:
        oracle = oracle_stpairs_via_quotients(inv)
    except NotStringAlgebra as e:
        # vertex quotients need the string backend; supplied inventories may not
        report.add("oracle-equivalence", str(e), None)
    else:
        report.add("oracle-equivalence", "clique enumeration matches the quotient-definition "
                   f"oracle ({len(pairs)} pairs)",
                   {p.key() for p in pairs} == {p.key() for p in oracle})

    statement = "the mutation quiver is the covering relation of the Fac order"
    try:
        arrows = len(inv.hasse_quiver.arrows)
    except HasseError as e:
        # the reduction checks read the Hasse quiver, so they cannot run
        report.add("hasse-certificate", statement, False, str(e))
        return report
    report.add("hasse-certificate", f"{statement} ({arrows} arrows)", True)
    try:
        report.checks += verify_reduction(algebra, name, inv=inv).checks
    except NoProjInjective as e:
        report.add("reduction", str(e), None)
    return report


def _cmd_verify(args) -> int:
    af, algebra, inv = _load(args)
    report = verify_suite(algebra, af.name, inv)
    for line in report.lines():
        print(line)
    if not report.passed:
        failed = next(c for c in report.checks if c.passed is False)
        print(f"FAILED: {failed.name}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="taured",
        description="support tau-tilting pairs, Hasse quivers and socle-quotient "
                    "reduction for bound quiver algebras")
    ap.add_argument("--field", help="field mode override: rational or fp:<p>")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="indecomposables and support pairs")
    p.add_argument("file")
    p.add_argument("--tau-tilt-only", action="store_true")
    p.add_argument("--format", choices=["table", "json", "dot"], default="table")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("hasse", help="write the Hasse quiver as DOT")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.add_argument("--ascii", action="store_true", help="ASCII labels")
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("reduce", help="socle-quotient reduction report")
    p.add_argument("file")
    p.add_argument("--vertex", help="projective-injective vertex (default: first found)")
    p.add_argument("--emit-quotient", action="store_true",
                   help="print the quotient algebra as DSL")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("series", help="counts for the rad-square-zero A/D series")
    p.add_argument("--kind", choices=["A", "D"], required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--closed-form", action="store_true")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="full invariant suite; exit 0 iff all pass")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit flush
        return code
    except UsageError as e:
        ap.error(str(e))
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: write the rest to devnull so the exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141
    except OSError as e:
        if e.filename is None:  # not a file that could not be opened, e.g. a full disk
            raise
        print(f"cannot open {e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    except TauredError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
