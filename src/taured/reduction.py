"""Socle-quotient reduction for algebras with a projective-injective module.

Given an indecomposable projective-injective Q = P_v with simple socle, the
span of the socle is a two-sided ideal and the quotient by it is again an
algebra.  The tau-tilting modules over the ambient algebra split into three
families matched, via the quotient functor, with explicitly described sets
over the quotient; the restriction of the Hasse quiver to tau-tilting modules
transports along this matching, and at the support level the full Hasse
quiver is a subposet surgery of the quotient's.  Every claim is checked
executably, one report entry per claim.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import product
from typing import NamedTuple

from .algebra import Algebra, quotient_by_elements
from .errors import NonSimpleSocle, NoProjInjective, NotProjInjective
from .linalg import Matrix, left_nullspace
from .reps import (
    Representation,
    bar,
    hom_basis,  # noqa: F401  unused here, but perfbench/tests traces this binding
    injective,
    is_iso,
    projective,
)
from .tilting import (
    BlockProduct,
    Inventory,
    STPair,
    build_inventory,
    components,
    full_subquiver,
    restricted_stpairs,
)


def find_proj_injectives(algebra: Algebra) -> dict[str, tuple[dict, str, Representation]]:
    """Vertices v with P_v projective-injective, each with :func:`_proj_injective` at v.

    That is the element spanning Soc(P_v), the vertex s with P_v = I_s, and P_v.
    """
    out = {}
    for v in algebra.vertices:
        try:
            out[v] = _proj_injective(algebra, v)
        except NotProjInjective:
            pass
    return out


def _proj_injective(algebra: Algebra, v: str) -> tuple[dict, str, Representation]:
    """The element spanning Soc(P_v), its vertex s and P_v, when P_v is I_s.

    An indecomposable injective is I_s for its simple socle S_s, so P_v can
    only be I_s for the vertex s of a one-dimensional Soc(P_v): one iso test.
    Raises NotProjInjective otherwise.
    """
    soc = _socle(algebra, v)
    if len(soc) != 1:
        raise NotProjInjective(f"Soc(P_{v}) has dimension {len(soc)}")
    s = algebra.basis[next(iter(soc[0]))].tgt
    p = projective(algebra, v)
    if not is_iso(p, injective(algebra, s)):
        raise NotProjInjective(f"P_{v} is not projective-injective")
    return soc[0], s, p


def _socle(algebra: Algebra, v: str) -> list[dict]:
    """A basis of Soc(P_v) inside the algebra: elements of e_v . A killed by every arrow.

    The socle is closed under each e_s, so a one-dimensional socle lies at
    one vertex s, the target of any of its basis paths.
    """
    field = algebra.field
    rows_idx = algebra.basis_from(v)
    rows = []
    for bidx in rows_idx:
        row = []
        for a in algebra.arrows:
            prod = algebra.multiply({bidx: field.one}, algebra.element_of_arrow(a.name))
            for k in rows_idx:
                row.append(prod.get(k, field.zero))
        rows.append(row)
    ker = left_nullspace(Matrix.from_rows(rows, len(algebra.arrows) * len(rows_idx), field))
    return [{rows_idx[k]: c for k, c in enumerate(krow) if c} for krow in ker.data]


def _find(inv: Inventory, rep: Representation, error: type, message: str) -> int:
    """The id of the record of ``inv`` isomorphic to ``rep``; raise ``error`` if none is."""
    i = inv.find_iso(rep)
    if i is None:
        raise error(message)
    return i


class ReductionContext:
    """The reduction at Q = P_vertex: the quotient, its blocks and the record maps between both sides.

    The quotient is the product of its blocks, and ``quotient_inv`` is read
    from theirs.  Each map is computed in one pass on first read.  The
    quotient side (``blocks``, ``quotient_inv``, ``qbar_id``, ``hom_to_q``,
    ``flags``, ``members``, ``extend``, ``boundary``) reads ``inv``, the
    ambient inventory, only for its cached blocks, and
    ``classes`` for the blocks' isomorphism classes, and works without either;
    the ambient side (``q_id``, ``bar_of``, ``lift_of``) needs ``inv``.
    ``flags`` and all that reads it list the blocks' pairs; ``boundary`` lists
    the family that ``extend`` marks without them.
    It is a value: no field is assigned after construction.
    """

    def __init__(self, algebra: Algebra, vertex: str, socle_vertex: str, socle_element: dict,
                 quotient: Algebra, q_rep: Representation,
                 inv: Inventory | None = None, classes: Inventory | None = None):
        # Q = P_vertex; socle_element spans Soc(Q) and quotient is the algebra modulo
        # its span.  The cached properties store their values in the same __dict__.
        vars(self).update(algebra=algebra, vertex=vertex, socle_vertex=socle_vertex,
                          socle_element=socle_element, quotient=quotient, q_rep=q_rep,
                          inv=inv, classes=classes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign field {name!r} of a ReductionContext")

    @property
    def q_is_simple(self) -> bool:
        # Q/Soc(Q) is zero exactly when Q is simple, that is, one dimensional
        return self.q_rep.total_dim == 1

    @cached_property
    def blocks(self) -> list[Inventory]:
        """The blocks B_C = quotient / <e_{V-C}>, one per component C of the quotient's quiver.

        Each is cut from the ambient algebra A by the socle element and the
        idempotents outside C; it is the quotient itself when that is
        connected.  If C misses Q's vertex or the socle vertex, the socle
        element lies in <e_{V-C}> and B_C is the vertex quotient A/<e_{V-C}>,
        the ambient inventory's cached block when there is one.  Any other
        block's inventory is carried from the isomorphism classes of
        ``classes``, or built where there are none.
        """
        out = []
        for comp in components(self.quotient, self.quotient.vertices):
            if self.inv is not None and not {self.vertex, self.socle_vertex} <= comp:
                out.append(self.inv.block(comp))
                continue
            outside = [self.algebra.element_of_vertex(u)
                       for u in self.algebra.vertices if u not in comp]
            algebra = (quotient_by_elements(self.algebra, [self.socle_element] + outside)
                       if outside else self.quotient)
            out.append(build_inventory(algebra) if self.classes is None
                       else self.classes.inventory_of(algebra))
        return out

    @cached_property
    def quotient_inv(self) -> BlockProduct:
        return BlockProduct(self.blocks)

    @cached_property
    def flags(self) -> dict[tuple[bool, bool | None], list[list[bool]]]:
        """(tilting, holds) -> per block, is each pair tau-tilting (else Hom-less to Q) and, in
        the block of Q/Soc(Q), holding it or not as ``holds`` says (either way when None)?"""
        qbar, qinv = self.qbar_id, self.quotient_inv
        k = -1 if qbar is None else sum(o <= qbar for o in qinv.offsets) - 1
        to_q = [i for i, d in self.hom_to_q.items() if d]
        out = {key: [] for key in product((True, False), (None, True, False))
               if key != (False, False)}  # the one family no check reads
        for j, (o, b) in enumerate(zip(qinv.offsets, qinv.blocks)):
            local = {i - o for i in to_q}  # block-local ids; the other blocks' fall outside
            base = {True: [not p.supports for p in b.pairs],
                    False: [local.isdisjoint(p.modules) for p in b.pairs]}
            for (tilting, holds), flags in out.items():
                flags.append(base[tilting] if j != k or holds is None else
                             [ok and (qbar - o in p.modules) == holds
                              for ok, p in zip(base[tilting], b.pairs)])
        return out

    @cached_property
    def members(self) -> dict[tuple[bool, bool | None], list[bool]]:
        """For each key of ``flags`` and each code of ``quotient_inv``: is it in that product?"""
        return {key: list(map(all, product(*flags))) for key, flags in self.flags.items()}

    @cached_property
    def extend(self) -> list[bool]:
        """For each code: is it in the surgery family N = ``members[False, True]`` with one
        support vertex in all, that is, one summand short?  No code is when Q is simple."""
        if self.q_is_simple:
            return [False] * self.quotient_inv.total
        # a code's support count is the sum of its parts'
        supports = product(*([len(p.supports) for p in b.pairs] for b in self.blocks))
        return [n and k == 1 for n, k in zip(self.members[False, True], map(sum, supports))]

    @cached_property
    def boundary(self) -> list[STPair]:
        """The pairs that :attr:`extend` marks, listed without the blocks' pairs, in pair order.

        Such a pair is a tuple of the blocks' pairs with one support vertex in
        all, each part Hom-less to Q, and the part in the block of Q/Soc(Q)
        holds it.  So each block lists its pairs with at most one support
        vertex among its records zero at the socle vertex (:attr:`hom_to_q`),
        holding Q/Soc(Q) in its block (:func:`restricted_stpairs`), and one
        block gives the part with the support vertex.
        """
        if self.q_is_simple:
            return []
        qinv, qbar = self.quotient_inv, self.qbar_id
        homless = {i for i, d in self.hom_to_q.items() if not d}
        parts = []  # per block: its parts without and with a support vertex, in quotient ids
        for o, b in zip(qinv.offsets, self.blocks):
            ids = range(o, o + len(b.records))
            split: tuple[list, list] = ([], [])
            for p in restricted_stpairs(b, {i - o for i in homless if i in ids},
                                        qbar - o if qbar in ids else None):
                split[len(p.supports)].append(STPair(tuple(o + m for m in p.modules), p.supports))
            parts.append(split)
        out = [STPair(tuple(m for p in tup for m in p.modules),
                      tuple(v for p in tup for v in p.supports))
               for j in range(len(parts))
               for tup in product(*(split[k == j] for k, split in enumerate(parts)))]
        return sorted(out, key=qinv.pair_sort_key)

    def _bar_id(self, rep: Representation) -> int | None:
        """Quotient id of the image of ``rep``; None where the image is zero.

        The image is the sum of its images in the blocks, which vanish in
        the blocks that miss the support of ``rep``; it must meet one block.
        """
        found = None
        for offset, b in zip(self.quotient_inv.offsets, self.blocks):
            algebra = b.algebra
            if not any(rep.dims[v] for v in algebra.vertices):
                continue
            image = bar(rep, algebra)
            if image.is_zero():
                continue
            if found is not None:
                raise NonSimpleSocle("bar image meets two blocks of the quotient")
            found = offset + _find(b, image, NonSimpleSocle,
                                   "bar image missing from the quotient inventory")
        return found

    @cached_property
    def qbar_id(self) -> int | None:
        """Quotient id of Q/Soc(Q); None when Q is simple."""
        if self.q_is_simple:
            return None
        return self._bar_id(self.q_rep)

    @cached_property
    def hom_to_q(self) -> dict[int, int]:
        """dim Hom over the ambient algebra from each inflated quotient candidate to Q.

        Q = P_v is I_s for the socle vertex s (:func:`_proj_injective`
        certified it), and Hom(X, I_s) is dual to X e_s (Assem, Simson and
        Skowronski, Elements I, Ch. III), so the dimension is that of the
        candidate at s; inflating does not change it.
        """
        s = self.socle_vertex
        return {r.id: r.rep.dims.get(s, 0) for r in self.quotient_inv.candidates()}

    @cached_property
    def q_id(self) -> int:
        return _find(self.inv, self.q_rep, NotProjInjective, "Q missing from the inventory")

    @cached_property
    def bar_of(self) -> dict[int, int | None]:
        """Quotient id of the image of each ambient candidate; None where the image is zero."""
        return {r.id: self._bar_id(r.rep) for r in self.inv.candidates()}

    @cached_property
    def lift_of(self) -> dict[int, int]:
        """Ambient id of each inflated quotient candidate."""
        return {offset + r.id: self.inv.lift(b, r.id)
                for offset, b in zip(self.quotient_inv.offsets, self.blocks)
                for r in b.candidates()}


def socle_quotient(algebra: Algebra, v: str, inv: Inventory | None = None,
                   found: tuple[dict, str, Representation] | None = None,
                   classes: Inventory | None = None) -> ReductionContext:
    """Quotient the algebra by Soc(P_v) for a projective-injective P_v.

    ``inv`` is the ambient inventory: the ambient-side maps read it, and its
    cached blocks serve the quotient's.  ``found`` is the (socle element,
    socle vertex, P_v) that :func:`find_proj_injectives` already found at v,
    if any.  The other blocks are carried from the isomorphism classes of
    ``classes`` (:meth:`Inventory.inventory_of`), by default ``inv``.
    """
    if v not in algebra.vertices:
        raise NotProjInjective(f"no vertex {v}")
    soc_vec, socle_vertex, q_rep = found or _proj_injective(algebra, v)

    # two-sidedness witness: arrows annihilate the socle element on both sides
    for a in algebra.arrows:
        ar = algebra.element_of_arrow(a.name)
        if algebra.multiply(soc_vec, ar) or algebra.multiply(ar, soc_vec):
            raise NonSimpleSocle("socle span is not a two-sided ideal")

    quotient = quotient_by_elements(algebra, [soc_vec])
    return ReductionContext(algebra, v, socle_vertex, soc_vec, quotient, q_rep, inv,
                            inv if classes is None else classes)


class ReductionSets(NamedTuple):
    """Families over the quotient that mirror tau-tilt of the ambient algebra.

    keep: tau-tilting quotient modules without the top summand Q/Soc(Q); they
        lift unchanged.
    extend: support tau-tilting quotient modules containing Q/Soc(Q), with no
        maps to Q and one summand short of full size; Q gets adjoined.
    swap: tau-tilting quotient modules containing Q/Soc(Q) with maps to Q;
        Q/Soc(Q) is exchanged for Q.

    Each is listed in pair order.  The surgery family N (Q/Soc(Q) present, no
    maps to Q, any size) is not: it is ``ReductionContext.members[False, True]``.
    """

    keep: list[frozenset]
    extend: list[frozenset]
    swap: list[frozenset]


def compute_nsets(ctx: ReductionContext) -> ReductionSets:
    """The quotient families in pair order: keep and swap read from the codes that
    ``ctx.members`` marks, and extend from ``ctx.boundary``, which lists the codes that
    ``ctx.extend`` marks without the blocks' pairs.

    Hom, tau and Fac act blockwise: a tuple of the blocks' pairs is
    tau-tilting, or Hom-less to Q, when each part is, and it holds Q/Soc(Q)
    when its part in the block of Q/Soc(Q) does.
    """
    qinv, members = ctx.quotient_inv, ctx.members
    swap = [t and not h for t, h in zip(members[True, True], members[False, None])]
    # simple Q (no block holds Q/Soc(Q)): no pair is exchanged
    return ReductionSets(*([frozenset(p.modules) for p in pairs] for pairs in (
        qinv.listed(members[True, False]), ctx.boundary,
        qinv.listed([] if ctx.q_is_simple else swap))))


def reconstruct_tau_tilt(ctx: ReductionContext, nsets: ReductionSets) -> list[frozenset]:
    """Assemble tau-tilt of the ambient algebra from the quotient families."""
    q = ctx.q_id

    def lift(mods):
        return frozenset(ctx.lift_of[i] for i in mods)

    result: set[frozenset] = set()
    if ctx.q_is_simple:
        for mods in nsets.keep:
            result.add(lift(mods) | {q})
    else:
        qbar = ctx.qbar_id
        for mods in nsets.keep:
            result.add(lift(mods))
        for mods in nsets.extend:
            result.add(lift(mods) | {q})
        for mods in nsets.swap:
            result.add(lift(mods - {qbar}) | {q})
    records = ctx.inv.records
    return sorted(result, key=lambda s: tuple(sorted(records[i].name for i in s)))


class Check:
    """One claim and its outcome: passed, failed, or None when it could not run (SKIP)."""

    __slots__ = ("name", "statement", "passed", "witness")

    def __init__(self, name: str, statement: str, passed: bool | None, witness: str = ""):
        self.name = name
        self.statement = statement
        self.passed = passed
        self.witness = witness

    def line(self) -> str:
        tag = {True: "PASS", False: "FAIL", None: "SKIP"}[self.passed]
        extra = f"  [{self.witness}]" if (self.witness and self.passed is False) else ""
        return f"[{tag}] {self.name}: {self.statement}{extra}"


class Report:
    __slots__ = ("algebra_name", "checks")

    def __init__(self, algebra_name: str, checks: list[Check] | None = None):
        self.algebra_name = algebra_name
        self.checks = [] if checks is None else checks

    def add(self, name: str, statement: str, passed: bool | None, witness: str = "") -> None:
        self.checks.append(Check(name, statement, None if passed is None else bool(passed),
                                 witness))

    @property
    def passed(self) -> bool:
        """No check failed; a skipped check is not a failure."""
        return all(c.passed is not False for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _iso_along(vmap: list[int | None], arrows, dst_n: int, dst_count: int, is_arrow,
               dst_arrows, src_label, dst_label) -> tuple[bool, str]:
    """Is the quiver with ``arrows`` on 0..len(vmap)-1 isomorphic to W along i -> vmap[i]?

    W is not built: it has ``dst_n`` vertices and ``dst_count`` arrows,
    ``is_arrow`` tests one and ``dst_arrows()`` walks them.  A map injective
    onto W's vertices that takes arrows to arrows, with as many on both
    sides, is an isomorphism.  Returns (ok, witness).
    """
    if None in vmap:
        return False, f"no image for {src_label(vmap.index(None))}"
    images = len(set(vmap))
    if images != len(vmap) or dst_n != len(vmap):
        return False, (f"vertex map is not a bijection "
                       f"({images} images, {len(vmap)} -> {dst_n} vertices)")
    for s, t in arrows:
        if not is_arrow(vmap[s], vmap[t]):
            return False, f"arrow not preserved: {dst_label(vmap[s])} -> {dst_label(vmap[t])}"
    if len(arrows) != dst_count:
        mapped = {(vmap[s], vmap[t]) for s, t in arrows}
        missing = next((e for e in dst_arrows() if e not in mapped), None)
        if missing is None:
            return False, f"arrow count differs: {len(arrows)} -> {dst_count}"
        return False, f"arrow not reflected: {dst_label(missing[0])} -> {dst_label(missing[1])}"
    return True, ""


class Reduction(NamedTuple):
    """The reduction at one projective-injective: its context, families and rebuild."""

    ctx: ReductionContext
    nsets: ReductionSets
    reconstructed: list[frozenset]


def verify_reduction(algebra: Algebra, name: str = "algebra",
                     inv: Inventory | None = None) -> Report:
    """Run every reduction claim for each projective-injective of the algebra."""
    report = Report(name)
    for _ in reductions(algebra, report, inv):
        pass
    return report


def reductions(algebra: Algebra, report: Report, inv: Inventory | None = None,
               pis: dict[str, tuple[dict, str, Representation]] | None = None,
               ) -> Iterator[Reduction]:
    """Check the reduction claims at each projective-injective P_v into ``report``.

    Yields the Reduction at each P_v once its checks are in.  The quotients'
    blocks stay in the ambient inventory's cache, which the oracle shares.
    ``pis`` is :func:`find_proj_injectives` of the algebra, if already found.
    """
    if pis is None:
        pis = find_proj_injectives(algebra)
    if not pis:
        raise NoProjInjective("no indecomposable projective-injective module")
    inv = inv or build_inventory(algebra)
    pairs = inv.pairs
    H = inv.hasse_quiver
    tau_idx = [i for i, p in enumerate(pairs) if p.is_tau_tilting]
    tau_pairs = [pairs[i] for i in tau_idx]
    tt_sets = {frozenset(p.modules) for p in tau_pairs}
    src = full_subquiver(H, tau_idx)
    all_vertices = frozenset(algebra.vertices)
    insincere = [inv.pair_label(p) for p in tau_pairs
                 if inv.support(frozenset(p.modules)) != all_vertices]

    def src_label(k):
        return inv.pair_label(pairs[tau_idx[k]])

    for v, found in pis.items():
        tag = f"Q=P_{v}"
        ctx = socle_quotient(algebra, v, inv, found)
        report.add(f"{tag}/socle-simple", "Soc(Q) is one dimensional", True)
        report.add(f"{tag}/socle-two-sided",
                   "the socle span is a two-sided ideal (arrow products vanish)", True)

        qinv = ctx.quotient_inv
        nsets = compute_nsets(ctx)
        q = ctx.q_id
        bar_of, lift_of = ctx.bar_of, ctx.lift_of
        code = qinv.codes_of(pairs, bar_of)  # of each ambient pair's image under bar

        bad = [r.name for r in inv.candidates()
               if r.id != q and (bar_of[r.id] is None or lift_of[bar_of[r.id]] != r.id)]
        report.add(f"{tag}/bar-fixes-non-q",
                   "the socle quotient functor fixes every non-Q indecomposable",
                   not bad, f"moved: {bad[:3]}")

        tilting, in_n = ctx.members[True, None], ctx.members[False, True]

        def within(ids, member) -> bool:
            return all(code[i] is not None and member(code[i]) for i in ids)

        def iso_onto(target: list[bool]):
            """Is the tau-tilt quiver the full subquiver of the quotient's on ``target``?"""
            vmap = [c if c is not None and target[c] else None for c in (code[i] for i in tau_idx)]
            image = set(vmap) - {None}

            def arrows():
                return ((c, d) for c in image for d in qinv.successors(c) if d in image)

            return _iso_along(vmap, src.arrows, sum(target), sum(1 for _ in arrows()),
                              qinv.is_arrow, arrows, src_label, qinv.label)

        if ctx.q_is_simple:
            ok, wit = ((False, "a tau-tilting module misses Q")
                       if not all(q in p.modules for p in tau_pairs)
                       else iso_onto(tilting))
            report.add(f"{tag}/simple-bijection",
                       "Q simple: the tau-tilt quivers agree after dropping Q", ok, wit)
        else:
            qbar = ctx.qbar_id
            qbar_amb = lift_of[qbar]
            m1 = [i for i in tau_idx if q not in pairs[i].modules
                  and qbar_amb not in pairs[i].modules]
            m2 = [i for i in tau_idx if q in pairs[i].modules and qbar_amb in pairs[i].modules]
            m3 = [i for i in tau_idx if q in pairs[i].modules
                  and qbar_amb not in pairs[i].modules]
            report.add(f"{tag}/no-qbar-without-q",
                       "no tau-tilting module contains Q/Soc(Q) but not Q",
                       len(m1) + len(m2) + len(m3) == len(tau_pairs))

            seen: dict[int, int] = {}
            collision = next(((i, seen[code[i]]) for i in tau_idx if code[i] is not None
                              and seen.setdefault(code[i], i) != i), None)
            extend = ctx.extend
            keep_in = within(m1, ctx.members[True, False].__getitem__)
            # distinct images cover a family when they meet it as often as it has members
            ok = (collision is None and keep_in and within(m2, extend.__getitem__)
                  and within(m3, lambda c: ctx.members[True, True][c] and not in_n[c])
                  and (len(m1), len(m2), len(m3))
                  == (len(nsets.keep), len(nsets.extend), len(nsets.swap)))
            wit = "" if ok else (
                "family image mismatch" if collision is None else
                f"collision {inv.pair_label(pairs[collision[0]])} / "
                f"{inv.pair_label(pairs[collision[1]])}")
            report.add(f"{tag}/split-bijections",
                       "the three tau-tilt families biject onto keep / extend / swap", ok, wit)

            ok, wit = iso_onto([t or e for t, e in zip(tilting, extend)])
            report.add(f"{tag}/tau-tilt-bijection",
                       "the tau-tilt quiver matches the quotient-side quiver, arrows both ways",
                       ok, wit)

            if ctx.q_rep.dims[ctx.socle_vertex] > 1:  # Q/Soc(Q) meets the socle vertex
                report.add(f"{tag}/socle-factor-forces-empty",
                           "Q/Soc(Q) has the socle as composition factor, so the "
                           "boundary family is empty",
                           not nsets.extend, f"extend has {len(nsets.extend)} members")

            # a product set is empty when one of its factors is
            report.add(f"{tag}/no-tau-tilt-qbar-homless",
                       "no tau-tilting quotient module keeps the top summand yet "
                       "kills all maps to Q",
                       not all(any(map(min, t, h)) for t, h
                               in zip(ctx.flags[True, True], ctx.flags[False, True])))

            keep_ok = all(frozenset(lift_of[i] for i in mods) in tt_sets
                          for mods in nsets.keep) and keep_in
            report.add(f"{tag}/keep-cross-enumeration",
                       "modules without the top summand are tau-tilting over both algebras",
                       keep_ok)

            swap_ok = within(m3, lambda c: tilting[c] and not ctx.members[False, None][c]) and all(
                (frozenset(lift_of[i] for i in mods - {qbar}) | {q}) in tt_sets
                for mods in nsets.swap)
            report.add(f"{tag}/swap-cross-enumeration",
                       "exchanging Q for the top summand preserves tau-tilting, both ways",
                       swap_ok)

        recon = reconstruct_tau_tilt(ctx, nsets)
        report.add(f"{tag}/reconstruction",
                   "tau-tilt of the ambient algebra rebuilds from the quotient families",
                   set(recon) == tt_sets)

        report.add(f"{tag}/tau-tilt-sincere", "every tau-tilting module is sincere",
                   not insincere, f"insincere: {insincere[:3]}")

        ok, wit = _surgery_iso(ctx, H, [None if c is None else qinv.total + c
                                        if in_n[c] and q in p.modules else c
                                        for p, c in zip(pairs, code)],
                               lambda i: inv.pair_label(pairs[i]))
        report.add(f"{tag}/surgery-isomorphism",
                   "the support Hasse quiver is the subposet surgery of the quotient's",
                   ok, wit)
        yield Reduction(ctx, nsets, recon)


def _surgery_iso(ctx: ReductionContext, H, vmap: list[int | None],
                 src_label) -> tuple[bool, str]:
    """Is H the subposet surgery W of the quotient's quiver at N, along ``vmap``?

    N is the surgery family, the product set ``members[False, True]``, and
    the copy of c in N is vertex ``total + c`` of W.  W keeps the quiver's
    arrows, except that those from outside N into N go to the copy, copies
    the arrows within N, and joins each copy to its original.  An ambient
    pair goes to the copy of its image when that is in N and the pair holds Q.
    """
    qinv, in_n = ctx.quotient_inv, ctx.members[False, True]
    total = qinv.total

    def is_arrow(x, y):
        if x >= total:  # a copy: to its original, or to a copy
            if y < total:
                return y == x - total
            x, y = x - total, y - total
        elif y >= total:  # from outside N to a copy
            if in_n[x]:
                return False
            y -= total
        elif in_n[y] and not in_n[x]:
            return False
        return qinv.is_arrow(x, y)

    def arrows():
        for c in range(total):
            if in_n[c]:
                yield total + c, c
            for d in qinv.successors(c):
                yield (c, total + d) if in_n[d] and not in_n[c] else (c, d)
                if in_n[c] and in_n[d]:
                    yield total + c, total + d

    # the quiver's arrows, those within N once more, and one from each copy
    n = sum(in_n)
    count = (qinv.arrow_count([[True] * m for m in qinv.sizes])
             + qinv.arrow_count(ctx.flags[False, True]) + n)
    return _iso_along(vmap, H.arrows, total + n, count, is_arrow, arrows, src_label,
                      lambda x: qinv.label(x) if x < total else f"copy of {qinv.label(x - total)}")
