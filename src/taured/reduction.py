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
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .algebra import Algebra, quotient_by_elements
from .errors import NonSimpleSocle, NoProjInjective, NotProjInjective, UnknownVertex
from .linalg import Matrix, left_nullspace
from .reps import (
    Representation,
    bar,
    hom_basis,  # noqa: F401  unused here, but perfbench/tests traces this binding
    injective,
    is_iso,
    is_sincere,
    projective,
)
from .tilting import (
    Block,
    BlockProduct,
    Inventory,
    PosetQuiver,
    STPair,
    build_inventory,
    components,
    full_subquiver,
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


@dataclass(frozen=True)
class ReductionContext:
    """The reduction at Q = P_vertex: the quotient, its blocks and the record maps between both sides.

    The quotient is the product of its blocks, and ``quotient_inv`` is read
    from theirs.  Each map is computed in one pass on first read.  The
    quotient side (``blocks``, ``quotient_inv``, ``qbar_id``, ``hom_to_q``)
    reads ``inv``, the ambient inventory, only for its cached blocks, and
    ``classes`` for the blocks' isomorphism classes, and works without either;
    the ambient side (``q_id``, ``bar_of``, ``lift_of``) needs ``inv``.
    """

    algebra: Algebra
    vertex: str                      # Q = P_vertex
    socle_vertex: str
    socle_element: dict              # algebra element spanning Soc(Q)
    quotient: Algebra                # ambient algebra modulo the socle span
    q_rep: Representation
    qbar_rep: Representation         # Q modulo its socle, over the quotient
    inv: Inventory | None = None
    classes: Inventory | None = None  # Inventory.inventory_of serves the blocks

    @property
    def q_is_simple(self) -> bool:
        return self.qbar_rep.is_zero()

    @cached_property
    def blocks(self) -> list[Block]:
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
            out.append(Block(build_inventory(algebra) if self.classes is None
                             else self.classes.inventory_of(algebra)))
        return out

    @cached_property
    def quotient_inv(self) -> BlockProduct:
        return BlockProduct([b.inv for b in self.blocks])

    def _bar_id(self, rep: Representation) -> int | None:
        """Quotient id of the image of ``rep``; None where the image is zero.

        The image is the sum of its images in the blocks, which vanish in
        the blocks that miss the support of ``rep``; it must meet one block.
        """
        found = None
        for offset, b in zip(self.quotient_inv.offsets, self.blocks):
            algebra = b.inv.algebra
            if not any(rep.dims[v] for v in algebra.vertices):
                continue
            image = bar(rep, algebra)
            if image.is_zero():
                continue
            if found is not None:
                raise NonSimpleSocle("bar image meets two blocks of the quotient")
            found = offset + _find(b.inv, image, NonSimpleSocle,
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
                for r in b.inv.candidates()}


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
    return ReductionContext(algebra, v, socle_vertex, soc_vec, quotient,
                            q_rep, bar(q_rep, quotient), inv, inv if classes is None else classes)


@dataclass
class ReductionSets:
    """Families over the quotient that mirror tau-tilt of the ambient algebra.

    keep: tau-tilting quotient modules without the top summand Q/Soc(Q); they
        lift unchanged.
    extend: support tau-tilting quotient modules containing Q/Soc(Q), with no
        maps to Q and one summand short of full size; Q gets adjoined.
    swap: tau-tilting quotient modules containing Q/Soc(Q) with maps to Q;
        Q/Soc(Q) is exchanged for Q.
    surgery: the support-level set (Q/Soc(Q) present, no maps to Q, any size)
        whose duplication rebuilds the ambient support Hasse quiver.
    """

    keep: list[frozenset]
    extend: list[frozenset]
    swap: list[frozenset]
    surgery: list[STPair]


def compute_nsets(ctx: ReductionContext) -> ReductionSets:
    """The quotient families in pair order, read from the blocks' pairs, not the product's.

    Hom, tau and Fac act blockwise: a tuple of the blocks' pairs is
    tau-tilting, or Hom-less to Q, when each part is, and it holds Q/Soc(Q)
    when its part in block k, the one of Q/Soc(Q), does.
    """
    qinv, qbar, hom_to_q = ctx.quotient_inv, ctx.qbar_id, ctx.hom_to_q
    k = -1 if qbar is None else sum(o <= qbar for o in qinv.offsets) - 1
    shifted = qinv.shifted()

    def tuples(tilting: bool, holds: bool) -> list[STPair]:
        """The tau-tilting (else Hom-less) tuples whose part in block k holds Q/Soc(Q) or not."""
        return sorted(qinv.merged([[(m, s) for m, s in parts
                                    if (not s if tilting else not any(hom_to_q[i] for i in m))
                                    and (j != k or (qbar in m) == holds)]
                                   for j, parts in enumerate(shifted)]), key=qinv.pair_sort_key)

    # simple Q (no block k): the zero module belongs to every additive closure
    surgery = tuples(False, k >= 0)
    nbar = len(ctx.quotient.vertices)
    return ReductionSets(
        [frozenset(p.modules) for p in tuples(True, False)],
        [frozenset(p.modules) for p in surgery if k >= 0 and len(p.modules) == nbar - 1],
        [frozenset(p.modules) for p in (tuples(True, True) if k >= 0 else [])
         if any(hom_to_q[i] for i in p.modules)],
        surgery)


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


def surgery(pq: PosetQuiver, members: list[int]) -> PosetQuiver:
    """Duplicate the subposet N = ``members`` inside the quiver, rewiring the arrow families.

    The copy of ``members[k]`` is vertex ``pq.n + k``.  Arrows within the
    complement and from N outward are kept; arrows within N are kept and
    copied; arrows from the complement into N are redirected to the copy; each
    copy points at its original.
    """
    bad = [v for v in members if not 0 <= v < pq.n]
    if bad:
        raise UnknownVertex(bad[0])
    copy = {v: pq.n + k for k, v in enumerate(members)}
    arrows = {(c, v) for v, c in copy.items()}
    for s, t in pq.arrows:
        if t in copy and s not in copy:
            arrows.add((s, copy[t]))
        else:
            arrows.add((s, t))
            if s in copy and t in copy:
                arrows.add((copy[s], copy[t]))
    return PosetQuiver(pq.n + len(copy), tuple(sorted(arrows)))


@dataclass
class Check:
    name: str
    statement: str
    passed: bool
    witness: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.witness}]" if (self.witness and not self.passed) else ""
        return f"[{tag}] {self.name}: {self.statement}{extra}"


@dataclass
class Report:
    algebra_name: str
    checks: list[Check] = dc_field(default_factory=list)

    def add(self, name: str, statement: str, passed: bool, witness: str = "") -> None:
        self.checks.append(Check(name, statement, bool(passed), witness))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _iso_along_map(src: PosetQuiver, dst: PosetQuiver, vmap: list[int | None],
                   src_label, dst_label) -> tuple[bool, str]:
    """Quiver isomorphism along the vertex map i -> vmap[i]; returns (ok, witness).

    ``None`` in ``vmap`` marks a vertex without an image.  The label functions
    are called only to write the witness of a failure.
    """
    if None in vmap:
        return False, f"no image for {src_label(vmap.index(None))}"
    if len(set(vmap)) != src.n or dst.n != src.n:
        return False, (f"vertex map is not a bijection "
                       f"({len(set(vmap))} images, {src.n} -> {dst.n} vertices)")
    src_edges = {(vmap[s], vmap[t]) for s, t in src.arrows}
    dst_edges = set(dst.arrows)
    for edges, verb in ((src_edges - dst_edges, "preserved"), (dst_edges - src_edges, "reflected")):
        if edges:
            s, t = min(edges)
            return False, f"arrow not {verb}: {dst_label(s)} -> {dst_label(t)}"
    return True, ""


@dataclass
class Reduction:
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
    insincere = [inv.pair_label(p) for p in tau_pairs if not is_sincere(inv.sum_rep(p.modules))]

    def src_label(k):
        return inv.pair_label(pairs[tau_idx[k]])

    for v, found in pis.items():
        tag = f"Q=P_{v}"
        ctx = socle_quotient(algebra, v, inv, found)
        report.add(f"{tag}/socle-simple", "Soc(Q) is one dimensional", True)
        report.add(f"{tag}/socle-two-sided",
                   "the socle span is a two-sided ideal (arrow products vanish)", True)

        qinv = ctx.quotient_inv
        qpairs = qinv.pairs
        QH = qinv.hasse_quiver
        # a support tau-tilting pair is determined by its module part (AIR, Sec. 2)
        q_index = {frozenset(p.modules): j for j, p in enumerate(qpairs)}
        q_tt_sets = {frozenset(p.modules) for p in qpairs if p.is_tau_tilting}
        nsets = compute_nsets(ctx)
        q = ctx.q_id
        bar_of, lift_of = ctx.bar_of, ctx.lift_of
        bars = [frozenset(bar_of[i] for i in p.modules) - {None} for p in pairs]

        bad = [r.name for r in inv.candidates()
               if r.id != q and (bar_of[r.id] is None or lift_of[bar_of[r.id]] != r.id)]
        report.add(f"{tag}/bar-fixes-non-q",
                   "the socle quotient functor fixes every non-Q indecomposable",
                   not bad, f"moved: {bad[:3]}")

        def iso_onto(targets):
            """Is the tau-tilt quiver the full subquiver of QH on ``targets``, along bar?"""
            dst_pos = {j: k for k, j in enumerate(targets)}
            vmap = [dst_pos.get(q_index.get(bars[i])) for i in tau_idx]
            return _iso_along_map(src, full_subquiver(QH, targets), vmap, src_label,
                                  lambda k: qinv.pair_label(qpairs[targets[k]]))

        if ctx.q_is_simple:
            all_have_q = all(q in p.modules for p in tau_pairs)
            ok, wit = ((False, "a tau-tilting module misses Q") if not all_have_q
                       else iso_onto([j for j, p in enumerate(qpairs) if p.is_tau_tilting]))
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

            images: dict[frozenset, int] = {}
            collision = None
            for i in tau_idx:
                if bars[i] in images:
                    collision = (i, images[bars[i]])
                images[bars[i]] = i
            n_keep = set(nsets.keep)
            n_extend = set(nsets.extend)
            ok = (collision is None and {bars[i] for i in m1} == n_keep
                  and {bars[i] for i in m2} == n_extend
                  and {bars[i] for i in m3} == set(nsets.swap))
            wit = "" if ok else (
                "family image mismatch" if collision is None else
                f"collision {inv.pair_label(pairs[collision[0]])} / "
                f"{inv.pair_label(pairs[collision[1]])}")
            report.add(f"{tag}/split-bijections",
                       "the three tau-tilt families biject onto keep / extend / swap", ok, wit)

            ok, wit = iso_onto([j for j, p in enumerate(qpairs)
                                if p.is_tau_tilting or frozenset(p.modules) in n_extend])
            report.add(f"{tag}/tau-tilt-bijection",
                       "the tau-tilt quiver matches the quotient-side quiver, arrows both ways",
                       ok, wit)

            if ctx.qbar_rep.dims.get(ctx.socle_vertex, 0) > 0:
                report.add(f"{tag}/socle-factor-forces-empty",
                           "Q/Soc(Q) has the socle as composition factor, so the "
                           "boundary family is empty",
                           not nsets.extend, f"extend has {len(nsets.extend)} members")

            report.add(f"{tag}/no-tau-tilt-qbar-homless",
                       "no tau-tilting quotient module keeps the top summand yet "
                       "kills all maps to Q",
                       not any(qbar in mods and not any(ctx.hom_to_q[i] for i in mods)
                               for mods in q_tt_sets))

            keep_ok = all(frozenset(lift_of[i] for i in mods) in tt_sets
                          for mods in nsets.keep) and all(bars[i] in n_keep for i in m1)
            report.add(f"{tag}/keep-cross-enumeration",
                       "modules without the top summand are tau-tilting over both algebras",
                       keep_ok)

            swap_ok = all(bars[i] in q_tt_sets and any(ctx.hom_to_q[j] for j in bars[i])
                          for i in m3)
            swap_ok = swap_ok and all(
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

        members = [q_index[frozenset(p.modules)] for p in nsets.surgery]
        W = surgery(QH, members)
        copy = {j: QH.n + k for k, j in enumerate(members)}
        vmap = []
        for i, p in enumerate(pairs):
            j = q_index.get(bars[i])
            vmap.append(copy[j] if j in copy and q in p.modules else j)

        def surgery_label(k):
            if k < QH.n:
                return qinv.pair_label(qpairs[k])
            return f"copy of {qinv.pair_label(nsets.surgery[k - QH.n])}"

        ok, wit = _iso_along_map(H, W, vmap, lambda i: inv.pair_label(pairs[i]), surgery_label)
        report.add(f"{tag}/surgery-isomorphism",
                   "the support Hasse quiver is the subposet surgery of the quotient's",
                   ok, wit)
        yield Reduction(ctx, nsets, recon)
