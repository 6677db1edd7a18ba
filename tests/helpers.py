"""Small queries that only the tests ask of the library, and the reference routes it replaced."""

from collections import Counter
from itertools import combinations, groupby
from math import prod

from taured.algebra import Arrow, Quiver, Relation, build_algebra
from taured.errors import AlgebraMismatch, UnknownVertex
from taured.linalg import QQ, Matrix, rank_and_rowbasis
from taured.reduction import (
    ReductionSets,
    Report,
    compute_nsets,
    find_proj_injectives,
    reconstruct_tau_tilt,
    socle_quotient,
)
from taured.reps import (
    Representation,
    _images_fill,
    bar,
    direct_sum,
    hom_basis,
    inflate,
    is_sincere,
)
from taured.tilting import PosetQuiver, STPair, build_inventory, compatible, full_subquiver


def hom_dim(M, N) -> int:
    return len(hom_basis(M, N))


def same_rowspace(a: Matrix, b: Matrix) -> bool:
    if a.cols != b.cols:
        return False
    ra = a.rank()
    if ra != b.rank():
        return False
    return Matrix.stack([a, b], a.cols, a.field).rank() == ra


def solve_right(a: Matrix, b: Matrix) -> Matrix | None:
    """Some X with a @ X = b, or None if the system is inconsistent."""
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    field = a.field
    aug = Matrix(
        a.rows,
        a.cols + b.cols,
        [ra[:] + rb[:] for ra, rb in zip(a.data, b.data)],
        field,
    )
    r, pivots = aug.rref()
    for c in pivots:
        if c >= a.cols:
            return None
    x = Matrix.zeros(a.cols, b.cols, field)
    for i, pc in enumerate(pivots):
        for j in range(b.cols):
            x.data[pc][j] = r.data[i][a.cols + j]
    return x


def slice_matrix(alg, ends: tuple[str, str], vecs: list[dict]) -> Matrix:
    """The vectors of one Peirce block e_u A e_w as rows, on the columns ``alg.basis_by_ends(u, w)``."""
    cols = alg.basis_by_ends(*ends)
    return Matrix.from_rows([[v.get(c, alg.field.zero) for c in cols] for v in vecs],
                            len(cols), alg.field)


def reference_ideal_slices(alg, gens) -> dict[tuple[str, str], Matrix]:
    """The row-reduced products p g q in each Peirce block (u, w) that the two-sided
    ideal generated by ``gens`` meets, as a :func:`slice_matrix`; p and q are basis
    elements and g a Peirce slice of a generator.

    The reference for the ``ideal_slices`` of
    :func:`taured.algebra.quotient_by_elements`, which reduces the products once
    with the rest of the basis and reads each block's basis off the normal forms.
    """
    one, basis = alg.field.one, alg.basis
    products: dict[tuple[str, str], list[dict]] = {}
    for g in gens:
        slices: dict[tuple[str, str], dict] = {}
        for i, c in g.items():
            slices.setdefault((basis[i].src, basis[i].tgt), {})[i] = c
        for (u, w), sv in slices.items():
            for p in (i for i, b in enumerate(basis) if b.tgt == u):
                left = alg.multiply({p: one}, sv)
                for q in (i for i, b in enumerate(basis) if b.src == w):
                    if prod := alg.multiply(left, {q: one}):
                        products.setdefault((basis[p].src, basis[q].tgt), []).append(prod)
    return {ends: rank_and_rowbasis(slice_matrix(alg, ends, vecs))[1]
            for ends, vecs in products.items()}


def reference_projective(algebra, v: str) -> Representation:
    """P_v: basis at w = residue paths v -> w; arrows act by right concatenation.

    The reference for :func:`taured.reps.projective` and ``ProjSum``, which
    fill every summand's arrow blocks in one builder.
    """
    if v not in algebra.vertices:
        raise UnknownVertex(v)
    rows_at = {w: algebra.basis_by_ends(v, w) for w in algebra.vertices}
    dims = {w: len(rows_at[w]) for w in algebra.vertices}
    field = algebra.field
    maps = {}
    for a in algebra.arrows:
        m = Matrix.zeros(dims[a.src], dims[a.tgt], field)
        col_pos = {b: k for k, b in enumerate(rows_at[a.tgt])}
        ar = algebra.element_of_arrow(a.name)
        for r, bidx in enumerate(rows_at[a.src]):
            prod = algebra.multiply({bidx: field.one}, ar)
            for k, c in prod.items():
                m.data[r][col_pos[k]] = c
        maps[a.name] = m
    return Representation(algebra, dims, maps)


def reference_injective(algebra, v: str) -> Representation:
    """I_v: basis at w = residue paths w -> v; arrows act by dualized left concatenation.

    The reference for :func:`taured.reps.injective` and ``InjSum``, which
    compute one product per column where this computes one per entry.
    """
    if v not in algebra.vertices:
        raise UnknownVertex(v)
    rows_at = {w: algebra.basis_by_ends(w, v) for w in algebra.vertices}
    dims = {w: len(rows_at[w]) for w in algebra.vertices}
    field = algebra.field
    maps = {}
    for a in algebra.arrows:
        m = Matrix.zeros(dims[a.src], dims[a.tgt], field)
        col_pos = {b: k for k, b in enumerate(rows_at[a.tgt])}
        ar = algebra.element_of_arrow(a.name)
        # (q^* . a)(x) = q^*(a x): entry at (q, x) is the q-coefficient of a.x
        for r, q in enumerate(rows_at[a.src]):
            for x in rows_at[a.tgt]:
                prod = algebra.multiply(ar, {x: field.one})
                c = prod.get(q)
                if c:
                    m.data[r][col_pos[x]] = c
        maps[a.name] = m
    return Representation(algebra, dims, maps)


def record_by_name(inv, name: str):
    for r in inv.records:
        if r.name == name:
            return r
    raise KeyError(name)


def direct_quotient_inventory(ctx):
    """The inventory of a reduction's whole socle quotient, built directly rather than by blocks."""
    return build_inventory(ctx.quotient)


def reference_nsets(ctx) -> tuple[ReductionSets, list]:
    """The quotient families read pair by pair from the product's pairs, in their order,
    and the surgery family N as pairs.

    The reference for :func:`taured.reduction.compute_nsets`, which reads
    the codes that the blocks' flags mark instead, and for N there,
    ``ctx.members[False, True]``.
    """
    nbar = len(ctx.quotient.vertices)
    qbar = ctx.qbar_id
    hom_to_q = ctx.hom_to_q
    keep, extend, swap, surgery = [], [], [], []
    for p in product_pairs(ctx.quotient_inv):
        mods = frozenset(p.modules)
        has_qbar = qbar is not None and qbar in mods
        homless = not any(hom_to_q[i] for i in mods)
        if p.is_tau_tilting:
            if not has_qbar:
                keep.append(mods)
            elif not homless:
                swap.append(mods)
        if qbar is None:
            # simple Q: the zero module belongs to every additive closure
            if homless:
                surgery.append(p)
        elif has_qbar and homless:
            surgery.append(p)
            if len(mods) == nbar - 1:
                extend.append(mods)
    return ReductionSets(keep, extend, swap), surgery


def reference_hom_to_q(ctx) -> dict[int, int]:
    """dim Hom(X, Q) over the ambient algebra, from a Hom basis for each inflated quotient candidate X.

    The reference for :attr:`taured.reduction.ReductionContext.hom_to_q`,
    which reads the dimension at the socle vertex instead.
    """
    return {r.id: len(hom_basis(inflate(r.rep), ctx.q_rep)) for r in ctx.quotient_inv.candidates()}


def sum_rep(inv, ids):
    """The direct sum of the inventory's records ``ids``, in ascending id order."""
    return direct_sum([inv.records[i].rep for i in sorted(ids)], inv.algebra)


def tau_tilting_pairs(inv) -> list:
    return [p for p in inv.pairs if p.is_tau_tilting]


def reference_stpairs(inv) -> list:
    """Every pairwise compatible set of n tau-rigid candidates and vertices, sorted by
    :meth:`pair_sort_key`, as :func:`itertools.combinations` lists them: k modules, then
    n - k of the vertices compatible with all k, for each k."""
    vertices = sorted(inv.algebra.vertices)
    rigid = [r for r in inv.candidates() if compatible(inv, r, r)]
    n = len(vertices)
    clash = {(x.id, y.id) for x, y in combinations(rigid, 2) if not compatible(inv, x, y)}
    pairs = []
    for k in range(n + 1):
        for mods in combinations([r.id for r in rigid], k):
            if clash.isdisjoint(combinations(mods, 2)):
                free = [v for v in vertices
                        if all(compatible(inv, inv.records[i], v) for i in mods)]
                pairs += [STPair(tuple(sorted(mods)), sups) for sups in combinations(free, n - k)]
    return sorted(pairs, key=inv.pair_sort_key)


def monomial_basis(quiver, relations) -> set:
    """The paths with no relation as a subword, as (word, src, tgt): the basis of a
    finite dimensional monomial algebra.

    The reference for :func:`taured.algebra.build_algebra` on monomial
    relations, which reduces modulo the generator products instead.  Paths grow
    one arrow at a time, and a branch stops at the first relation it ends in.
    """
    if any(len(r.terms) != 1 for r in relations):
        raise ValueError("monomial relations only")
    zero = [r.terms[0][1] for r in relations]
    basis = set()
    stack = [((), v, v) for v in quiver.vertices]
    while stack:
        word, src, tgt = stack.pop()
        if any(word[-len(z):] == z for z in zero):
            continue
        basis.add((word, src, tgt))
        stack.extend((word + (a.name,), src, a.tgt) for a in quiver.arrows if a.src == tgt)
    return basis


def reference_strings(alg) -> list[tuple[tuple[tuple[str, bool], ...], str]]:
    """Every string of ``alg`` as ``(letters, base)`` with letters ``(arrow, inverse)``,
    in the order of :func:`taured.strings.enumerate_strings`.

    The reference for that enumeration, sharing none of its code.  Walks grow
    one letter at a time, and each is checked from scratch: no letter undoes
    the one before it, and every maximal direct or inverse run is a nonzero
    path (an inverse run read backwards).  A walk is named by the lesser of
    itself and its inverse under the key ``(length, [(arrow, inverse), ...],
    base)``, and the names are sorted by that key.
    """
    ends = {}
    for a in alg.arrows:
        ends[a.name, False] = (a.src, a.tgt)
        ends[a.name, True] = (a.tgt, a.src)

    def is_string(letters):
        if any(x[0] == y[0] and x[1] != y[1] for x, y in zip(letters, letters[1:])):
            return False
        runs = [[a for a, _ in run][::-1 if inverse else 1]
                for inverse, run in groupby(letters, key=lambda l: l[1])]
        return all(alg.path(run) for run in runs)

    keys = set()
    level = [((), v, v) for v in alg.vertices]  # (letters, start, end)
    while level:
        assert len(level[0][0]) <= 2 * alg.dim, "a string longer than twice the dimension"
        for letters, start, end in level:
            inverse = tuple((a, not inv) for a, inv in reversed(letters))
            keys.add(min((len(letters), letters, start), (len(letters), inverse, end)))
        level = [(letters + (l,), start, ends[l][1]) for letters, start, end in level
                 for l in ends if ends[l][0] == end and is_string(letters + (l,))]
    return [(letters, base) for _, letters, base in sorted(keys)]


def cyclic_nakayama(n, length, field=QQ):
    """Cyclic quiver on 0..n-1 with every path of the given length zero."""
    verts = tuple(str(i) for i in range(n))
    arrows = tuple(Arrow(f"c{i}", str(i), str((i + 1) % n)) for i in range(n))
    rels = [Relation.monomial(tuple(f"c{(i + k) % n}" for k in range(length)))
            for i in range(n)]
    return build_algebra(Quiver(verts, arrows), rels, field=field)


def string_hom_dim(alg, C, D) -> int:
    """dim Hom(M(C), M(D)) for strings C and D, by Crawley-Boevey's count.

    The reference for ``len(hom_basis(...))`` on string modules (Crawley-Boevey,
    *Maps between representations of zero-relation algebras*, J. Algebra 126,
    1989): a basis is indexed by the pairs (factor string of C, substring of
    D) that are equal up to inversion.  A direct letter maps walk position k to
    k + 1.  So a substring, which spans a submodule, has a direct letter or
    nothing on its left and an inverse letter or nothing on its right; a
    factor string has the reverse.  Pieces are occurrences, counted by
    position, and a piece is named by the lesser of itself and its inverse.
    """
    tgt = {a.name: a.tgt for a in alg.arrows}
    src = {a.name: a.src for a in alg.arrows}

    def pieces(w, factor: bool) -> Counter:
        letters = [(l.arrow, l.inverse) for l in w.letters]
        verts = [w.base_vertex] + [src[a] if inv else tgt[a] for a, inv in letters]
        n = len(letters)
        found = Counter()
        for i in range(n + 1):
            for j in range(i, n + 1):
                if (i == 0 or letters[i - 1][1] == factor) and (j == n or letters[j][1] != factor):
                    piece = (tuple(letters[i:j]), verts[i])
                    inverse = (tuple((a, not inv) for a, inv in reversed(letters[i:j])), verts[j])
                    found[min(piece, inverse)] += 1
        return found

    subs = pieces(D, factor=False)
    return sum(k * subs[piece] for piece, k in pieces(C, factor=True).items())


def in_fac(N, M) -> bool:
    """Is N a factor of a finite direct sum of copies of M?

    Decided exactly: the joint image of a Hom(M, N) basis must fill N at
    every vertex.
    """
    if N.algebra is not M.algebra:
        raise AlgebraMismatch("Fac test across different algebras")
    if N.is_zero():
        return True
    return _images_fill(N, hom_basis(M, N))


def order_ge(inv, p1, p2) -> bool:
    """Fac(M1) contains Fac(M2), tested summand by summand."""
    src = frozenset(p1.modules)
    return all(inv.fac_contains(j, src) for j in p2.modules)


def satisfies_table_by_all_pairs(rep) -> bool:
    """Reference module check over a table algebra: act(b) act(c) = act(b c)
    for every pair of composable basis elements b, c."""
    alg = rep.algebra
    act = [rep.element_action({i: alg.field.one}, b.src, b.tgt) for i, b in enumerate(alg.basis)]
    for i, bi in enumerate(alg.basis):
        for j, bj in enumerate(alg.basis):
            if bi.tgt != bj.src:
                continue
            rhs = Matrix.zeros(rep.dims[bi.src], rep.dims[bj.tgt], alg.field)
            for k, c in alg.mult.get((i, j), {}).items():
                rhs = rhs + act[k].scale(c)
            if not (act[i] @ act[j] - rhs).is_zero():
                return False
    return True


def product_pairs(qinv) -> list:
    """Every support tau-tilting pair of a :class:`taured.tilting.BlockProduct`, in pair order."""
    return qinv.listed([True] * qinv.total)


def product_hasse_quiver(qinv) -> PosetQuiver:
    """The box product of the blocks' certified quivers; vertex i is ``product_pairs(qinv)[i]``."""
    position = {p: i for i, p in enumerate(product_pairs(qinv))}
    return box_product([b.hasse_quiver for b in qinv.blocks],
                       [position[qinv.pair(c)] for c in range(qinv.total)])


def box_product(quivers: list, rank) -> PosetQuiver:
    """The covering quiver of the product of the orders the quivers cover.

    An arrow moves one coordinate along an arrow of its factor, the others
    fixed.  Vertex (j_1, ..., j_k) is ``rank[c]``, where c is its index in the
    order :func:`itertools.product` lists the tuples (the last coordinate
    fastest).
    """
    n = prod(q.n for q in quivers)
    arrows = []
    low = n
    for q in quivers:
        low //= q.n  # the number of tuples of the later coordinates
        for base in range(0, n, q.n * low):
            for s, t in q.arrows:
                s0, t0 = base + s * low, base + t * low
                arrows.extend([(rank[s0 + k], rank[t0 + k]) for k in range(low)])
    arrows.sort()
    return PosetQuiver(n, tuple(arrows))


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


def iso_along_map(src: PosetQuiver, dst: PosetQuiver, vmap: list, src_label,
                  dst_label) -> tuple[bool, str]:
    """Quiver isomorphism along the vertex map i -> vmap[i], both quivers built; (ok, witness)."""
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


def reference_reductions(algebra, name: str, inv) -> Report:
    """The reduction checks of :func:`taured.reduction.reductions` on built quivers.

    The quotient's pairs are the product's, decoded and sorted, its Hasse
    quiver is their :func:`box_product`, and the ambient quiver is compared
    with :func:`surgery` of it at the surgery family of :func:`reference_nsets`;
    the families are compared as sets of frozensets of the product's record ids.
    """
    report = Report(name)
    pairs = inv.pairs
    H = inv.hasse_quiver
    tau_idx = [i for i, p in enumerate(pairs) if p.is_tau_tilting]
    tau_pairs = [pairs[i] for i in tau_idx]
    tt_sets = {frozenset(p.modules) for p in tau_pairs}
    src = full_subquiver(H, tau_idx)
    insincere = [inv.pair_label(p) for p in tau_pairs if not is_sincere(sum_rep(inv, p.modules))]

    def src_label(k):
        return inv.pair_label(pairs[tau_idx[k]])

    for v, found in find_proj_injectives(algebra).items():
        tag = f"Q=P_{v}"
        ctx = socle_quotient(algebra, v, inv, found)
        report.add(f"{tag}/socle-simple", "Soc(Q) is one dimensional", True)
        report.add(f"{tag}/socle-two-sided",
                   "the socle span is a two-sided ideal (arrow products vanish)", True)
        qbar_rep = bar(ctx.q_rep, ctx.quotient)  # Q/Soc(Q), built rather than read off Q
        qinv = ctx.quotient_inv
        qpairs = product_pairs(qinv)
        QH = product_hasse_quiver(qinv)
        q_index = {frozenset(p.modules): j for j, p in enumerate(qpairs)}
        q_tt_sets = {frozenset(p.modules) for p in qpairs if p.is_tau_tilting}
        nsets = compute_nsets(ctx)
        _, n_pairs = reference_nsets(ctx)
        q = ctx.q_id
        bar_of, lift_of = ctx.bar_of, ctx.lift_of
        bars = [frozenset(bar_of[i] for i in p.modules) - {None} for p in pairs]

        bad = [r.name for r in inv.candidates()
               if r.id != q and (bar_of[r.id] is None or lift_of[bar_of[r.id]] != r.id)]
        report.add(f"{tag}/bar-fixes-non-q",
                   "the socle quotient functor fixes every non-Q indecomposable",
                   not bad, f"moved: {bad[:3]}")

        def iso_onto(targets):
            dst_pos = {j: k for k, j in enumerate(targets)}
            vmap = [dst_pos.get(q_index.get(bars[i])) for i in tau_idx]
            return iso_along_map(src, full_subquiver(QH, targets), vmap, src_label,
                                 lambda k: qinv.pair_label(qpairs[targets[k]]))

        if qbar_rep.is_zero():
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
            images, collision = {}, None
            for i in tau_idx:
                if bars[i] in images:
                    collision = (i, images[bars[i]])
                images[bars[i]] = i
            n_keep, n_extend = set(nsets.keep), set(nsets.extend)
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
            if qbar_rep.dims[ctx.socle_vertex] > 0:
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

        members = [q_index[frozenset(p.modules)] for p in n_pairs]
        W = surgery(QH, members)
        copy = {j: QH.n + k for k, j in enumerate(members)}
        vmap = []
        for i, p in enumerate(pairs):
            j = q_index.get(bars[i])
            vmap.append(copy[j] if j in copy and q in p.modules else j)

        def surgery_label(k):
            if k < QH.n:
                return qinv.pair_label(qpairs[k])
            return f"copy of {qinv.pair_label(n_pairs[k - QH.n])}"

        ok, wit = iso_along_map(H, W, vmap, lambda i: inv.pair_label(pairs[i]), surgery_label)
        report.add(f"{tag}/surgery-isomorphism",
                   "the support Hasse quiver is the subposet surgery of the quotient's",
                   ok, wit)
    return report
