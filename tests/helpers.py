"""Small queries that only the tests ask of the library."""

from taured.errors import AlgebraMismatch
from taured.linalg import Matrix
from taured.reduction import ReductionSets
from taured.reps import _images_fill, hom_basis, inflate
from taured.tilting import build_inventory


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


def record_by_name(inv, name: str):
    for r in inv.records:
        if r.name == name:
            return r
    raise KeyError(name)


def direct_quotient_inventory(ctx):
    """The inventory of a reduction's whole socle quotient, built directly rather than by blocks."""
    return build_inventory(ctx.quotient)


def reference_nsets(ctx) -> ReductionSets:
    """The quotient families read pair by pair from the product's pairs, in their order.

    The reference for :func:`taured.reduction.compute_nsets`, which reads
    the blocks' pairs instead.
    """
    nbar = len(ctx.quotient.vertices)
    qbar = ctx.qbar_id
    hom_to_q = ctx.hom_to_q
    keep, extend, swap, surgery = [], [], [], []
    for p in ctx.quotient_inv.pairs:
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
    return ReductionSets(keep, extend, swap, surgery)


def reference_hom_to_q(ctx) -> dict[int, int]:
    """dim Hom(X, Q) over the ambient algebra, from a Hom basis for each inflated quotient candidate X.

    The reference for :attr:`taured.reduction.ReductionContext.hom_to_q`,
    which reads the dimension at the socle vertex instead.
    """
    return {r.id: len(hom_basis(inflate(r.rep), ctx.q_rep)) for r in ctx.quotient_inv.candidates()}


def tau_tilting_pairs(inv) -> list:
    return [p for p in inv.pairs if p.is_tau_tilting]


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
