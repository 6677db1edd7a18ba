"""Right modules over a bound quiver algebra.

A representation assigns a vector space to each vertex and a matrix to each
arrow.  Vectors are rows and act on the left, so a path ``a b`` acts by
``M_a @ M_b``.  The translate ``tau`` is computed as the kernel of the
Nakayama image of a minimal projective presentation:

    0 -> tau M -> nu P1 -> nu P0   (exact),

which keeps the whole computation inside right modules.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Algebra, Vec
from .errors import AlgebraMismatch, QuotientMismatch, UnknownVertex, ZeroModule
from .linalg import Matrix, is_invertible, modulo, nullspace, rank_and_rowbasis


class Representation:
    """A right module: per-vertex spaces plus arrow-indexed matrices."""

    __slots__ = ("algebra", "dims", "maps")

    def __init__(self, algebra: Algebra, dims: dict[str, int], maps: dict[str, Matrix]):
        self.algebra = algebra
        self.dims = {v: int(dims.get(v, 0)) for v in algebra.vertices}
        self.maps = {}
        field = algebra.field
        for a in algebra.arrows:
            m = maps.get(a.name)
            if m is None:
                m = Matrix.zeros(self.dims[a.src], self.dims[a.tgt], field)
            if (m.rows, m.cols) != (self.dims[a.src], self.dims[a.tgt]):
                raise ValueError(f"map for arrow {a.name} has wrong shape")
            self.maps[a.name] = m

    @property
    def dim_vector(self) -> tuple[int, ...]:
        return tuple(self.dims[v] for v in self.algebra.vertices)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def word_action(self, word) -> Matrix:
        """Matrix of a path acting on this module (empty word not allowed)."""
        m = self.maps[word[0]]
        for name in word[1:]:
            m = m @ self.maps[name]
        return m

    def element_action(self, vec: Vec, src: str, tgt: str) -> Matrix:
        """Action of an algebra element supported in e_src . A . e_tgt."""
        field = self.algebra.field
        out = Matrix.zeros(self.dims[src], self.dims[tgt], field)
        for i, c in vec.items():
            b = self.algebra.basis[i]
            if b.src != src or b.tgt != tgt:
                raise ValueError("element does not lie in the requested slice")
            if b.is_idempotent:
                out = out + Matrix.identity(self.dims[src], field).scale(c)
            else:
                out = out + self.word_action(b.word).scale(c)
        return out

    def assert_valid(self) -> None:
        """Check the defining equations of the algebra on this assignment.

        A presented algebra is checked on its relations.  For a table algebra
        act(b) M_a = act(b a) is tested for basis elements b and arrows a
        only.  That is the module axiom act(b) act(c) = act(b c) for all
        basis b, c: the e_v are units, and for c = a1 ... am,
        act(b) M_a1 ... M_am = act(((b a1) ...) am) = act(b c), since the
        table is associative and c is the product of its arrows (both
        checked by ``algebra._check_associativity``).
        """
        alg = self.algebra
        if alg.relations is not None:
            for r in alg.relations:
                first = r.terms[0][1]
                src = alg.quiver.arrow(first[0]).src
                tgt = alg.quiver.arrow(first[-1]).tgt
                acc = Matrix.zeros(self.dims[src], self.dims[tgt], alg.field)
                for coeff, word in r.terms:
                    acc = acc + self.word_action(word).scale(alg.field.from_fraction(coeff))
                if not acc.is_zero():
                    raise ValueError("representation violates a relation")
        else:
            act = [self.element_action({i: alg.field.one}, b.src, b.tgt)
                   for i, b in enumerate(alg.basis)]
            for a in alg.arrows:
                g = alg.arrow_idx[a.name]
                for i, b in enumerate(alg.basis):
                    if b.tgt != a.src:
                        continue
                    rhs = Matrix.zeros(self.dims[b.src], self.dims[a.tgt], alg.field)
                    for k, c in alg.mult.get((i, g), {}).items():
                        rhs = rhs + act[k].scale(c)
                    if not (act[i] @ self.maps[a.name] - rhs).is_zero():
                        raise ValueError("representation violates the multiplication table")

    def __repr__(self):
        return f"Rep{self.dim_vector}"


class Morphism:
    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: Representation, target: Representation,
                 blocks: dict[str, Matrix]):
        self.source = source
        self.target = target
        self.blocks = blocks

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())

    def compose(self, other: "Morphism") -> "Morphism":
        """self followed by other (source of other = target of self)."""
        blocks = {v: self.blocks[v] @ other.blocks[v] for v in self.blocks}
        return Morphism(self.source, other.target, blocks)

    def verify(self) -> bool:
        M, N = self.source, self.target
        for a in M.algebra.arrows:
            lhs = M.maps[a.name] @ self.blocks[a.tgt]
            rhs = self.blocks[a.src] @ N.maps[a.name]
            if not (lhs - rhs).is_zero():
                return False
        return True


def zero_rep(algebra: Algebra) -> Representation:
    return Representation(algebra, {}, {})


def simple(algebra: Algebra, v: str) -> Representation:
    if v not in algebra.vertices:
        raise UnknownVertex(v)
    return Representation(algebra, {v: 1}, {})


def projective(algebra: Algebra, v: str) -> Representation:
    """P_v: basis at w = residue paths v -> w; arrows act by right concatenation."""
    if v not in algebra.vertices:
        raise UnknownVertex(v)
    return ProjSum(algebra, [v]).rep


def injective(algebra: Algebra, v: str) -> Representation:
    """I_v: basis at w = residue paths w -> v; arrows act by dualized left concatenation."""
    if v not in algebra.vertices:
        raise UnknownVertex(v)
    return InjSum(algebra, [v]).rep


def direct_sum(parts: list[Representation], algebra: Algebra | None = None) -> Representation:
    if not parts:
        if algebra is None:
            raise ValueError("empty direct sum needs an explicit algebra")
        return zero_rep(algebra)
    alg = parts[0].algebra
    for p in parts:
        if p.algebra is not alg:
            raise AlgebraMismatch("direct sum across different algebras")
    dims = {v: sum(p.dims[v] for p in parts) for v in alg.vertices}
    field = alg.field
    maps = {}
    for a in alg.arrows:
        m = Matrix.zeros(dims[a.src], dims[a.tgt], field)
        ro = co = 0
        for p in parts:
            blk = p.maps[a.name]
            for i in range(blk.rows):
                for j in range(blk.cols):
                    m.data[ro + i][co + j] = blk.data[i][j]
            ro += p.dims[a.src]
            co += p.dims[a.tgt]
        maps[a.name] = m
    return Representation(alg, dims, maps)


def hom_basis(M: Representation, N: Representation) -> list[Morphism]:
    """A basis of the space of intertwiners M -> N."""
    if M.algebra is not N.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    alg = M.algebra
    field = alg.field
    offsets = {}
    total = 0
    for v in alg.vertices:
        offsets[v] = total
        total += M.dims[v] * N.dims[v]
    if total == 0:
        return []
    rows = []
    for a in alg.arrows:
        s, t = a.src, a.tgt
        Ma, Na = M.maps[a.name], N.maps[a.name]
        for i in range(M.dims[s]):
            for j in range(N.dims[t]):
                row = [field.zero] * total
                # (M_a F_t)[i][j] = sum_k M_a[i][k] F_t[k][j]
                for k in range(M.dims[t]):
                    c = Ma.data[i][k]
                    if c:
                        row[offsets[t] + k * N.dims[t] + j] = row[offsets[t] + k * N.dims[t] + j] + c
                # (F_s N_a)[i][j] = sum_l F_s[i][l] N_a[l][j]
                for l in range(N.dims[s]):
                    c = Na.data[l][j]
                    if c:
                        pos = offsets[s] + i * N.dims[s] + l
                        row[pos] = row[pos] - c
                rows.append(row)
    if rows:
        sols = nullspace(Matrix.from_rows(rows, total, field))
    else:
        sols = Matrix.identity(total, field)
    out = []
    for srow in sols.data:
        blocks = {}
        for v in alg.vertices:
            m = Matrix.zeros(M.dims[v], N.dims[v], field)
            for i in range(M.dims[v]):
                for j in range(N.dims[v]):
                    m.data[i][j] = srow[offsets[v] + i * N.dims[v] + j]
            blocks[v] = m
        out.append(Morphism(M, N, blocks))
    return out


def is_iso(M: Representation, N: Representation) -> bool:
    """Isomorphism test for M and N when M or N is indecomposable.

    Both answers are certified by Fitting's lemma.  Say M is indecomposable,
    so End(M) is local, and let (f_i) be a basis of Hom(M, N).  If
    phi = sum a_i f_i is an isomorphism with inverse sum b_j g_j, then
    id_M = sum a_i b_j g_j f_i; the non-units of a local ring form an ideal,
    so some g_j f_i is a unit.  Then f_i is injective, and equal dimensions
    make it an isomorphism.  So M and N are isomorphic iff some basis map is,
    over any field (likewise when N is indecomposable).  A True answer always
    carries a checked invertible witness: when M and N have equal structure
    maps it is the identity, for decomposable modules too, and no Hom basis
    is built.  For two decomposable modules a False is not a proof.
    """
    if M.algebra is not N.algebra:
        raise AlgebraMismatch("iso test across different algebras")
    if M.dim_vector != N.dim_vector:
        return False
    if M.total_dim == 0 or M.maps == N.maps:
        return True
    return any(_is_iso_map(f) for f in hom_basis(M, N))


def _is_iso_map(f: Morphism) -> bool:
    """Is f an isomorphism?  Every vertex block invertible and f intertwines."""
    return all(is_invertible(m) for m in f.blocks.values()) and f.verify()


def top_lifts(M: Representation) -> list[tuple[str, int]]:
    """Unit vectors of M whose classes form a basis of M / M.rad, as (vertex, coordinate).

    At each vertex they are the free columns of the stacked arrow images.
    """
    alg = M.algebra
    out = []
    for v in alg.vertices:
        if M.dims[v]:
            rad = Matrix.stack([M.maps[a.name] for a in alg.arrows if a.tgt == v], M.dims[v], alg.field)
            out.extend((v, c) for c in modulo(rad)[0])
    return out


class _SlotSum:
    """Direct sum of P_v or I_v over a vertex list, with per-slot path bookkeeping.

    A subclass gives ``_paths(v, w)``, the basis paths of the summand at ``v``
    that sit at vertex ``w``, and ``_entries``, the nonzero entries of an
    arrow's block in one summand.
    """

    def __init__(self, algebra: Algebra, vertices: list[str]):
        self.algebra = algebra
        self.vertices = list(vertices)
        self.slot_paths = {}  # (slot, vertex) -> list of basis indices
        self.offsets = {}     # (slot, vertex) -> coordinate offset at vertex
        dims = {v: 0 for v in algebra.vertices}
        for s, sv in enumerate(self.vertices):
            for w in algebra.vertices:
                self.slot_paths[(s, w)] = self._paths(sv, w)
                self.offsets[(s, w)] = dims[w]
                dims[w] += len(self.slot_paths[(s, w)])
        maps = {}
        for a in algebra.arrows:
            m = Matrix.zeros(dims[a.src], dims[a.tgt], algebra.field)
            ar = algebra.element_of_arrow(a.name)
            for s in range(len(self.vertices)):
                ro, co = self.offsets[(s, a.src)], self.offsets[(s, a.tgt)]
                for r, k, c in self._entries(ar, self.slot_paths[(s, a.src)],
                                             self.slot_paths[(s, a.tgt)]):
                    m.data[ro + r][co + k] = c
            maps[a.name] = m
        self.rep = Representation(algebra, dims, maps)


class ProjSum(_SlotSum):
    """Direct sum of projectives P_{v_i}; slot paths are the paths v_i -> w."""

    def _paths(self, v: str, w: str) -> list[int]:
        return self.algebra.basis_by_ends(v, w)

    def _entries(self, ar: Vec, rows: list[int], cols: list[int]):
        """Row p of the arrow's block is p . a."""
        col_pos = {b: k for k, b in enumerate(cols)}
        for r, p in enumerate(rows):
            for k, c in self.algebra.multiply({p: self.algebra.field.one}, ar).items():
                yield r, col_pos[k], c

    def generator_coord(self, slot: int) -> tuple[str, int]:
        """Vertex and coordinate of the slot generator e_{v_slot}."""
        v = self.vertices[slot]
        paths = self.slot_paths[(slot, v)]
        k = paths.index(self.algebra.e_idx[v])
        return v, self.offsets[(slot, v)] + k


class InjSum(_SlotSum):
    """Direct sum of injectives I_{v_i}; slot paths are the paths w -> v_i."""

    def _paths(self, v: str, w: str) -> list[int]:
        return self.algebra.basis_by_ends(w, v)

    def _entries(self, ar: Vec, rows: list[int], cols: list[int]):
        """(q^* . a)(x) = q^*(a x): entry (q, x) is the q-coefficient of a . x."""
        row_pos = {q: r for r, q in enumerate(rows)}
        for k, x in enumerate(cols):
            for q, c in self.algebra.multiply(ar, {x: self.algebra.field.one}).items():
                yield row_pos[q], k, c


class PresentationMap(NamedTuple):
    """Minimal projective presentation P1 -> P0 -> M -> 0.

    ``entries[i][j]`` is an algebra element in e_{p0[j]} . A . e_{p1[i]},
    the (i, j) block acting by left multiplication.
    """

    p1_vertices: list[str]
    p0_vertices: list[str]
    entries: list[list[Vec]]

    def all_entries_in_radical(self, algebra: Algebra) -> bool:
        for row in self.entries:
            for vec in row:
                for bidx, c in vec.items():
                    if algebra.basis[bidx].is_idempotent and c:
                        return False
        return True


def projective_cover_map(M: Representation) -> tuple[ProjSum, Morphism]:
    """The cover sending each slot generator to its top lift e_c.

    A path b sends e_c to row c of b's action; an idempotent keeps e_c.
    """
    lifts = top_lifts(M)
    alg = M.algebra
    ps = ProjSum(alg, [v for v, _ in lifts])
    blocks = {w: Matrix.zeros(ps.rep.dims[w], M.dims[w], alg.field) for w in alg.vertices}
    for slot, (v, c) in enumerate(lifts):
        for w in alg.vertices:
            off = ps.offsets[(slot, w)]
            for k, bidx in enumerate(ps.slot_paths[(slot, w)]):
                b = alg.basis[bidx]
                if b.is_idempotent:
                    blocks[w].data[off + k][c] = alg.field.one
                else:
                    blocks[w].data[off + k] = M.word_action(b.word).data[c][:]
    return ps, Morphism(ps.rep, M, blocks)


def kernel_of(f: Morphism) -> tuple[Representation, Morphism]:
    """Kernel subrepresentation with its inclusion.

    A kernel vector's coordinates in the basis :func:`modulo` reads off are
    its entries at the free columns, so each arrow map is read directly.
    """
    M = f.source
    alg = M.algebra
    free, bases = {}, {}
    for v in alg.vertices:
        free[v], bases[v] = modulo(f.blocks[v].transpose())
    dims = {v: bases[v].rows for v in alg.vertices}
    maps = {}
    for a in alg.arrows:
        moved = bases[a.src] @ M.maps[a.name]
        cols = free[a.tgt]
        coords = Matrix.from_rows([[row[c] for c in cols] for row in moved.data],
                                  len(cols), alg.field)
        if coords @ bases[a.tgt] != moved:
            raise AssertionError("kernel is not arrow-stable; morphism invalid")
        maps[a.name] = coords
    K = Representation(alg, dims, maps)
    incl = Morphism(K, M, {v: bases[v] for v in alg.vertices})
    return K, incl


def minimal_presentation(M: Representation) -> PresentationMap:
    if M.is_zero():
        raise ZeroModule("zero module has no minimal presentation here")
    alg = M.algebra
    p0, cover = projective_cover_map(M)
    # cover must be onto
    for v in alg.vertices:
        if rank_and_rowbasis(cover.blocks[v])[0] != M.dims[v]:
            raise AssertionError("projective cover fails to surject")
    K, incl = kernel_of(cover)
    if K.is_zero():
        pres = PresentationMap([], p0.vertices, [])
        return pres
    p1, kcover = projective_cover_map(K)
    comp = kcover.compose(incl)  # P1 -> P0
    entries = []
    for slot in range(len(p1.vertices)):
        v, coord = p1.generator_coord(slot)
        image_row = comp.blocks[v].data[coord]
        row_entries = []
        for j in range(len(p0.vertices)):
            paths = p0.slot_paths[(j, v)]
            off = p0.offsets[(j, v)]
            vec: Vec = {}
            for k, bidx in enumerate(paths):
                c = image_row[off + k]
                if c:
                    vec[bidx] = c
            row_entries.append(vec)
        entries.append(row_entries)
    pres = PresentationMap(p1.vertices, p0.vertices, entries)
    if not pres.all_entries_in_radical(alg):
        raise AssertionError("presentation entries not in the radical; cover not minimal")
    return pres


def nakayama_map(algebra: Algebra, pres: PresentationMap) -> tuple[InjSum, InjSum, Morphism]:
    """nu P1 -> nu P0 induced by the presentation entries."""
    field = algebra.field
    s1 = InjSum(algebra, pres.p1_vertices)
    s0 = InjSum(algebra, pres.p0_vertices)
    blocks = {}
    for z in algebra.vertices:
        m = Matrix.zeros(s1.rep.dims[z], s0.rep.dims[z], field)
        for i in range(len(pres.p1_vertices)):
            qs = s1.slot_paths[(i, z)]
            qoff = s1.offsets[(i, z)]
            for j in range(len(pres.p0_vertices)):
                u = pres.entries[i][j]
                if not u:
                    continue
                xs = s0.slot_paths[(j, z)]
                xoff = s0.offsets[(j, z)]
                for xi, x in enumerate(xs):
                    prod = algebra.multiply({x: field.one}, u)
                    for q_k, q in enumerate(qs):
                        c = prod.get(q)
                        if c:
                            m.data[qoff + q_k][xoff + xi] = c
        blocks[z] = m
    return s1, s0, Morphism(s1.rep, s0.rep, blocks)


def tau(M: Representation) -> Representation:
    """Auslander-Reiten translate; zero exactly on projectives."""
    if M.is_zero():
        return zero_rep(M.algebra)
    pres = minimal_presentation(M)
    if not pres.p1_vertices:
        return zero_rep(M.algebra)
    _, _, nu = nakayama_map(M.algebra, pres)
    K, _ = kernel_of(nu)
    return K


def _images_fill(N: Representation, homs) -> bool:
    """Does the joint image of the morphisms ``homs`` into N fill N at every vertex?"""
    alg = N.algebra
    for v in alg.vertices:
        d = N.dims[v]
        if d == 0:
            continue
        if Matrix.stack([f.blocks[v] for f in homs], d, alg.field).rank() != d:
            return False
    return True


def bar(M: Representation, quotient: Algebra) -> Representation:
    """M / (M . J) as a module over the quotient algebra A/J.

    At each vertex the actions of the ideal's Peirce slices are stacked, so
    their row space is M . J there; the free unit vectors of :func:`modulo`
    are the basis, and the nullspace's transpose projects onto it.
    """
    if quotient.parent is not M.algebra:
        raise QuotientMismatch("quotient algebra does not come from this module's algebra")
    alg = M.algebra
    acts: dict[str, list[Matrix]] = {v: [] for v in alg.vertices}
    for (u, w, vecs) in quotient.ideal_slices:
        if M.dims[u] and M.dims[w]:  # an element of e_u A e_w acts by a map M_u -> M_w
            acts[w].extend(M.element_action(vec, u, w) for vec in vecs)
    if all(m.is_zero() for ms in acts.values() for m in ms):
        # M . J = 0, so M is a module over A/J as it is; J holds e_v for each killed v
        return Representation(quotient, {v: M.dims[v] for v in quotient.vertices},
                              {a.name: M.maps[a.name].copy() for a in quotient.arrows})
    free, proj = {}, {}
    for v in alg.vertices:
        free[v], kernel = modulo(Matrix.stack(acts[v], M.dims[v], alg.field))
        proj[v] = kernel.transpose()
        if v not in quotient.vertices and free[v]:
            raise QuotientMismatch("quotient module lives on a killed vertex")
    maps = {}
    for a in quotient.arrows:
        rows = [M.maps[a.name].data[i] for i in free[a.src]]
        maps[a.name] = Matrix.from_rows(rows, M.dims[a.tgt], alg.field) @ proj[a.tgt]
    return Representation(quotient, {v: len(free[v]) for v in quotient.vertices}, maps)


def inflate(M: Representation) -> Representation:
    """View a module over a quotient algebra as a module over the parent."""
    quotient = M.algebra
    parent = quotient.parent
    if parent is None:
        raise QuotientMismatch("module's algebra is not a quotient")
    dims = {v: M.dims.get(v, 0) for v in parent.vertices}
    field = parent.field
    maps = {}
    for a in parent.arrows:
        old_idx = parent.arrow_idx[a.name]
        image = quotient.projection[old_idx]
        m = Matrix.zeros(dims[a.src], dims[a.tgt], field)
        for k, c in image.items():
            b = quotient.basis[k]
            m = m + M.element_action({k: field.one}, b.src, b.tgt).scale(c)
        maps[a.name] = m
    return Representation(parent, dims, maps)


def is_sincere(M: Representation) -> bool:
    """Every vertex carries a composition factor (all dim-vector entries > 0)."""
    return all(d > 0 for d in M.dims.values())
