"""Indecomposable inventories, support tau-tilting pairs, and their posets.

Two independent enumeration routes are provided and kept apart on purpose:

* :func:`enumerate_stpairs` realizes pairs as size-n cliques in the pairwise
  compatibility graph (modules plus support-vertex tokens);
* :func:`oracle_stpairs_via_quotients` follows the defining recipe directly:
  for every connected vertex set build the vertex quotient, enumerate its
  tau-tilting modules by brute force, and inflate back; a support set's
  pairs are the products of its connected components'.

Their set equality on a given algebra is the central correctness check.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product

from .algebra import Algebra, vertex_subalgebra_quotient
from .errors import HasseError, InventoryError, UnknownVertex
from .linalg import Matrix
from .reps import (
    Representation,
    _images_fill,
    direct_sum,
    hom_basis,
    inflate,
    is_iso,
    projective,
    radical_subspaces,
    tau,
    zero_rep,
)
from .strings import enumerate_strings, string_name, string_to_rep

log = logging.getLogger(__name__)


@dataclass
class IndecRecord:
    id: int
    name: str
    rep: Representation
    tau_rep: Representation
    is_tau_rigid: bool
    is_projective: bool
    projective_vertex: str | None = None
    tau_id: int | None = None
    external: bool = False  # recorded but not offered as a pair candidate

    @property
    def dim_vector(self):
        return self.rep.dim_vector


@dataclass(frozen=True)
class STPair:
    """A support tau-tilting pair: summand ids plus support-projective vertices."""

    modules: tuple[int, ...]
    supports: tuple[str, ...]

    @property
    def is_tau_tilting(self) -> bool:
        return not self.supports

    def key(self):
        return (frozenset(self.modules), frozenset(self.supports))


class Inventory:
    """The universe of indecomposables over one algebra, with tau precomputed."""

    def __init__(self, algebra: Algebra, records: list[IndecRecord]):
        self.algebra = algebra
        self.records = records
        self._hom_cache: dict[tuple[int, int], list] = {}
        self._support_cache: dict[frozenset, frozenset] = {}
        self._simple_top: dict[int, bool] = {}
        self._generators: dict[int, frozenset] = {}
        self.by_dim_vector: dict[tuple, list[int]] = {}
        for r in records:
            self.by_dim_vector.setdefault(r.dim_vector, []).append(r.id)
        self._name_rank: list[int] = []

    def append(self, record: IndecRecord) -> None:
        """Add a record (id ``len(self)``) and index it by dimension vector."""
        self.records.append(record)
        self.by_dim_vector.setdefault(record.dim_vector, []).append(record.id)

    @cached_property
    def pairs(self) -> list[STPair]:
        """:func:`enumerate_stpairs` of this inventory, computed once."""
        return enumerate_stpairs(self)

    @cached_property
    def hasse_quiver(self) -> PosetQuiver:
        """:func:`hasse` of :attr:`pairs`, computed once."""
        return hasse(self, self.pairs)

    def __len__(self):
        return len(self.records)

    def candidates(self) -> list[IndecRecord]:
        return [r for r in self.records if not r.external]

    def find_iso(self, rep: Representation) -> int | None:
        """The least id of a record isomorphic to ``rep``; only its dimension vector is searched."""
        for i in self.by_dim_vector.get(rep.dim_vector, ()):
            if is_iso(self.records[i].rep, rep):
                return i
        return None

    def hom(self, i: int, j: int) -> list:
        if (i, j) not in self._hom_cache:
            self._hom_cache[(i, j)] = hom_basis(self.records[i].rep, self.records[j].rep)
        return self._hom_cache[(i, j)]

    def hom_to_tau(self, i: int, j: int) -> int:
        """dim Hom(X_i, tau X_j)."""
        return len(hom_basis(self.records[i].rep, self.records[j].tau_rep))

    def hom_proj_dim(self, v: str, i: int) -> int:
        """dim Hom(P_v, X_i) = dim X_i at v."""
        return self.records[i].rep.dims[v]

    def fac_contains(self, j: int, sources: frozenset) -> bool:
        """Is X_j generated by (in Fac of) the direct sum over ``sources``?

        When X_j has a simple top, its proper submodules all lie in its radical,
        and so does any sum of them: the sources generate X_j only if one of
        them does alone, so the answer is read from :meth:`generators`.
        """
        if j in sources:
            return True  # the identity map
        if self.has_simple_top(j):
            return not self.generators(j).isdisjoint(sources)
        rep = self.records[j].rep
        support = self._support(sources)
        # no quotient of the sources is nonzero where every source is zero
        if not all(v in support for v, d in rep.dims.items() if d):
            return False
        return _images_fill(rep, [f for i in sources for f in self.hom(i, j)])

    def has_simple_top(self, j: int) -> bool:
        """Is X_j / rad X_j one-dimensional?"""
        if j not in self._simple_top:
            rep = self.records[j].rep
            rad = sum(m.rows for m in radical_subspaces(rep).values())
            self._simple_top[j] = rep.total_dim - rad == 1
        return self._simple_top[j]

    def generators(self, j: int) -> frozenset:
        """The records i != j with X_j in Fac(X_i); computed once per record.

        A quotient of copies of X_i is zero where X_i is, so only the records
        whose support contains that of X_j are tested, each by one rank test.
        """
        if j not in self._generators:
            need = self._support(frozenset({j}))
            self._generators[j] = frozenset(
                i for i in range(len(self.records))
                if i != j and need <= self._support(frozenset({i})) and self.generates(i, j))
        return self._generators[j]

    def generates(self, i: int, j: int) -> bool:
        """Is X_j in Fac(X_i)?  The Hom basis is not kept."""
        target = self.records[j].rep
        return _images_fill(target, hom_basis(self.records[i].rep, target))

    def _support(self, ids: frozenset) -> frozenset:
        """The vertices where the direct sum over ``ids`` is nonzero."""
        if ids not in self._support_cache:
            self._support_cache[ids] = frozenset(
                v for i in ids for v, d in self.records[i].rep.dims.items() if d)
        return self._support_cache[ids]

    def sum_rep(self, ids) -> Representation:
        return direct_sum([self.records[i].rep for i in sorted(ids)], self.algebra)

    def pair_label(self, pair: STPair, sep: str = "+") -> str:
        if not pair.modules:
            return "0"
        return sep.join(sorted(self.records[i].name for i in pair.modules))

    def pair_sort_key(self, pair: STPair):
        """Support count, then the sorted summand names, then the sorted supports.

        Names are compared by their rank among the distinct names, which
        orders as the names do (equal names share a rank).
        """
        rank = self._name_rank
        if len(rank) != len(self.records):
            names = sorted({r.name for r in self.records})
            index = {n: k for k, n in enumerate(names)}
            rank[:] = [index[r.name] for r in self.records]
        return (len(pair.supports), tuple(sorted(map(rank.__getitem__, pair.modules))),
                tuple(sorted(pair.supports)))


def _names_for(algebra: Algebra, words) -> list[str]:
    names = []
    seen: dict[str, int] = {}
    for w in words:
        n = string_name(algebra, w)
        if n in seen:
            seen[n] += 1
            n = f"{n}#{seen[n]}"
        else:
            seen[n] = 0
        names.append(n)
    return names


def _is_local_endo_ring(rep: Representation) -> bool:
    """Local endomorphism ring test.

    A brick (End = K) is local over any field.  Otherwise the trace form is
    used, a criterion that holds in characteristic 0 only.
    """
    homs = hom_basis(rep, rep)
    n = len(homs)
    if n == 1:
        return True
    alg = rep.algebra
    field = alg.field

    def compose_blocks(f, g):
        return {v: f.blocks[v] @ g.blocks[v] for v in alg.vertices}

    gram = Matrix.zeros(n, n, field)
    for i in range(n):
        for j in range(n):
            prod = compose_blocks(homs[i], homs[j])
            tr = field.zero
            for v in alg.vertices:
                m = prod[v]
                for k in range(m.rows):
                    tr = tr + m.data[k][k]
            gram.data[i][j] = tr
    radical_dim = n - gram.rank()
    return n - radical_dim == 1


def build_inventory(algebra: Algebra,
                    supplied: list[tuple[str, Representation]] | None = None) -> Inventory:
    """Enumerate the indecomposables and precompute tau for each.

    Without ``supplied`` the string modules are enumerated (complete for
    string algebras); otherwise the supplied (name, module) list is trusted,
    auditing each module's endomorphism ring for local-ness.
    """
    if supplied is None:
        words = enumerate_strings(algebra)
        reps = [string_to_rep(algebra, w) for w in words]
        names = _names_for(algebra, words)
    else:
        if not supplied:
            raise InventoryError("a supplied inventory needs modules")
        names = [n for n, _ in supplied]
        reps = [r for _, r in supplied]
        for n, r in supplied:
            r.assert_valid()
            if not _is_local_endo_ring(r):
                log.warning("supplied module %s fails the local-endomorphism audit", n)

    records: list[IndecRecord] = []
    for i, (name, rep) in enumerate(zip(names, reps)):
        records.append(IndecRecord(i, name, rep, zero_rep(algebra), False, False))
    inv = Inventory(algebra, records)

    # audit: distinct records sharing a dim vector must be non-isomorphic
    for ids in inv.by_dim_vector.values():
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if is_iso(records[ids[i]].rep, records[ids[j]].rep):
                    raise InventoryError(
                        f"records {records[ids[i]].name} and {records[ids[j]].name} are isomorphic")

    # records is inv.records, so external tau records appended below are visited too
    for r in records:
        t = tau(r.rep)
        r.tau_rep = t
        r.is_projective = t.is_zero()
        if not r.is_projective:
            match = inv.find_iso(t)
            if match is None:
                log.warning("tau of %s is not in the inventory; recording standalone", r.name)
                extra = IndecRecord(len(records), f"tau({r.name})", t, zero_rep(algebra),
                                    False, False, external=True)
                inv.append(extra)
                match = extra.id
            r.tau_id = match
        r.is_tau_rigid = len(hom_basis(r.rep, r.tau_rep)) == 0
    for v in algebra.vertices:
        i = inv.find_iso(projective(algebra, v))
        if i is not None:
            records[i].projective_vertex = v
    return inv


def compatible(inv: Inventory, x, y) -> bool:
    """Pairwise compatibility for pair members.

    Module / module: Hom(X, tau Y) = 0 = Hom(Y, tau X); a module with itself:
    tau-rigidity.  Module / support vertex v: Hom(P_v, X) = 0.  Two support
    vertices are always compatible.
    """
    x_is_mod = isinstance(x, IndecRecord)
    y_is_mod = isinstance(y, IndecRecord)
    if x_is_mod and y_is_mod:
        if x.id == y.id:
            return x.is_tau_rigid
        return inv.hom_to_tau(x.id, y.id) == 0 and inv.hom_to_tau(y.id, x.id) == 0
    if x_is_mod and not y_is_mod:
        return inv.hom_proj_dim(y, x.id) == 0
    if y_is_mod and not x_is_mod:
        return inv.hom_proj_dim(x, y.id) == 0
    return True


def enumerate_stpairs(inv: Inventory) -> list[STPair]:
    """All size-n cliques in the compatibility graph, canonically ordered.

    The elements are the tau-rigid candidates in id order, then the vertices
    sorted by name, so a clique read in index order has its module ids
    ascending and its supports sorted.  A branch stops once fewer elements
    are allowed than summands are still needed.  Every clique is a tau-rigid
    pair, a summand of a support tau-tilting pair (AIR Thm 2.10), so the
    n-element cliques are exactly the maximal ones.
    """
    n = len(inv.algebra.vertices)
    mods = [r for r in inv.candidates() if r.is_tau_rigid]
    elements: list = mods + sorted(inv.algebra.vertices)
    m = len(elements)
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if compatible(inv, elements[i], elements[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    members = [r.id for r in mods] + elements[len(mods):]
    pairs: list[STPair] = []

    def leaf(chosen: tuple[int, ...]):
        k = bisect_left(chosen, len(mods))
        # tuples from lists are allocated at their size; from a generator they are not
        pairs.append(STPair(tuple([members[i] for i in chosen[:k]]),
                            tuple([members[i] for i in chosen[k:]])))

    _cliques(adj, (1 << m) - 1, n, (), leaf)
    pairs.sort(key=inv.pair_sort_key)
    return pairs


def _cliques(adj: list[int], allowed: int, need: int, chosen: tuple[int, ...], leaf) -> None:
    """Call ``leaf`` on ``chosen`` plus each ``need`` set bits of ``allowed`` that form a clique.

    The bits are walked from the lowest up, so each clique comes ascending; a
    branch stops as soon as fewer than ``need`` bits are left to choose from.
    """
    if not need:
        leaf(chosen)
        return
    while allowed.bit_count() >= need:
        low = allowed & -allowed
        allowed ^= low
        i = low.bit_length() - 1
        _cliques(adj, allowed & adj[i], need - 1, chosen + (i,), leaf)


def oracle_stpairs_via_quotients(inv: Inventory) -> list[STPair]:
    """The defining recipe: tau-tilting modules over every vertex quotient.

    The pairs with support S (modules nonzero on S, support-projective
    vertices V - S) are the tau-tilting modules over A/<e_{V-S}>.  Inside S a
    path between two components of the arrows with both ends in S passes a
    vertex outside S, so it lies in the ideal: the quotient is the product of
    the blocks A/<e_{V-C}>, one per component C, for any relations, and its
    tau-tilting modules are the sums of the blocks' (AIR, Sec. 2).  So each
    connected vertex set is done once: :func:`_block_tau_tilting` builds its
    quotient outright, and a support's pairs are the Cartesian product of its
    components' lists.  The empty support contributes the zero pair.
    """
    algebra = inv.algebra
    verts = list(algebra.vertices)
    blocks: dict[frozenset, list[tuple[int, ...]]] = {}
    out = [STPair((), tuple(sorted(verts)))]
    for size in range(1, len(verts) + 1):
        for support in combinations(verts, size):
            lists = []
            for block in _components(algebra, support):
                if block not in blocks:
                    blocks[block] = _block_tau_tilting(inv, block)
                lists.append(blocks[block])
            supports = tuple(sorted(v for v in verts if v not in support))
            for parts in product(*lists):
                out.append(STPair(tuple(sorted(chain.from_iterable(parts))), supports))
    out.sort(key=inv.pair_sort_key)
    return out


def _components(algebra: Algebra, support) -> list[frozenset]:
    """The connected components of ``support`` under the arrows with both ends in it."""
    comp = {v: frozenset({v}) for v in support}
    for a in algebra.arrows:
        if a.src in comp and a.tgt in comp:
            merged = comp[a.src] | comp[a.tgt]
            for v in merged:
                comp[v] = merged
    return list(dict.fromkeys(comp.values()))


def _block_tau_tilting(inv: Inventory, block: frozenset) -> list[tuple[int, ...]]:
    """The tau-tilting modules over A/<e_{V-block}>, as sorted ambient summand ids.

    Hom(M, tau M) = 0 is tested over the quotient on all size-|block| summand
    sets; each quotient record is inflated and matched in the ambient
    inventory once.
    """
    quot = vertex_subalgebra_quotient(inv.algebra, block)
    qinv = build_inventory(quot)
    cands = qinv.candidates()
    k = len(quot.vertices)
    # bit b of bad[a]: a and b cannot be summands of one tau-rigid module
    bad = [0] * len(cands)
    for a, ra in enumerate(cands):
        if not ra.is_tau_rigid:
            bad[a] |= 1 << a
        for b in range(a + 1, len(cands)):
            if qinv.hom_to_tau(ra.id, cands[b].id) or qinv.hom_to_tau(cands[b].id, ra.id):
                bad[a] |= 1 << b
                bad[b] |= 1 << a
    lifted: dict[int, int] = {}

    def lift(r: IndecRecord) -> int:
        if r.id not in lifted:
            rep = inflate(r.rep)
            match = inv.find_iso(rep)
            if match is None:
                raise InventoryError(
                    f"inflated module (dims {rep.dim_vector}) missing from inventory")
            lifted[r.id] = match
        return lifted[r.id]

    return [tuple(sorted(lift(cands[a]) for a in subset))
            for subset in _rigid_subsets(bad, k)]


def _rigid_subsets(bad: list[int], k: int) -> list[tuple[int, ...]]:
    """The k-subsets S of range(len(bad)), in lexicographic order, with no
    bit b of bad[a] set for a, b in S (a == b included).

    Sets grow by one index at a time on an explicit stack; an index is
    offered only if it is clear of the masks of the chosen ones and its own
    mask misses them and itself.
    """
    out = []
    stack = [((), 0, 0, 0)]  # chosen, their bits, the union of their masks, next index
    while stack:
        chosen, bits, masks, start = stack.pop()
        if len(chosen) == k:
            out.append(chosen)
            continue
        for a in reversed(range(start, len(bad) - k + len(chosen) + 1)):
            if not (masks >> a) & 1 and not bad[a] & (bits | 1 << a):
                stack.append((chosen + (a,), bits | 1 << a, masks | bad[a], a + 1))
    return out


def _topological_order(n: int, arrows) -> tuple[list[int], list[list[int]]]:
    """Kahn's algorithm: an order of the vertices off any cycle, and the successor lists."""
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for s, t in arrows:
        succ[s].append(t)
        indeg[t] += 1
    order = [i for i in range(n) if not indeg[i]]
    for s in order:
        for t in succ[s]:
            indeg[t] -= 1
            if not indeg[t]:
                order.append(t)
    return order, succ


@dataclass(frozen=True)
class PosetQuiver:
    """A finite DAG on the vertices 0..n-1; for a quiver of pairs, vertex i is pairs[i]."""

    n: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(_topological_order(self.n, self.arrows)[0]) != self.n:
            raise ValueError("poset quiver contains a cycle")

    @cached_property
    def closure(self) -> list[int]:
        """Row i is the bitmask of the vertices strictly reachable from i."""
        order, succ = _topological_order(self.n, self.arrows)
        reach = [0] * self.n
        for i in reversed(order):
            for t in succ[i]:
                reach[i] |= (1 << t) | reach[t]
        return reach


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def hasse(inv: Inventory, pairs: list[STPair]) -> PosetQuiver:
    """Covering relations of the Fac order on the given pairs; vertex i is pairs[i].

    The arrows are the mutations (Adachi-Iyama-Reiten, arXiv:1210.1036): every
    almost complete pair has exactly two completions (Thm 2.18), and the two
    are joined by one arrow, oriented by the Fac order (Thm 2.33).  The result
    is certified against the Fac order, computed from its definition: its
    reachability must be that order, and no arrow may be implied by a longer
    path, so it is the order's covering relation.  ``pairs`` must be every
    support tau-tilting pair of the inventory; a failure raises HasseError.
    """
    nv = len(pairs)

    def name(i):
        p = pairs[i]
        sup = f" support {{{','.join(sorted(p.supports))}}}" if p.supports else ""
        return inv.pair_label(p) + sup

    # each pair under each of its almost complete parts (support vertices as
    # ("s", v)), and the pairs that have each module as a summand
    buckets: dict[frozenset, list[int]] = {}
    containing: dict[int, int] = {}
    for i, p in enumerate(pairs):
        elems = p.modules + tuple(("s", v) for v in p.supports)
        for k in range(len(elems)):
            buckets.setdefault(frozenset(elems[:k] + elems[k + 1:]), []).append(i)
        for x in p.modules:
            containing[x] = containing.get(x, 0) | (1 << i)

    # Fac(M_i) contains M_j iff no summand of M_j lies outside Fac(M_i)
    full = (1 << nv) - 1
    ge_rows = []
    for i, p in enumerate(pairs):
        sources = frozenset(p.modules)
        outside = 0
        for x, holders in containing.items():
            if not inv.fac_contains(x, sources):
                outside |= holders
        ge_rows.append(full & ~outside & ~(1 << i))

    arrows = []
    for completions in buckets.values():
        if len(completions) != 2:
            raise HasseError(
                f"an almost complete pair has {len(completions)} completions, not 2 "
                f"(AIR Thm 2.18): {', '.join(name(i) for i in completions)}")
        a, b = completions
        a_ge_b, b_ge_a = (ge_rows[a] >> b) & 1, (ge_rows[b] >> a) & 1
        if a_ge_b == b_ge_a:
            rel = "each above the other" if a_ge_b else "incomparable"
            raise HasseError(f"mutations {name(a)} and {name(b)} are {rel} in the Fac order")
        arrows.append((a, b) if a_ge_b else (b, a))
    try:
        pq = PosetQuiver(nv, tuple(sorted(arrows)))
    except ValueError:
        raise HasseError("the mutation arrows, oriented by the Fac order, form a cycle") from None

    closure = pq.closure
    for i in range(nv):
        if closure[i] != ge_rows[i]:
            j = _lowest_bit(closure[i] ^ ge_rows[i])
            has = "has" if (ge_rows[i] >> j) & 1 else "lacks"
            raise HasseError(f"the Fac order {has} {name(i)} > {name(j)}, "
                             "the mutation quiver does not")
    succ = [0] * nv
    for s, t in pq.arrows:
        succ[s] |= 1 << t
    for s, k in pq.arrows:
        implied = succ[s] & closure[k]
        if implied:
            t = _lowest_bit(implied)
            raise HasseError(f"the arrow {name(s)} -> {name(t)} is not a covering relation: "
                             f"it passes through {name(k)}")
    return pq


def full_subquiver(pq: PosetQuiver, keep: list[int]) -> PosetQuiver:
    """Vertex k is ``keep[k]``; the arrows of ``pq`` between kept vertices (not recomputed)."""
    bad = [v for v in keep if not 0 <= v < pq.n]
    if bad:
        raise UnknownVertex(bad[0])
    pos = {v: k for k, v in enumerate(keep)}
    arrows = [(pos[s], pos[t]) for s, t in pq.arrows if s in pos and t in pos]
    return PosetQuiver(len(keep), tuple(sorted(arrows)))
