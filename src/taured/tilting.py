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

from bisect import bisect_left
from functools import cached_property, reduce
from itertools import accumulate, chain, combinations, product
from math import prod
from operator import or_
from typing import NamedTuple

from .algebra import Algebra, isomorphism, vertex_subalgebra_quotient
from .errors import BadIndex, HasseError, InventoryError, UnknownVertex
from .linalg import Matrix
from .reps import (
    Representation,
    _images_fill,
    hom_basis,
    inflate,
    is_iso,
    projective,
    tau,
    top_lifts,
    zero_rep,
)
from .strings import (
    Letter,
    StringWord,
    canonical,
    enumerate_strings,
    string_name,
    string_tau,
    string_to_rep,
)


def _warn(message: str, *args) -> None:
    """Log a warning under this module's logger; ``logging`` loads with the first one."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


class IndecRecord:
    __slots__ = ("id", "name", "rep", "tau_rep", "is_tau_rigid", "is_projective",
                 "projective_vertex", "tau_id", "external")

    def __init__(self, id: int, name: str, rep: Representation, tau_rep: Representation,
                 is_tau_rigid: bool, is_projective: bool, projective_vertex: str | None = None,
                 tau_id: int | None = None, external: bool = False):
        self.id = id
        self.name = name
        self.rep = rep
        self.tau_rep = tau_rep
        self.is_tau_rigid = is_tau_rigid
        self.is_projective = is_projective
        self.projective_vertex = projective_vertex
        self.tau_id = tau_id
        self.external = external  # recorded but not offered as a pair candidate

    @property
    def dim_vector(self):
        return self.rep.dim_vector


class STPair(NamedTuple):
    """A support tau-tilting pair: summand ids plus support-projective vertices."""

    modules: tuple[int, ...]
    supports: tuple[str, ...]

    @property
    def is_tau_tilting(self) -> bool:
        return not self.supports

    def key(self):
        return (frozenset(self.modules), frozenset(self.supports))


class _PairNames:
    """Labels and the canonical order of pairs, read from ``records`` by summand name."""

    records: list[IndecRecord]

    def candidates(self) -> list[IndecRecord]:
        return [r for r in self.records if not r.external]

    def pair_label(self, pair: STPair) -> str:
        if not pair.modules:
            return "0"
        return "+".join(sorted(self.records[i].name for i in pair.modules))

    @cached_property
    def name_rank(self) -> list[int]:
        """Each record's rank among the distinct names, which orders as the names do."""
        index = {n: k for k, n in enumerate(sorted({r.name for r in self.records}))}
        return [index[r.name] for r in self.records]

    def pair_sort_key(self, pair: STPair):
        """Support count, then the sorted summand names, then the sorted supports."""
        return (len(pair.supports), tuple(sorted(map(self.name_rank.__getitem__, pair.modules))),
                tuple(sorted(pair.supports)))


class Inventory(_PairNames):
    """The universe of indecomposables over one algebra, with tau precomputed.

    ``words`` are the strings of the records in id order when the records are
    the string modules; None for supplied modules.  Only string inventories
    are kept as the representatives of :meth:`inventory_of`.  A carried
    inventory is its source under new names, in its source's pair order: one
    order per class of isomorphic algebras, which its own
    :meth:`pair_sort_key` need not follow.
    """

    def __init__(self, algebra: Algebra, records: list[IndecRecord],
                 words: list[StringWord] | None = None):
        self.algebra = algebra
        self.records = records
        self.words = words
        self._hom_cache: dict[tuple[int, int], list] = {}
        self._facts: dict[tuple[int, int], tuple[int, bool]] = {}
        self._support_cache: dict[frozenset, frozenset] = {}
        self._simple_top: dict[int, bool] = {}
        self._generators: dict[int, frozenset] = {}
        self.by_dim_vector: dict[tuple, list[int]] = {}
        self._by_maps: dict[tuple, int] = {}  # the least id with each dimension vector and maps
        for r in records:
            self.by_dim_vector.setdefault(r.dim_vector, []).append(r.id)
            self._by_maps.setdefault(_maps_key(r.rep), r.id)
        self._blocks: dict[frozenset, Inventory] = {}
        self.lifted: dict[int, int] = {}  # as a block: record id -> ambient id (:meth:`lift`)
        self._representatives: list[Inventory] = []
        # (source inventory, own vertex of each source vertex) when carried
        # from an isomorphic algebra's inventory; record ids are the source's
        self._source: tuple[Inventory, dict[str, str]] | None = None

    def append(self, record: IndecRecord) -> None:
        """Add a record (id ``len(self)``) and index it by dimension vector and structure maps."""
        self.records.append(record)
        self.by_dim_vector.setdefault(record.dim_vector, []).append(record.id)
        self._by_maps.setdefault(_maps_key(record.rep), record.id)

    @cached_property
    def pairs(self) -> list[STPair]:
        """:func:`enumerate_stpairs` of this inventory, computed once, or the source's renamed."""
        if self._source is None:
            return enumerate_stpairs(self)
        src, vertex = self._source
        if all(v == w for v, w in vertex.items()):
            return src.pairs
        return [STPair(p.modules, tuple(sorted(vertex[v] for v in p.supports)))
                for p in src.pairs]

    @cached_property
    def _graph(self) -> tuple[list, list[int], int]:
        """The compatibility graph of the pair members, the tau-rigid candidates by name and
        then the vertices by name: the members (record ids, then vertex names), one
        adjacency bitmask per member, and the number of modules among them."""
        rank = self.name_rank
        mods = sorted((r for r in self.candidates() if r.is_tau_rigid), key=lambda r: rank[r.id])
        elements: list = mods + sorted(self.algebra.vertices)
        m = len(elements)
        adj = [0] * m
        for i in range(m):
            for j in range(i + 1, m):
                if compatible(self, elements[i], elements[j]):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        return [r.id for r in mods] + elements[len(mods):], adj, len(mods)

    @cached_property
    def pair_index(self) -> dict[int, int]:
        """The index of each pair by the bitmask of its module ids, which fix it (AIR, Sec. 2)."""
        if self._source is not None:
            return self._source[0].pair_index
        return {sum(1 << m for m in p.modules): a for a, p in enumerate(self.pairs)}

    @cached_property
    def hasse_quiver(self) -> PosetQuiver:
        """:func:`hasse` of :attr:`pairs`, computed once, or the source's certified quiver."""
        if self._source is not None:
            return self._source[0].hasse_quiver
        return hasse(self, self.pairs)

    @cached_property
    def tilting_sets(self) -> list[tuple[int, ...]]:
        """The tau-tilting modules by their definition, as ascending record ids (the oracle's route).

        Hom(M, tau M) = 0 is tested on all size-|V| sets of candidates, listed
        in lexicographic order; a carried inventory has its source's ids, so
        it has the source's sets.
        """
        if self._source is not None:
            return self._source[0].tilting_sets
        cands = self.candidates()
        # bit b of bad[a]: a and b cannot be summands of one tau-rigid module
        bad = [0] * len(cands)
        for a, ra in enumerate(cands):
            if not ra.is_tau_rigid:
                bad[a] |= 1 << a
            for b in range(a + 1, len(cands)):
                if self.hom_to_tau(ra.id, cands[b].id) or self.hom_to_tau(cands[b].id, ra.id):
                    bad[a] |= 1 << b
                    bad[b] |= 1 << a
        return [tuple(cands[a].id for a in subset)
                for subset in _rigid_subsets(bad, len(self.algebra.vertices))]

    def inventory_of(self, algebra: Algebra) -> Inventory:
        """The string inventory of ``algebra``, carried from an isomorphic one kept here if any.

        One inventory is kept per isomorphism class of algebras asked for,
        the first one built in its class, and this one stands for its own
        class.  Another member of a class gets the representative's inventory
        carried along an exactly verified :func:`isomorphism`; where none is
        found, its own is built.
        """
        for src in [self, *self._representatives]:
            maps = src.words is not None and isomorphism(algebra, src.algebra)
            if maps:
                return _carry(src, algebra, *maps)
        inv = build_inventory(algebra)
        if inv.words is not None:
            self._representatives.append(inv)
        return inv

    def __len__(self):
        return len(self.records)

    def block(self, vertices: frozenset) -> Inventory:
        """The inventory of the block A/<e_{V-vertices}> of a connected vertex set.

        It is kept for later calls when it can be a block of a socle
        quotient: a proper vertex set that at most one arrow joins to the
        others, since the quotient by a one-dimensional socle drops at most
        one arrow.  Those are the blocks the reduction checks ask for.
        """
        block = self._blocks.get(vertices)
        if block is None:
            block = self.inventory_of(vertex_subalgebra_quotient(self.algebra, vertices))
            crossing = sum((a.src in vertices) != (a.tgt in vertices)
                           for a in self.algebra.arrows)
            if crossing <= 1 and len(vertices) < len(self.algebra.vertices):
                self._blocks[vertices] = block
        return block

    def lift(self, block: Inventory, i: int) -> int:
        """The id of the record isomorphic to record i of a block inventory inflated; kept there."""
        if i not in block.lifted:
            rep = inflate(block.records[i].rep)
            match = self.find_iso(rep)
            if match is None:
                raise InventoryError(
                    f"inflated module (dims {rep.dim_vector}) missing from inventory")
            block.lifted[i] = match
        return block.lifted[i]

    def find_iso(self, rep: Representation) -> int | None:
        """The id of the record isomorphic to ``rep``; only its dimension vector is searched.

        The record with the same structure maps, if any, is found by one dict
        probe and tried first: :func:`is_iso` certifies it by the identity,
        without a Hom basis.  The others follow in id order.  The inventory
        audit allows at most one record per isomorphism class, so the order
        does not change the answer.
        """
        same = self._by_maps.get(_maps_key(rep))
        if same is not None and is_iso(self.records[same].rep, rep):
            return same
        for i in self.by_dim_vector.get(rep.dim_vector, ()):
            if i != same and is_iso(self.records[i].rep, rep):
                return i
        return None

    def hom(self, i: int, j: int) -> list:
        if (i, j) not in self._hom_cache:
            self._hom_cache[(i, j)] = hom_basis(self.records[i].rep, self.records[j].rep)
        return self._hom_cache[(i, j)]

    def _hom_facts(self, i: int, j: int) -> tuple[int, bool]:
        """dim Hom(X_i, X_j), and is X_j in Fac(X_i)?  Both from one Hom basis, which is
        not kept: the one memo of :meth:`hom_to_tau` and :meth:`generates`."""
        if (i, j) not in self._facts:
            target = self.records[j].rep
            homs = hom_basis(self.records[i].rep, target)
            self._facts[(i, j)] = len(homs), bool(homs) and _images_fill(target, homs)
        return self._facts[(i, j)]

    def hom_to_tau(self, i: int, j: int) -> int:
        """dim Hom(X_i, tau X_j) for a candidate X_j: that into its tau record."""
        k = self.records[j].tau_id
        return 0 if k is None else self._hom_facts(i, k)[0]

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
        support = self.support(sources)
        # no quotient of the sources is nonzero where every source is zero
        if not all(v in support for v, d in rep.dims.items() if d):
            return False
        return _images_fill(rep, [f for i in sources for f in self.hom(i, j)])

    def has_simple_top(self, j: int) -> bool:
        """Is X_j / rad X_j one-dimensional?"""
        if j not in self._simple_top:
            self._simple_top[j] = len(top_lifts(self.records[j].rep)) == 1
        return self._simple_top[j]

    def generators(self, j: int) -> frozenset:
        """The records i != j with X_j in Fac(X_i); computed once per record.

        A quotient of copies of X_i is zero where X_i is, so only the records
        whose support contains that of X_j are tested, each by one rank test.
        """
        if j not in self._generators:
            need = self.support(frozenset({j}))
            self._generators[j] = frozenset(
                i for i in range(len(self.records))
                if i != j and need <= self.support(frozenset({i})) and self.generates(i, j))
        return self._generators[j]

    def generates(self, i: int, j: int) -> bool:
        """Is X_j in Fac(X_i)?"""
        return self._hom_facts(i, j)[1]

    def support(self, ids: frozenset) -> frozenset:
        """The vertices where the direct sum over ``ids`` is nonzero."""
        if ids not in self._support_cache:
            self._support_cache[ids] = frozenset(
                v for i in ids for v, d in self.records[i].rep.dims.items() if d)
        return self._support_cache[ids]


class BlockProduct(_PairNames):
    """The records and pairs of a product of blocks, read from the blocks' own.

    A module over B_1 x ... x B_k is a sum of modules over the blocks, and
    Hom, tau and Fac act blockwise.  So a support tau-tilting pair is a tuple
    of the blocks' pairs (AIR, Sec. 2), addressed by its code: the tuple of
    their indices in the blocks' :attr:`Inventory.pairs`, read as one
    mixed-radix integer with the last block fastest, in the order
    :func:`itertools.product` lists the tuples.  The Fac order is the product
    order, so its Hasse quiver is the box product of the blocks' quivers: an
    arrow a -> b of block j moves a code by (b - a) times the weight of
    coordinate j.  Neither the product's pairs nor its quiver is built: :meth:`pair`
    decodes a code, and :meth:`listed` the codes a family marks.
    Record ids run through the blocks in turn: block k's record i is record
    ``offsets[k] + i``.
    """

    def __init__(self, blocks: list[Inventory]):
        self.blocks = blocks
        self.offsets = list(accumulate((len(b.records) for b in blocks), initial=0))[:-1]
        self.records = [
            IndecRecord(o + r.id, r.name, r.rep, r.tau_rep, r.is_tau_rigid, r.is_projective,
                        r.projective_vertex, None if r.tau_id is None else o + r.tau_id,
                        r.external)
            for o, b in zip(self.offsets, blocks) for r in b.records]

    @cached_property
    def sizes(self) -> list[int]:
        """The number of pairs of each block; reading it lists them."""
        return [len(b.pairs) for b in self.blocks]

    @cached_property
    def strides(self) -> list[int]:
        return [prod(self.sizes[j + 1:]) for j in range(len(self.blocks))]

    @cached_property
    def total(self) -> int:
        """The number of pairs."""
        return prod(self.sizes)

    def codes_of(self, pairs: list[STPair], image: dict[int, int | None]) -> list[int | None]:
        """The code of the pair whose modules are the images of each pair's modules under
        ``image`` (None: no image); None where no pair has them.  One dict probe per block."""
        bit = {i: 0 if j is None else 1 << j for i, j in image.items()}.__getitem__
        probes = [(o, (1 << len(b.records)) - 1, b.pair_index.get)
                  for o, b in zip(self.offsets, self.blocks)]
        out = []
        for p in pairs:
            mask, code = reduce(or_, map(bit, p.modules), 0), 0
            for (o, full, index), s in zip(probes, self.strides):
                a = index(mask >> o & full)
                if a is None:
                    code = None
                    break
                code += a * s
            out.append(code)
        return out

    def pair(self, c: int) -> STPair:
        """The pair of code ``c``: its blocks' pairs, merged."""
        parts = [(o, b.pairs[c // s % n])
                 for o, b, s, n in zip(self.offsets, self.blocks, self.strides, self.sizes)]
        return STPair(tuple(o + m for o, p in parts for m in p.modules),
                      tuple(sorted(v for _, p in parts for v in p.supports)))

    def listed(self, member: list[bool]) -> list[STPair]:
        """The pairs of the codes that ``member`` marks, in pair order."""
        return sorted([self.pair(c) for c, m in enumerate(member) if m], key=self.pair_sort_key)

    def label(self, c: int) -> str:
        return self.pair_label(self.pair(c))

    @cached_property
    def succ(self) -> list[list[list[int]]]:
        """The blocks' quivers as successor lists, which :meth:`successors` and
        :meth:`arrow_count` read."""
        out = [[[] for _ in range(n)] for n in self.sizes]
        for succ, b in zip(out, self.blocks):
            for a, t in b.hasse_quiver.arrows:
                succ[a].append(t)
        return out

    @cached_property
    def moves(self) -> dict[int, dict[tuple[int, int], set[int]]]:
        """Code difference -> (weight, radix) of a coordinate -> the sources of the arrows
        there that make it; :meth:`is_arrow` reads it."""
        out: dict[int, dict[tuple[int, int], set[int]]] = {}
        for b, s, n in zip(self.blocks, self.strides, self.sizes):
            for a, t in b.hasse_quiver.arrows:
                out.setdefault((t - a) * s, {}).setdefault((s, n), set()).add(a)
        return out

    def is_arrow(self, c: int, d: int) -> bool:
        for (s, n), sources in self.moves.get(d - c, {}).items():
            if c // s % n in sources:
                return True
        return False

    def successors(self, c: int):
        for s, n, succ in zip(self.strides, self.sizes, self.succ):
            a = c // s % n
            yield from (c + (b - a) * s for b in succ[a])

    def arrow_count(self, flags: list[list[bool]]) -> int:
        """The number of arrows between the codes whose coordinates pass ``flags``: each
        arrow of block j between passing pairs, once per choice of the other coordinates."""
        sizes = [sum(f) for f in flags]
        return sum(sum(f[b] for a in range(len(f)) if f[a] for b in succ[a])
                   * prod(sizes[:j] + sizes[j + 1:])
                   for j, (f, succ) in enumerate(zip(flags, self.succ)))


def _maps_key(rep: Representation) -> tuple:
    """The dimension vector and structure maps of ``rep`` as a hashable value."""
    return rep.dim_vector, tuple(tuple(map(tuple, m.data)) for m in rep.maps.values())


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
    field = rep.algebra.field
    gram = Matrix.zeros(n, n, field)
    for i, f in enumerate(homs):
        for j, g in enumerate(homs):
            gram.data[i][j] = sum((m.data[k][k] for m in f.compose(g).blocks.values()
                                   for k in range(m.rows)), field.zero)
    return gram.rank() == 1


def build_inventory(algebra: Algebra,
                    supplied: list[tuple[str, Representation]] | None = None) -> Inventory:
    """Enumerate the indecomposables and precompute tau for each.

    Without ``supplied`` the string modules are enumerated (complete for
    string algebras), and tau rewrites each string by hooks and cohooks;
    otherwise the supplied (name, module) list is trusted, auditing each
    module's endomorphism ring for local-ness, and tau is computed from
    minimal projective presentations.
    """
    if supplied is None:
        words = enumerate_strings(algebra)
        reps = [string_to_rep(algebra, w) for w in words]
        names = _names_for(algebra, words)
    else:
        if not supplied:
            raise InventoryError("a supplied inventory needs modules")
        words = None
        names = [n for n, _ in supplied]
        reps = [r for _, r in supplied]
        for n, r in supplied:
            r.assert_valid()
            if not _is_local_endo_ring(r):
                _warn("supplied module %s fails the local-endomorphism audit", n)

    records: list[IndecRecord] = []
    for i, (name, rep) in enumerate(zip(names, reps)):
        records.append(IndecRecord(i, name, rep, zero_rep(algebra), False, False))
    inv = Inventory(algebra, records, words)

    # audit: distinct records sharing a dim vector must be non-isomorphic
    for ids in inv.by_dim_vector.values():
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if is_iso(records[ids[i]].rep, records[ids[j]].rep):
                    raise InventoryError(
                        f"records {records[ids[i]].name} and {records[ids[j]].name} are isomorphic")

    if words is None:
        _translate_supplied(inv)  # first: a translate recorded standalone may be projective
    for v in algebra.vertices:
        i = inv.find_iso(projective(algebra, v))
        if i is not None:
            records[i].projective_vertex = v
    if words is not None:
        _translate_strings(inv, words)  # then: string tau must vanish exactly on these
    for r in records:
        r.is_tau_rigid = len(hom_basis(r.rep, r.tau_rep)) == 0
    return inv


def _translate_supplied(inv: Inventory) -> None:
    """tau of each supplied record from a minimal projective presentation, then found by iso test.

    A translate that matches no record is recorded once, as an external record.
    """
    # records is inv.records: the external tau records appended below are visited, not extended
    records = inv.records
    for r in records:
        t = tau(r.rep)
        r.tau_rep = t
        r.is_projective = t.is_zero()
        if not r.is_projective:
            match = inv.find_iso(t)
            if match is None and not r.external:
                _warn("tau of %s is not in the inventory; recording standalone", r.name)
                extra = IndecRecord(len(records), f"tau({r.name})", t, zero_rep(inv.algebra),
                                    False, False, external=True)
                inv.append(extra)
                match = extra.id
            r.tau_id = match


def _translate_strings(inv: Inventory, words: list[StringWord]) -> None:
    """tau of each string record by :func:`string_tau`, one dict probe among the words.

    The projectives are the records found isomorphic to some P_v; string_tau
    must be None exactly on them, and every translate must be a record.
    """
    index = {w: i for i, w in enumerate(words)}
    for r, w in zip(inv.records, words):
        r.is_projective = r.projective_vertex is not None
        t = string_tau(inv.algebra, w)
        if (t is None) != r.is_projective:
            raise InventoryError(f"string tau of {r.name} is {'zero' if t is None else 'nonzero'},"
                                 f" but {r.name} is {'' if r.is_projective else 'not '}projective")
        if t is not None:
            r.tau_id = index.get(t)
            if r.tau_id is None:
                raise InventoryError(f"tau of {r.name} ({string_name(inv.algebra, t)}) "
                                     "is not in the inventory")
            r.tau_rep = inv.records[r.tau_id].rep


def _carry(src: Inventory, algebra: Algebra, vertex: dict[str, str],
           arrow: dict[str, str]) -> Inventory:
    """``src`` carried onto ``algebra`` along the vertex and arrow maps of an isomorphism to src's.

    Record k is the source's record k, with its id, tau id, rigidity and
    projectivity; its module and tau translate are relabelled, and its name
    is that of the source's string carried back and made canonical here.
    The pairs keep the source's order and rename only their supports; the
    pair index, Hasse quiver and tau-tilting sets are the source's objects.
    An algebra isomorphism carries Hom, tau, Fac and mutation index for
    index, so the source's Hasse certificate holds for its quiver here.
    """
    back = {s: t for t, s in vertex.items()}
    back_arrow = {s: t for t, s in arrow.items()}
    words = [canonical(algebra, StringWord(
        tuple(Letter(back_arrow[x.arrow], x.inverse) for x in w.letters), back[w.base_vertex]))
        for w in src.words]

    def relabel(rep: Representation) -> Representation:
        return Representation(algebra, {v: rep.dims[vertex[v]] for v in algebra.vertices},
                              {a.name: rep.maps[arrow[a.name]] for a in algebra.arrows})

    zero = zero_rep(algebra)
    records = [IndecRecord(r.id, name, relabel(r.rep), zero, r.is_tau_rigid, r.is_projective,
                           None if r.projective_vertex is None else back[r.projective_vertex],
                           r.tau_id)
               for r, name in zip(src.records, _names_for(algebra, words))]
    for r in records:
        if r.tau_id is not None:
            r.tau_rep = records[r.tau_id].rep
    inv = Inventory(algebra, records, words)
    inv._source = (src, back)
    return inv


def compatible(inv: Inventory, x, y) -> bool:
    """Pairwise compatibility for pair members.

    Module / module: Hom(X, tau Y) = 0 = Hom(Y, tau X); a module with itself:
    tau-rigidity.  Module / support vertex v: Hom(P_v, X) = 0.  Two support
    vertices are always compatible.
    """
    if not isinstance(x, IndecRecord):
        x, y = y, x  # a module first, if there is one
    if not isinstance(x, IndecRecord):
        return True
    if not isinstance(y, IndecRecord):
        return inv.hom_proj_dim(y, x.id) == 0
    if x.id == y.id:
        return x.is_tau_rigid
    return inv.hom_to_tau(x.id, y.id) == 0 and inv.hom_to_tau(y.id, x.id) == 0


def enumerate_stpairs(inv: Inventory) -> list[STPair]:
    """All size-n cliques in the compatibility graph, in :meth:`pair_sort_key` order.

    The elements are the tau-rigid candidates by name, then the vertices by
    name.  A branch stops once fewer elements are allowed than summands are
    still needed.  Every clique is a tau-rigid pair, a summand of a support
    tau-tilting pair (AIR Thm 2.10), so the n-element cliques are exactly the
    maximal ones.  Listed by support count, each in lexicographic order, they
    are in key order unless two candidates share a name; then they are sorted.
    """
    n = len(inv.algebra.vertices)
    members, adj, k = inv._graph
    buckets: list[list[STPair]] = [[] for _ in range(n + 1)]  # by support count

    def leaf(chosen: tuple[int, ...]):
        j = bisect_left(chosen, k)
        # tuples from lists are allocated at their size; from a generator they are not
        buckets[n - j].append(STPair(tuple(sorted([members[i] for i in chosen[:j]])),
                                     tuple([members[i] for i in chosen[j:]])))

    _cliques(adj, (1 << len(members)) - 1, n, (), leaf)
    pairs = list(chain.from_iterable(buckets))
    rank = inv.name_rank
    if len({rank[i] for i in members[:k]}) < k:  # equal keys keep module id order
        pairs.sort(key=lambda p: (inv.pair_sort_key(p), p.modules))
    return pairs


def restricted_stpairs(inv: Inventory, allowed, held: int | None = None) -> list[STPair]:
    """The pairs with at most one support vertex whose modules are all in ``allowed`` (record
    ids) and, when ``held`` is given, hold that record; in no fixed order.

    In the member order of :func:`enumerate_stpairs`, where the vertices come
    last, such a pair is n - 1 modules and then one more member, a module or a
    vertex.  So the n - 1 modules (``held`` and a clique of the allowed modules
    joined to it) are chosen first, and then any one allowed member after them
    that is joined to all: each pair once, and none with two or more supports.
    A carried inventory reads its source's graph and Hom memo, and renames the
    supports.
    """
    if inv._source is not None:
        src, vertex = inv._source
        return [STPair(p.modules, tuple(vertex[v] for v in p.supports))
                for p in restricted_stpairs(src, allowed, held)]
    members, adj, k = inv._graph
    mods = sum(1 << a for a, i in enumerate(members[:k]) if i in allowed)
    last = mods | (1 << len(members)) - (1 << k)  # the allowed modules and every vertex
    need, start = len(inv.algebra.vertices), ()
    if held is not None:
        if held not in allowed or held not in members[:k]:
            return []
        h = members.index(held)
        mods, last, need, start = mods & adj[h], last & adj[h], need - 1, (h,)
    out: list[STPair] = []

    def pair(chosen: tuple[int, ...]):
        out.append(STPair(tuple(sorted([members[i] for i in chosen if i < k])),
                          tuple([members[i] for i in chosen if i >= k])))

    def one_more(chosen: tuple[int, ...]):
        rest = reduce(int.__and__, map(adj.__getitem__, chosen[len(start):]), last)
        if len(chosen) > len(start):
            rest &= -(2 << chosen[-1])  # the members after the chosen modules
        _cliques(adj, rest, 1, chosen, pair)

    if need:
        _cliques(adj, mods, need - 1, start, one_more)
    else:
        pair(start)  # a one-vertex algebra: the held module alone
    return out


def _cliques(adj: list[int], allowed: int, need: int, chosen: tuple[int, ...], leaf) -> None:
    """Call ``leaf`` on ``chosen`` plus each ``need`` set bits of ``allowed`` that form a clique.

    The bits are walked from the lowest up, so the cliques come ascending
    and in lexicographic order; the last bit is chosen in the loop, and a
    branch stops as soon as fewer than ``need`` bits are left to choose from.
    """
    if not need:
        leaf(chosen)  # the one pair of an algebra without vertices
        return
    while allowed.bit_count() >= need:
        low = allowed & -allowed
        allowed ^= low
        i = low.bit_length() - 1
        if need == 1:
            leaf(chosen + (i,))
        else:
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
            for block in components(algebra, support):
                if block not in blocks:
                    blocks[block] = _block_tau_tilting(inv, block)
                lists.append(blocks[block])
            supports = tuple(sorted(v for v in verts if v not in support))
            for parts in product(*lists):
                out.append(STPair(tuple(sorted(chain.from_iterable(parts))), supports))
    out.sort(key=inv.pair_sort_key)
    return out


def components(algebra: Algebra, support) -> list[frozenset]:
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

    They are the :attr:`Inventory.tilting_sets` of the quotient's inventory,
    :meth:`Inventory.block`, so the reduction checks read the same ones, and
    each quotient record is inflated and matched in the ambient inventory once.
    """
    blk = inv.block(block)
    return [tuple(sorted(inv.lift(blk, i) for i in s)) for s in blk.tilting_sets]


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


class PosetQuiver(NamedTuple):
    """A finite DAG on the vertices 0..n-1; for a quiver of pairs, vertex i is pairs[i].

    It is a plain value: :func:`hasse` certifies the quivers it returns, and
    the others are made from certified ones by operations that keep them
    acyclic.
    """

    n: int
    arrows: tuple[tuple[int, int], ...]


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def hasse(inv: Inventory, pairs: list[STPair]) -> PosetQuiver:
    """Covering relations of the Fac order on the given pairs; vertex i is pairs[i].

    The arrows are the mutations (Adachi-Iyama-Reiten, arXiv:1210.1036): every
    almost complete pair has exactly two completions (Thm 2.18), and the two
    are joined by one arrow, oriented by the Fac order (Thm 2.33).  The result
    is certified against the Fac order, computed from its definition as one
    bitmask row per pair, the pairs strictly below it; these rows are the only
    P^2 structure.  Each row must be the OR, over the arrows i -> t, of t and
    t's row.  No row holds its own bit, so a cycle of arrows would break this
    identity somewhere; without a cycle, it makes each row exactly the pairs
    that i reaches.  No arrow i -> t may have t in the row of another
    successor of i, so the arrows are the order's covering relation.
    ``pairs`` must be every support tau-tilting pair of the inventory, each
    with its module ids ascending and its supports sorted, as
    :func:`enumerate_stpairs` gives them; a failure raises HasseError.
    """
    nv = len(pairs)

    def name(i):
        p = pairs[i]
        sup = f" support {{{','.join(sorted(p.supports))}}}" if p.supports else ""
        return inv.pair_label(p) + sup

    # each pair under each of its almost complete parts (support vertices as
    # ("s", v)), and the pairs that have each module as a summand; modules
    # ascending and supports sorted make the part's tuple its canonical key
    buckets: dict[tuple, list[int]] = {}
    containing: dict[int, int] = {}
    for i, p in enumerate(pairs):
        elems = p.modules + tuple(("s", v) for v in p.supports)
        for k in range(len(elems)):
            buckets.setdefault(elems[:k] + elems[k + 1:], []).append(i)
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
    arrows.sort()
    succ: list[list[int]] = [[] for _ in range(nv)]
    for s, t in arrows:
        succ[s].append(t)
    for i, row in enumerate(ge_rows):
        below = step = 0
        for t in succ[i]:
            below |= (1 << t) | ge_rows[t]
            step |= 1 << t
        if below != row:
            j = _lowest_bit(below ^ row)
            if (row >> j) & 1:
                raise HasseError(f"the Fac order has {name(i)} > {name(j)}, but no mutation "
                                 f"arrow from {name(i)} leads to it or above it")
            k = next(t for t in succ[i] if (ge_rows[t] >> j) & 1)
            raise HasseError(f"the Fac order has {name(i)} > {name(k)} > {name(j)} "
                             f"but lacks {name(i)} > {name(j)}")
        for k in succ[i]:
            implied = step & ge_rows[k]
            if implied:
                t = _lowest_bit(implied)
                raise HasseError(f"the arrow {name(i)} -> {name(t)} is not a covering "
                                 f"relation: it passes through {name(k)}")
    return PosetQuiver(nv, tuple(arrows))


def full_subquiver(pq: PosetQuiver, keep: list[int]) -> PosetQuiver:
    """Vertex k is ``keep[k]``, each kept once; the arrows of ``pq`` between them (not recomputed)."""
    bad = [v for v in keep if not 0 <= v < pq.n]
    if bad:
        raise UnknownVertex(bad[0])
    pos = {v: k for k, v in enumerate(keep)}
    if len(pos) != len(keep):
        twice = next(v for k, v in enumerate(keep) if pos[v] != k)
        raise BadIndex(f"vertex {twice} is kept twice")
    arrows = [(pos[s], pos[t]) for s, t in pq.arrows if s in pos and t in pos]
    return PosetQuiver(len(keep), tuple(sorted(arrows)))
