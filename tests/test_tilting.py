import gc
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import taured.tilting
from taured.algebra import Arrow, Quiver, Relation, build_algebra
from taured.corpus import standard_corpus
from taured.dsl import parse
from taured.errors import BadIndex, InventoryError, UnknownVertex
from taured.linalg import Matrix
from taured.reps import hom_basis, is_iso, projective
from taured.series import series_algebra
from taured.strings import enumerate_strings, string_to_rep
from taured.reduction import verify_reduction
from taured.tilting import (
    BlockProduct,
    Inventory,
    PosetQuiver,
    _rigid_subsets,
    build_inventory,
    compatible,
    enumerate_stpairs,
    full_subquiver,
    hasse,
    oracle_stpairs_via_quotients,
    restricted_stpairs,
)

from helpers import (
    box_product,
    in_fac,
    order_ge,
    product_hasse_quiver,
    product_pairs,
    record_by_name,
    reference_stpairs,
    sum_rep,
    tau_tilting_pairs,
)


def test_inventory_a3sq(a3sq_inv):
    names = sorted(r.name for r in a3sq_inv.records)
    assert names == ["1", "1/2", "2", "2/3", "3"]
    projs = {r.name for r in a3sq_inv.records if r.is_projective}
    assert projs == {"1/2", "2/3", "3"}
    assert all(r.is_tau_rigid for r in a3sq_inv.records)
    # tau chain: 1 -> 2 -> 3
    r1 = record_by_name(a3sq_inv, "1")
    assert a3sq_inv.records[r1.tau_id].name == "2"


def test_inventory_counts(corpus):
    assert len(build_inventory(corpus["KA2"])) == 3
    assert len(build_inventory(corpus["A4^2"])) == 7


def test_compatible(a3sq_inv):
    s2 = record_by_name(a3sq_inv, "2")
    m23 = record_by_name(a3sq_inv, "2/3")
    p1 = record_by_name(a3sq_inv, "1/2")
    assert not compatible(a3sq_inv, s2, "2")       # Hom(P_2, S_2) != 0
    assert compatible(a3sq_inv, m23, "1")          # Hom(P_1, 2/3) = 0
    assert compatible(a3sq_inv, p1, m23)           # both projective
    assert compatible(a3sq_inv, s2, s2)            # tau-rigid with itself
    assert compatible(a3sq_inv, "1", "2")
    # a vertex first is the same test
    assert compatible(a3sq_inv, "2", s2) == compatible(a3sq_inv, s2, "2")
    assert compatible(a3sq_inv, "1", m23) == compatible(a3sq_inv, m23, "1")


def _restricted_by_filter(inv, allowed, held):
    return {p for p in inv.pairs if len(p.supports) <= 1 and set(p.modules) <= allowed
            and (held is None or held in p.modules)}


def test_restricted_pairs_are_the_filtered_pairs(pair_invs):
    """The restricted listing gives the pairs with at most one support whose modules are
    allowed and hold the held record, each once, on random allowed sets."""
    rng = random.Random(0)
    for name, inv in pair_invs.items():
        ids = [r.id for r in inv.candidates()]
        for trial in range(6):
            allowed = set(ids) if trial == 0 else {i for i in ids if rng.random() < 0.7}
            for held in [None, *rng.sample(ids, min(2, len(ids)))]:
                got = restricted_stpairs(inv, allowed, held)
                assert len(got) == len(set(got)), name
                assert set(got) == _restricted_by_filter(inv, allowed, held), (name, held)


def test_restricted_pairs_of_a_carried_inventory_rename_the_supports():
    inv = build_inventory(series_algebra("D", 5))
    quiver = inv.algebra.quiver
    renamed = build_algebra(
        Quiver(tuple(f"v{v}" for v in quiver.vertices),
               tuple(Arrow(a.name, f"v{a.src}", f"v{a.tgt}") for a in quiver.arrows)),
        inv.algebra.relations)
    moved = inv.inventory_of(renamed)
    assert moved._source[0] is inv
    allowed = {r.id for r in inv.candidates()}
    for held in (None, 0):
        got = restricted_stpairs(moved, allowed, held)
        assert got and set(got) == _restricted_by_filter(moved, allowed, held)
        assert {p.supports for p in got} <= {(), *((f"v{v}",) for v in quiver.vertices)}


def test_hom_to_tau_matches_the_translate_hom_basis(corpus_invs, a3sq, a3sq_inv):
    """Read from the memo of Hom into the tau record, dim Hom(X_i, tau X_j) is that of
    the Hom basis into the translate, also for supplied modules."""
    supplied = build_inventory(a3sq, supplied=[(r.name, r.rep) for r in a3sq_inv.records])
    for inv in (*corpus_invs.values(), supplied):
        for x in inv.candidates():
            for y in inv.candidates():
                assert inv.hom_to_tau(x.id, y.id) == len(hom_basis(x.rep, y.tau_rep))


def test_verify_builds_each_hom_basis_once(monkeypatch):
    """``hom_to_tau`` and ``generates`` share one memo: on nakayama_5_5, whose records
    all have a simple top, no pair of modules has its Hom basis computed twice."""
    seen, repeats = [], 0
    real = taured.tilting.hom_basis

    def counting(m, n):
        nonlocal repeats
        repeats += any(a is m and b is n for a, b in seen)
        seen.append((m, n))  # kept alive, so identity is never reused
        return real(m, n)

    monkeypatch.setattr(taured.tilting, "hom_basis", counting)
    from taured.cli import main
    assert main(["verify", str(Path(__file__).parent / "golden" / "nakayama_5_5.alg")]) == 0
    assert len(seen) > 500 and repeats == 0


def test_enumerate_counts(a3sq_inv):
    pairs = enumerate_stpairs(a3sq_inv)
    assert len(pairs) == 12
    tt = tau_tilting_pairs(a3sq_inv)
    assert sorted(a3sq_inv.pair_label(p) for p in tt) == \
        ["1+1/2+3", "1/2+2+2/3", "1/2+2/3+3"]
    assert all(len(p.modules) + len(p.supports) == 3 for p in pairs)


def test_single_vertex_algebra():
    k = build_algebra(Quiver(("1",), ()), [])
    inv = build_inventory(k)
    pairs = enumerate_stpairs(inv)
    assert len(pairs) == 2
    labels = sorted(inv.pair_label(p) for p in pairs)
    assert labels == ["0", "1"]
    H = hasse(inv, pairs)
    assert len(H.arrows) == 1


UNSORTED_VERTICES = """\
algebra unsorted
field rational
vertices 3 1 2
arrow a 3 1
arrow b 1 2
relation a b
"""


def test_cliques_match_brute_force(pair_invs, a3_sink_inv):
    # the reference is sorted by the key, and the cliques come out in its order unsorted
    invs = dict(pair_invs)
    invs["1>2<3"] = a3_sink_inv
    invs["vertex-0"] = build_inventory(
        build_algebra(Quiver(("0", "1"), (Arrow("a", "0", "1"),)), []))
    unsorted, _ = parse(UNSORTED_VERTICES).build()
    assert list(unsorted.vertices) == ["3", "1", "2"]
    invs["3 1 2"] = build_inventory(unsorted)
    for name, inv in invs.items():
        pairs = enumerate_stpairs(inv)
        assert pairs == reference_stpairs(inv), name
        for p in pairs:
            assert list(p.modules) == sorted(p.modules), name
            assert list(p.supports) == sorted(p.supports), name


def test_string_enumeration_reads_no_pair_key(pair_invs, monkeypatch):
    # string names are distinct, so the clique order is the key order
    keyed = []
    pair_sort_key = Inventory.pair_sort_key
    monkeypatch.setattr(Inventory, "pair_sort_key",
                        lambda self, pair: keyed.append(pair) or pair_sort_key(self, pair))
    for name in ("A8", "D8", "nakayama_5_5", "KA2xK"):
        inv = pair_invs[name]
        assert inv.words is not None
        assert enumerate_stpairs(inv) == inv.pairs, name
    assert not keyed


@st.composite
def bad_masks(draw):
    """Masks on up to 9 indices from random ordered bad pairs, self-pairs and
    one-way pairs included, and a subset size."""
    m = draw(st.integers(0, 9))
    bad = [0] * m
    if m:
        for a, b in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                  max_size=2 * m)):
            bad[a] |= 1 << b
    return bad, draw(st.integers(0, m + 1))


@settings(max_examples=200, deadline=None)
@given(bad_masks())
def test_rigid_subsets_match_all_pairs_test(case):
    bad, k = case
    expected = [s for s in combinations(range(len(bad)), k)
                if not any(bad[a] & sum(1 << b for b in s) for a in s)]
    assert _rigid_subsets(bad, k) == expected


@pytest.mark.parametrize("call", ["enumerate_stpairs", "enumerate_strings", "build_inventory",
                                  "oracle_stpairs_via_quotients"])
def test_discarded_results_need_no_cycle_collector(call):
    alg = series_algebra("A", 8)
    inv = build_inventory(alg)
    run = {"enumerate_stpairs": lambda: enumerate_stpairs(inv),
           "enumerate_strings": lambda: enumerate_strings(alg),
           "build_inventory": lambda: build_inventory(alg),
           "oracle_stpairs_via_quotients": lambda: oracle_stpairs_via_quotients(inv)}[call]
    gc.collect()
    gc.disable()
    try:
        run()
        # reference counting alone frees everything the call made
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_oracle_equivalence_small(a3sq_inv, corpus):
    for inv in (a3sq_inv, build_inventory(corpus["KA2"]), build_inventory(corpus["nakayama2"])):
        pairs = enumerate_stpairs(inv)
        oracle = oracle_stpairs_via_quotients(inv)
        assert {p.key() for p in pairs} == {p.key() for p in oracle}


def test_oracle_lifts_each_quotient_record_once(monkeypatch):
    inv = build_inventory(series_algebra("A", 5))
    lifted = []  # the quotient modules inflated, kept alive so no two share an id()
    inflate = taured.tilting.inflate
    monkeypatch.setattr(taured.tilting, "inflate", lambda M: lifted.append(M) or inflate(M))
    oracle = oracle_stpairs_via_quotients(inv)
    assert lifted and len({id(M) for M in lifted}) == len(lifted)
    assert {p.key() for p in oracle} == {p.key() for p in inv.pairs}


def _connected_sets(algebra):
    """Nonempty vertex sets that the arrows inside them connect, by brute force."""
    verts = algebra.vertices
    out = []
    for mask in range(1, 1 << len(verts)):
        chosen = {v for k, v in enumerate(verts) if mask >> k & 1}
        reached = {min(chosen)}
        grew = True
        while grew:
            grew = False
            for a in algebra.arrows:
                if {a.src, a.tgt} <= chosen and len({a.src, a.tgt} & reached) == 1:
                    reached |= {a.src, a.tgt}
                    grew = True
        if reached == chosen:
            out.append(frozenset(chosen))
    return out


@pytest.mark.parametrize("kind, n, expected", [("A", 5, 15), ("D", 4, 11)])
def test_oracle_builds_one_quotient_per_connected_set(monkeypatch, kind, n, expected):
    inv = build_inventory(series_algebra(kind, n))
    built = {"quotient": [], "inventory": 0}
    quotient, inventory = taured.tilting.vertex_subalgebra_quotient, taured.tilting.build_inventory

    def counted_quotient(alg, support):
        built["quotient"].append(frozenset(support))
        return quotient(alg, support)

    def counted_inventory(alg):
        built["inventory"] += 1
        return inventory(alg)

    monkeypatch.setattr(taured.tilting, "vertex_subalgebra_quotient", counted_quotient)
    monkeypatch.setattr(taured.tilting, "build_inventory", counted_inventory)
    monkeypatch.setattr(taured.reduction, "build_inventory", counted_inventory)
    oracle = oracle_stpairs_via_quotients(inv)
    connected = _connected_sets(inv.algebra)
    assert len(connected) == expected
    assert sorted(built["quotient"], key=sorted) == sorted(connected, key=sorted)
    # one inventory per isomorphism class of the proper blocks: A_1 .. A_4 for
    # A_5; A_1, A_2, linear A_3 and 1 <- 3 -> 2 for D_4; the whole vertex set
    # is carried from the ambient inventory
    classes = {"A": 4, "D": 4}[kind]
    assert built["inventory"] == classes
    assert {p.key() for p in oracle} == {p.key() for p in inv.pairs}
    # the reduction checks read every block of their socle quotients from the
    # oracle's cache: no quotient or inventory is built beyond the oracle's
    assert verify_reduction(inv.algebra, inv=inv).passed
    assert built["inventory"] == classes
    assert len(built["quotient"]) == expected
    # the cache keeps the proper connected sets that one arrow joins to the rest
    kept = [c for c in connected if len(c) < n
            and sum((a.src in c) != (a.tgt in c) for a in inv.algebra.arrows) == 1]
    assert sorted(inv._blocks, key=sorted) == sorted(kept, key=sorted)
    assert len(kept) == {"A": 8, "D": 6}[kind]


def _semibrick_count(orthogonal: list[int], allowed: int) -> int:
    """The number of cliques of any size, the empty one included, among the bits of ``allowed``."""
    count = 1
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        count += _semibrick_count(orthogonal, allowed & orthogonal[low.bit_length() - 1])
    return count


@pytest.mark.parametrize("name", [*standard_corpus(), "rsz_A7", "rsz_D7",
                                  "nakayama_5_4", "nakayama_5_5"])
def test_bricks_count_the_pairs_and_the_join_irreducibles(corpus, name):
    """Semibricks are as many as the pairs (Asai, Semibricks), and bricks as the pairs
    with exactly one arrow out, the join-irreducibles (DIRRT, arXiv:1711.01785)."""
    algebra = corpus[name] if name in corpus else parse(
        (Path(__file__).parent / "golden" / f"{name}.alg").read_text()).build()[0]
    inv = build_inventory(algebra)
    bricks = [r.rep for r in inv.candidates() if len(hom_basis(r.rep, r.rep)) == 1]
    orthogonal = [sum(1 << b for b, y in enumerate(bricks)
                      if a != b and not hom_basis(x, y) and not hom_basis(y, x))
                  for a, x in enumerate(bricks)]
    assert _semibrick_count(orthogonal, (1 << len(bricks)) - 1) == len(inv.pairs)
    out = Counter(s for s, _ in inv.hasse_quiver.arrows)
    assert sum(k == 1 for k in out.values()) == len(bricks)


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("name, classes", [("rsz_A7", 7), ("rsz_D7", 11),
                                           ("nakayama_5_4", 6), ("nakayama_5_5", 6)])
def test_carried_inventories_match_fresh_builds(monkeypatch, name, classes, shuffled):
    af = parse((Path(__file__).parent / "golden" / f"{name}.alg").read_text())
    if shuffled:
        rng = random.Random(name)
        for part in (af.vertices, af.arrows, af.relations):
            rng.shuffle(part)
    algebra, _ = af.build()
    inv = build_inventory(algebra)
    served = []
    inventory_of = Inventory.inventory_of

    def recorded(self, alg):
        served.append(inventory_of(self, alg))
        return served[-1]

    # every block and socle quotient that `verify` reads
    monkeypatch.setattr(Inventory, "inventory_of", recorded)
    oracle_stpairs_via_quotients(inv)
    assert verify_reduction(algebra, inv=inv).passed
    carried = [got for got in served if got._source is not None]
    # one inventory built per isomorphism class, the ambient one included
    assert 1 + len(served) - len(carried) == classes
    for got in carried:
        fresh = build_inventory(got.algebra)
        # a carried record keeps its source's id, so records are compared by
        # name, which is unique in an inventory
        by_name = {r.name: r for r in fresh.records}
        assert len(by_name) == len(fresh.records) == len(got.records)

        def tau_name(inv, r):
            return None if r.tau_id is None else inv.records[r.tau_id].name

        for g in got.records:
            f = by_name[g.name]
            assert ((tau_name(got, g), g.projective_vertex, g.is_tau_rigid)
                    == (tau_name(fresh, f), f.projective_vertex, f.is_tau_rigid))
            assert is_iso(g.rep, f.rep)

        def named(inv, ids):
            return tuple(sorted(inv.records[i].name for i in ids))

        # the carry keeps its source's pair order, so pairs are matched by
        # summand names and supports, and the quivers along that bijection
        position = {(named(fresh, p.modules), p.supports): k for k, p in enumerate(fresh.pairs)}
        to_fresh = [position[named(got, p.modules), p.supports] for p in got.pairs]
        assert sorted(to_fresh) == list(range(len(fresh.pairs)))
        assert ({(to_fresh[s], to_fresh[t]) for s, t in got.hasse_quiver.arrows}
                == set(fresh.hasse_quiver.arrows))
        assert len(got.tilting_sets) == len(fresh.tilting_sets)
        assert ({named(got, s) for s in got.tilting_sets}
                == {named(fresh, s) for s in fresh.tilting_sets})


def test_carry_shares_the_source_results_in_the_source_order():
    inv = build_inventory(series_algebra("D", 5))
    same = inv.inventory_of(series_algebra("D", 5))
    assert same._source[0] is inv
    assert same.pairs is inv.pairs
    # renamed vertices: the source's pairs in the source's order, supports renamed
    quiver = inv.algebra.quiver
    renamed = build_algebra(
        Quiver(tuple(f"v{v}" for v in quiver.vertices),
               tuple(Arrow(a.name, f"v{a.src}", f"v{a.tgt}") for a in quiver.arrows)),
        inv.algebra.relations)
    moved = inv.inventory_of(renamed)
    assert moved._source[0] is inv and moved.pairs is not inv.pairs
    assert [p.modules for p in moved.pairs] == [p.modules for p in inv.pairs]
    for got in (same, moved):
        assert got.hasse_quiver is inv.hasse_quiver
        assert got.pair_index is inv.pair_index
        assert got.tilting_sets is inv.tilting_sets
    fresh = build_inventory(renamed)
    assert sorted(moved.pairs, key=moved.pair_sort_key) == fresh.pairs
    assert moved.tilting_sets == fresh.tilting_sets


def test_inventory_of_builds_where_no_isomorphism_is_found(monkeypatch):
    def algebra(vertices, arrows, relations):
        return build_algebra(Quiver(vertices, tuple(Arrow(*a) for a in arrows)),
                             [Relation.monomial(w) for w in relations])

    # rad-square-zero 0 -> 1 -> 2 and hereditary 0 -> 1 <- 2 share the cheap
    # invariants (dimension 5, three vertices, two arrows) but are not isomorphic
    rsz = algebra(("0", "1", "2"), [("a", "0", "1"), ("b", "1", "2")], [("a", "b")])
    hereditary = algebra(("0", "1", "2"), [("a", "0", "1"), ("b", "2", "1")], [])
    inv = build_inventory(rsz)
    built = []
    build = taured.tilting.build_inventory
    monkeypatch.setattr(taured.tilting, "build_inventory",
                        lambda alg: built.append(alg) or build(alg))
    got = inv.inventory_of(hereditary)
    assert built == [hereditary] and got._source is None
    assert [r.name for r in got.records] == [r.name for r in build(hereditary).records]
    # a renamed copy of the ambient algebra is carried from it, and a second
    # hereditary one from the first
    turned = algebra(("2", "1", "0"), [("y", "1", "0"), ("x", "2", "1")], [("x", "y")])
    assert inv.inventory_of(turned)._source[0] is inv
    assert inv.inventory_of(algebra(("0", "1", "2"), [("b", "2", "1"), ("a", "0", "1")], [])
                            )._source[0] is got
    assert built == [hereditary]


def test_product_pairs_are_products_of_factor_pairs():
    # rad-square-zero A3 (3 -> 2 -> 1) next to cyclic Nakayama (2, 3) on x, y
    a3 = (("1", "2", "3"), (Arrow("a", "2", "1"), Arrow("b", "3", "2")), [("b", "a")])
    nak = (("x", "y"), (Arrow("c", "x", "y"), Arrow("d", "y", "x")),
           [("c", "d", "c"), ("d", "c", "d")])

    def algebra(*parts):
        verts = tuple(v for p in parts for v in p[0])
        arrows = tuple(a for p in parts for a in p[1])
        return build_algebra(Quiver(verts, arrows),
                             [Relation.monomial(w) for p in parts for w in p[2]])

    inv = build_inventory(algebra(a3, nak))
    factors = [build_inventory(algebra(a3)), build_inventory(algebra(nak))]
    assert {p.key() for p in inv.pairs} == {p.key() for p in oracle_stpairs_via_quotients(inv)}
    assert len(inv.pairs) == len(factors[0].pairs) * len(factors[1].pairs)
    tau_tilting = [sum(p.is_tau_tilting for p in f.pairs) for f in (inv, *factors)]
    assert tau_tilting[0] == tau_tilting[1] * tau_tilting[2]


def test_box_product_is_the_hasse_quiver_of_the_product_algebra():
    # rad-square-zero A2 (2 -> 1) next to A1 (vertex 3), and the two apart
    def algebra(verts, arrows):
        return build_algebra(Quiver(verts, arrows), [])

    a2 = build_inventory(algebra(("1", "2"), (Arrow("a", "2", "1"),)))
    a1 = build_inventory(algebra(("3",), ()))
    both = build_inventory(algebra(("1", "2", "3"), (Arrow("a", "2", "1"),)))
    box = box_product([a2.hasse_quiver, a1.hasse_quiver], range(10))
    assert (a2.hasse_quiver.n, len(a2.hasse_quiver.arrows)) == (5, 5)
    # P·n/2 arrows: each of the 5 arrows of A2 twice, the arrow of A1 five times
    assert (box.n, len(box.arrows)) == (10, 5 * 2 + 1 * 5)
    product_inv = BlockProduct([a2, a1])
    labels = [(product_inv.pair_label(p), p.supports) for p in product_pairs(product_inv)]
    assert labels == [(both.pair_label(p), p.supports) for p in both.pairs]
    # the same numbering as the product algebra's pairs, so the quivers are equal
    assert product_hasse_quiver(product_inv) == hasse(both, both.pairs)
    assert box_product([a2.hasse_quiver], range(5)) == a2.hasse_quiver


def test_order(a3sq_inv):
    pairs = enumerate_stpairs(a3sq_inv)
    by_label = {a3sq_inv.pair_label(p): p for p in pairs}
    top = by_label["1/2+2/3+3"]
    zero = by_label["0"]
    assert all(order_ge(a3sq_inv, top, p) for p in pairs)
    assert all(order_ge(a3sq_inv, p, zero) for p in pairs)
    assert not any(order_ge(a3sq_inv, zero, p) for p in pairs if p is not zero)
    assert order_ge(a3sq_inv, top, by_label["1+1/2+3"])


def test_order_matches_rep_level_in_fac(a3sq_inv):
    pairs = enumerate_stpairs(a3sq_inv)
    for p1 in pairs[:6]:
        m1 = sum_rep(a3sq_inv, p1.modules)
        for p2 in pairs[:6]:
            m2 = sum_rep(a3sq_inv, p2.modules)
            assert order_ge(a3sq_inv, p1, p2) == in_fac(m2, m1)


def test_fac_contains_matches_in_fac(corpus_invs, a3_sink_inv):
    # fac_contains answers summands and support mismatches without a rank test,
    # and a module with a simple top from one source at a time
    assert not all(a3_sink_inv.has_simple_top(r.id) for r in a3_sink_inv.records)
    for name, inv in {**corpus_invs, "a3-sink": a3_sink_inv}.items():
        for p in inv.pairs:
            m = sum_rep(inv, p.modules)
            for r in inv.records:
                assert inv.fac_contains(r.id, frozenset(p.modules)) == in_fac(r.rep, m), name
        for r in inv.records:
            if inv.has_simple_top(r.id):
                assert inv.generators(r.id) == {x.id for x in inv.records
                                                if x.id != r.id and in_fac(r.rep, x.rep)}, name


def test_hasse_counts(a3sq_inv):
    pairs = enumerate_stpairs(a3sq_inv)
    H = hasse(a3sq_inv, pairs)
    assert H.n == 12 and len(H.arrows) == 18


def test_hasse_unique_max_min(corpus_invs):
    for name, inv in corpus_invs.items():
        pairs = enumerate_stpairs(inv)
        H = hasse(inv, pairs)
        sources = {i for i in range(H.n)} - {t for _, t in H.arrows}
        sinks = {i for i in range(H.n)} - {s for s, _ in H.arrows}
        if H.n > 1:
            assert len(sources) == 1, name
            assert len(sinks) == 1, name
        top = pairs[next(iter(sources))] if H.n > 1 else pairs[0]
        projs = {r.id for r in inv.records if r.is_projective and not r.external}
        assert frozenset(top.modules) == projs
        bottom = pairs[next(iter(sinks))] if H.n > 1 else pairs[0]
        assert not bottom.modules


def test_mutation_property(corpus_invs):
    for name, inv in corpus_invs.items():
        pairs = enumerate_stpairs(inv)
        H = hasse(inv, pairs)
        for s, t in H.arrows:
            ps, pt = pairs[s], pairs[t]
            a = set(ps.modules) | {("s", v) for v in ps.supports}
            b = set(pt.modules) | {("s", v) for v in pt.supports}
            assert len(a - b) == 1 and len(b - a) == 1, name


def test_no_shared_module_part(corpus_invs):
    for name, inv in corpus_invs.items():
        pairs = enumerate_stpairs(inv)
        parts = [frozenset(p.modules) for p in pairs]
        assert len(set(parts)) == len(parts), name


def test_full_subquiver(a3sq_inv):
    pairs = enumerate_stpairs(a3sq_inv)
    H = hasse(a3sq_inv, pairs)
    tt = [i for i, p in enumerate(pairs) if p.is_tau_tilting]
    sub = full_subquiver(H, tt)
    assert sub.n == 3 and len(sub.arrows) == 2
    top = [a3sq_inv.pair_label(pairs[i]) for i in tt].index("1/2+2/3+3")
    assert {s for s, _ in sub.arrows} == {top}
    assert full_subquiver(H, list(range(H.n))) == H
    assert full_subquiver(H, []).n == 0
    with pytest.raises(UnknownVertex):
        full_subquiver(H, [H.n])
    # a repeated vertex would lose the arrows of its first place
    with pytest.raises(BadIndex, match="vertex 0 is kept twice"):
        full_subquiver(PosetQuiver(3, ((0, 1), (1, 2))), [0, 0, 1])


def test_user_supplied_inventory_matches_strings(a3sq, a3sq_inv):
    from taured.strings import string_name

    supplied = [(string_name(a3sq, w), string_to_rep(a3sq, w))
                for w in enumerate_strings(a3sq)]
    inv2 = build_inventory(a3sq, supplied=supplied)
    pairs1 = {frozenset(a3sq_inv.pair_label(p) for p in enumerate_stpairs(a3sq_inv))}
    pairs2 = {frozenset(inv2.pair_label(p) for p in enumerate_stpairs(inv2))}
    assert pairs1 == pairs2


def test_prime_field_enumeration_matches_rational(corpus):
    from taured.linalg import PrimeField

    for kind, n in (("A", 3), ("A", 4), ("D", 4)):
        inv_q = build_inventory(series_algebra(kind, n))
        inv_p = build_inventory(series_algebra(kind, n, field=PrimeField(5)))
        lp = sorted((inv_q.pair_label(p), tuple(sorted(p.supports)))
                    for p in enumerate_stpairs(inv_q))
        lq = sorted((inv_p.pair_label(p), tuple(sorted(p.supports)))
                    for p in enumerate_stpairs(inv_p))
        assert lp == lq


def test_is_iso_reflexive_symmetric_on_inventory(a3sq_inv):
    recs = a3sq_inv.records
    for r in recs:
        assert is_iso(r.rep, r.rep)
    for i in range(len(recs)):
        for j in range(len(recs)):
            assert is_iso(recs[i].rep, recs[j].rep) == is_iso(recs[j].rep, recs[i].rep)


def test_supplied_backend_warns_on_decomposable(a3sq, caplog):
    import logging

    from taured.reps import direct_sum, simple

    decomposable = direct_sum([simple(a3sq, "1"), simple(a3sq, "3")])
    with caplog.at_level(logging.WARNING):
        build_inventory(a3sq, supplied=[("fake", decomposable), ("s2", simple(a3sq, "2"))])
    assert any("local-endomorphism" in r.message for r in caplog.records)


def test_supplied_backend_bricks_pass_audit_over_f2(caplog):
    import logging

    from taured.algebra import Relation
    from taured.linalg import PrimeField
    from taured.strings import string_name

    quiver = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    alg = build_algebra(quiver, [Relation.monomial(("a", "b"))], field=PrimeField(2))
    supplied = [(string_name(alg, w), string_to_rep(alg, w)) for w in enumerate_strings(alg)]
    assert "1/2" in dict(supplied)
    with caplog.at_level(logging.WARNING):
        inv = build_inventory(alg, supplied=supplied)
    assert not [r for r in caplog.records if "local-endomorphism" in r.message]
    assert len(enumerate_stpairs(inv)) == 12


def test_unique_maximum_by_order(corpus_invs):
    for name, inv in corpus_invs.items():
        pairs = enumerate_stpairs(inv)
        projs = frozenset(r.id for r in inv.records if r.is_projective and not r.external)
        top = next(p for p in pairs if frozenset(p.modules) == projs)
        zero = next(p for p in pairs if not p.modules)
        for p in pairs:
            assert order_ge(inv, top, p), name
            assert order_ge(inv, p, zero), name


def test_projective_flag_matches_actual_projectives(corpus_invs):
    from taured.reps import projective

    for name, inv in corpus_invs.items():
        alg = inv.algebra
        projs = {v: projective(alg, v) for v in alg.vertices}
        for r in inv.records:
            matches = any(r.dim_vector == p.dim_vector and is_iso(r.rep, p)
                          for p in projs.values())
            assert r.is_projective == matches, (name, r.name)
            if r.is_projective:
                assert r.projective_vertex in alg.vertices


def test_projective_vertex_names_the_projective(corpus, corpus_invs):
    for name, alg in corpus.items():
        inv = corpus_invs[name]
        at = {r.projective_vertex: r for r in inv.records if r.projective_vertex is not None}
        assert set(at) == set(alg.vertices), name
        for v, r in at.items():
            assert r.is_projective and is_iso(r.rep, projective(alg, v)), (name, v)


def test_empty_supplied_list_raises(a3sq):
    with pytest.raises(InventoryError):
        build_inventory(a3sq, supplied=[])


@st.composite
def random_radsq_zero_linear(draw):
    """Random orientation of a linear quiver, all length-two paths killed."""
    from taured.algebra import Relation

    n = draw(st.integers(2, 4))
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = []
    for i in range(1, n):
        if draw(st.booleans()):
            arrows.append(Arrow(f"x{i}", str(i), str(i + 1)))
        else:
            arrows.append(Arrow(f"x{i}", str(i + 1), str(i)))
    quiver = Quiver(vertices, tuple(arrows))
    rels = [Relation.monomial((x.name, y.name))
            for x in arrows for y in arrows if x.tgt == y.src]
    return build_algebra(quiver, rels)


@settings(max_examples=15, deadline=None)
@given(random_radsq_zero_linear())
def test_oracle_equivalence_random_orientations(alg):
    inv = build_inventory(alg)
    pairs = {p.key() for p in enumerate_stpairs(inv)}
    oracle = {p.key() for p in oracle_stpairs_via_quotients(inv)}
    assert pairs == oracle


def test_rational_records_hold_ints_or_fractions(corpus_invs):
    for inv in corpus_invs.values():
        for r in inv.records:
            for rep in (r.rep, r.tau_rep):
                for m in rep.maps.values():
                    assert all(type(a) in (int, Fraction) for row in m.data for a in row)


def _find_iso_by_scan(inv, rep):
    for r in inv.records:
        if r.dim_vector == rep.dim_vector and is_iso(r.rep, rep):
            return r.id
    return None


def test_find_iso_matches_linear_scan(corpus_invs):
    lookups = 0
    for inv in corpus_invs.values():
        for r in inv.records:
            if not r.is_projective:
                assert inv.find_iso(r.tau_rep) == _find_iso_by_scan(inv, r.tau_rep) == r.tau_id
                lookups += 1
    assert lookups > 30


def test_external_tau_record_is_found_by_dimension_vector(a3sq, a3sq_inv):
    # S1 alone: its translate S2 is not supplied, so it is appended; the translate
    # S3 of that external record is computed but not appended
    s1, s2, s3 = (record_by_name(a3sq_inv, name).rep for name in ("1", "2", "3"))
    inv = build_inventory(a3sq, supplied=[("1", s1)])
    assert [(r.name, r.external, r.tau_id) for r in inv.records] == \
        [("1", False, 1), ("tau(1)", True, None)]
    assert not inv.records[1].is_projective
    assert [inv.find_iso(s) for s in (s1, s2, s3)] == [0, 1, None]


def _pair_sort_key_by_names(inv, pair):
    return (len(pair.supports), tuple(sorted(inv.records[i].name for i in pair.modules)),
            tuple(sorted(pair.supports)))


def _assert_same_pair_order(inv, pairs):
    by_rank = [inv.pair_sort_key(p) for p in pairs]
    by_name = [_pair_sort_key_by_names(inv, p) for p in pairs]
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            assert (by_rank[i] < by_rank[j]) == (by_name[i] < by_name[j])
            assert (by_rank[i] == by_rank[j]) == (by_name[i] == by_name[j])


def test_rank_pair_key_orders_as_names(corpus_invs, a3sq, a3sq_inv):
    for name in ("A4^2", "D4^2", "KA3", "nakayama2", "KA2xK"):
        inv = corpus_invs[name]
        _assert_same_pair_order(inv, inv.pairs[::-1])
    # duplicate names: the supplied backend keeps the names it is given
    named = [(("x", "y", "x", "z", "y")[r.id], r.rep) for r in a3sq_inv.records]
    inv = build_inventory(a3sq, supplied=named)
    assert len({r.name for r in inv.records}) < len(inv.records)
    pairs = enumerate_stpairs(inv)
    _assert_same_pair_order(inv, pairs)
    assert pairs == sorted(pairs, key=lambda p: _pair_sort_key_by_names(inv, p))
