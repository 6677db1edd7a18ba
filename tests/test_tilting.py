import gc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

import taured.tilting
from taured.algebra import Arrow, Quiver, Relation, build_algebra
from taured.dsl import parse
from taured.errors import UnknownVertex
from taured.linalg import Matrix
from taured.reps import in_fac, is_iso
from taured.series import series_algebra
from taured.strings import enumerate_strings, string_to_rep
from taured.tilting import (
    IndecRecord,
    PosetQuiver,
    STPair,
    _rigid_subsets,
    build_inventory,
    compatible,
    enumerate_stpairs,
    full_subquiver,
    hasse,
    oracle_stpairs_via_quotients,
)

from helpers import order_ge, reaches, record_by_name, tau_tilting_pairs


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


def _cliques_by_brute_force(inv):
    """Every size-n set of candidates and vertices that is pairwise compatible,
    each element with itself included, as pairs in canonical order."""
    n = len(inv.algebra.vertices)
    pairs = []
    for subset in combinations(inv.candidates() + list(inv.algebra.vertices), n):
        if all(compatible(inv, x, y) for x, y in combinations_with_replacement(subset, 2)):
            pairs.append(STPair(
                tuple(sorted(x.id for x in subset if isinstance(x, IndecRecord))),
                tuple(sorted(x for x in subset if not isinstance(x, IndecRecord)))))
    return sorted(pairs, key=inv.pair_sort_key)


UNSORTED_VERTICES = """\
algebra unsorted
field rational
vertices 3 1 2
arrow a 3 1
arrow b 1 2
relation a b
"""


def test_cliques_match_brute_force(corpus_invs, a3_sink_inv):
    invs = dict(corpus_invs)
    invs["1>2<3"] = a3_sink_inv
    invs["vertex-0"] = build_inventory(
        build_algebra(Quiver(("0", "1"), (Arrow("a", "0", "1"),)), []))
    unsorted, _ = parse(UNSORTED_VERTICES).build()
    assert list(unsorted.vertices) == ["3", "1", "2"]
    invs["3 1 2"] = build_inventory(unsorted)
    for name, inv in invs.items():
        pairs = enumerate_stpairs(inv)
        assert pairs == _cliques_by_brute_force(inv), name
        for p in pairs:
            assert list(p.modules) == sorted(p.modules), name
            assert list(p.supports) == sorted(p.supports), name


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
    oracle = oracle_stpairs_via_quotients(inv)
    connected = _connected_sets(inv.algebra)
    assert len(connected) == expected
    assert sorted(built["quotient"], key=sorted) == sorted(connected, key=sorted)
    assert built["inventory"] == expected
    assert {p.key() for p in oracle} == {p.key() for p in inv.pairs}


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
        m1 = a3sq_inv.sum_rep(p1.modules)
        for p2 in pairs[:6]:
            m2 = a3sq_inv.sum_rep(p2.modules)
            assert order_ge(a3sq_inv, p1, p2) == in_fac(m2, m1)


def test_fac_contains_matches_in_fac(corpus_invs, a3_sink_inv):
    # fac_contains answers summands and support mismatches without a rank test,
    # and a module with a simple top from one source at a time
    assert not all(a3_sink_inv.has_simple_top(r.id) for r in a3_sink_inv.records)
    for name, inv in {**corpus_invs, "a3-sink": a3_sink_inv}.items():
        for p in inv.pairs:
            m = inv.sum_rep(p.modules)
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


def test_poset_quiver_rejects_cycles():
    with pytest.raises(ValueError):
        PosetQuiver(2, ((0, 1), (1, 0)))


def test_user_supplied_inventory_matches_strings(a3sq, a3sq_inv):
    from taured.strings import string_name

    supplied = [(string_name(a3sq, w), string_to_rep(a3sq, w))
                for w in enumerate_strings(a3sq)]
    inv2 = build_inventory(a3sq, backend="supplied", supplied=supplied)
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


@st.composite
def random_dag(draw):
    n = draw(st.integers(1, 7))
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.add((i, j))
    return PosetQuiver(n, tuple(sorted(edges)))


@settings(max_examples=40, deadline=None)
@given(random_dag())
def test_reachability_closure(pq):
    # arrows imply reachability; reachability is transitive
    for s, t in pq.arrows:
        assert reaches(pq, s, t)
    for i in range(pq.n):
        for j in range(pq.n):
            for k in range(pq.n):
                if reaches(pq, i, j) and reaches(pq, j, k):
                    assert reaches(pq, i, k)
    # and nothing more: each vertex reaches exactly what a graph search finds
    for i in range(pq.n):
        seen, todo = set(), [i]
        while todo:
            u = todo.pop()
            for s, t in pq.arrows:
                if s == u and t not in seen:
                    seen.add(t)
                    todo.append(t)
        assert {j for j in range(pq.n) if reaches(pq, i, j)} == seen


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
        build_inventory(a3sq, backend="supplied",
                        supplied=[("fake", decomposable), ("s2", simple(a3sq, "2"))])
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
        inv = build_inventory(alg, backend="supplied", supplied=supplied)
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
    # S1 alone: its translates S2 and S3 are not supplied, so they are appended
    s1, s2, s3 = (record_by_name(a3sq_inv, name).rep for name in ("1", "2", "3"))
    inv = build_inventory(a3sq, backend="supplied", supplied=[("1", s1)])
    assert [(r.name, r.external, r.tau_id) for r in inv.records] == \
        [("1", False, 1), ("tau(1)", True, 2), ("tau(tau(1))", True, None)]
    assert [inv.find_iso(s) for s in (s1, s2, s3)] == [0, 1, 2]


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
    inv = build_inventory(a3sq, backend="supplied", supplied=named)
    assert len({r.name for r in inv.records}) < len(inv.records)
    pairs = enumerate_stpairs(inv)
    _assert_same_pair_order(inv, pairs)
    assert pairs == sorted(pairs, key=lambda p: _pair_sort_key_by_names(inv, p))
