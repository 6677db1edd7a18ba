import pytest
from hypothesis import given, settings, strategies as st

import taured.tilting
from taured.algebra import Arrow, Quiver, build_algebra
from taured.errors import UnknownVertex
from taured.linalg import Matrix
from taured.reps import in_fac, is_iso
from taured.series import series_algebra
from taured.strings import enumerate_strings, string_to_rep
from taured.tilting import (
    PosetQuiver,
    STPair,
    build_inventory,
    compatible,
    enumerate_stpairs,
    full_subquiver,
    hasse,
    oracle_stpairs_via_quotients,
    order_ge,
    tau_tilting_pairs,
)


def test_inventory_a3sq(a3sq_inv):
    names = sorted(r.name for r in a3sq_inv.records)
    assert names == ["1", "1/2", "2", "2/3", "3"]
    projs = {r.name for r in a3sq_inv.records if r.is_projective}
    assert projs == {"1/2", "2/3", "3"}
    assert all(r.is_tau_rigid for r in a3sq_inv.records)
    # tau chain: 1 -> 2 -> 3
    r1 = a3sq_inv.record_by_name("1")
    assert a3sq_inv.records[r1.tau_id].name == "2"


def test_inventory_counts(corpus):
    assert len(build_inventory(corpus["KA2"])) == 3
    assert len(build_inventory(corpus["A4^2"])) == 7


def test_compatible(a3sq_inv):
    s2 = a3sq_inv.record_by_name("2")
    m23 = a3sq_inv.record_by_name("2/3")
    p1 = a3sq_inv.record_by_name("1/2")
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
        assert pq.reaches(s, t)
    for i in range(pq.n):
        for j in range(pq.n):
            for k in range(pq.n):
                if pq.reaches(i, j) and pq.reaches(j, k):
                    assert pq.reaches(i, k)
    # and nothing more: each vertex reaches exactly what a graph search finds
    for i in range(pq.n):
        seen, todo = set(), [i]
        while todo:
            u = todo.pop()
            for s, t in pq.arrows:
                if s == u and t not in seen:
                    seen.add(t)
                    todo.append(t)
        assert {j for j in range(pq.n) if pq.reaches(i, j)} == seen


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
