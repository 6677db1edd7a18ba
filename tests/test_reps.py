import os
from fractions import Fraction
from itertools import combinations

import pytest

from taured.algebra import (
    Arrow,
    Quiver,
    Relation,
    build_algebra,
    quotient_by_elements,
    vertex_subalgebra_quotient,
)
from taured.corpus import hereditary_a, hereditary_d3, standard_corpus
from taured.dsl import parse_file
from taured.errors import AlgebraMismatch, UnknownVertex, ZeroModule
from taured.linalg import Matrix, QQ, PrimeField
from taured.reps import (
    Morphism,
    InjSum,
    ProjSum,
    Representation,
    bar,
    direct_sum,
    hom_basis,
    inflate,
    injective,
    is_iso,
    is_sincere,
    kernel_of,
    minimal_presentation,
    projective,
    simple,
    tau,
    top_lifts,
    zero_rep,
)
from taured.reduction import find_proj_injectives, socle_quotient, verify_reduction
from taured.strings import enumerate_strings, string_name, string_to_rep
from taured.tilting import build_inventory, oracle_stpairs_via_quotients

from helpers import (
    cyclic_nakayama,
    hom_dim,
    in_fac,
    reference_injective,
    reference_projective,
    satisfies_table_by_all_pairs,
    solve_right,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def named(a3sq):
    return {string_name(a3sq, w): string_to_rep(a3sq, w) for w in enumerate_strings(a3sq)}


def test_simple(a3sq):
    assert simple(a3sq, "2").dim_vector == (0, 1, 0)
    with pytest.raises(UnknownVertex):
        simple(a3sq, "9")


def test_projectives(a3sq, corpus):
    assert projective(a3sq, "1").dim_vector == (1, 1, 0)
    assert projective(a3sq, "3").dim_vector == (0, 0, 1)
    d4 = corpus["D4^2"]
    p4 = projective(d4, "4")
    assert p4.dim_vector == (0, 0, 1, 1)


def test_injectives(a3sq):
    i2 = injective(a3sq, "2")
    assert i2.dim_vector == (1, 1, 0)
    assert is_iso(projective(a3sq, "1"), i2)
    assert injective(a3sq, "1").dim_vector == (1, 0, 0)
    ka2 = build_algebra(Quiver(("1", "2"), (Arrow("a", "2", "1"),)), [])
    assert injective(ka2, "1").dim_vector == (1, 1)


def _slot_sum_inputs():
    for field in (QQ, PrimeField(2)):
        for name, alg in standard_corpus(field).items():
            yield f"{name}/{field}", alg
    for name in ("rsz_A7", "rsz_D7", "nakayama_5_5", "nakayama_5_4"):
        yield name, parse_file(os.path.join(GOLDEN, f"{name}.alg")).build()[0]
    square = Quiver(("1", "2", "3", "4"), (Arrow("a", "1", "2"), Arrow("b", "2", "4"),
                                           Arrow("c", "1", "3"), Arrow("d", "3", "4")))
    yield "square", build_algebra(
        square, [Relation(terms=((Fraction(1), ("a", "b")), (Fraction(-1), ("c", "d"))))])


def _same_rep(M, N) -> bool:
    return M.dims == N.dims and M.maps == N.maps


def test_slot_sums_match_the_reference_builders():
    for name, alg in _slot_sum_inputs():
        vertices = list(alg.vertices)
        for v in vertices:
            assert _same_rep(projective(alg, v), reference_projective(alg, v)), (name, v)
            assert _same_rep(injective(alg, v), reference_injective(alg, v)), (name, v)
        repeated = vertices[:2] + vertices + vertices[:1]
        assert _same_rep(ProjSum(alg, repeated).rep,
                         direct_sum([reference_projective(alg, v) for v in repeated])), name
        assert _same_rep(InjSum(alg, repeated).rep,
                         direct_sum([reference_injective(alg, v) for v in repeated])), name


def test_hom_examples(a3sq, named):
    assert hom_dim(named["2/3"], named["1/2"]) == 1
    assert hom_dim(named["1"], named["1/2"]) == 0
    assert hom_dim(named["1"], zero_rep(a3sq)) == 0


def test_hom_morphisms_verify(named):
    for f in hom_basis(named["2/3"], named["1/2"]):
        assert f.verify()


def test_hom_algebra_mismatch(a3sq, named):
    other = build_algebra(Quiver(("1", "2"), (Arrow("a", "2", "1"),)), [])
    with pytest.raises(AlgebraMismatch):
        hom_basis(named["1"], simple(other, "1"))


def test_is_iso(a3sq, named):
    assert is_iso(named["1"], named["1"])
    assert not is_iso(named["1"], named["2"])
    assert is_iso(projective(a3sq, "1"), injective(a3sq, "2"))
    # same dim vector, non-isomorphic: S1 + S2 vs the uniserial 1/2
    sum12 = direct_sum([named["1"], named["2"]])
    assert sum12.dim_vector == named["1/2"].dim_vector
    assert not is_iso(sum12, named["1/2"])


def test_direct_sum(a3sq, named):
    s = direct_sum([named["1"], named["2"], named["3"]])
    assert s.dim_vector == (1, 1, 1)
    assert direct_sum([], a3sq).is_zero()
    twice = direct_sum([named["1/2"], named["1/2"]])
    assert twice.dim_vector == (2, 2, 0)


def test_minimal_presentation(a3sq, named):
    pres = minimal_presentation(projective(a3sq, "1"))
    assert pres.p1_vertices == [] and pres.p0_vertices == ["1"]
    pres = minimal_presentation(named["1"])
    assert pres.p0_vertices == ["1"] and pres.p1_vertices == ["2"]
    pres = minimal_presentation(named["2"])
    assert pres.p0_vertices == ["2"] and pres.p1_vertices == ["3"]
    with pytest.raises(ZeroModule):
        minimal_presentation(zero_rep(a3sq))


def test_tau(a3sq, named):
    for v in a3sq.vertices:
        assert tau(projective(a3sq, v)).is_zero()
    assert is_iso(tau(named["1"]), named["2"])
    assert is_iso(tau(named["2"]), named["3"])
    ka2 = build_algebra(Quiver(("1", "2"), (Arrow("a", "2", "1"),)), [])
    assert is_iso(tau(simple(ka2, "2")), simple(ka2, "1"))
    assert tau(zero_rep(a3sq)).is_zero()


def test_tau_additive(a3sq_inv, named):
    m = direct_sum([named["1"], named["2"]])
    t = tau(m)
    expected = direct_sum([tau(named["1"]), tau(named["2"])])
    assert t.dim_vector == expected.dim_vector
    assert _iso_by_hom_dims(a3sq_inv, t, expected)


def test_tau_dimension_formula(a3sq, named):
    """dim tau M = dim nu P1 - rank(nu P1 -> nu P0)."""
    from taured.reps import nakayama_map

    for name in ("1", "2"):
        m = named[name]
        pres = minimal_presentation(m)
        s1, s0, nu = nakayama_map(a3sq, pres)
        rank = sum(f.rank() for f in [
            Matrix.stack([nu.blocks[v]], nu.blocks[v].cols, a3sq.field)
            for v in a3sq.vertices] if f.rows)
        assert tau(m).total_dim == s1.rep.total_dim - rank


def test_in_fac(a3sq, named):
    p1 = named["1/2"]
    assert in_fac(named["1"], p1)
    assert not in_fac(named["2"], p1)
    assert in_fac(zero_rep(a3sq), named["2"])


def test_yoneda_hom_dims(corpus):
    """dim Hom(P_v, M) equals the dimension of M at v."""
    for key in ("A3^2", "D4^2", "KA3", "nakayama2"):
        alg = corpus[key]
        projs = {v: projective(alg, v) for v in alg.vertices}
        for w in enumerate_strings(alg):
            m = string_to_rep(alg, w)
            for v in alg.vertices:
                assert hom_dim(projs[v], m) == m.dims[v]


def _coxeter_matrix(alg):
    """Row-vector Coxeter transform assembled from the Cartan matrix."""
    n = len(alg.vertices)
    c = Matrix.zeros(n, n, QQ)
    for i, v in enumerate(alg.vertices):
        p = projective(alg, v)
        for j, w in enumerate(alg.vertices):
            c.data[i][j] = Fraction(p.dims[w])
    cinv = solve_right(c, Matrix.identity(n, QQ))
    phi = (cinv @ c.transpose()).scale(Fraction(-1))
    return phi


@pytest.mark.parametrize("maker", [lambda: hereditary_a(2), hereditary_d3])
def test_coxeter_transform_on_hereditary(maker):
    alg = maker()
    phi = _coxeter_matrix(alg)
    projs = [projective(alg, v) for v in alg.vertices]
    for w in enumerate_strings(alg):
        m = string_to_rep(alg, w)
        if any(is_iso(m, p) for p in projs if p.dim_vector == m.dim_vector):
            continue
        dv = Matrix.from_rows([[Fraction(d) for d in m.dim_vector]],
                              len(alg.vertices), QQ)
        expected = dv @ phi
        assert [Fraction(d) for d in tau(m).dim_vector] == expected.data[0]


def test_bar_examples(a3sq, named):
    quot = quotient_by_elements(a3sq, [a3sq.element_of_arrow("a")])
    assert bar(named["1/2"], quot).dim_vector == (1, 0, 0)
    assert bar(named["3"], quot).dim_vector == (0, 0, 1)
    b = bar(named["2/3"], quot)
    assert is_iso(inflate(b), named["2/3"])


def test_bar_inflate_identity_on_quotient(a3sq):
    quot = quotient_by_elements(a3sq, [a3sq.element_of_arrow("a")])
    for w in enumerate_strings(quot):
        r = string_to_rep(quot, w)
        rt = bar(inflate(r), quot)
        assert rt.dims == r.dims
        assert all((rt.maps[a.name] - r.maps[a.name]).is_zero() for a in quot.arrows)


def test_bar_requires_matching_quotient(a3sq, named):
    other = build_algebra(Quiver(("1", "2"), (Arrow("a", "2", "1"),)), [])
    from taured.errors import QuotientMismatch

    with pytest.raises(QuotientMismatch):
        bar(named["1"], other)
    with pytest.raises(QuotientMismatch):
        inflate(named["1"])


def test_is_sincere(a3sq, named):
    lam = direct_sum([projective(a3sq, v) for v in a3sq.vertices])
    assert is_sincere(lam)
    assert not is_sincere(named["1"])
    assert is_sincere(direct_sum([named["1/2"], named["2/3"]]))


def test_representation_validation(a3sq):
    f = a3sq.field
    good = Representation(a3sq, {"1": 1, "2": 1, "3": 1},
                          {"a": Matrix.identity(1, f), "b": Matrix.zeros(1, 1, f)})
    good.assert_valid()
    bad = Representation(a3sq, {"1": 1, "2": 1, "3": 1},
                         {"a": Matrix.identity(1, f), "b": Matrix.identity(1, f)})
    with pytest.raises(ValueError):
        bad.assert_valid()


def test_morphism_verify(a3sq, named):
    f = a3sq.field
    blocks = {"1": Matrix.zeros(0, 1, f), "2": Matrix.identity(1, f),
              "3": Matrix.zeros(1, 0, f)}
    good = Morphism(named["2/3"], named["1/2"], blocks)
    assert good.verify()


def test_kernel_of_a_non_morphism_is_refused():
    """On P_2 over KA2, zero at 2 and the identity at 1 do not intertwine the
    arrow 2 -> 1: the kernel at 2 is carried outside the kernel at 1."""
    alg = hereditary_a(2)
    p2 = projective(alg, "2")
    f = Morphism(p2, p2, {"1": Matrix.identity(1, alg.field), "2": Matrix.zeros(1, 1, alg.field)})
    with pytest.raises(AssertionError, match="kernel is not arrow-stable"):
        kernel_of(f)


def test_constructed_reps_satisfy_relations(corpus):
    """Projectives, injectives, string modules and translates all validate."""
    for name in ("A3^2", "D4^2", "nakayama2", "KA2xK"):
        alg = corpus[name]
        for v in alg.vertices:
            projective(alg, v).assert_valid()
            injective(alg, v).assert_valid()
        for w in enumerate_strings(alg):
            m = string_to_rep(alg, w)
            m.assert_valid()
            tau(m).assert_valid()


def test_table_algebra_validation(a3sq):
    from taured.algebra import quotient_by_elements
    from taured.linalg import Matrix

    quot = quotient_by_elements(a3sq, [a3sq.element_of_arrow("a")])
    assert quot.relations is None
    f = quot.field
    good = Representation(quot, {"1": 1, "2": 1, "3": 1}, {"b": Matrix.identity(1, f)})
    good.assert_valid()
    for w in enumerate_strings(quot):
        string_to_rep(quot, w).assert_valid()


def test_algebra_mismatch_errors(a3sq, named):
    other = build_algebra(Quiver(("1", "2"), (Arrow("a", "2", "1"),)), [])
    s = simple(other, "1")
    with pytest.raises(AlgebraMismatch):
        in_fac(s, named["1"])
    with pytest.raises(AlgebraMismatch):
        is_iso(s, named["1"])
    with pytest.raises(AlgebraMismatch):
        direct_sum([s, named["1"]])


def test_table_algebra_violation_rejected():
    ka3 = build_algebra(Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"))), [])
    ab = next(i for i, b in enumerate(ka3.basis) if b.word == ("a", "b"))
    quot = quotient_by_elements(ka3, [{ab: QQ.one}])
    assert quot.relations is None
    one = Matrix.identity(1, QQ)
    bad = Representation(quot, {"1": 1, "2": 1, "3": 1}, {"a": one, "b": one})
    with pytest.raises(ValueError, match="multiplication table"):
        bad.assert_valid()


def test_slot_sum_checks_its_bookkeeping(a3sq):
    assert ProjSum(a3sq, ["1", "1"]).rep.dim_vector == (2, 2, 0)


def _hom_dims(inv, M) -> list[int]:
    return [hom_dim(r.rep, M) for r in inv.records]


def _iso_by_hom_dims(inv, M, N) -> bool:
    """Auslander's criterion: M and N are isomorphic iff dim Hom(X, M) = dim Hom(X, N)
    for every indecomposable X.  ``inv`` must list every indecomposable."""
    return _hom_dims(inv, M) == _hom_dims(inv, N)


@pytest.fixture()
def hom_calls(monkeypatch):
    """Record each hom_basis call made inside taured.reps, as (M, N)."""
    import taured.reps as reps

    calls = []
    real = reps.hom_basis

    def counted(M, N):
        calls.append((M, N))
        return real(M, N)

    monkeypatch.setattr(reps, "hom_basis", counted)
    return calls


@pytest.fixture()
def rref_calls(monkeypatch):
    """Count the Matrix.rref calls, each one elimination."""
    calls = [0]
    real = Matrix.rref

    def counted(m):
        calls[0] += 1
        return real(m)

    monkeypatch.setattr(Matrix, "rref", counted)
    return calls


def test_bar_makes_one_elimination_per_vertex(corpus, rref_calls):
    alg = corpus["A5^2"]
    for v in find_proj_injectives(alg):
        quotient = socle_quotient(alg, v).quotient
        for w in alg.vertices:
            p = projective(alg, w)
            rref_calls[0] = 0
            bar(p, quotient)
            # none when P_w . J = 0: then P_w is a quotient module as it is
            assert rref_calls[0] == (len(alg.vertices) if w == v else 0), (v, w)


def test_top_lifts_make_one_elimination_per_nonzero_vertex(corpus_invs, rref_calls):
    for inv in corpus_invs.values():
        for r in inv.records:
            rref_calls[0] = 0
            top_lifts(r.rep)
            assert rref_calls[0] == sum(1 for d in r.rep.dims.values() if d)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
def test_is_iso_certifies_bricks_without_search(field, hom_calls):
    alg = cyclic_nakayama(5, 5, field)
    longest = [string_to_rep(alg, w) for w in enumerate_strings(alg)]
    longest = [m for m in longest if m.total_dim == 5]
    assert len(longest) == 5
    assert {m.dim_vector for m in longest} == {(1, 1, 1, 1, 1)}
    for i, m in enumerate(longest):
        assert hom_dim(m, m) == 1
        for j, n in enumerate(longest):
            assert is_iso(m, n) == (i == j)
    assert len(hom_calls) == 20  # one Hom basis per test of two different modules


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
def test_is_iso_certifies_non_brick_indecomposables(field, hom_calls):
    alg = cyclic_nakayama(2, 4, field)
    mods = [string_to_rep(alg, w) for w in enumerate_strings(alg)]
    mods = [m for m in mods if hom_dim(m, m) == 2]
    assert sorted(m.dim_vector for m in mods) == [(1, 2), (2, 1), (2, 2), (2, 2)]
    for m in mods:
        for n in mods:
            hom_calls.clear()
            assert is_iso(m, n) == (m is n)
            assert len(hom_calls) == (m.dim_vector == n.dim_vector and m is not n)


def test_decomposables_compared_by_hom_dims(a3sq_inv, named, hom_calls):
    left = direct_sum([named["1"], named["2/3"]])
    right = direct_sum([named["1/2"], named["3"]])
    assert left.dim_vector == right.dim_vector
    assert hom_dim(left, left) == hom_dim(right, right) == 2
    assert not _iso_by_hom_dims(a3sq_inv, left, right)
    assert _iso_by_hom_dims(a3sq_inv, left, direct_sum([named["2/3"], named["1"]]))
    # 1/2 is indecomposable, so one Hom basis decides it
    assert not is_iso(named["1/2"], direct_sum([named["1"], named["2"]]))
    assert len(hom_calls) == 1


def test_is_iso_corpus_records_without_search(corpus_invs, hom_calls):
    tests = 0
    for inv in corpus_invs.values():
        recs = inv.records
        for r in recs:
            assert is_iso(r.rep, r.rep)  # the identity, no Hom basis
            for s in recs:
                if s.id != r.id and s.dim_vector == r.dim_vector:
                    assert not is_iso(r.rep, s.rep), (r.name, s.name)
                    tests += 1
    assert len(hom_calls) == tests


def _copy(rep):
    """A new module with the structure maps of ``rep``, entry for entry."""
    return Representation(rep.algebra, rep.dims, {a: m.copy() for a, m in rep.maps.items()})


def _change_basis(rep, v):
    """``rep`` with the basis at ``v`` listed backwards: g, the reversal, is its own inverse."""
    d = rep.dims[v]
    g = Matrix.from_rows(list(reversed(Matrix.identity(d, rep.algebra.field).data)), d,
                         rep.algebra.field)
    maps = {}
    for a in rep.algebra.arrows:
        m = rep.maps[a.name]
        # N_a = g_src^-1 M_a g_tgt makes g (identity elsewhere) an isomorphism rep -> N
        if a.src == v:
            m = g @ m
        if a.tgt == v:
            m = m @ g
        maps[a.name] = m
    return Representation(rep.algebra, rep.dims, maps)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
def test_is_iso_equal_structure_maps_need_no_hom_basis(field, hom_calls):
    alg = cyclic_nakayama(2, 4, field)
    mods = [string_to_rep(alg, w) for w in enumerate_strings(alg)]
    for m in mods:
        assert is_iso(m, _copy(m))
    for parts in ([mods[0], mods[-1]], [mods[1], mods[1], mods[-2]]):
        assert is_iso(direct_sum(parts), direct_sum([_copy(p) for p in parts]))
    assert hom_calls == []


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
def test_is_iso_finds_a_changed_basis_through_the_search(field, hom_calls):
    alg = cyclic_nakayama(2, 4, field)
    mods = [string_to_rep(alg, w) for w in enumerate_strings(alg)]
    moved = 0
    for m in mods:
        for v in alg.vertices:
            if m.dims[v] < 2:
                continue
            n = _change_basis(m, v)
            assert n.maps != m.maps
            hom_calls.clear()
            assert is_iso(m, n) and is_iso(n, m)
            assert len(hom_calls) == 2
            moved += 1
    assert moved >= 4


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
def test_is_iso_refuses_different_modules_of_one_dimension_vector(field, hom_calls):
    alg = cyclic_nakayama(2, 4, field)
    mods = [string_to_rep(alg, w) for w in enumerate_strings(alg)]
    pairs = [(m, n) for m in mods for n in mods
             if m is not n and m.dim_vector == n.dim_vector]
    assert len(pairs) >= 2
    for m, n in pairs:
        assert not is_iso(m, n)
        assert not is_iso(m, _copy(n))
    assert len(hom_calls) == 2 * len(pairs)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
def test_find_iso_matches_an_id_order_scan(field):
    """find_iso tries the record with equal maps first; the answer is the scan's."""

    def scan(inv, rep):
        return next((r.id for r in inv.records
                     if r.dim_vector == rep.dim_vector and is_iso(r.rep, rep)), None)

    lookups = 0
    for alg in standard_corpus(field).values():
        inv = build_inventory(alg)
        for r in inv.records:
            for rep in (r.rep, _copy(r.rep), r.tau_rep):
                assert inv.find_iso(rep) == scan(inv, rep)
                lookups += 1
            assert inv.find_iso(_copy(r.rep)) == r.id
    assert lookups > 200


def test_is_iso_agrees_with_hom_dims_in_the_pipeline(corpus, monkeypatch):
    """Every is_iso answer of the Hasse quiver, the oracle and the reduction
    checks, against Auslander's criterion over a full inventory."""
    import taured.reduction
    import taured.reps
    import taured.tilting

    algebras = list(corpus.values()) + [cyclic_nakayama(3, 5, QQ), cyclic_nakayama(2, 4, QQ)]
    answers = []

    def recorded(M, N):
        answers.append((M, N, is_iso(M, N)))
        return answers[-1][2]

    with monkeypatch.context() as m:
        for mod in (taured.reps, taured.tilting, taured.reduction):
            m.setattr(mod, "is_iso", recorded)
        for alg in algebras:
            inv = build_inventory(alg)
            assert inv.hasse_quiver.n == len(inv.pairs)
            oracle_stpairs_via_quotients(inv)
            if find_proj_injectives(alg):
                assert verify_reduction(alg).passed
    assert len(answers) > 1000
    invs, dims = {}, {}

    def hom_dims(M):
        if M.algebra not in invs:
            invs[M.algebra] = build_inventory(M.algebra)
        if id(M) not in dims:  # every M stays alive in ``answers``
            dims[id(M)] = _hom_dims(invs[M.algebra], M)
        return dims[id(M)]

    for M, N, answer in answers:
        assert answer == (hom_dims(M) == hom_dims(N)), (M, N)


def _table_quotients(field):
    """Every vertex quotient and socle quotient of the corpus, over ``field``."""
    for alg in standard_corpus(field).values():
        for size in range(1, len(alg.vertices) + 1):
            for support in combinations(alg.vertices, size):
                yield vertex_subalgebra_quotient(alg, support)
        for v in find_proj_injectives(alg):
            yield socle_quotient(alg, v).quotient


def _perturbed(rep):
    """``rep`` with one added to the first entry of its first nonempty arrow map."""
    field = rep.algebra.field
    maps = {a: Matrix.from_rows([list(r) for r in m.data], m.cols, field)
            for a, m in rep.maps.items()}
    name = next((a for a, m in maps.items() if m.rows and m.cols), None)
    if name is None:
        return None
    maps[name].data[0][0] = maps[name].data[0][0] + field.one
    return Representation(rep.algebra, rep.dims, maps)


def _accepts(rep) -> bool:
    try:
        rep.assert_valid()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=str)
def test_table_module_check_matches_all_pairs(field):
    """On a table algebra, testing act(b) M_a = act(b a) for arrows a only
    accepts and rejects exactly what the all-pairs reference does."""
    verdicts = {True: 0, False: 0}
    for quot in _table_quotients(field):
        assert quot.relations is None
        mods = [string_to_rep(quot, w) for w in enumerate_strings(quot)]
        mods += [tau(m) for m in mods]
        mods += [f(quot, v) for v in quot.vertices for f in (projective, injective)]
        for m in mods:
            assert _accepts(m) and satisfies_table_by_all_pairs(m)
            bent = _perturbed(m)
            if bent is not None:
                accepted = _accepts(bent)
                assert accepted == satisfies_table_by_all_pairs(bent), (quot, m)
                verdicts[accepted] += 1
    assert verdicts[True] and verdicts[False]
