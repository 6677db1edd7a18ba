import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from taured.algebra import (
    Algebra,
    Arrow,
    BasisElement,
    Quiver,
    Relation,
    _check_associativity,
    _check_generated_by_quiver,
    build_algebra,
    extract_presentation,
    iso_invariants,
    isomorphism,
    quotient_by_elements,
    vertex_subalgebra_quotient,
)
from taured.corpus import standard_corpus
from taured.dsl import parse_file
from taured.errors import (
    EmptySupport,
    NotFiniteDimensional,
    UnknownVertex,
    UnsupportedQuotient,
)
from taured.linalg import QQ, Matrix, PrimeField
from taured.reduction import find_proj_injectives
from taured.series import series_algebra

from helpers import monomial_basis, reference_ideal_slices, same_rowspace, slice_matrix

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def commutative_square(field=QQ):
    q = Quiver(("1", "2", "3", "4"),
               (Arrow("a", "1", "2"), Arrow("b", "2", "4"),
                Arrow("c", "1", "3"), Arrow("d", "3", "4")))
    rel = Relation(terms=((Fraction(1), ("a", "b")), (Fraction(-1), ("c", "d"))))
    return build_algebra(q, [rel], field=field)


def commutative_grid(n, field=QQ):
    """The incidence algebra of the n x n grid poset: arrows r (first coordinate) and
    u (second), and every square commutes."""
    arrows = [Arrow(f"r{i}{j}", f"{i}{j}", f"{i + 1}{j}") for i in range(n - 1) for j in range(n)]
    arrows += [Arrow(f"u{i}{j}", f"{i}{j}", f"{i}{j + 1}") for i in range(n) for j in range(n - 1)]
    squares = [Relation(((Fraction(1), (f"r{i}{j}", f"u{i + 1}{j}")),
                         (Fraction(-1), (f"u{i}{j}", f"r{i}{j + 1}"))))
               for i in range(n - 1) for j in range(n - 1)]
    quiver = Quiver(tuple(f"{i}{j}" for i in range(n) for j in range(n)), tuple(arrows))
    return build_algebra(quiver, squares, field=field)


def test_a3sq_basis(a3sq):
    assert a3sq.dim == 5
    words = {b.word for b in a3sq.basis}
    assert words == {(), ("a",), ("b",)}
    assert set(a3sq.e_idx) == {"1", "2", "3"}


def test_hereditary_a2_dim():
    q = Quiver(("1", "2"), (Arrow("a", "2", "1"),))
    assert build_algebra(q, []).dim == 3


def test_loop_not_finite_dimensional():
    q = Quiver(("1",), (Arrow("l", "1", "1"),))
    with pytest.raises(NotFiniteDimensional):
        build_algebra(q, [])


def test_two_cycle_not_finite_dimensional():
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
    with pytest.raises(NotFiniteDimensional):
        build_algebra(q, [])


def test_relation_validation():
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    with pytest.raises(ValueError):
        Relation.monomial(("a",)).validate(q)  # too short
    with pytest.raises(ValueError):
        Relation.monomial(("b", "a")).validate(q)  # not composable
    with pytest.raises(ValueError):
        Relation(terms=((Fraction(1), ("a", "b")), (Fraction(1), ("a", "b", "a")))).validate(q)


@pytest.mark.parametrize("sign", [1, -1])
def test_build_algebra_refuses_a_path_repeated_in_a_relation(sign):
    """ab + ab means 2 ab and ab - ab means 0: either way the relation is not as written."""
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    twice = Relation(terms=((Fraction(1), ("a", "b")), (Fraction(sign), ("a", "b"))))
    with pytest.raises(ValueError, match="^path a b appears twice in relation$"):
        build_algebra(q, [twice])


def test_dimension_identity(a3sq):
    total = 0
    for u in a3sq.vertices:
        for w in a3sq.vertices:
            total += len(a3sq.basis_by_ends(u, w))
    assert total == a3sq.dim


def test_full_associativity_small(a3sq):
    one = a3sq.field.one
    n = a3sq.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = a3sq.multiply(a3sq.multiply({i: one}, {j: one}), {k: one})
                right = a3sq.multiply({i: one}, a3sq.multiply({j: one}, {k: one}))
                assert left == right


def test_spot_check_catches_a_corrupted_product():
    alg = build_algebra(Quiver(("1", "2"), (Arrow("a", "1", "2"),)), [])
    _check_associativity(alg)
    # double e * a: then (e e) a = 2a but e (e a) = 4a
    key = next((i, j) for i, j in alg.mult
               if alg.basis[i].is_idempotent and not alg.basis[j].is_idempotent)
    alg.mult[key] = {k: 2 * c for k, c in alg.mult[key].items()}
    with pytest.raises(AssertionError, match="associativity failure"):
        _check_associativity(alg)



def test_associativity_check_catches_every_doubled_radical_product():
    # cyclic Nakayama N(5, 5) has dimension 25 and 30 nonzero products of two
    # non-idempotent basis elements; doubling any one of them must be caught
    verts = tuple(str(i) for i in range(5))
    arrows = tuple(Arrow(f"c{i}", str(i), str((i + 1) % 5)) for i in range(5))
    rels = [Relation.monomial(tuple(f"c{(i + k) % 5}" for k in range(5))) for i in range(5)]
    alg = build_algebra(Quiver(verts, arrows), rels)
    table = alg.mult
    keys = [(i, j) for i, j in table
            if not alg.basis[i].is_idempotent and not alg.basis[j].is_idempotent]
    assert alg.dim == 25 and len(keys) == 30
    for key in keys:
        alg.mult = {**table, key: {k: 2 * c for k, c in table[key].items()}}
        with pytest.raises(AssertionError, match="associativity failure"):
            _check_associativity(alg)


@pytest.mark.parametrize("corrupt, message", [
    # a a = e_1, although a ends at 2 and starts at 1
    (lambda ix: {(ix["a"], ix["a"]): {ix["e1"]: QQ.one}}, "not Peirce-graded"),
    # e_4 e_4 = 2 e_4 at the isolated vertex 4: associative, but not a unit
    (lambda ix: {(ix["e4"], ix["e4"]): {ix["e4"]: 2 * QQ.one}}, "not units"),
    # a b = 2 (a b) is still associative, but then the word a b is not a b
    (lambda ix: {(ix["a"], ix["b"]): {ix["ab"]: 2 * QQ.one}}, "not the product of its arrows"),
])
def test_associativity_check_needs_grading_units_and_words(corrupt, message):
    quiver = Quiver(("1", "2", "3", "4"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    alg = build_algebra(quiver, [])
    ix = {"".join(b.word) or "e" + b.src: i for i, b in enumerate(alg.basis)}
    _check_associativity(alg)
    alg.mult = {**alg.mult, **corrupt(ix)}
    with pytest.raises(AssertionError, match=message):
        _check_associativity(alg)


def test_generation_check_rejects_an_element_outside_the_quiver():
    # basis e1, e2, a, b with a the only arrow 1 -> 2: the products of
    # idempotents and arrows span e1, e2, a but never b
    quiver = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    basis = [BasisElement((), "1", "1"), BasisElement((), "2", "2"),
             BasisElement(("a",), "1", "2"), BasisElement(("b",), "1", "2")]
    one = QQ.one
    mult = {(0, 0): {0: one}, (1, 1): {1: one}, (0, 2): {2: one}, (2, 1): {2: one},
            (0, 3): {3: one}, (3, 1): {3: one}}
    alg = Algebra(QQ, quiver, None, basis, mult, 2)
    _check_associativity(alg)
    with pytest.raises(UnsupportedQuotient, match="not generated by its surviving quiver"):
        _check_generated_by_quiver(alg)
    # without b the same products span the whole basis
    kept = {k: v for k, v in mult.items() if 3 not in k}
    _check_generated_by_quiver(Algebra(QQ, quiver, None, basis[:3], kept, 2))


def test_monomial_basis_is_relation_avoiding_paths(corpus):
    """For monomial relations the basis is exactly the relation-avoiding paths."""
    alg = corpus["A4^2"]
    rel_words = {r.terms[0][1] for r in alg.relations}

    def avoids(word):
        return not any(word[i:i + len(rw)] == rw
                       for rw in rel_words for i in range(len(word) - len(rw) + 1))

    assert all(avoids(b.word) for b in alg.basis)
    # and every avoiding path of length < nil appears
    count = sum(1 for b in alg.basis if not b.is_idempotent)
    assert count == len(alg.arrows)  # rad^2 = 0: only length-1 paths survive


def test_socle_quotient_shape(a3sq):
    bar = quotient_by_elements(a3sq, [a3sq.element_of_arrow("a")])
    assert bar.dim == 4
    assert bar.vertices == ["1", "2", "3"]
    assert [a.name for a in bar.quiver.arrows] == ["b"]
    assert bar.parent is a3sq


def test_empty_quotient_is_copy(a3sq):
    cp = quotient_by_elements(a3sq, [])
    assert cp.dim == a3sq.dim
    assert cp.vertices == a3sq.vertices


def test_idempotent_ideal_quotient(a3sq):
    quot = quotient_by_elements(a3sq, [a3sq.element_of_vertex("1")])
    assert quot.dim == 3
    assert quot.vertices == ["2", "3"]
    assert [a.name for a in quot.quiver.arrows] == ["b"]


def test_vertex_subalgebra_quotient(a3sq):
    quot = vertex_subalgebra_quotient(a3sq, {"2", "3"})
    assert quot.dim == 3
    full = vertex_subalgebra_quotient(a3sq, {"1", "2", "3"})
    assert full.dim == a3sq.dim
    single = vertex_subalgebra_quotient(a3sq, {"1"})
    assert single.dim == 1 and single.vertices == ["1"]
    with pytest.raises(EmptySupport):
        vertex_subalgebra_quotient(a3sq, set())
    with pytest.raises(UnknownVertex):
        vertex_subalgebra_quotient(a3sq, {"9"})


def test_quotient_dimension_drop(a3sq):
    """dim(quotient) = dim - dim(ideal), for a few generator choices."""
    rng = random.Random(7)
    for _ in range(5):
        k = rng.randrange(a3sq.dim)
        gens = [{k: a3sq.field.one}]
        quot = quotient_by_elements(a3sq, gens)
        ideal_dim = sum(len(rows) for _, _, rows in quot.ideal_slices)
        assert quot.dim == a3sq.dim - ideal_dim


def _quotient_inputs(field):
    """(name, algebra, generators): every vertex quotient and socle quotient of the
    standard corpus, the commutative square and the 3 x 3 grid, and three sets of
    random radical generators on each."""
    rng = random.Random(25)
    algebras = {**standard_corpus(field), "square": commutative_square(field),
                "grid3": commutative_grid(3, field)}
    for name, alg in algebras.items():
        for size in range(1, len(alg.vertices)):
            for kept in combinations(alg.vertices, size):
                yield name, alg, [alg.element_of_vertex(v) for v in alg.vertices if v not in kept]
        for soc, _, _ in find_proj_injectives(alg).values():
            yield name, alg, [soc]
        radical = [i for i, b in enumerate(alg.basis) if b.word]
        for _ in range(3):
            yield name, alg, [{i: field.from_fraction(Fraction(rng.randint(1, 3)))
                               for i in rng.sample(radical, min(2, len(radical)))}
                              for _ in range(rng.randint(1, 2))]


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=str)
def test_ideal_slices_span_the_reduced_products(field):
    """Each Peirce block of the ideal read off the normal forms has the reference's row space."""
    seen = 0
    for name, alg, gens in _quotient_inputs(field):
        quot = quotient_by_elements(alg, gens)
        ref = reference_ideal_slices(alg, gens)
        got = {(u, w): slice_matrix(alg, (u, w), rows) for u, w, rows in quot.ideal_slices}
        assert got.keys() == ref.keys(), name
        for ends, m in ref.items():
            assert got[ends].rows == m.rows and same_rowspace(got[ends], m), (name, ends)
        assert quot.dim == alg.dim - sum(m.rows for m in ref.values())
        seen += 1
    assert seen > 500


def test_quotient_reduces_the_ideal_once_per_block(monkeypatch):
    """One elimination per Peirce block that the ideal meets, and none besides."""
    calls = []
    rref = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda m: calls.append(m) or rref(m))
    blocks = 0
    for name, alg, gens in _quotient_inputs(QQ):
        calls.clear()
        quot = quotient_by_elements(alg, gens)
        assert len(calls) == len(quot.ideal_slices), name
        blocks += len(calls)
    assert blocks > 0


def test_commutative_square_dim():
    sq = commutative_square()
    assert sq.dim == 9  # 4 idempotents + 4 arrows + 1 diagonal class


def test_presentation_extraction_roundtrip(a3sq):
    bar = quotient_by_elements(a3sq, [a3sq.element_of_arrow("a")])
    quiver, rels = extract_presentation(bar)
    assert [a.name for a in quiver.arrows] == ["b"]
    assert rels == []
    rebuilt = build_algebra(quiver, rels)
    assert rebuilt.dim == bar.dim


def test_presentation_extraction_with_relations(corpus):
    alg = corpus["A4^2"]
    bar = quotient_by_elements(alg, [alg.element_of_arrow("a3")])
    quiver, rels = extract_presentation(bar)
    # expected: chain 3 -> 2 -> 1 with its length-two path killed, vertex 4 isolated
    assert {a.name for a in quiver.arrows} == {"a1", "a2"}
    assert len(rels) == 1
    rebuilt = build_algebra(quiver, rels)
    assert rebuilt.dim == bar.dim == 6


def test_prime_field_algebra(a3sq):
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    alg5 = build_algebra(q, [Relation.monomial(("a", "b"))], field=PrimeField(5))
    assert alg5.dim == a3sq.dim
    prod = alg5.multiply(alg5.element_of_arrow("a"), alg5.element_of_arrow("b"))
    assert prod == {}


def test_max_len_guard():
    q = Quiver(("1",), (Arrow("l", "1", "1"),))
    with pytest.raises(NotFiniteDimensional):
        build_algebra(q, [Relation.monomial(("l",) * 8)], max_len=4)
    alg = build_algebra(q, [Relation.monomial(("l", "l"))], max_len=4)
    assert alg.dim == 2


def loops_rad_square_zero(names, field=QQ):
    """One vertex, a loop for each name, and every path of length two a relation."""
    quiver = Quiver(("1",), tuple(Arrow(x, "1", "1") for x in names))
    return build_algebra(quiver, [Relation.monomial((x, y)) for x in names for y in names],
                         field=field)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
def test_two_loops_modulo_the_square_of_the_radical(field):
    # k<x,y>/(x,y)^2: its free path algebra has 2^d paths of length d, and
    # none of them is listed past length 2
    alg = loops_rad_square_zero("xy", field)
    assert alg.dim == 3 and alg.nil_index == 2
    assert {b.word for b in alg.basis} == {(), ("x",), ("y",)}
    assert alg.mult.get((alg.arrow_idx["x"], alg.arrow_idx["y"])) is None


def test_three_loops_modulo_the_square_of_the_radical():
    assert loops_rad_square_zero("xyz").dim == 4


def test_not_finite_dimensional_names_a_path_outside_the_ideal():
    loop = Quiver(("1",), (Arrow("l", "1", "1"),))
    with pytest.raises(NotFiniteDimensional,
                       match="^no nilpotency degree <= 4; the path l l l l from 1 is not in the ideal$"):
        build_algebra(loop, [Relation.monomial(("l",) * 8)], max_len=4)
    # a relation reaches the bound: the witness is read off the normal form
    q = Quiver(("1", "2"), (Arrow("l", "1", "1"), Arrow("a", "1", "2")))
    with pytest.raises(NotFiniteDimensional, match="; the path l l l from 1 is not in the ideal$"):
        build_algebra(q, [Relation.monomial(("l", "a"))], max_len=3)


def test_path_budget_names_the_length_where_it_tripped():
    # 100 loops: 10 101 paths up to length 2, and a million more at length 3
    q = Quiver(("1",), tuple(Arrow(f"l{i}", "1", "1") for i in range(100)))
    with pytest.raises(NotFiniteDimensional, match="^path count exceeded budget 500000 at length 3$"):
        build_algebra(q, [])


def test_reduction_budget_refuses_two_loops_with_one_square_relation():
    # infinite dimensional, and its paths double with each length: the guard on
    # the reduction trips long before max_len, and before the path count would
    q = Quiver(("1",), (Arrow("x", "1", "1"), Arrow("y", "1", "1")))
    with pytest.raises(NotFiniteDimensional,
                       match="^reduction size exceeded budget 16000000 entries at length 11$"):
        build_algebra(q, [Relation.monomial(("x", "x"))])


def test_commutative_grid_is_reduced_block_by_block():
    # the incidence algebra of a 6 x 6 grid poset: 21 comparable pairs in each
    # coordinate; reduced as one dense block its last length would pass the budget
    n = 6
    alg = commutative_grid(n)
    assert alg.dim == 21 * 21 and alg.nil_index == 2 * (n - 1) + 1


def _monomial_inputs():
    yield from standard_corpus().items()
    for name in ("rsz_A7", "rsz_D7", "nakayama_5_5", "nakayama_5_4"):
        yield name, parse_file(os.path.join(GOLDEN, f"{name}.alg")).build()[0]
    for n in range(1, 13):
        yield f"A{n}", series_algebra("A", n)
    for n in range(3, 12):
        yield f"D{n}", series_algebra("D", n)
    for n in range(1, 6):
        for length in range(2, 7):
            verts = tuple(str(i) for i in range(n))
            arrows = tuple(Arrow(f"c{i}", str(i), str((i + 1) % n)) for i in range(n))
            rels = [Relation.monomial(tuple(f"c{(i + k) % n}" for k in range(length)))
                    for i in range(n)]
            yield f"N({n},{length})", build_algebra(Quiver(verts, arrows), rels)


def test_monomial_algebras_have_the_paths_without_a_relation_as_basis():
    names = []
    for name, alg in _monomial_inputs():
        assert {(b.word, b.src, b.tgt) for b in alg.basis} == \
            monomial_basis(alg.quiver, alg.relations), name
        names.append(name)
    assert len(names) == 14 + 4 + 12 + 9 + 25


def test_idempotents_decompose_identity(corpus):
    for name, alg in corpus.items():
        one = alg.field.one
        es = [alg.element_of_vertex(v) for v in alg.vertices]
        for i, ei in enumerate(es):
            for j, ej in enumerate(es):
                prod = alg.multiply(ei, ej)
                assert prod == (ei if i == j else {}), name
        # sum of idempotents is a two-sided identity on every basis element
        for k in range(alg.dim):
            x = {k: one}
            left = {}
            right = {}
            for e in es:
                for idx, c in alg.multiply(e, x).items():
                    left[idx] = left.get(idx, alg.field.zero) + c
                for idx, c in alg.multiply(x, e).items():
                    right[idx] = right.get(idx, alg.field.zero) + c
            assert {i: c for i, c in left.items() if c} == x, name
            assert {i: c for i, c in right.items() if c} == x, name


def test_presentation_extraction_d_series(corpus):
    """The D5 socle quotient is D4 (rad-square-zero) next to an isolated vertex."""
    from taured.reduction import socle_quotient

    ctx = socle_quotient(corpus["D5^2"], "5")
    quiver, rels = extract_presentation(ctx.quotient)
    assert {a.name for a in quiver.arrows} == {"a3", "b1", "b2"}
    rebuilt = build_algebra(quiver, rels)
    assert rebuilt.dim == ctx.quotient.dim == corpus["D4^2"].dim + 1


def test_presentation_extraction_cyclic_quotient(corpus):
    """The self-injective Nakayama quotient keeps one length-two relation."""
    from taured.reduction import socle_quotient

    alg = corpus["nakayama2"]
    ctx = socle_quotient(alg, "1")
    quiver, rels = extract_presentation(ctx.quotient)
    assert {a.name for a in quiver.arrows} == {"a", "b"}
    words = {r.terms[0][1] for r in rels if len(r.terms) == 1}
    assert ("a", "b") in words
    rebuilt = build_algebra(quiver, rels)
    assert rebuilt.dim == ctx.quotient.dim == 5


def three_vertices(arrows, relations):
    """Vertices 0, 1, 2; arrows as (name, src, tgt); monomial relations."""
    quiver = Quiver(("0", "1", "2"), tuple(Arrow(*a) for a in arrows))
    return build_algebra(quiver, [Relation.monomial(w) for w in relations])


def test_isomorphism_rejects_equal_invariants():
    # rad-square-zero 0 -> 1 -> 2 and hereditary 0 -> 1 <- 2: dimension 5,
    # three idempotents and two arrows each, but not isomorphic
    rsz = three_vertices([("a", "0", "1"), ("b", "1", "2")], [("a", "b")])
    hereditary = three_vertices([("a", "0", "1"), ("b", "2", "1")], [])
    assert iso_invariants(rsz) == iso_invariants(hereditary)
    assert isomorphism(rsz, hereditary) is None
    assert isomorphism(hereditary, rsz) is None
    # a commutative square and a square with one zero path: the same word
    # lengths at every vertex and basis words that correspond, but a c d that
    # is the basis path a b on one side and zero on the other
    square = commutative_square()
    one_zero = build_algebra(square.quiver, [Relation.monomial(("a", "b"))])
    assert iso_invariants(square) == iso_invariants(one_zero)
    assert isomorphism(square, one_zero) is None
    # 2 -> 1 -> 0 is 0 -> 1 -> 2 with the vertices 0 and 2 exchanged
    turned = three_vertices([("x", "2", "1"), ("y", "1", "0")], [("x", "y")])
    assert isomorphism(rsz, turned) == ({"0": "2", "1": "1", "2": "0"}, {"a": "x", "b": "y"})


@st.composite
def relabelled_string_algebras(draw):
    """A small string algebra and a copy with its vertices and arrows renamed and reordered."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):  # cyclic Nakayama: the paths of one length vanish
        arrows = [(f"c{i}", i, (i + 1) % n) for i in range(n)]
        length = draw(st.integers(2, n + 1))
        words = [[arrows[(i + k) % n][0] for k in range(length)] for i in range(n)]
    else:  # a linear quiver, any orientation, some paths of length two vanish
        arrows = [(f"x{i}", *((i, i + 1) if draw(st.booleans()) else (i + 1, i)))
                  for i in range(n - 1)]
        words = [[x, y] for x, _, t in arrows for y, s, _ in arrows
                 if t == s and draw(st.booleans())]
    vertex_names = draw(st.permutations([str(i) for i in range(n)]))
    arrow_names = draw(st.permutations([f"y{k}" for k in range(len(arrows))]))
    vertex_order = draw(st.permutations(range(n)))
    arrow_order = draw(st.permutations(range(len(arrows))))

    def algebra(vname, aname, vorder, aorder):
        quiver = Quiver(tuple(vname[v] for v in vorder),
                        tuple(Arrow(aname[k], vname[arrows[k][1]], vname[arrows[k][2]])
                              for k in aorder))
        index = {a[0]: k for k, a in enumerate(arrows)}
        return build_algebra(quiver, [Relation.monomial([aname[index[x]] for x in w])
                                      for w in words])

    natural = [str(i) for i in range(n)], [a[0] for a in arrows]
    return (algebra(*natural, range(n), range(len(arrows))),
            algebra(vertex_names, arrow_names, vertex_order, arrow_order))


@settings(max_examples=40, deadline=None)
@given(relabelled_string_algebras())
def test_isomorphism_finds_a_relabelling(case):
    a, b = case
    found = isomorphism(a, b)
    assert found is not None
    vertex, arrow = found
    assert sorted(vertex) == sorted(a.vertices) and sorted(vertex.values()) == sorted(b.vertices)
    ends = {x.name: (x.src, x.tgt) for x in b.arrows}
    assert sorted(arrow.values()) == sorted(ends)
    assert all(ends[arrow[x.name]] == (vertex[x.src], vertex[x.tgt]) for x in a.arrows)
    words = {(w.src, w.word) for w in b.basis}
    assert all((vertex[w.src], tuple(arrow[x] for x in w.word)) in words for w in a.basis)
    assert isomorphism(b, a) is not None
