import random
from fractions import Fraction

import pytest

from taured.algebra import (
    Arrow,
    Quiver,
    Relation,
    _spot_check_associativity,
    build_algebra,
    extract_presentation,
    quotient_by_elements,
    vertex_subalgebra_quotient,
)
from taured.errors import EmptySupport, NotFiniteDimensional, UnknownVertex
from taured.linalg import PrimeField


def commutative_square():
    q = Quiver(("1", "2", "3", "4"),
               (Arrow("a", "1", "2"), Arrow("b", "2", "4"),
                Arrow("c", "1", "3"), Arrow("d", "3", "4")))
    rel = Relation(terms=((Fraction(1), ("a", "b")), (Fraction(-1), ("c", "d"))))
    return build_algebra(q, [rel])


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
    _spot_check_associativity(alg)
    # double e * a: then (e e) a = 2a but e (e a) = 4a
    key = next((i, j) for i, j in alg.mult
               if alg.basis[i].is_idempotent and not alg.basis[j].is_idempotent)
    alg.mult[key] = {k: 2 * c for k, c in alg.mult[key].items()}
    with pytest.raises(AssertionError, match="associativity failure"):
        _spot_check_associativity(alg)


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
