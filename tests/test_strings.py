from pathlib import Path

import pytest

from helpers import reference_strings
from taured.algebra import Arrow, Quiver, Relation, build_algebra
from taured.corpus import standard_corpus
from taured.dsl import parse
from taured.errors import CapExceeded, NotStringAlgebra
from taured.linalg import field_from_name
from taured.reps import injective, is_iso, projective
from taured.series import series_algebra
from taured.strings import (
    enumerate_strings,
    is_string_algebra,
    string_name,
    string_to_rep,
)


def test_is_string_algebra(a3sq, corpus):
    assert is_string_algebra(a3sq) == (True, "ok")
    assert is_string_algebra(corpus["D5^2"])[0]
    assert is_string_algebra(corpus["nakayama2"])[0]


def test_commutative_square_not_string():
    from fractions import Fraction

    q = Quiver(("1", "2", "3", "4"),
               (Arrow("a", "1", "2"), Arrow("b", "2", "4"),
                Arrow("c", "1", "3"), Arrow("d", "3", "4")))
    rel = Relation(terms=((Fraction(1), ("a", "b")), (Fraction(-1), ("c", "d"))))
    sq = build_algebra(q, [rel])
    ok, cert = is_string_algebra(sq)
    assert not ok
    assert "monomial" in cert
    with pytest.raises(NotStringAlgebra):
        enumerate_strings(sq)


def test_hereditary_d4_not_string():
    alg = build_algebra(Quiver(("1", "2", "3", "4"),
                               (Arrow("e", "4", "3"), Arrow("b1", "3", "1"),
                                Arrow("b2", "3", "2"))), [])
    ok, cert = is_string_algebra(alg)
    assert not ok
    assert "continuations" in cert


def test_a3sq_strings(a3sq):
    ws = enumerate_strings(a3sq)
    assert len(ws) == 5
    assert sorted(string_name(a3sq, w) for w in ws) == ["1", "1/2", "2", "2/3", "3"]


def test_ka2_strings():
    ka2 = build_algebra(Quiver(("1", "2"), (Arrow("a", "2", "1"),)), [])
    assert len(enumerate_strings(ka2)) == 3


@pytest.mark.parametrize("n", range(2, 11))
def test_a_series_string_count(n):
    alg = series_algebra("A", n)
    assert len(enumerate_strings(alg)) == 2 * n - 1


@pytest.mark.parametrize("n", range(3, 7))
def test_d_series_string_count(n):
    alg = series_algebra("D", n)
    assert len(enumerate_strings(alg)) == 2 * n


def test_kronecker_cap_exceeded():
    kron = build_algebra(Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"))), [])
    assert is_string_algebra(kron)[0]
    with pytest.raises(CapExceeded):
        enumerate_strings(kron)


def test_string_reps(a3sq):
    reps = {string_name(a3sq, w): string_to_rep(a3sq, w) for w in enumerate_strings(a3sq)}
    assert reps["1/2"].dim_vector == (1, 1, 0)
    assert is_iso(reps["1/2"], projective(a3sq, "1"))
    assert reps["2"].dim_vector == (0, 1, 0)
    assert reps["2/3"].dim_vector == (0, 1, 1)


def test_nonuniserial_string_name():
    d3 = series_algebra("D", 3)
    ws = enumerate_strings(d3)
    names = {string_name(d3, w) for w in ws}
    assert "1<3>2" in names
    walk = next(w for w in ws if string_name(d3, w) == "1<3>2")
    rep = string_to_rep(d3, walk)
    assert rep.dim_vector == (1, 1, 1)
    assert is_iso(rep, projective(d3, "3"))


def test_pairwise_noniso(corpus):
    for key in ("A4^2", "D4^2", "nakayama2"):
        alg = corpus[key]
        reps = [string_to_rep(alg, w) for w in enumerate_strings(alg)]
        by_dv = {}
        for r in reps:
            by_dv.setdefault(r.dim_vector, []).append(r)
        for group in by_dv.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    assert not is_iso(group[i], group[j])


def test_projectives_and_injectives_among_strings(corpus):
    for key in ("A3^2", "D4^2", "KA3"):
        alg = corpus[key]
        reps = [string_to_rep(alg, w) for w in enumerate_strings(alg)]
        for v in alg.vertices:
            for target in (projective(alg, v), injective(alg, v)):
                assert any(r.dim_vector == target.dim_vector and is_iso(r, target)
                           for r in reps)


ROOT = Path(__file__).parent.parent
ALG_FILES = {p.name: p for p in [*sorted((ROOT / "tests" / "golden").glob("*.alg")),
                                 ROOT / "scripts" / "a3sq.alg"]}


@pytest.mark.parametrize("source", ["rational", "fp:2", *ALG_FILES])
def test_enumerate_strings_matches_the_reference(source):
    """The same words in the same order as the walk-by-walk reference, on the standard
    corpus over a field or on one ``.alg`` input: the order that numbers the records."""
    if source in ALG_FILES:
        algebras = {source: parse(ALG_FILES[source].read_text()).build()[0]}
    else:
        algebras = standard_corpus(field_from_name(source))
    for name, alg in algebras.items():
        got = [(tuple((l.arrow, l.inverse) for l in w.letters), w.base_vertex)
               for w in enumerate_strings(alg)]
        assert got == reference_strings(alg), name
