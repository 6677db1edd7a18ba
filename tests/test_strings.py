from pathlib import Path

import pytest

import taured.tilting
from helpers import cyclic_nakayama, record_by_name, reference_strings, string_hom_dim
from taured.algebra import Arrow, Quiver, Relation, build_algebra
from taured.corpus import hereditary_a, standard_corpus
from taured.dsl import parse
from taured.errors import CapExceeded, InventoryError, NotStringAlgebra
from taured.linalg import field_from_name
from taured.reps import hom_basis, injective, is_iso, projective, tau
from taured.series import series_algebra
from taured.strings import (
    enumerate_strings,
    is_string_algebra,
    string_name,
    string_tau,
    string_to_rep,
)
from taured.tilting import build_inventory


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


def _monomial(vertices, arrows, relations):
    quiver = Quiver(tuple(vertices), tuple(Arrow(*a) for a in arrows))
    return build_algebra(quiver, [Relation.monomial(tuple(r)) for r in relations])


TAU_INPUTS = {
    **{f"KA{n}": (lambda n=n: hereditary_a(n)) for n in range(4, 8)},
    **{f"N({n},{l})": (lambda n=n, l=l: cyclic_nakayama(n, l))
       for n, l in [(1, 2), (1, 5), (2, 4), (3, 6), (4, 3), (5, 7), (6, 6)]},
    "A5/abc": lambda: _monomial("12345", [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"),
                                          ("d", "4", "5")], ["abc"]),
    "loop+arrow": lambda: _monomial("12", [("x", "1", "1"), ("a", "1", "2")], ["xx", "xa"]),
    "2-cycle+loop": lambda: _monomial("12", [("a", "1", "2"), ("b", "2", "1"), ("x", "1", "1")],
                                      ["xx", "ab", "ba", "xa", "bx"]),
}


def _algebras(source):
    if source in ALG_FILES:
        return {source: parse(ALG_FILES[source].read_text()).build()[0]}
    if source in TAU_INPUTS:
        return {source: TAU_INPUTS[source]()}
    return standard_corpus(field_from_name(source))


@pytest.mark.parametrize("source", ["rational", "fp:2", *ALG_FILES])
def test_enumerate_strings_matches_the_reference(source):
    """The same words in the same order as the walk-by-walk reference, on the standard
    corpus over a field or on one ``.alg`` input: the order that numbers the records."""
    for name, alg in _algebras(source).items():
        got = [(tuple((l.arrow, l.inverse) for l in w.letters), w.base_vertex)
               for w in enumerate_strings(alg)]
        assert got == reference_strings(alg), name


@pytest.mark.parametrize("source", ["rational", "fp:2", *ALG_FILES, *TAU_INPUTS])
def test_string_tau_matches_presentations(source):
    """Butler-Ringel's hooks and cohooks against tau by minimal presentations:
    the same record for every non-projective string, and None exactly on the
    projectives."""
    for name, alg in _algebras(source).items():
        inv = build_inventory(alg)
        for r, w in zip(inv.records, inv.words):
            got, ref = string_tau(alg, w), tau(r.rep)
            assert (got is None) == r.is_projective == ref.is_zero(), (name, r.name)
            if got is not None:
                assert inv.words.index(got) == inv.find_iso(ref), (name, r.name)


def test_string_tau_adds_cohooks_before_deleting_hooks(corpus):
    """0 -> 2 -> P3 -> 3/1 -> 0 over D3: the cohook at the left end of 3/1 comes
    first, then the hook at its right end goes."""
    kd3 = corpus["KD3"]
    ws = enumerate_strings(kd3)
    w = next(w for w in ws if string_name(kd3, w) == "3/1")
    assert string_name(kd3, string_tau(kd3, w)) == "2"


@pytest.mark.parametrize("source", ["rational", *ALG_FILES])
def test_string_hom_dims_match_hom_bases(source):
    for name, alg in _algebras(source).items():
        ws = enumerate_strings(alg)
        reps = [string_to_rep(alg, w) for w in ws]
        for C, M in zip(ws, reps):
            for D, N in zip(ws, reps):
                assert string_hom_dim(alg, C, D) == len(hom_basis(M, N)), (name, C, D)


def test_missing_tau_string_is_named(monkeypatch, a3sq):
    """tau(1) = 2 over a3sq; without the string 2 the record 1 has no translate."""
    words = enumerate_strings(a3sq)
    two = next(w for w in words if string_name(a3sq, w) == "2")
    monkeypatch.setattr(taured.tilting, "enumerate_strings",
                        lambda alg: [w for w in words if w != two])
    with pytest.raises(InventoryError, match=r"^tau of 1 \("):
        build_inventory(a3sq)


def test_string_tau_must_vanish_exactly_on_projectives(monkeypatch, a3sq):
    monkeypatch.setattr(taured.tilting, "string_tau", lambda alg, w: None)
    with pytest.raises(InventoryError, match="^string tau of 1 is zero, but 1 is not projective"):
        build_inventory(a3sq)


def test_string_inventories_build_no_presentations(monkeypatch, a3sq_inv):
    def refuse(rep):
        raise AssertionError("tau by presentations on a string inventory")

    monkeypatch.setattr(taured.tilting, "tau", refuse)
    inv = build_inventory(a3sq_inv.algebra)
    assert not any(r.external for r in inv.records)
    assert [(r.name, r.tau_id, r.is_projective, r.is_tau_rigid) for r in inv.records] == \
        [(r.name, r.tau_id, r.is_projective, r.is_tau_rigid) for r in a3sq_inv.records]
    assert all(r.tau_rep is inv.records[r.tau_id].rep for r in inv.records if r.tau_id is not None)
    assert record_by_name(inv, "1").tau_id == record_by_name(inv, "2").id
