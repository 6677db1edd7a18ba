"""Reduction over the commutative square: a non-monomial, non-string input.

The eleven indecomposables are supplied by hand (the algebra is thin: every
indecomposable has all vertex dimensions 0 or 1, and the case analysis over
supports pins the list).  The socle quotient at the projective-injective
corner is a string algebra, so the quotient side enumerates independently;
the reduction report then cross-validates the supplied inventory, and the
proper-support quotients replay the oracle recipe.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from taured.algebra import Arrow, Quiver, Relation, build_algebra, vertex_subalgebra_quotient
from taured.linalg import Matrix, QQ
from taured.reduction import socle_quotient, verify_reduction
from taured.reps import Representation, hom_basis, inflate, is_iso
from taured.strings import is_string_algebra
from taured.tilting import build_inventory, enumerate_stpairs

from helpers import reference_hom_to_q


def one():
    return Matrix.identity(1, QQ)


@pytest.fixture(scope="module")
def square():
    q = Quiver(("1", "2", "3", "4"),
               (Arrow("a", "1", "2"), Arrow("b", "2", "4"),
                Arrow("c", "1", "3"), Arrow("d", "3", "4")))
    rel = Relation(terms=((Fraction(1), ("a", "b")), (Fraction(-1), ("c", "d"))))
    return build_algebra(q, [rel])


@pytest.fixture(scope="module")
def square_inventory(square):
    def rep(dims, arrows):
        d = {v: (1 if v in dims else 0) for v in square.vertices}
        maps = {a: one() for a in arrows}
        r = Representation(square, d, maps)
        r.assert_valid()
        return r

    supplied = [
        ("1", rep("1", [])),
        ("2", rep("2", [])),
        ("3", rep("3", [])),
        ("4", rep("4", [])),
        ("1/2", rep("12", ["a"])),
        ("1/3", rep("13", ["c"])),
        ("2/4", rep("24", ["b"])),
        ("3/4", rep("34", ["d"])),
        ("1/(2+3)", rep("123", ["a", "c"])),
        ("(2+3)/4", rep("234", ["b", "d"])),
        ("1/(2+3)/4", rep("1234", ["a", "b", "c", "d"])),
    ]
    return build_inventory(square, supplied=supplied)


def test_square_is_not_string_but_quotient_is(square):
    assert not is_string_algebra(square)[0]
    ctx = socle_quotient(square, "1")
    assert is_string_algebra(ctx.quotient)[0]
    assert len(build_inventory(ctx.quotient)) == 10


def test_square_reduction_report(square, square_inventory):
    report = verify_reduction(square, "square", inv=square_inventory)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_square_proper_support_oracle(square, square_inventory):
    """Replay the quotient-definition recipe on every proper support set."""
    inv = square_inventory
    pairs = enumerate_stpairs(inv)
    verts = list(square.vertices)
    for size in range(1, len(verts)):
        for support in combinations(verts, size):
            quot = vertex_subalgebra_quotient(square, set(support))
            qinv = build_inventory(quot)
            found = set()
            cands = qinv.candidates()
            for subset in combinations(cands, len(quot.vertices)):
                if any(len(hom_basis(x.rep, y.tau_rep)) for x in subset for y in subset):
                    continue
                ids = []
                for r in subset:
                    m = inv.find_iso(inflate(r.rep))
                    assert m is not None
                    ids.append(m)
                found.add(frozenset(ids))
            expected = {frozenset(p.modules) for p in pairs
                        if set(p.supports) == set(verts) - set(support)}
            assert found == expected, support


def test_square_tau_tilting_count(square, square_inventory):
    tts = [p for p in enumerate_stpairs(square_inventory) if p.is_tau_tilting]
    # reduction recounts this independently through the string-algebra quotient
    from taured.reduction import compute_nsets, reconstruct_tau_tilt

    ctx = socle_quotient(square, "1", square_inventory)
    recon = reconstruct_tau_tilt(ctx, compute_nsets(ctx))
    assert len(recon) == len(tts)
    assert set(recon) == {frozenset(p.modules) for p in tts}


def test_square_hom_to_q_matches_hom_bases(square, square_inventory):
    ctx = socle_quotient(square, "1", square_inventory)
    assert ctx.hom_to_q == reference_hom_to_q(ctx)
    assert len(ctx.hom_to_q) == 10  # every indecomposable but Q = 1/(2+3)/4 is one over the quotient
