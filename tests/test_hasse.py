"""The Hasse quiver by mutation against the Fac order computed pair by pair."""

import time

import pytest

from taured.algebra import Arrow, Quiver, Relation, build_algebra
from taured.errors import HasseError
from taured.linalg import QQ, PrimeField
from taured.series import series_algebra
from taured.tilting import STPair, build_inventory, hasse, order_ge


class _MemoFac:
    """An inventory's Fac tests, each computed once."""

    def __init__(self, inv):
        self.inv = inv
        self.answers = {}

    def fac_contains(self, j, sources):
        if (j, sources) not in self.answers:
            self.answers[(j, sources)] = self.inv.fac_contains(j, sources)
        return self.answers[(j, sources)]


def _hasse_by_order(inv, pairs):
    """Reference: the covering relations of the Fac order, from P^2 order_ge calls."""
    inv = _MemoFac(inv)
    nv = len(pairs)
    ge_rows = [0] * nv
    for i in range(nv):
        for j in range(nv):
            if i != j and order_ge(inv, pairs[i], pairs[j]):
                ge_rows[i] |= 1 << j
    arrows = []
    for i in range(nv):
        blocked = 0
        for k in range(nv):
            if (ge_rows[i] >> k) & 1:
                blocked |= ge_rows[k]
        arrows.extend((i, j) for j in range(nv) if (ge_rows[i] & ~blocked) >> j & 1)
    return tuple(sorted(arrows))


def _cyclic_nakayama(n, length, field=QQ):
    """Cyclic quiver on 0..n-1 with every path of the given length zero."""
    verts = tuple(str(i) for i in range(n))
    arrows = tuple(Arrow(f"c{i}", str(i), str((i + 1) % n)) for i in range(n))
    rels = [Relation.monomial(tuple(f"c{(i + k) % n}" for k in range(length)))
            for i in range(n)]
    return build_algebra(Quiver(verts, arrows), rels, field=field)


EXTRA = {
    **{f"rsz-A{n}": (lambda n=n: series_algebra("A", n)) for n in range(2, 8)},
    **{f"rsz-D{n}": (lambda n=n: series_algebra("D", n)) for n in range(4, 8)},
    "nakayama-3-3": lambda: _cyclic_nakayama(3, 3),
    "nakayama-4-3-F3": lambda: _cyclic_nakayama(4, 3, PrimeField(3)),
    "vertex-0": lambda: build_algebra(Quiver(("0", "1"), (Arrow("a", "0", "1"),)), []),
}


def test_hasse_matches_order_builder_on_corpus(corpus_invs):
    for name, inv in corpus_invs.items():
        assert hasse(inv, inv.pairs).arrows == _hasse_by_order(inv, inv.pairs), name


@pytest.mark.parametrize("name", sorted(EXTRA))
def test_hasse_matches_order_builder(name):
    inv = build_inventory(EXTRA[name]())
    H = hasse(inv, inv.pairs)
    assert H.arrows == _hasse_by_order(inv, inv.pairs)
    assert 2 * len(H.arrows) == H.n * len(inv.algebra.vertices)


def test_missing_pair_raises(a3sq_inv):
    pairs = a3sq_inv.pairs
    with pytest.raises(HasseError, match="1 completions, not 2"):
        hasse(a3sq_inv, pairs[:-1])


def _ids(inv, *names):
    return frozenset(inv.record_by_name(n).id for n in names)


@pytest.mark.parametrize("target, sources, message", [
    (None, None, "are each above the other"),
    ("1", ("2",), r"the Fac order has 2 support \{1,3\} > 1 support \{2,3\}"),
    ("3", ("2", "2/1", "3/2"), r"the Fac order lacks 2\+2/1\+3/2 > 3\+3/2 support \{1\}"),
    ("3", ("1", "2/1", "3/2"), r"1\+2/1\+3/2 and 1\+3\+3/2 are incomparable"),
])
def test_lying_fac_test_raises(monkeypatch, target, sources, message):
    inv = build_inventory(series_algebra("A", 3))
    truth = inv.fac_contains
    if target is None:
        monkeypatch.setattr(inv, "fac_contains", lambda j, s: True)
    else:
        key = (inv.record_by_name(target).id, _ids(inv, *sources))
        monkeypatch.setattr(inv, "fac_contains", lambda j, s: truth(j, s) != ((j, s) == key))
    with pytest.raises(HasseError, match=message):
        hasse(inv, inv.pairs)


class _TableInventory:
    """Answers Fac tests from a table; used to build an order no module category has."""

    def __init__(self, true_keys):
        self.true_keys = true_keys

    def fac_contains(self, j, sources):
        return (j, sources) in self.true_keys

    def pair_label(self, pair):
        return "+".join(map(str, pair.modules)) or "0"


def test_redundant_mutation_arrow_raises():
    # three pairs pairwise one exchange apart, ordered a > b > c; the arrow a -> c
    # regenerates the order but is not a covering relation.  The table denies that
    # 0 is in Fac of itself, which an inventory's identity map never does.
    a, b, c = STPair((0, 1), ()), STPair((0,), ("s",)), STPair((1,), ("s",))
    inv = _TableInventory({(0, frozenset({0, 1})), (1, frozenset({0, 1})),
                           (1, frozenset({0}))})
    with pytest.raises(HasseError, match="0\\+1 -> 1 support {s} is not a covering relation"):
        hasse(inv, [a, b, c])


def test_hasse_a9_scale():
    inv = build_inventory(series_algebra("A", 9))
    pairs = inv.pairs
    t0 = time.perf_counter()
    H = hasse(inv, pairs)
    elapsed = time.perf_counter() - t0
    assert (H.n, len(H.arrows)) == (2378, 10701)
    assert elapsed < 5.0
