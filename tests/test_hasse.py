"""Reference builders kept as test oracles: the Hasse quiver from the Fac order
computed pair by pair, and the pairs from one vertex quotient per support set."""

import time
from itertools import combinations

import pytest

import taured.tilting
from taured.algebra import Arrow, Quiver, build_algebra, vertex_subalgebra_quotient
from taured.errors import HasseError
from taured.linalg import PrimeField
from taured.reps import inflate
from taured.series import series_algebra
from taured.tilting import (
    PosetQuiver,
    STPair,
    build_inventory,
    hasse,
    oracle_stpairs_via_quotients,
)

from helpers import cyclic_nakayama, order_ge, record_by_name


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


def _oracle_by_supports(inv):
    """Reference: one vertex quotient per nonempty support set, its tau-tilting
    summand sets found by brute force and inflated back."""
    verts = list(inv.algebra.vertices)
    pairs = [STPair((), tuple(sorted(verts)))]
    for size in range(1, len(verts) + 1):
        for support in combinations(verts, size):
            qinv = build_inventory(vertex_subalgebra_quotient(inv.algebra, support))
            cands = qinv.candidates()
            supports = tuple(sorted(v for v in verts if v not in support))
            for subset in combinations(cands, len(support)):
                if all(a.is_tau_rigid for a in subset) and not any(
                        qinv.hom_to_tau(a.id, b.id) or qinv.hom_to_tau(b.id, a.id)
                        for a, b in combinations(subset, 2)):
                    mods = tuple(sorted(inv.find_iso(inflate(a.rep)) for a in subset))
                    assert None not in mods
                    pairs.append(STPair(mods, supports))
    return sorted(pairs, key=inv.pair_sort_key)


EXTRA = {
    **{f"rsz-A{n}": (lambda n=n: series_algebra("A", n)) for n in range(2, 8)},
    **{f"rsz-D{n}": (lambda n=n: series_algebra("D", n)) for n in range(4, 8)},
    "nakayama-3-3": lambda: cyclic_nakayama(3, 3),
    "nakayama-4-3-F3": lambda: cyclic_nakayama(4, 3, PrimeField(3)),
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


def test_block_oracle_matches_support_oracle_on_corpus(corpus_invs, a3_sink_inv):
    for name, inv in {**corpus_invs, "a3-sink": a3_sink_inv}.items():
        assert oracle_stpairs_via_quotients(inv) == _oracle_by_supports(inv), name


@pytest.mark.parametrize("name", sorted(EXTRA) + ["nakayama-3-3-F3"])
def test_block_oracle_matches_support_oracle(name):
    alg = cyclic_nakayama(3, 3, PrimeField(3)) if name == "nakayama-3-3-F3" else EXTRA[name]()
    inv = build_inventory(alg)
    oracle = oracle_stpairs_via_quotients(inv)
    assert oracle == _oracle_by_supports(inv)
    assert {p.key() for p in oracle} == {p.key() for p in inv.pairs}


def test_hasse_matches_order_builder_off_simple_tops(monkeypatch, a3_sink_inv):
    # 1>2<3 is generated by 1/2 + 3/2 jointly but by neither alone: only the
    # joint rank test of fac_contains sees it
    inv = a3_sink_inv
    expected = _hasse_by_order(inv, inv.pairs)
    asked = {}
    truth = inv.fac_contains
    monkeypatch.setattr(inv, "fac_contains",
                        lambda j, s: asked.setdefault((j, s), truth(j, s)))
    assert hasse(inv, inv.pairs).arrows == expected
    assert any(answer and not inv.has_simple_top(j) and j not in s
               and not any(inv.generates(i, j) for i in s)
               for (j, s), answer in asked.items())


def test_fac_rank_tests_once_per_pair_of_records(monkeypatch):
    # P*R Fac questions, answered from at most R^2 single-source rank tests
    inv = build_inventory(cyclic_nakayama(5, 5))
    pairs = inv.pairs
    records = len({x for p in pairs for x in p.modules})
    calls = {"fac": 0, "fill": 0}
    fac, fill = inv.fac_contains, taured.tilting._images_fill

    def counted(key, f):
        def wrapper(*args):
            calls[key] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(inv, "fac_contains", counted("fac", fac))
    monkeypatch.setattr(taured.tilting, "_images_fill", counted("fill", fill))
    hasse(inv, pairs)
    assert calls["fac"] == len(pairs) * records
    assert 0 < calls["fill"] <= records ** 2


def test_missing_pair_raises(a3sq_inv):
    pairs = a3sq_inv.pairs
    with pytest.raises(HasseError, match="1 completions, not 2"):
        hasse(a3sq_inv, pairs[:-1])


def _ids(inv, *names):
    return frozenset(record_by_name(inv, n).id for n in names)


@pytest.mark.parametrize("target, sources, message", [
    (None, None, "are each above the other"),
    # the lie is in the row of 2 support {1,3}; a row above it sees it first
    ("1", ("2",),
     r"^the Fac order has 2\+2/1 support \{3\} > 2 support \{1,3\} > 1 support \{2,3\} "
     r"but lacks 2\+2/1 support \{3\} > 1 support \{2,3\}$"),
    ("3", ("2", "2/1", "3/2"),
     r"^the Fac order has 2\+2/1\+3/2 > 2\+3/2 support \{1\} > 3\+3/2 support \{1\} "
     r"but lacks 2\+2/1\+3/2 > 3\+3/2 support \{1\}$"),
    ("3", ("1", "2/1", "3/2"), r"1\+2/1\+3/2 and 1\+3\+3/2 are incomparable"),
    ("2", ("1", "3", "3/2"),
     r"^the Fac order has 1\+3\+3/2 > 2\+3/2 support \{1\}, "
     r"but no mutation arrow from 1\+3\+3/2 leads to it or above it$"),
])
def test_lying_fac_test_raises(monkeypatch, target, sources, message):
    inv = build_inventory(series_algebra("A", 3))
    truth = inv.fac_contains
    if target is None:
        monkeypatch.setattr(inv, "fac_contains", lambda j, s: True)
    else:
        key = (record_by_name(inv, target).id, _ids(inv, *sources))
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


def _reference_certificate(inv, pairs):
    """Reference: the arrows between pairs one exchange apart, oriented by the
    Fac order; None unless each is strictly oriented, the pairs each one reaches
    by graph search are exactly those below it, and no arrow skips a step."""
    rows = [{j for j, q in enumerate(pairs) if j != i
             and all(inv.fac_contains(x, frozenset(p.modules)) for x in q.modules)}
            for i, p in enumerate(pairs)]
    elems = [set(p.modules) | {("s", v) for v in p.supports} for p in pairs]
    succ = {i: [] for i in range(len(pairs))}
    for a, b in combinations(range(len(pairs)), 2):
        if len(elems[a] - elems[b]) == 1:
            if (b in rows[a]) == (a in rows[b]):
                return None
            s, t = (a, b) if b in rows[a] else (b, a)
            succ[s].append(t)

    def reach(i):
        seen, todo = set(), list(succ[i])
        while todo:
            u = todo.pop()
            if u not in seen:
                seen.add(u)
                todo.extend(succ[u])
        return seen

    for i in succ:
        if reach(i) != rows[i] or any(t in reach(k) for k in succ[i] for t in succ[i]):
            return None
    return tuple(sorted((s, t) for s in succ for t in succ[s]))


@pytest.mark.parametrize("pairs, accepted", [
    # pairwise one exchange apart: any acyclic orientation has a redundant arrow
    ([STPair((0, 1), ()), STPair((0,), ("s",)), STPair((1,), ("s",))], 0),
    (build_inventory(series_algebra("A", 2)).pairs, 72),
], ids=["triangle", "A2"])
def test_hasse_accepts_exactly_the_reference_tables(pairs, accepted):
    # every table of answers to the Fac questions hasse asks
    records = sorted({x for p in pairs for x in p.modules})
    keys = [(x, frozenset(p.modules)) for p in pairs for x in records]
    agreed = 0
    for bits in range(1 << len(keys)):
        inv = _TableInventory({k for n, k in enumerate(keys) if bits >> n & 1})
        expected = _reference_certificate(inv, pairs)
        if expected is None:
            with pytest.raises(HasseError):
                hasse(inv, pairs)
        else:
            assert hasse(inv, pairs) == PosetQuiver(len(pairs), expected)
            agreed += 1
    assert agreed == accepted


def test_cyclic_mutation_arrows_raise():
    # four pairs round a square, each row holding only the next pair: the
    # arrows 0 -> 1 -> 2 -> 3 -> 0 are strictly oriented but form a cycle
    pairs = [STPair(m, ()) for m in ((0, 1), (1, 2), (2, 3), (0, 3))]
    inv = _TableInventory({(x, frozenset(p.modules)) for p in pairs for x in p.modules}
                          | {(2, frozenset({0, 1})), (3, frozenset({1, 2})),
                             (0, frozenset({2, 3})), (1, frozenset({0, 3}))})
    assert _reference_certificate(inv, pairs) is None
    with pytest.raises(HasseError) as err:
        hasse(inv, pairs)
    assert str(err.value) == "the Fac order has 0+1 > 1+2 > 2+3 but lacks 0+1 > 2+3"


def test_hasse_a9_scale():
    inv = build_inventory(series_algebra("A", 9))
    pairs = inv.pairs
    t0 = time.perf_counter()
    H = hasse(inv, pairs)
    elapsed = time.perf_counter() - t0
    assert (H.n, len(H.arrows)) == (2378, 10701)
    assert elapsed < 5.0
