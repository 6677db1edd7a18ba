import weakref

import pytest

import taured.cli
import taured.reduction
import taured.series
import taured.tilting
from taured.errors import BadIndex, NonIntegerResult
from taured.reduction import socle_quotient
from taured.series import closed_form, series_algebra, series_counts, tau_tilt_count
from taured.tilting import build_inventory


def test_series_algebra_shapes():
    a3 = series_algebra("A", 3)
    assert a3.dim == 5
    assert [(a.src, a.tgt) for a in a3.quiver.arrows] == [("2", "1"), ("3", "2")]
    assert len(a3.relations) == 1
    d3 = series_algebra("D", 3)
    assert d3.relations == [] and d3.dim == 5
    a1 = series_algebra("A", 1)
    assert a1.dim == 1


def test_series_bad_index():
    with pytest.raises(BadIndex):
        series_algebra("A", 0)
    with pytest.raises(BadIndex):
        series_algebra("D", 2)
    with pytest.raises(BadIndex):
        series_algebra("E", 6)
    with pytest.raises(BadIndex):
        closed_form("A", 0)
    with pytest.raises(BadIndex):
        series_counts("A", 0)


def test_a_series_counts_small():
    rep = series_counts("A", 5)
    assert rep.counts == [1, 2, 3, 5, 8]
    assert rep.ok()
    assert [r.recurrence_checked for r in rep.rows] == [None, None, True, True, True]


def test_d_series_counts_small():
    rep = series_counts("D", 5)
    assert rep.counts == [5, 6, 11]
    assert rep.ok()
    assert [r.recurrence_checked for r in rep.rows] == [None, None, True]


def test_closed_forms_match_known_values():
    assert [closed_form("A", n) for n in range(1, 11)] == \
        [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert [closed_form("D", n) for n in range(3, 10)] == [5, 6, 11, 17, 28, 45, 73]


def test_closed_form_satisfies_recurrence():
    for n in range(3, 61):
        assert closed_form("A", n) == closed_form("A", n - 1) + closed_form("A", n - 2)
    for n in range(5, 61):
        assert closed_form("D", n) == closed_form("D", n - 1) + closed_form("D", n - 2)


def test_tau_tilt_count_direct():
    assert tau_tilt_count(series_algebra("A", 3)) == 3
    assert tau_tilt_count(series_algebra("D", 3)) == 5


def test_closed_form_refuses_a_non_integral_numerator(monkeypatch):
    """The numerator (1 + sqrt5)^5 = 176 + 80 sqrt5 has x != 0: not an integer times sqrt5 2^5."""
    monkeypatch.setitem(taured.series._CLOSED_FORMS, "A", (1, 1, (1, 0), (0, 0)))
    with pytest.raises(NonIntegerResult, match="is not an integer"):
        closed_form("A", 4)


def test_series_budget_guard():
    with pytest.raises(BadIndex):
        series_counts("A", 11)
    with pytest.raises(BadIndex):
        series_counts("D", 10)
    rep = series_counts("A", 11, budget=11)
    assert rep.counts[-1] == 144
    assert rep.ok()


def test_series_builds_each_inventory_once(monkeypatch):
    calls = dict.fromkeys(["build_inventory", "enumerate_stpairs"], 0)

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # every namespace that binds the name, so each call site counts
    for name in calls:
        for module in (taured.cli, taured.reduction, taured.series, taured.tilting):
            if hasattr(module, name):
                counting(module, name)
    assert series_counts("A", 10).ok() and series_counts("D", 9).ok()
    # one per row, and one per boundary check for the one-vertex block k of
    # the socle quotient Lambda_{n-1} x k; the block Lambda_{n-1} is carried
    # from row n - 1's inventory, and row n - 2 is read from its own row, so
    # neither is built again.  Counts are read off the tau-tilting sets, and
    # the boundary family is listed by restricted cliques, so no pair list
    # is built at all.
    assert calls == {"build_inventory": 10 + 7 + (8 + 5), "enumerate_stpairs": 0}


@pytest.mark.parametrize("kind, n", [("A", 13), ("D", 11)])
def test_series_past_the_budget_lists_no_pairs(kind, n, monkeypatch):
    """Past the default budget every check still passes, and no pair list is built."""
    def refused(inv):
        raise AssertionError("enumerate_stpairs called")

    monkeypatch.setattr(taured.tilting, "enumerate_stpairs", refused)
    rep = series_counts(kind, n, budget=n)
    assert rep.ok() and rep.counts[-1] == closed_form(kind, n)
    assert all(r.boundary_structure_checked for r in rep.rows[2:])


def test_tilting_sets_are_the_tau_tilting_pairs(pair_invs):
    """The count and the sets ``series`` reads off the tilting sets are those of the pairs."""
    for name, inv in pair_invs.items():
        pairs = [frozenset(p.modules) for p in inv.pairs if p.is_tau_tilting]
        assert len(inv.tilting_sets) == len(pairs), name
        assert {frozenset(s) for s in inv.tilting_sets} == set(pairs), name
    for kind, rows in (("A", range(1, 11)), ("D", range(3, 10))):
        assert series_counts(kind, rows[-1]).counts == [
            sum(p.is_tau_tilting for p in pair_invs[f"{kind}{n}"].pairs) for n in rows]


def test_series_frees_each_row_before_the_next(monkeypatch):
    """Row n - 1's inventory, which the carried block refers to, is freed before row n's
    is built, without a garbage collection."""
    rows = []  # a weak reference to each row's inventory, in build order
    build = taured.series.build_inventory

    def tracked(algebra):
        assert all(row() is None for row in rows), "an earlier row's inventory is alive"
        inv = build(algebra)
        rows.append(weakref.ref(inv))
        return inv
    monkeypatch.setattr(taured.series, "build_inventory", tracked)
    assert series_counts("A", 8).ok() and series_counts("D", 7).ok()
    assert len(rows) == 8 + 5


@pytest.mark.parametrize("kind, n", [("A", n) for n in range(3, 9)]
                         + [("D", n) for n in range(5, 8)])
def test_carried_block_is_the_fresh_build(kind, n):
    """The block Lambda_{n-1} of the socle quotient at P_n, carried from row n - 1's
    inventory, has the records and pairs a fresh build of the block gives."""
    row = build_inventory(series_algebra(kind, n - 1))
    ctx = socle_quotient(series_algebra(kind, n), str(n), classes=row)
    carried = next(b for b in ctx.blocks if str(n - 1) in b.algebra.vertices)
    assert carried._source[0] is row
    fresh = build_inventory(carried.algebra)
    assert ([(r.name, r.tau_id, r.is_tau_rigid) for r in carried.records]
            == [(r.name, r.tau_id, r.is_tau_rigid) for r in fresh.records])
    assert carried.pairs == fresh.pairs


def test_series_without_isomorphisms_builds_the_blocks(monkeypatch):
    """Where no isomorphism is found, each block is built afresh, with the same report."""
    expected = [series_counts("A", 8), series_counts("D", 7)]
    searched = []
    monkeypatch.setattr(taured.tilting, "isomorphism", lambda a, b: searched.append(a))
    assert [series_counts("A", 8), series_counts("D", 7)] == expected
    assert searched
