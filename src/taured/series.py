"""Radical-square-zero linear-A and linear-D series: counts and closed forms.

The number of tau-tilting modules over these algebras satisfies the two-step
additive recurrence (the reduction at the projective-injective P_n peels off
the last vertex twice), which pins the counts to Fibonacci-type closed forms
evaluated here exactly in Z[sqrt(5)] on integer coordinates.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Algebra, Arrow, Quiver, Relation, build_algebra
from .errors import BadIndex, NonIntegerResult, NotProjInjective
from .linalg import QQ
from .reduction import ReductionContext, socle_quotient
from .tilting import Inventory, build_inventory


def series_algebra(kind: str, n: int, field=QQ) -> Algebra:
    """The linear quiver n -> n-1 -> ... -> 1 (kind A) or the D variant with
    3 -> 1 and 3 -> 2, each modulo all paths of length two."""
    kind = kind.upper()
    if kind == "A":
        if n < 1:
            raise BadIndex("A-series needs n >= 1")
        vertices = tuple(str(i) for i in range(1, n + 1))
        arrows = tuple(Arrow(f"a{i}", str(i + 1), str(i)) for i in range(1, n))
    elif kind == "D":
        if n < 3:
            raise BadIndex("D-series needs n >= 3")
        vertices = tuple(str(i) for i in range(1, n + 1))
        arrows = tuple(Arrow(f"a{i}", str(i + 1), str(i)) for i in range(3, n)) + (
            Arrow("b1", "3", "1"), Arrow("b2", "3", "2"))
    else:
        raise BadIndex(f"unknown series kind {kind!r}")
    quiver = Quiver(vertices, arrows)
    rels = []
    for x in arrows:
        for y in arrows:
            if x.tgt == y.src:
                rels.append(Relation.monomial((x.name, y.name)))
    return build_algebra(quiver, rels, field=field)


def tau_tilt_count(algebra: Algebra, inv: Inventory | None = None) -> int:
    """The number of tau-tilting modules: the tilting sets of ``algebra``'s inventory ``inv``."""
    return len((build_inventory(algebra) if inv is None else inv).tilting_sets)


class SeriesRow(NamedTuple):
    n: int
    count: int  # shadows tuple.count
    recurrence_checked: bool | None  # None when out of the guard range
    boundary_structure_checked: bool | None


class SeriesReport(NamedTuple):
    kind: str
    rows: list[SeriesRow]

    @property
    def counts(self) -> list[int]:
        return [r.count for r in self.rows]

    def ok(self) -> bool:
        return all(r.recurrence_checked is not False
                   and r.boundary_structure_checked is not False for r in self.rows)


def _boundary_structure_check(n: int, ctx: ReductionContext,
                              smaller: set[frozenset[str]]) -> bool:
    """The boundary family of the reduction ``ctx`` at P_n equals {S_n + L : L in ``smaller``}.

    ``smaller`` holds the tau-tilting modules over the (n-2) algebra of the
    series, by summand names, which are shared vertex-wise between the series
    algebras.
    """
    records = ctx.quotient_inv.records
    extend = [frozenset(records[i].name for i in p.modules) for p in ctx.boundary]
    return all(str(n) in names for names in extend) and {e - {str(n)} for e in extend} == smaller


def series_rows(kind: str, n_max: int, budget: int | None = None) -> range:
    """The rows up to ``n_max`` of the series ``kind``; BadIndex when ``n_max`` is below
    its start or past the enumeration budget (A: 10, D: 9 by default)."""
    is_a = kind.upper() == "A"
    start = 1 if is_a else 3
    if n_max < start:
        raise BadIndex(f"n_max below the series start {start}")
    if budget is None:
        budget = 10 if is_a else 9
    if n_max > budget:
        raise BadIndex(f"n_max {n_max} exceeds the enumeration budget {budget}")
    return range(start, n_max + 1)


def series_counts(kind: str, n_max: int, budget: int | None = None) -> SeriesReport:
    """Direct enumeration counts with recurrence and boundary-structure checks.

    The recurrence is asserted only where both predecessors exist and P_n is
    projective-injective: n >= 3 for A, n >= 5 for D.  Enumeration refuses
    past the desk budget (A: 10, D: 9 by default) instead of grinding.  Each
    algebra is built once over the rationals; its count and tau-tilting
    modules are read off :attr:`Inventory.tilting_sets`.  The boundary check
    of row n reads those of row n - 2 by summand names, and the boundary
    family of Lambda_n / Soc(P_n) = Lambda_{n-1} x k, whose block Lambda_{n-1}
    is carried from row n - 1's inventory, which is then freed.  That family
    is :attr:`ReductionContext.boundary`, so no row or block lists its pairs.
    """
    kind = kind.upper()
    guard = 3 if kind == "A" else 5
    rows: list[SeriesRow] = []
    counts: dict[int, int] = {}
    tilting: dict[int, set[frozenset[str]]] = {}  # by names; row n checks against n - 2
    inv: Inventory | None = None  # the previous row's
    for n in series_rows(kind, n_max, budget):
        alg = series_algebra(kind, n)
        rec = struct = None
        if n >= guard:
            try:
                ctx = socle_quotient(alg, str(n), classes=inv)
            except NotProjInjective:
                ctx = None
            rec = ctx is not None  # and the recurrence holds, read once the count is in
            smaller = tilting.pop(n - 2)
            struct = rec and _boundary_structure_check(n, ctx, smaller)
            del ctx  # its carried block holds row n - 1
        inv = None  # free row n - 1 before row n is built
        inv = build_inventory(alg)
        c = counts[n] = tau_tilt_count(alg, inv)
        tilting[n] = {frozenset(inv.records[i].name for i in s) for s in inv.tilting_sets}
        rows.append(SeriesRow(n, c, rec and c == counts[n - 1] + counts[n - 2], struct))
    return SeriesReport(kind, rows)


# kind -> (least n, m - n, c, d): the count at n is
# (c (1 + sqrt5)^m + d (1 - sqrt5)^m) / (sqrt5 2^m), with c and d in Z[sqrt5]
_CLOSED_FORMS = {"A": (1, 1, (1, 0), (-1, 0)), "D": (3, -1, (-1, 2), (1, 2))}


def _times(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    """(p0 + p1 sqrt5)(q0 + q1 sqrt5) as an integer pair."""
    return p[0] * q[0] + 5 * p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def closed_form(kind: str, n: int) -> int:
    """Exact closed form for the tau-tilting count of the series algebras.

    The numerator x + y sqrt5 is computed on integer pairs; the form is an
    integer exactly when x is 0 and 2^m divides y, and NonIntegerResult is
    raised otherwise.
    """
    kind = kind.upper()
    if kind not in _CLOSED_FORMS:
        raise BadIndex(f"unknown series kind {kind!r}")
    start, shift, plus, minus = _CLOSED_FORMS[kind]
    if n < start:
        raise BadIndex(f"{kind}-series needs n >= {start}")
    m = n + shift
    for _ in range(m):
        plus, minus = _times(plus, (1, 1)), _times(minus, (1, -1))
    x, y = plus[0] + minus[0], plus[1] + minus[1]
    if x or y % 2 ** m:
        raise NonIntegerResult(f"({x} + {y} sqrt5) / (sqrt5 2^{m}) is not an integer")
    return y // 2 ** m
