from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from taured.linalg import (
    FpElement,
    Matrix,
    PrimeField,
    QQ,
    field_from_name,
    is_invertible,
    left_nullspace,
    modulo,
    nullspace,
    rank_and_rowbasis,
)

from helpers import same_rowspace, solve_right


def mat(rows, cols=None):
    rows = [[Fraction(x) for x in r] for r in rows]
    if cols is None:
        cols = len(rows[0]) if rows else 0
    return Matrix.from_rows(rows, cols, QQ)


def test_identity_rank_and_basis():
    m = Matrix.identity(3, QQ)
    r, basis = rank_and_rowbasis(m)
    assert r == 3
    assert basis == m


def test_zero_rank():
    r, basis = rank_and_rowbasis(Matrix.zeros(2, 4, QQ))
    assert r == 0
    assert basis.rows == 0


def test_proportional_rows_rank_one():
    assert mat([[1, 2], [2, 4]]).rank() == 1


def test_nullspace_identity_empty():
    assert nullspace(Matrix.identity(2, QQ)).rows == 0


def test_nullspace_zero_full():
    assert nullspace(Matrix.zeros(2, 3, QQ)).rows == 3


def test_nullspace_single_constraint():
    ns = nullspace(mat([[1, 1, 0]]))
    assert ns.rows == 2
    # contains (1, -1, 0) in its span
    probe = Matrix.stack([ns, mat([[1, -1, 0]])], 3, QQ)
    assert probe.rank() == 2


def test_zero_by_n_matrices_behave():
    a = Matrix.zeros(0, 3, QQ)
    b = Matrix.zeros(3, 0, QQ)
    assert (a @ b).rows == 0 and (a @ b).cols == 0
    assert (b @ a).rows == 3 and (b @ a).cols == 3
    assert (b @ a).is_zero()
    assert Matrix.stack([], 3, QQ) == a
    assert left_nullspace(b) == Matrix.identity(3, QQ)


def test_solve_left_right():
    a = mat([[1, 2], [0, 1]])
    y = solve_right(a, mat([[1], [1]]))
    assert (a @ y - mat([[1], [1]])).is_zero()


def test_solve_inconsistent_returns_none():
    a = mat([[1, 0], [2, 0]])
    assert solve_right(a, mat([[0], [1]])) is None


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def small_matrix(draw):
    r = draw(st.integers(0, 4))
    c = draw(st.integers(0, 4))
    rows = [[Fraction(draw(small_entries)) for _ in range(c)] for _ in range(r)]
    return Matrix.from_rows(rows, c, QQ)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_equals_transpose_rank(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_nullity(m):
    assert nullspace(m).rank() + m.rank() == m.cols


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_nullspace_annihilates(m):
    ns = nullspace(m)
    if ns.rows and m.rows:
        assert (ns @ m.transpose()).is_zero()


@given(st.sampled_from([QQ, PrimeField(3)]), st.integers(0, 4), st.integers(0, 5), st.data())
def test_modulo_kills_the_row_space_and_splits_off_the_free_columns(field, rows, cols, data):
    entries = st.integers(-2, 2).map(field.from_int)
    m = Matrix.from_rows([[data.draw(entries) for _ in range(cols)] for _ in range(rows)],
                         cols, field)
    free, kernel = modulo(m)
    assert len(free) == kernel.rows == cols - m.rank()
    if rows:
        assert (m @ kernel.transpose()).is_zero()
    at_free = Matrix.from_rows([[row[c] for c in free] for row in kernel.data], len(free), field)
    assert at_free == Matrix.identity(len(free), field)
    assert kernel == nullspace(m)


@settings(max_examples=40, deadline=None)
@given(small_matrix(), st.randoms(use_true_random=False))
def test_rowspace_invariant_under_shuffle(m, rng):
    rows = [row[:] for row in m.data]
    rng.shuffle(rows)
    shuffled = Matrix.from_rows(rows, m.cols, QQ)
    assert same_rowspace(m, shuffled)
    r1, b1 = rank_and_rowbasis(m)
    r2, b2 = rank_and_rowbasis(shuffled)
    assert r1 == r2
    if r1:
        assert same_rowspace(b1, b2)


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    a, b = f5.from_int(3), f5.from_int(4)
    assert (a * b).v == 2
    assert (a / b).v == (3 * pow(4, 3, 5)) % 5
    assert not (a - a)
    with pytest.raises(ZeroDivisionError):
        a / f5.zero


def test_prime_field_matrix_rank():
    f5 = PrimeField(5)

    def fmat(rows):
        return Matrix.from_rows([[f5.from_int(x) for x in r] for r in rows],
                                len(rows[0]), f5)

    assert fmat([[1, 2], [2, 4]]).rank() == 1
    assert fmat([[1, 0], [0, 1]]).rank() == 2
    # 5 == 0 mod 5
    assert fmat([[5]]).rank() == 0


def test_field_from_name():
    assert field_from_name("rational") is QQ
    assert field_from_name("fp:7").p == 7
    with pytest.raises(ValueError):
        field_from_name("fp:6")
    with pytest.raises(ValueError):
        field_from_name("real")


def test_is_invertible():
    assert is_invertible(Matrix.identity(2, QQ))
    assert not is_invertible(mat([[1, 2], [2, 4]]))
    assert is_invertible(Matrix.zeros(0, 0, QQ))


def test_left_nullspace():
    m = mat([[1, 2], [2, 4], [0, 0]])
    ln = left_nullspace(m)
    assert ln.rows == 2
    assert (ln @ m).is_zero()


def _exact_entries(m):
    """Each entry of ``m`` is an int or a Fraction (so never a float)."""
    return all(type(a) in (int, Fraction) for row in m.data for a in row)


@st.composite
def int_system(draw):
    """An integer matrix whose first pivot is a non-unit, and a right-hand side."""
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    rows = [[draw(small_entries) for _ in range(c)] for _ in range(r)]
    rows[0][0] = draw(st.sampled_from([2, -2, 3, 4, -5, 6]))
    rhs = [[draw(small_entries)] for _ in range(r)]
    return Matrix.from_rows(rows, c, QQ), Matrix.from_rows(rhs, 1, QQ)


def _as_fractions(m):
    return Matrix.from_rows([[Fraction(a) for a in row] for row in m.data], m.cols, QQ)


@settings(max_examples=80, deadline=None)
@given(int_system())
def test_int_entries_agree_with_all_fraction_copy(system):
    a, b = system
    fa, fb = _as_fractions(a), _as_fractions(b)
    reduced, pivots = a.rref()
    assert (reduced, pivots) == fa.rref()
    assert pivots[0] == 0 and _exact_entries(reduced)
    assert a.rank() == fa.rank()
    ns = nullspace(a)
    assert ns == nullspace(fa) and _exact_entries(ns)
    x = solve_right(a, b)
    assert x == solve_right(fa, fb)
    if x is not None:
        assert _exact_entries(x) and a @ x == b


def test_inverse_on_both_fields():
    assert QQ.inverse(1) == 1 and type(QQ.inverse(1)) is int
    assert QQ.inverse(-1) == -1 and type(QQ.inverse(-1)) is int
    assert QQ.inverse(4) == Fraction(1, 4)
    assert QQ.inverse(Fraction(-2, 3)) == Fraction(-3, 2)
    f7 = PrimeField(7)
    assert f7.inverse(f7.from_int(3)) * f7.from_int(3) == f7.one
    for field in (QQ, f7):
        with pytest.raises(ZeroDivisionError):
            field.inverse(field.zero)


def test_rational_scalars_are_ints_until_a_division():
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.one) is int
    assert type(QQ.from_int(3)) is int
    assert type(QQ.from_fraction(Fraction(6, 3))) is int
    assert QQ.from_fraction(Fraction(1, 2)) == Fraction(1, 2)
    assert type(QQ.from_fraction(Fraction(1, 2))) is Fraction
    reduced, pivots = Matrix.from_rows([[2, 1]], 2, QQ).rref()
    assert reduced.data == [[1, Fraction(1, 2)]] and pivots == [0]
    assert _exact_entries(reduced)
