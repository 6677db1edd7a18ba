"""Exact matrix arithmetic over the rationals or a prime field.

Every downstream computation (Hom spaces, translates, factor-closure tests)
reduces to rank / kernel questions answered here.  In rational mode an entry
is a Python ``int``, or a ``Fraction`` once a division by a non-unit has made
one; mixed ``int``/``Fraction`` arithmetic is exact, and the only division,
:meth:`RationalField.inverse`, returns an ``int`` or a ``Fraction``, so no
``float`` ever arises.  In prime-field mode entries are ``FpElement`` objects.
Ranks and solution spaces carry no numerical error.
"""

from __future__ import annotations

from fractions import Fraction


class FpElement:
    """An element of the field with ``p`` elements (p prime)."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return FpElement(self.v + other.v, self.p)

    def __sub__(self, other):
        return FpElement(self.v - other.v, self.p)

    def __mul__(self, other):
        return FpElement(self.v * other.v, self.p)

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, FpElement) and self.v == other.v and self.p == other.p

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}~{self.p}"


class RationalField:
    name = "rational"

    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return n

    def from_fraction(self, f: Fraction) -> int | Fraction:
        return f.numerator if f.denominator == 1 else f

    def inverse(self, x):
        """1/x, exact: ±1 is its own inverse and stays an ``int``."""
        if x == 1 or x == -1:
            return x
        return Fraction(1, x)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class PrimeField:
    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"fp:{p}"
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def from_int(self, n: int) -> FpElement:
        return FpElement(n, self.p)

    def from_fraction(self, f: Fraction) -> FpElement:
        return FpElement(f.numerator, self.p) / FpElement(f.denominator, self.p)

    def inverse(self, x: FpElement) -> FpElement:
        return self.one / x

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("fp", self.p))


QQ = RationalField()


def field_from_name(name: str):
    """Parse a field mode string: ``rational`` or ``fp:<p>``."""
    if name == "rational":
        return QQ
    if name.startswith("fp:"):
        return PrimeField(int(name[3:]))
    raise ValueError(f"unknown field mode {name!r}")


class Matrix:
    """A dense exact matrix; 0xn and nx0 shapes are legal and act as zero maps.

    Rows are the outer index.  All vectors in this package are row vectors and
    act on the left: ``x -> x @ M``.
    """

    __slots__ = ("rows", "cols", "data", "field")

    def __init__(self, rows: int, cols: int, data, field):
        self.rows = rows
        self.cols = cols
        self.data = data
        self.field = field

    @classmethod
    def zeros(cls, rows: int, cols: int, field):
        z = field.zero
        return cls(rows, cols, [[z] * cols for _ in range(rows)], field)

    @classmethod
    def identity(cls, n: int, field):
        m = cls.zeros(n, n, field)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @classmethod
    def from_rows(cls, rows_data, cols: int, field):
        rows_data = [list(r) for r in rows_data]
        return cls(len(rows_data), cols, rows_data, field)

    def copy(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [row[:] for row in self.data], self.field)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = Matrix.zeros(self.rows, other.cols, self.field)
        for i in range(self.rows):
            srow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = srow[k]
                if not a:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b:
                        orow[j] = orow[j] + a * b
        return out

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.field,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return Matrix(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.field,
        )

    def scale(self, c) -> "Matrix":
        return Matrix(self.rows, self.cols, [[c * a for a in row] for row in self.data], self.field)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.field,
        )

    def is_zero(self) -> bool:
        return all(not a for row in self.data for a in row)

    @staticmethod
    def stack(mats, cols: int, field) -> "Matrix":
        data = []
        for m in mats:
            if m.cols != cols:
                raise ValueError("column mismatch in stack")
            data.extend(row[:] for row in m.data)
        return Matrix(len(data), cols, data, field)

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the pivot column list."""
        m = [row[:] for row in self.data]
        one = self.field.one
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            lead = m[r][c]
            if lead != one:
                s = self.field.inverse(lead)
                m[r] = [a * s if a else a for a in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    mi, mr = m[i], m[r]
                    for j in range(c, self.cols):
                        if mr[j]:
                            mi[j] = mi[j] - f * mr[j]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(self.rows, self.cols, m, self.field), pivots

    def rank(self) -> int:
        return len(self.rref()[1])


def rank_and_rowbasis(m: Matrix) -> tuple[int, Matrix]:
    """Row rank and an echelon basis of the row space (deterministic)."""
    r, pivots = m.rref()
    basis = Matrix.from_rows([r.data[i] for i in range(len(pivots))], m.cols, m.field)
    return len(pivots), basis


def modulo(m: Matrix) -> tuple[list[int], Matrix]:
    """The free columns of m's RREF and the nullspace read off it.

    Row k of the nullspace is 1 at ``free[k]``, 0 at the other free columns
    and minus the RREF entries of that column at the pivots.  So its column c
    holds the coordinates of e_c modulo the row space of m, in the basis of
    the free unit vectors, and a vector of the nullspace has its entries at
    the free columns as coordinates.
    """
    r, pivots = m.rref()
    field = m.field
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    rows = []
    for fc in free:
        vec = [field.zero] * m.cols
        vec[fc] = field.one
        for i, pc in enumerate(pivots):
            vec[pc] = -r.data[i][fc]
        rows.append(vec)
    return free, Matrix.from_rows(rows, m.cols, field)


def nullspace(m: Matrix) -> Matrix:
    """Basis (as rows) of ``{x : x . m^T = 0}``, the right kernel of ``m``.

    Satisfies rank(nullspace(m)) + rank(m) = cols(m).
    """
    return modulo(m)[1]


def left_nullspace(m: Matrix) -> Matrix:
    """Basis (as rows) of ``{x : x @ m = 0}``."""
    return nullspace(m.transpose())


def is_invertible(m: Matrix) -> bool:
    return m.rows == m.cols and m.rank() == m.rows
