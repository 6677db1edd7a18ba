"""The reference work: a fixed piece of pure Python that times the machine.

    python3 perfbench/calib.py

The benchmark runs this in a fresh process between the children it times and
scales each child's times by how long this took (see run.py).  It does the
kind of work `taured` does, interpreted Python on small objects: elimination
over a prime field with a slotted element class and over small Fractions, and
a clique enumeration over frozensets.  It imports nothing from `taured`, so no
change to the program can change it.  Its work is the same on every run; it
prints CHECK, which run.py checks.
"""

from __future__ import annotations

import random
from fractions import Fraction

ROUNDS = 160
CHECK = 232722  # what work() returns on every run


class Mod:
    """An element of F_101."""

    __slots__ = ("v",)
    P = 101

    def __init__(self, v: int):
        self.v = v % Mod.P

    def __add__(self, other: "Mod") -> "Mod":
        return Mod(self.v + other.v)

    def __sub__(self, other: "Mod") -> "Mod":
        return Mod(self.v - other.v)

    def __mul__(self, other: "Mod") -> "Mod":
        return Mod(self.v * other.v)

    def __bool__(self) -> bool:
        return self.v != 0

    def inverse(self) -> "Mod":
        return Mod(pow(self.v, Mod.P - 2, Mod.P))


def rank(rows, inverse) -> int:
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = inverse(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def cliques(n: int, compatible: dict) -> int:
    """The number of sets of pairwise compatible vertices, the empty set included."""
    found = 0
    stack = [((), frozenset(range(n)))]
    while stack:
        chosen, rest = stack.pop()
        found += 1
        for v in rest:
            if not chosen or v > chosen[-1]:
                stack.append((chosen + (v,), frozenset(w for w in rest if compatible[v, w])))
    return found


def lookups(rng: random.Random, table: dict, sets: list, n: int) -> int:
    """Probe a large dictionary with freshly built (int, frozenset) keys."""
    hits = 0
    for _ in range(n):
        key = (rng.randrange(24), frozenset(sets[rng.randrange(len(sets))]))
        if key in table:
            hits += table[key]
        else:
            table[key] = len(key[1])
    return hits


def work() -> int:
    rng = random.Random(20081056)
    table: dict = {}
    sets = [tuple(rng.sample(range(30), 5)) for _ in range(4000)]
    total = 0
    for k in range(ROUNDS):
        total += lookups(rng, table, sets, 500)
        n = 6 + k % 3
        total += rank([[Mod(rng.randrange(Mod.P)) for _ in range(n + 2)] for _ in range(n)],
                      Mod.inverse)
        total += rank([[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)],
                      lambda x: 1 / x)
        compatible = {(v, w): (v * 7 + w * 3 + k) % 5 != 0 for v in range(14) for w in range(14)}
        total += cliques(14, compatible)
    return total


if __name__ == "__main__":
    print(work())
