"""Expected answers, written by hand from the literature, and the verdict gate.

None of these numbers is computed by `taured`:

* Pair counts P.  Rad-square-zero A7 and D7: 408 and 454 support tau-tilting
  pairs.  Self-injective cyclic Nakayama algebra with 5 simples and Loewy
  length 5: C(10, 5) = 252 (Adachi, "The classification of tau-tilting
  modules over Nakayama algebras", J. Algebra 452, 2016); Loewy length 4: 182.
* Hasse arrows.  Every support tau-tilting pair has exactly n mutations and
  the Hasse quiver is the mutation quiver (Adachi-Iyama-Reiten, "tau-tilting
  theory", arXiv:1210.1036, Thm 2.18 and 2.33), so it has P * n / 2 arrows.
* tau-tilting counts of the rad-square-zero series: A1..A10 are the
  Fibonacci numbers 1, 2, 3, ..., 89; D3..D9 are 5, 6, 11, 17, 28, 45, 73.

The tests recount the Nakayama and A7 pairs and the A-series counts from the
combinatorics of uniserial modules alone (tests/test_bench.py).

A verdict fails on a nonzero exit, a traceback, any ``[FAIL]`` or ``[SKIP]``
line, or a count that differs from this table.  ``[SKIP]`` is a failure here
because every input is a string algebra with a projective-injective module,
so nothing may be skipped.
"""

from __future__ import annotations

import re

PAIRS = {"rsz-A7": 408, "rsz-D7": 454, "nakayama-5-5": 252, "nakayama-5-4": 182}
VERTICES = {"rsz-A7": 7, "rsz-D7": 7, "nakayama-5-5": 5, "nakayama-5-4": 5}

TAU_TILT_COUNTS = {
    "A": {1: 1, 2: 2, 3: 3, 4: 5, 5: 8, 6: 13, 7: 21, 8: 34, 9: 55, 10: 89},
    "D": {3: 5, 4: 6, 5: 11, 6: 17, 7: 28, 8: 45, 9: 73},
}


def hasse_arrows(name: str) -> int:
    return PAIRS[name] * VERTICES[name] // 2


_ORACLE_LINE = re.compile(r"^\[PASS\] oracle-equivalence: .* \((\d+) pairs\)$", re.M)


def _common_problems(code: int, output: str) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if "Traceback" in output:
        problems.append("traceback")
    for line in output.splitlines():
        if line.startswith(("[FAIL]", "[SKIP]")):
            problems.append(line)
    return problems


def verify_problems(name: str, code: int, output: str) -> list[str]:
    """Why the output of `taured verify` on input ``name`` is wrong; [] if it is right."""
    problems = _common_problems(code, output)
    counts = _ORACLE_LINE.findall(output)
    if counts != [str(PAIRS[name])]:
        problems.append(f"pair count {counts}, expected {PAIRS[name]}")
    if "all checks passed" not in output.splitlines():
        problems.append("no 'all checks passed' line")
    return problems


def series_problems(kind: str, n_max: int, code: int, output: str) -> list[str]:
    """Why the output of `taured series --closed-form` is wrong; [] if it is right."""
    problems = _common_problems(code, output)
    expected = {n: c for n, c in TAU_TILT_COUNTS[kind].items() if n <= n_max}
    seen = {}
    for line in output.splitlines()[1:]:
        fields = line.split()
        if len(fields) != 5 or not fields[0].isdigit():
            problems.append(f"unexpected line {line!r}")
            continue
        n, count, recurrence, boundary, closed = fields
        seen[int(n)] = int(count)
        if "FAIL" in (recurrence, boundary) or closed != count:
            problems.append(f"row {line!r}")
    if seen != expected:
        problems.append(f"counts {seen}, expected {expected}")
    return problems


def hasse_problems(name: str, sizes) -> list[str]:
    """Check the traced `hasse` calls: [pairs, vertices, arrows] for each call.

    The first call is on the input's own pairs; every call, including those on
    socle quotients, must satisfy arrows = pairs * vertices / 2.
    """
    problems = [f"hasse: {a} arrows for {p} pairs on {n} vertices"
                for p, n, a in sizes if 2 * a != p * n]
    first = [PAIRS[name], VERTICES[name], hasse_arrows(name)]
    if not sizes or list(sizes[0]) != first:
        problems.append(f"first hasse call {sizes[:1]}, expected {first}")
    return problems
