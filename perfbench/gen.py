"""Seeded `.alg` inputs for the benchmark workloads.

Each algebra is written with its vertices, arrows and relations in an order
drawn from the seed.  Vertex names are always ``1..n`` and arrow names are
fixed, so every count the benchmark checks is the same for every seed; only
the order in which the program meets the data changes.  The same seed gives
byte-identical files.
"""

from __future__ import annotations

import random


def rsz_a(n: int):
    """Linear A_n, i+1 -> i, modulo all paths of length two."""
    arrows = [(f"a{i}", str(i + 1), str(i)) for i in range(1, n)]
    return [str(i) for i in range(1, n + 1)], arrows, _length_two_paths(arrows)


def rsz_d(n: int):
    """Linear D_n (3 -> 1 and 3 -> 2, i+1 -> i above), modulo all paths of length two."""
    arrows = [(f"a{i}", str(i + 1), str(i)) for i in range(3, n)]
    arrows += [("b1", "3", "1"), ("b2", "3", "2")]
    return [str(i) for i in range(1, n + 1)], arrows, _length_two_paths(arrows)


def nakayama(n: int, length: int):
    """Cyclic quiver i -> i+1 (mod n), modulo every path of the given length."""
    arrows = [(f"c{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)]
    relations = [[f"c{(i + k - 1) % n + 1}" for k in range(length)] for i in range(1, n + 1)]
    return [str(i) for i in range(1, n + 1)], arrows, relations


def _length_two_paths(arrows):
    return [[x, y] for x, _, t in arrows for y, s, _ in arrows if t == s]


# name -> (function, arguments) giving vertices, arrows and relations
ALGEBRAS = {
    "rsz-A7": (rsz_a, (7,)),
    "rsz-D7": (rsz_d, (7,)),
    "nakayama-5-5": (nakayama, (5, 5)),
    "nakayama-5-4": (nakayama, (5, 4)),
    "rsz-A10": (rsz_a, (10,)),
    "rsz-D9": (rsz_d, (9,)),
}


def alg_text(name: str, seed: int | None) -> str:
    """The `.alg` file for one algebra; ``seed=None`` keeps the natural order."""
    build, args = ALGEBRAS[name]
    vertices, arrows, relations = build(*args)
    if seed is not None:
        rng = random.Random(f"{seed}:{name}")
        rng.shuffle(vertices)
        rng.shuffle(arrows)
        rng.shuffle(relations)
    lines = [f"# generated by perfbench/gen.py, seed {seed}",
             f"algebra {name.replace('-', '_')}",
             "field rational",
             "vertices " + " ".join(vertices)]
    lines += [f"arrow {a} {s} {t}" for a, s, t in arrows]
    lines += ["relation " + " ".join(word) for word in relations]
    return "\n".join(lines) + "\n"


def write_inputs(names, seed: int | None, directory) -> list:
    """Write one `.alg` per name into ``directory``; return the paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in names:
        path = directory / f"{name}.alg"
        path.write_text(alg_text(name, seed), encoding="utf-8")
        paths.append(path)
    return paths
