"""String algebra detection and combinatorial enumeration of string modules.

A string is an alternating walk in direct and inverse arrows with no
immediate backtracking and no run (read forwards or backwards) falling into
the relation ideal.  Over a string algebra the string modules exhaust the
indecomposables as long as no bands exist; the enumeration refuses (rather
than truncates) when walks keep extending past the cap, which is the band /
representation-infinite signal.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Algebra
from .errors import CapExceeded, NotStringAlgebra
from .linalg import Matrix
from .reps import Representation


class Letter(NamedTuple):
    arrow: str
    inverse: bool

    def __repr__(self):
        return self.arrow + ("^-" if self.inverse else "")


class StringWord:
    """Canonical walk: either a trivial word at a vertex or a letter sequence."""

    __slots__ = ("letters", "base_vertex")

    def __init__(self, letters: tuple[Letter, ...], base_vertex: str):
        self.letters = letters
        self.base_vertex = base_vertex  # start of the walk (for trivial words: the vertex)

    def __eq__(self, other):
        if other.__class__ is not StringWord:
            return NotImplemented
        return (self.letters, self.base_vertex) == (other.letters, other.base_vertex)

    def __hash__(self):
        return hash((self.letters, self.base_vertex))

    def __repr__(self):
        return f"StringWord(letters={self.letters!r}, base_vertex={self.base_vertex!r})"

    def __len__(self):
        return len(self.letters)

    @property
    def is_trivial(self) -> bool:
        return not self.letters


def _letter_ends(alg: Algebra, letter: Letter) -> tuple[str, str]:
    a = alg.quiver.arrow(letter.arrow)
    return (a.tgt, a.src) if letter.inverse else (a.src, a.tgt)


def walk_vertices(alg: Algebra, w: StringWord) -> list[str]:
    verts = [w.base_vertex]
    for letter in w.letters:
        s, t = _letter_ends(alg, letter)
        verts.append(t)
    return verts


def _word_key(letters: tuple[Letter, ...], base: str):
    return ([(l.arrow, l.inverse) for l in letters], base)


def _inverse_word(alg: Algebra, w: StringWord) -> StringWord:
    if w.is_trivial:
        return w
    letters = tuple(Letter(l.arrow, not l.inverse) for l in reversed(w.letters))
    base = walk_vertices(alg, w)[-1]
    return StringWord(letters, base)


def canonical(alg: Algebra, w: StringWord) -> StringWord:
    inv = _inverse_word(alg, w)
    return min(w, inv, key=lambda x: _word_key(x.letters, x.base_vertex))


def is_string_algebra(alg: Algebra) -> tuple[bool, str]:
    """Check the string-algebra conditions; the certificate names the first failure."""
    # monomial multiplication: products of basis words are 0 or a single basis word
    one = alg.field.one
    for (i, j), prod in alg.mult.items():
        if len(prod) > 1 or any(c != one for c in prod.values()):
            return False, "non-monomial: a basis product is not 0 or a single basis path"
    if alg.relations is not None:
        for r in alg.relations:
            if len(r.terms) > 1:
                return False, "non-monomial relation present"
    indeg = {v: 0 for v in alg.vertices}
    outdeg = {v: 0 for v in alg.vertices}
    for a in alg.arrows:
        outdeg[a.src] += 1
        indeg[a.tgt] += 1
    for v in alg.vertices:
        if indeg[v] > 2:
            return False, f"vertex {v} has more than two incoming arrows"
        if outdeg[v] > 2:
            return False, f"vertex {v} has more than two outgoing arrows"
    for b in alg.arrows:
        cont = [g for g in alg.arrows if g.src == b.tgt and alg.path((b.name, g.name))]
        if len(cont) > 1:
            return False, f"arrow {b.name} has two surviving continuations"
        pre = [d for d in alg.arrows if d.tgt == b.src and alg.path((d.name, b.name))]
        if len(pre) > 1:
            return False, f"arrow {b.name} has two surviving predecessors"
    return True, "ok"


def _valid_extension(alg: Algebra, letters: list[Letter], new: Letter) -> bool:
    if letters:
        last = letters[-1]
        if last.arrow == new.arrow and last.inverse != new.inverse:
            return False  # immediate backtracking
        _, last_end = _letter_ends(alg, last)
        new_start, _ = _letter_ends(alg, new)
        if last_end != new_start:
            return False
    # the maximal direct / inverse run ending at `new` must avoid the ideal
    run = [new]
    for l in reversed(letters):
        if l.inverse == new.inverse:
            run.append(l)
        else:
            break
    run.reverse()
    if new.inverse:
        path = [l.arrow for l in reversed(run)]
    else:
        path = [l.arrow for l in run]
    # single arrows are never zero over an admissible quotient
    return len(path) < 2 or bool(alg.path(path))


def enumerate_strings(alg: Algebra) -> list[StringWord]:
    """All canonical strings of length <= cap = 2 * dim.

    Raises CapExceeded when a valid string of length cap + 1 exists.
    """
    ok, cert = is_string_algebra(alg)
    if not ok:
        raise NotStringAlgebra(f"not a string algebra: {cert}")
    cap = 2 * alg.dim
    found: dict = {}
    for v in alg.vertices:
        w = StringWord((), v)
        found[_str_key(alg, w)] = w

    all_letters = []
    for a in alg.arrows:
        all_letters.append(Letter(a.name, False))
        all_letters.append(Letter(a.name, True))

    def extend(letters: list[Letter], start: str):
        if len(letters) > cap:
            raise CapExceeded(
                f"a string of length {cap + 1} exists; input looks representation-infinite")
        if letters:
            w = canonical(alg, StringWord(tuple(letters), start))
            found[_str_key(alg, w)] = w
        end = walk_vertices(alg, StringWord(tuple(letters), start))[-1]
        for letter in all_letters:
            s, _ = _letter_ends(alg, letter)
            if s != end:
                continue
            if _valid_extension(alg, letters, letter):
                letters.append(letter)
                extend(letters, start)
                letters.pop()

    try:
        for v in alg.vertices:
            extend([], v)
    finally:
        del extend  # the recursive closure is a reference cycle through its own cell
    return sorted(found.values(), key=lambda w: (len(w), _str_key(alg, w)))


def _str_key(alg: Algebra, w: StringWord):
    letters, base = _word_key(w.letters, w.base_vertex)
    return (tuple(letters), base)


def string_to_rep(alg: Algebra, w: StringWord) -> Representation:
    """One basis vector per walk position; arrows step forward, inverses backward."""
    verts = walk_vertices(alg, w)
    positions: dict[str, list[int]] = {v: [] for v in alg.vertices}
    for k, v in enumerate(verts):
        positions[v].append(k)
    dims = {v: len(positions[v]) for v in alg.vertices}
    coord = {}
    for v in alg.vertices:
        for idx, k in enumerate(positions[v]):
            coord[k] = idx
    field = alg.field
    maps = {}
    for a in alg.arrows:
        m = Matrix.zeros(dims[a.src], dims[a.tgt], field)
        for k, letter in enumerate(w.letters):
            if letter.arrow != a.name:
                continue
            if letter.inverse:
                m.data[coord[k + 1]][coord[k]] = field.one
            else:
                m.data[coord[k]][coord[k + 1]] = field.one
        maps[a.name] = m
    rep = Representation(alg, dims, maps)
    rep.assert_valid()
    return rep


def string_name(alg: Algebra, w: StringWord) -> str:
    """Loewy string like ``1/2`` for uniserial walks, else the decorated walk."""
    verts = walk_vertices(alg, w)
    if w.is_trivial:
        return verts[0]
    if all(not l.inverse for l in w.letters):
        return "/".join(verts)
    if all(l.inverse for l in w.letters):
        return "/".join(reversed(verts))
    parts = [verts[0]]
    for letter, v in zip(w.letters, verts[1:]):
        parts.append("<" if letter.inverse else ">")
        parts.append(v)
    return "".join(parts)
