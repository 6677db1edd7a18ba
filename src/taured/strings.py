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


class StringWord(NamedTuple):
    """Canonical walk: either a trivial word at a vertex or a letter sequence.

    ``base_vertex`` is the start of the walk (for a trivial word, the vertex).
    Words compare as the tuple ``(letters, base_vertex)``, letters as
    ``(arrow, inverse)``.
    """

    letters: tuple[Letter, ...]
    base_vertex: str

    @property
    def is_trivial(self) -> bool:
        return not self.letters


def _letter_ends(alg: Algebra, letter: Letter) -> tuple[str, str]:
    a = alg.quiver.arrow(letter.arrow)
    return (a.tgt, a.src) if letter.inverse else (a.src, a.tgt)


def walk_vertices(alg: Algebra, w: StringWord) -> list[str]:
    return [w.base_vertex] + [_letter_ends(alg, letter)[1] for letter in w.letters]


def _inverse(alg: Algebra, w: StringWord) -> StringWord:
    """The same walk read from its end."""
    return StringWord(tuple(Letter(l.arrow, not l.inverse) for l in reversed(w.letters)),
                      walk_vertices(alg, w)[-1])


def canonical(alg: Algebra, w: StringWord) -> StringWord:
    """The lesser of ``w`` and its inverse."""
    return min(w, _inverse(alg, w))


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
    """Whether ``new``, which starts where ``letters`` ends, extends them to a string."""
    if letters and letters[-1].arrow == new.arrow and letters[-1].inverse != new.inverse:
        return False  # immediate backtracking
    # the maximal direct / inverse run ending at `new` must avoid the ideal
    back = [new.arrow]  # the run's arrows from `new` backwards
    for l in reversed(letters):
        if l.inverse != new.inverse:
            break
        back.append(l.arrow)
    # single arrows are never zero over an admissible quotient
    return len(back) < 2 or bool(alg.path(back if new.inverse else back[::-1]))


def enumerate_strings(alg: Algebra) -> list[StringWord]:
    """All canonical strings of length <= cap = 2 * dim.

    Raises CapExceeded when a valid string of length cap + 1 exists.
    """
    ok, cert = is_string_algebra(alg)
    if not ok:
        raise NotStringAlgebra(f"not a string algebra: {cert}")
    cap = 2 * alg.dim
    found = {StringWord((), v) for v in alg.vertices}
    all_letters = [Letter(a.name, inverse) for a in alg.arrows for inverse in (False, True)]

    def extend(letters: list[Letter], start: str, end: str):
        if len(letters) > cap:
            raise CapExceeded(
                f"a string of length {cap + 1} exists; input looks representation-infinite")
        if letters:
            found.add(canonical(alg, StringWord(tuple(letters), start)))
        for letter in all_letters:
            s, t = _letter_ends(alg, letter)
            if s == end and _valid_extension(alg, letters, letter):
                letters.append(letter)
                extend(letters, start, t)
                letters.pop()

    try:
        for v in alg.vertices:
            extend([], v, v)
    finally:
        del extend  # the recursive closure is a reference cycle through its own cell
    return sorted(found, key=lambda w: (len(w.letters), w))


def _add_cohook(alg: Algebra, w: StringWord) -> StringWord | None:
    """``w`` with a cohook added at its end: one direct letter, then the maximal inverse run.

    None when no direct letter extends ``w``.  A string algebra leaves at most
    one choice for each letter after the first.
    """
    letters, end, inverse = list(w.letters), walk_vertices(alg, w)[-1], False
    while True:
        for a in alg.arrows:
            letter = Letter(a.name, inverse)
            s, t = _letter_ends(alg, letter)
            if s == end and _valid_extension(alg, letters, letter):
                break
        else:
            return StringWord(tuple(letters), w.base_vertex) if inverse else None
        letters.append(letter)
        end, inverse = t, True


def _delete_hook(w: StringWord) -> StringWord | None:
    """``w`` with a hook deleted at its end: the trailing direct run, then one inverse letter.

    None when no inverse letter is left to delete.
    """
    letters = list(w.letters)
    while letters and not letters[-1].inverse:
        letters.pop()
    return StringWord(tuple(letters[:-1]), w.base_vertex) if letters else None


def string_tau(alg: Algebra, w: StringWord) -> StringWord | None:
    """The canonical word of tau M(w), or None when M(w) is projective.

    Butler-Ringel (*Auslander-Reiten sequences with few middle terms*, 1987):
    tau M(C) = M(_cC_c).  At each end a cohook is added where one exists;
    otherwise a hook is deleted, and a missing hook means M(w) is projective.
    Both additions come before either deletion: over D3 (3 -> 1, 3 -> 2),
    tau(3/1) is the simple 2 only in that order.  The left end is the right
    end of the inverse word, so the walk is turned after each end.
    """
    added = []
    for _ in range(2):
        grown = _add_cohook(alg, w)
        added.append(grown is not None)
        w = _inverse(alg, grown or w)
    for grown in added:
        if not grown:
            w = _delete_hook(w)
            if w is None:
                return None
        w = _inverse(alg, w)
    return canonical(alg, w)


def string_to_rep(alg: Algebra, w: StringWord) -> Representation:
    """One basis vector per walk position; arrows step forward, inverses backward."""
    dims = dict.fromkeys(alg.vertices, 0)
    coord = []  # walk position -> its index among the positions at its vertex
    for v in walk_vertices(alg, w):
        coord.append(dims[v])
        dims[v] += 1
    field = alg.field
    maps = {a.name: Matrix.zeros(dims[a.src], dims[a.tgt], field) for a in alg.arrows}
    for k, letter in enumerate(w.letters):
        i, j = (coord[k + 1], coord[k]) if letter.inverse else (coord[k], coord[k + 1])
        maps[letter.arrow].data[i][j] = field.one
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
