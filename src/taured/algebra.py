"""Bound quiver algebras: paths, admissible relations, and quotients.

An :class:`Algebra` is stored structurally: a list of basis elements (residue
classes represented by paths), a multiplication table, and the idempotent /
arrow bookkeeping needed to build modules.  Quotients by two-sided ideals
return new ``Algebra`` objects that remember the projection from the parent,
so modules can be moved back and forth (bar / inflate).

Composition is left-to-right throughout: in a path ``a b`` the arrow ``a`` is
applied first, and ``target(a) == source(b)``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from typing import NamedTuple

from .errors import EmptySupport, NotFiniteDimensional, UnknownVertex, UnsupportedQuotient
from .linalg import QQ, FpElement, Matrix, left_nullspace, modulo

Vec = dict[int, object]  # sparse algebra element: basis index -> scalar


class Arrow(NamedTuple):
    name: str
    src: str
    tgt: str


class Quiver:
    """Vertex labels and arrows, checked on construction; a value, equal by its fields."""

    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]):
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vs = set(vertices)
        for a in arrows:
            if a.src not in vs or a.tgt not in vs:
                raise ValueError(f"arrow {a.name} uses undeclared vertex")
        self.vertices = vertices
        self.arrows = arrows

    def __eq__(self, other):
        if other.__class__ is not Quiver:
            return NotImplemented
        return (self.vertices, self.arrows) == (other.vertices, other.arrows)

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver(vertices={self.vertices!r}, arrows={self.arrows!r})"

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)


class Relation(NamedTuple):
    """Linear combination of parallel paths of length >= 2.

    ``terms`` maps each path (tuple of arrow names) to a rational coefficient.
    """

    terms: tuple[tuple[Fraction, tuple[str, ...]], ...]

    @classmethod
    def monomial(cls, word) -> "Relation":
        return cls(terms=((Fraction(1), tuple(word)),))

    def validate(self, quiver: Quiver) -> None:
        if not self.terms:
            raise ValueError("empty relation")
        ends = {}  # path -> (source, target)
        for coeff, word in self.terms:
            if coeff == 0:
                raise ValueError("zero coefficient in relation")
            if len(word) < 2:
                raise ValueError("relation paths must have length >= 2")
            if word in ends:
                raise ValueError(f"path {' '.join(word)} appears twice in relation")
            arrows = [quiver.arrow(n) for n in word]
            for x, y in zip(arrows, arrows[1:]):
                if x.tgt != y.src:
                    raise ValueError(f"non-composable path {' '.join(word)}")
            ends[word] = (arrows[0].src, arrows[-1].tgt)
        if len(set(ends.values())) > 1:
            raise ValueError("relation terms are not parallel")

    @property
    def min_len(self) -> int:
        return min(len(w) for _, w in self.terms)


class BasisElement(NamedTuple):
    """A residue class represented by a path of the ambient quiver."""

    word: tuple[str, ...]
    src: str
    tgt: str

    @property
    def is_idempotent(self) -> bool:
        return not self.word

    def __repr__(self):
        return "e_" + self.src if not self.word else " ".join(self.word)


class Algebra:
    """A finite dimensional algebra with a path-indexed basis.

    Attributes:
        field: scalar field (rational or prime).
        quiver: the presenting quiver (for quotients: the induced subquiver).
        relations: presenting relations, or None when the algebra arose as a
            quotient and is defined by its multiplication table alone.
        basis: list of BasisElement; contains every trivial path e_v.
        nil_index: least L with every path of length L equal to zero.
        parent / projection / ideal_slices: set on quotient algebras.
    """

    def __init__(self, field, quiver, relations, basis, mult, nil_index,
                 parent=None, projection=None, ideal_slices=None):
        self.field = field
        self.quiver = quiver
        self.relations = relations
        self.basis = basis
        self.mult = mult  # dict[(int, int)] -> Vec (absent key == zero product)
        self.nil_index = nil_index
        self.parent = parent
        self.projection = projection  # dict: parent basis idx -> Vec over self
        self.ideal_slices = ideal_slices  # list[(src, tgt, list[Vec over parent])]
        self.vertices = list(quiver.vertices)
        self.e_idx = {}
        self.arrow_idx = {}
        for i, b in enumerate(basis):
            if b.is_idempotent:
                self.e_idx[b.src] = i
            elif len(b.word) == 1 and b.word[0] in {a.name for a in quiver.arrows}:
                self.arrow_idx[b.word[0]] = i
        for v in self.vertices:
            if v not in self.e_idx:
                raise ValueError(f"missing idempotent for vertex {v}")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        return self.quiver.arrows

    def multiply(self, x: Vec, y: Vec) -> Vec:
        out: Vec = {}
        for i, ci in x.items():
            if not ci:
                continue
            for j, cj in y.items():
                if not cj:
                    continue
                prod = self.mult.get((i, j))
                if not prod:
                    continue
                c = ci * cj
                for k, ck in prod.items():
                    s = out.get(k, self.field.zero) + c * ck
                    if s:
                        out[k] = s
                    elif k in out:
                        del out[k]
        return out

    def element_of_arrow(self, name: str) -> Vec:
        return {self.arrow_idx[name]: self.field.one}

    def element_of_vertex(self, v: str) -> Vec:
        return {self.e_idx[v]: self.field.one}

    def basis_by_ends(self, src: str, tgt: str) -> list[int]:
        return [i for i, b in enumerate(self.basis) if b.src == src and b.tgt == tgt]

    def basis_from(self, src: str) -> list[int]:
        return [i for i, b in enumerate(self.basis) if b.src == src]

    def path(self, word) -> Vec:
        """The product of the arrows of a nonempty word, left to right; {} once a prefix vanishes."""
        vec = self.element_of_arrow(word[0])
        for name in word[1:]:
            vec = self.multiply(vec, self.element_of_arrow(name))
            if not vec:
                break
        return vec

    def __repr__(self):
        return (f"Algebra(dim={self.dim}, vertices={self.vertices}, "
                f"arrows={[a.name for a in self.quiver.arrows]})")


def build_algebra(quiver: Quiver, relations, max_len: int = 30, field=QQ) -> Algebra:
    """Quotient of the path algebra by the ideal the relations generate.

    The basis consists of the paths of length < L that survive reduction,
    where L <= max_len is the least length at which every path lies in the
    ideal (vacuously when no path of that length exists).  Paths are listed
    one length d at a time, and those of length <= d reduced modulo the
    generator products truncated at d; the reduction at L - 1 gives the
    basis and the table.

    Raises NotFiniteDimensional when no such L exists within the bound, naming
    a path of length max_len outside the ideal, or when the paths listed or
    the reduction pass their budget, naming the length where that happens.
    """
    relations = list(relations)
    for r in relations:
        r.validate(quiver)
    out_of = {v: [a for a in quiver.arrows if a.src == v] for v in quiver.vertices}
    # a path is (word, src, tgt); the empty word alone is ambiguous
    levels = [[((), v, v) for v in quiver.vertices]]
    total = len(quiver.vertices)

    def generator_products(d: int):
        """Vectors p*r*q whose lowest-degree term has length <= d, truncated at d."""
        gens = []
        for r in relations:
            if r.min_len > d:
                continue
            word0 = r.terms[0][1]
            s0, t0 = quiver.arrow(word0[0]).src, quiver.arrow(word0[-1]).tgt
            for wp, ps, pt in (p for lv in levels[:d - r.min_len + 1] for p in lv):
                if pt != s0:
                    continue
                for wq, qs, qt in (q for lv in levels[:d - r.min_len - len(wp) + 1] for q in lv):
                    if qs != t0:
                        continue
                    vec = {}
                    for coeff, word in r.terms:
                        key = (wp + word + wq, ps, qt)
                        if len(key[0]) <= d:
                            vec[key] = vec.get(key, field.zero) + field.from_fraction(coeff)
                    gens.append(vec)
        return gens

    def path_preference(key):
        return len(key[0]), key[0], key[1]

    def ends(key):
        return key[1:]

    # the normal form of the shorter paths: the basis and its coordinates
    below, alive = _normal_form(levels[0], [], field, path_preference, ends), levels[0]
    for nil in range(1, max_len + 1):
        total += sum(len(out_of[t]) for _, _, t in levels[-1])
        if total > 500_000:  # a guard on outside input, checked before the paths are listed
            raise NotFiniteDimensional(f"path count exceeded budget 500000 at length {nil}")
        level = [(w + (a.name,), s, a.tgt) for w, s, t in levels[-1] for a in out_of[t]]
        if not level:
            break
        levels.append(level)
        paths, gens = [p for lv in levels for p in lv], generator_products(nil)
        # a second guard: the reduction holds, for each pair of end vertices
        # that products lie between, a dense row per product and per path
        # between them, each as long as that list of paths
        width = Counter(ends(p) for p in paths)
        height = Counter(ends(next(iter(g))) for g in gens)
        if sum((h + width[e]) * width[e] for e, h in height.items()) > 16_000_000:
            raise NotFiniteDimensional(
                f"reduction size exceeded budget 16000000 entries at length {nil}")
        # a path lies in the ideal iff its normal form is zero
        here = _normal_form(paths, gens, field, path_preference, ends)
        alive = [p for p in level if here[1][p]]
        if not alive:
            break
        below = here
    else:
        w, s, _ = min(alive, key=path_preference)
        raise NotFiniteDimensional(
            f"no nilpotency degree <= {max_len}; the path {' '.join(w)} from {s} is not in the ideal")

    survivors, rewrite = below
    basis = [BasisElement(*p) for p in survivors]
    mult = {(i, j): dict(vec) for i, bi in enumerate(basis) for j, bj in enumerate(basis)
            if bi.tgt == bj.src and len(bi.word) + len(bj.word) < nil
            and (vec := rewrite[(bi.word + bj.word, bi.src, bj.tgt)])}

    alg = Algebra(field, quiver, relations, basis, mult, nil)
    _check_associativity(alg)
    return alg


def _normal_form(keys, vecs: list[dict], field, preference, part) -> tuple[list, dict]:
    """Normal forms of ``keys`` modulo the span of ``vecs``, sparse vectors over them.

    ``preference`` sorts keys from most to least preferred.  ``part`` labels
    each key with its block; every vector lies in one block, so each block is
    reduced on its own, and a block without vectors is left as it is.  The span
    is eliminated least-preferred key first, so the free columns of
    :func:`modulo` are the surviving keys and each key rewrites into them.
    Returns the survivors in preference order and, for every key, its normal
    form as a Vec over their positions; a survivor is its own unit vector.
    """
    blocks: dict = {}
    for k in keys:
        blocks.setdefault(part(k), ([], []))[0].append(k)
    for v in vecs:
        if v:
            blocks[part(next(iter(v)))][1].append(v)
    survivors, normal = [], {}
    for block_keys, block_vecs in blocks.values():
        if not block_vecs:
            survivors += block_keys
            normal.update((k, {k: field.one}) for k in block_keys)
            continue
        cols = sorted(block_keys, key=preference, reverse=True)
        col_pos = {k: i for i, k in enumerate(cols)}
        m = Matrix.zeros(len(block_vecs), len(cols), field)
        for row, v in zip(m.data, block_vecs):
            for k, c in v.items():
                row[col_pos[k]] = row[col_pos[k]] + c
        free, kernel = modulo(m)
        found = [cols[c] for c in free]
        survivors += found
        normal.update((k, {found[r]: x for r, row in enumerate(kernel.data) if (x := row[c])})
                      for c, k in enumerate(cols))
    survivors.sort(key=preference)
    position = {k: i for i, k in enumerate(survivors)}
    return survivors, {k: {position[s]: x for s, x in vec.items()} for k, vec in normal.items()}


def _check_associativity(alg: Algebra) -> None:
    """Check the algebra axioms of the table on products with the generators.

    Checked: the table is Peirce-graded (a nonzero product x y needs
    tgt x = src y and lies in e_{src x} A e_{tgt y}); e_{src b} b = b =
    b e_{tgt b} for each basis element b; each basis word of length >= 2 is the
    table product ((a1 a2) ...) am of its arrows; and (x y) g = x (y g) for
    basis elements x, y and every idempotent or arrow g.

    That proves full associativity once the idempotents and arrows generate
    the algebra, which the word check shows once the basis words are paths of
    the quiver: :func:`build_algebra` lists paths, and
    :func:`_check_generated_by_quiver` checks a quotient's words.  Then every
    element z is a combination of the e_v and of products w a, a an arrow
    and w a shorter product, and by induction on that length
    (x y)(w a) = ((x y) w) a = (x (y w)) a = x ((y w) a) = x (y (w a)).
    The check is exact at every dimension.
    """
    basis, one = alg.basis, alg.field.one
    for (i, j), vec in alg.mult.items():
        src, tgt = basis[i].src, basis[j].tgt
        if vec and (basis[i].tgt != basis[j].src
                    or any((basis[k].src, basis[k].tgt) != (src, tgt) for k in vec)):
            raise AssertionError(f"the product of basis elements {i} and {j} is not Peirce-graded")
    ending: dict[str, list[int]] = {v: [] for v in alg.vertices}
    for i, b in enumerate(basis):
        ending[b.tgt].append(i)
    for g in list(alg.e_idx.values()) + list(alg.arrow_idx.values()):
        for j in ending[basis[g].src]:
            yg = alg.mult.get((j, g))
            for i in ending[basis[j].src]:
                if (i, j) not in alg.mult and not yg:
                    continue  # both sides are zero
                left = alg.multiply(alg.mult.get((i, j), {}), {g: one})
                right = alg.multiply({i: one}, yg or {})
                if left != right:
                    raise AssertionError(f"associativity failure at basis triple {(i, j, g)}")
    for i, b in enumerate(basis):
        unit = {i: one}
        if (alg.mult.get((alg.e_idx[b.src], i)) != unit
                or alg.mult.get((i, alg.e_idx[b.tgt])) != unit):
            raise AssertionError(f"e_{b.src} and e_{b.tgt} are not units of basis element {i}")
        if len(b.word) > 1 and alg.path(b.word) != unit:
            raise AssertionError(f"basis element {i} is not the product of its arrows")


def _ideal_products(alg: Algebra, gens: list[Vec]) -> list[Vec]:
    """The nonzero products p g q, p and q basis elements and g a Peirce slice of a
    generator: they span the ideal that ``gens`` generate, each in one Peirce block."""
    one, basis = alg.field.one, alg.basis
    products = []
    for g in gens:
        slices: dict[tuple[str, str], Vec] = {}
        for i, c in g.items():
            slices.setdefault((basis[i].src, basis[i].tgt), {})[i] = c
        for (u, w), sv in slices.items():
            right = alg.basis_from(w)
            for p in (i for i, b in enumerate(basis) if b.tgt == u):
                if left := alg.multiply({p: one}, sv):
                    products += [pgq for q in right if (pgq := alg.multiply(left, {q: one}))]
    return products


def quotient_by_elements(alg: Algebra, gens: list[Vec]) -> Algebra:
    """Quotient by the two-sided ideal generated by ``gens``.

    The new basis is the subset of ``alg.basis`` surviving elimination; the
    projection map is retained so modules can be inflated back.  The ideal's
    basis in each Peirce block is read off the normal forms: e_k minus the
    normal form of e_k for each killed k.  An empty ideal returns a copy.
    """
    field = alg.field
    surviving, projection = _normal_form(
        range(alg.dim), _ideal_products(alg, gens), field,
        lambda i: (len(alg.basis[i].word), alg.basis[i].word),
        lambda i: (alg.basis[i].src, alg.basis[i].tgt))
    new_pos = {old: new for new, old in enumerate(surviving)}

    killed = [i for i in range(alg.dim) if i not in new_pos]
    slices: dict[tuple[str, str], list[Vec]] = {}
    for old in killed:
        b = alg.basis[old]
        if b.is_idempotent and projection[old]:
            raise UnsupportedQuotient(f"idempotent e_{b.src} rewrites to a nonzero element")
        slices.setdefault((b.src, b.tgt), []).append(
            {old: field.one} | {surviving[s]: -x for s, x in projection[old].items()})

    new_vertices = tuple(v for v in alg.vertices if alg.e_idx[v] in new_pos)
    for old in surviving:
        b = alg.basis[old]
        if b.src not in new_vertices or b.tgt not in new_vertices:
            raise UnsupportedQuotient("surviving basis element touches a killed vertex")

    new_arrows = tuple(a for a in alg.quiver.arrows
                       if alg.arrow_idx.get(a.name) in new_pos)
    new_quiver = Quiver(new_vertices, new_arrows)
    new_basis = [alg.basis[i] for i in surviving]

    new_mult: dict[tuple[int, int], Vec] = {}
    for ni, oi in enumerate(surviving):
        for nj, oj in enumerate(surviving):
            prod = alg.mult.get((oi, oj))
            if not prod:
                continue
            vec: Vec = {}
            for k, c in prod.items():
                for nk, ck in projection[k].items():
                    s = vec.get(nk, field.zero) + c * ck
                    if s:
                        vec[nk] = s
                    elif nk in vec:
                        del vec[nk]
            if vec:
                new_mult[(ni, nj)] = vec

    ideal_slices = [(u, w, rows) for (u, w), rows in sorted(slices.items())]
    quoti = Algebra(field, new_quiver, None, new_basis, new_mult, alg.nil_index,
                    parent=alg, projection=projection, ideal_slices=ideal_slices)
    _check_generated_by_quiver(quoti)
    _check_associativity(quoti)
    return quoti


def _check_generated_by_quiver(alg: Algebra) -> None:
    """The surviving idempotents and arrows must generate the quotient.

    Checked: every letter of a basis word is an arrow of the quiver.  The words
    are distinct paths of the parent's quiver, so they are then paths of this
    one, and the word check of :func:`_check_associativity` makes each the
    product of its arrows.  Elimination kills the words greatest in
    length-then-lexicographic order, so a word containing a killed arrow is
    killed, and no quotient generated by its quiver fails.
    """
    arrows = {a.name for a in alg.quiver.arrows}
    if any(name not in arrows for b in alg.basis for name in b.word):
        raise UnsupportedQuotient("quotient is not generated by its surviving quiver")


def vertex_subalgebra_quotient(alg: Algebra, support) -> Algebra:
    """Lambda / <e> where e is the sum of idempotents outside ``support``."""
    support = set(support)
    if not support:
        raise EmptySupport("support must be a nonempty vertex set")
    for v in support:
        if v not in alg.vertices:
            raise UnknownVertex(v)
    outside = [v for v in alg.vertices if v not in support]
    gens = [alg.element_of_vertex(v) for v in outside]
    return quotient_by_elements(alg, gens)


def iso_invariants(alg: Algebra) -> tuple:
    """Field, dimension, vertex and arrow counts and basis word lengths: equal for isomorphic algebras."""
    return (alg.field, alg.dim, len(alg.vertices), len(alg.arrows),
            tuple(sorted(len(b.word) for b in alg.basis)))


def isomorphism(a: Algebra, b: Algebra) -> tuple[dict[str, str], dict[str, str]] | None:
    """Vertex and arrow bijections a -> b that carry a's basis and table exactly onto b's.

    Vertices are mapped in breadth-first order along the arrows, each onto
    an unused vertex with the same arrow counts to and from every vertex
    mapped so far; then each bundle of parallel arrows is matched in every
    order.  A candidate is accepted only if every basis word of a maps to a
    basis word of b and every structure constant of a's table is b's at the
    image indices, which makes the induced linear map an algebra
    isomorphism.  None when no candidate is accepted, as for non-isomorphic
    algebras, and possibly for isomorphic ones whose bases were chosen apart.
    """
    if iso_invariants(a) != iso_invariants(b):
        return None

    def bundles(alg):
        out: dict[tuple[str, str], list[str]] = {}
        for x in alg.arrows:
            out.setdefault((x.src, x.tgt), []).append(x.name)
        return out

    bund_a, bund_b = bundles(a), bundles(b)
    index_b = {(w.src, w.word): k for k, w in enumerate(b.basis)}
    order: list[str] = []
    for start in a.vertices:
        if start not in order:
            order.append(start)
            for u in order:  # the loop also visits what it appends
                order.extend(dict.fromkeys(w for s, t in bund_a if u in (s, t)
                                           for w in (s, t) if w not in order))

    def fits(u, w, vmap):
        return all(len(bund_a.get((u, x), ())) == len(bund_b.get((w, y), ()))
                   and len(bund_a.get((x, u), ())) == len(bund_b.get((y, w), ()))
                   for x, y in [*vmap.items(), (u, w)])

    def accept(vmap, amap):
        image = [index_b.get((vmap[w.src], tuple(amap[x] for x in w.word))) for w in a.basis]
        return None not in image and len(a.mult) == len(b.mult) and all(
            b.mult.get((image[i], image[j])) == {image[k]: c for k, c in vec.items()}
            for (i, j), vec in a.mult.items())

    stack: list[dict[str, str]] = [{}]
    while stack:
        vmap = stack.pop()
        if len(vmap) < len(order):
            u = order[len(vmap)]
            stack.extend({**vmap, u: w} for w in reversed(b.vertices)
                         if w not in vmap.values() and fits(u, w, vmap))
            continue
        choices = [[dict(zip(names, perm)) for perm in permutations(bund_b[(vmap[s], vmap[t])])]
                   for (s, t), names in bund_a.items()]
        for parts in product(*choices):
            amap = {x: y for part in parts for x, y in part.items()}
            if accept(vmap, amap):
                return vmap, amap
    return None


def extract_presentation(alg: Algebra):
    """Recover (quiver, relations) presenting ``alg``.

    For presented algebras this is the stored data.  For quotient algebras the
    relations are recomputed as the kernel of path evaluation, per parallel
    vertex pair, up to one step beyond the longest surviving word; the result
    is verified by rebuilding.
    """
    if alg.relations is not None:
        return alg.quiver, list(alg.relations)
    max_word = max((len(b.word) for b in alg.basis), default=0)
    bound = max_word + 1

    by_src = {v: [a for a in alg.quiver.arrows if a.src == v] for v in alg.vertices}

    words_by_ends: dict[tuple[str, str], list[tuple]] = {}
    level = [((a.name,), a.src, a.tgt) for a in alg.quiver.arrows]
    for _ in range(2, bound + 1):
        level = [(word + (a.name,), s, a.tgt) for word, s, t in level for a in by_src[t]]
        for w, s, t in level:
            words_by_ends.setdefault((s, t), []).append(w)

    relations = []
    for (s, t), words in sorted(words_by_ends.items()):
        words = sorted(words, key=lambda w: (len(w), w))
        m = Matrix.zeros(len(words), alg.dim, alg.field)
        for row, w in zip(m.data, words):
            for i, c in alg.path(w).items():
                row[i] = c
        # kernel combinations of the evaluation map = relations among the words
        for krow in left_nullspace(m).data:
            terms = tuple((Fraction(c.v) if isinstance(c, FpElement) else Fraction(c), w)
                          for c, w in zip(krow, words) if c)
            if terms:
                relations.append(Relation(terms=terms))
    # prefer pure monomial relations when a word evaluates to zero outright
    zero_words = {r.terms[0][1] for r in relations if len(r.terms) == 1}
    cleaned = [r for r in relations if len(r.terms) > 1 or not any(
        _contains(r.terms[0][1], z) for z in zero_words if len(z) < len(r.terms[0][1]))]

    rebuilt = build_algebra(alg.quiver, cleaned, max_len=max(bound + 2, 4), field=alg.field)
    if rebuilt.dim != alg.dim:
        raise UnsupportedQuotient("extracted presentation does not rebuild the algebra")
    return alg.quiver, cleaned


def _contains(word, sub) -> bool:
    n, m = len(word), len(sub)
    return any(word[i:i + m] == sub for i in range(n - m + 1))
