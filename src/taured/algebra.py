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

from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptySupport, NotFiniteDimensional, UnsupportedQuotient
from .linalg import QQ, FpElement, Matrix, left_nullspace

Vec = dict[int, object]  # sparse algebra element: basis index -> scalar


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.src not in vs or a.tgt not in vs:
                raise ValueError(f"arrow {a.name} uses undeclared vertex")

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)


@dataclass(frozen=True)
class Relation:
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
        ends = set()
        for coeff, word in self.terms:
            if coeff == 0:
                raise ValueError("zero coefficient in relation")
            if len(word) < 2:
                raise ValueError("relation paths must have length >= 2")
            arrows = [quiver.arrow(n) for n in word]
            for x, y in zip(arrows, arrows[1:]):
                if x.tgt != y.src:
                    raise ValueError(f"non-composable path {' '.join(word)}")
            ends.add((arrows[0].src, arrows[-1].tgt))
        if len(ends) > 1:
            raise ValueError("relation terms are not parallel")

    @property
    def max_len(self) -> int:
        return max(len(w) for _, w in self.terms)

    @property
    def min_len(self) -> int:
        return min(len(w) for _, w in self.terms)


@dataclass(frozen=True)
class BasisElement:
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

    def radical_indices(self) -> list[int]:
        return [i for i, b in enumerate(self.basis) if not b.is_idempotent]

    def __repr__(self):
        return (f"Algebra(dim={self.dim}, vertices={self.vertices}, "
                f"arrows={[a.name for a in self.quiver.arrows]})")


def _paths_up_to(quiver: Quiver, bound: int, budget: int = 500_000):
    """All paths of length <= bound, grouped by length."""
    by_arrow_src: dict[str, list[Arrow]] = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        by_arrow_src[a.src].append(a)
    levels = [[((), v, v) for v in quiver.vertices]]
    total = len(quiver.vertices)
    for ell in range(1, bound + 1):
        nxt = []
        for word, src, tgt in levels[ell - 1]:
            for a in by_arrow_src[tgt]:
                nxt.append((word + (a.name,), src, a.tgt))
        total += len(nxt)
        if total > budget:
            raise NotFiniteDimensional(
                f"path count exceeded budget {budget} at length {ell}")
        levels.append(nxt)
        if not nxt:
            break
    return levels


def build_algebra(quiver: Quiver, relations, max_len: int = 30, field=QQ) -> Algebra:
    """Quotient of the path algebra by the ideal the relations generate.

    The basis consists of the paths of length < L that survive reduction,
    where L <= max_len is the least length at which every path lies in the
    ideal (vacuously when no path of that length exists).

    Raises NotFiniteDimensional when no such L exists within the bound.
    """
    relations = list(relations)
    for r in relations:
        r.validate(quiver)
    spread = max((r.max_len - r.min_len for r in relations), default=0)

    levels = _paths_up_to(quiver, max_len + spread)
    # a path is identified by (src, word); the empty word alone is ambiguous
    tgt_of: dict[tuple, str] = {}
    for level in levels:
        for w, s, t in level:
            tgt_of[(s, w)] = t

    def generator_products(bound: int):
        """Vectors p*r*q whose lowest-degree term has length <= bound."""
        gens = []
        for r in relations:
            arrows0 = [quiver.arrow(n) for n in r.terms[0][1]]
            s0, t0 = arrows0[0].src, arrows0[-1].tgt
            for wp, ps, pt in (p for lv in levels for p in lv):
                if pt != s0 or len(wp) + r.min_len > bound:
                    continue
                for wq, qs, qt in (q for lv in levels for q in lv):
                    if qs != t0 or len(wp) + r.min_len + len(wq) > bound:
                        continue
                    vec = {}
                    for coeff, word in r.terms:
                        key = (ps, wp + word + wq)
                        vec[key] = vec.get(key, field.zero) + field.from_fraction(coeff)
                    gens.append(vec)
        return gens

    max_avail = len(levels) - 1
    nil = None
    for cand in range(1, min(max_len, max_avail) + 1):
        level_paths = levels[cand] if cand < len(levels) else []
        if not level_paths:
            nil = cand
            break
        gens = generator_products(cand)
        if not gens:
            continue
        cols = [(s, w) for lv in levels[: cand + 1] for w, s, _ in lv]
        col_pos = {k: i for i, k in enumerate(cols)}
        rows = []
        for g in gens:
            row = [field.zero] * len(cols)
            for k, c in g.items():
                if len(k[1]) <= cand:
                    row[col_pos[k]] = row[col_pos[k]] + c
            rows.append(row)
        span = Matrix.from_rows(rows, len(cols), field)
        red, pivots = span.rref()

        def reduces_to_zero(col: int) -> bool:
            v = [field.zero] * len(cols)
            v[col] = field.one
            for i, pc in enumerate(pivots):
                if v[pc]:
                    f = v[pc]
                    rrow = red.data[i]
                    for j in range(pc, len(cols)):
                        if rrow[j]:
                            v[j] = v[j] - f * rrow[j]
            return all(not x for x in v)

        if all(reduces_to_zero(col_pos[(s, w)]) for w, s, _ in level_paths):
            nil = cand
            break
    if nil is None:
        raise NotFiniteDimensional(
            f"no nilpotency degree <= {max_len}; the ideal is not admissible at this bound")

    # survivors below the nilpotency degree, eliminated against the ideal part
    low_keys = [(s, w) for lv in levels[:nil] for w, s, _ in lv]
    # column order: least-preferred first (longest, lexicographically largest)
    cols = sorted(low_keys, key=lambda k: (len(k[1]), k[1], k[0]), reverse=True)
    col_pos = {k: i for i, k in enumerate(cols)}
    gens = generator_products(nil - 1)
    rows = []
    for g in gens:
        row = [field.zero] * len(cols)
        nontrivial = False
        for k, c in g.items():
            if len(k[1]) < nil:
                row[col_pos[k]] = row[col_pos[k]] + c
                nontrivial = True
        if nontrivial:
            rows.append(row)
    span = Matrix.from_rows(rows, len(cols), field)
    red, pivots = span.rref()
    pivset = set(pivots)

    survivors = sorted((cols[i] for i in range(len(cols)) if i not in pivset),
                       key=lambda k: (len(k[1]), k[1], k[0]))
    basis = [BasisElement(w, s, tgt_of[(s, w)]) for s, w in survivors]
    basis_pos = {k: i for i, k in enumerate(survivors)}

    # reduction of an arbitrary path of length < nil to basis coordinates
    rewrite: dict[tuple, Vec] = {}
    for k in survivors:
        rewrite[k] = {basis_pos[k]: field.one}
    for rix, pc in enumerate(pivots):
        vec: Vec = {}
        for j in range(pc + 1, len(cols)):
            c = red.data[rix][j]
            if c:
                # tail columns are non-pivot in full rref
                vec[basis_pos[cols[j]]] = -c
        rewrite[cols[pc]] = vec

    mult: dict[tuple[int, int], Vec] = {}
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            if bi.tgt != bj.src:
                continue
            w = bi.word + bj.word
            if len(w) >= nil:
                continue
            vec = rewrite[(bi.src, w)]
            if vec:
                mult[(i, j)] = dict(vec)

    alg = Algebra(field, quiver, relations, basis, mult, nil)
    _check_associativity(alg)
    return alg


def _check_associativity(alg: Algebra) -> None:
    """Check the algebra axioms of the table on products with the generators.

    Checked: the table is Peirce-graded (a nonzero product x y needs
    tgt x = src y and lies in e_{src x} A e_{tgt y}); e_{src b} b = b =
    b e_{tgt b} for each basis element b; each basis word of length >= 2 is the
    table product ((a1 a2) ...) am of its arrows; and (x y) g = x (y g) for
    basis elements x, y and every idempotent or arrow g.

    That proves full associativity once the idempotents and arrows generate
    the algebra, which the word check shows for :func:`build_algebra` (its
    words are paths of its quiver) and :func:`_check_generated_by_quiver`
    shows for a quotient.  Then every element z is a combination of the e_v
    and of products w a, a an arrow and w a shorter product, and by
    induction on that length
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
        if len(b.word) > 1:
            prod = alg.element_of_arrow(b.word[0])
            for name in b.word[1:]:
                prod = alg.multiply(prod, alg.element_of_arrow(name))
            if prod != unit:
                raise AssertionError(f"basis element {i} is not the product of its arrows")


def two_sided_ideal_slices(alg: Algebra, gens: list[Vec]):
    """Peirce slices of the two-sided ideal generated by ``gens``.

    Returns a list of (src, tgt, rows) with rows a reduced basis of
    e_src * <gens> * e_tgt in algebra coordinates.
    """
    field = alg.field
    products: dict[tuple[str, str], list[Vec]] = {}
    for g in gens:
        # slice the generator, then multiply by basis elements on both sides
        slices: dict[tuple[str, str], Vec] = {}
        for i, c in g.items():
            b = alg.basis[i]
            slices.setdefault((b.src, b.tgt), {})[i] = c
        for (u, w), sv in slices.items():
            for li in [alg.e_idx[x] for x in alg.vertices] + alg.radical_indices():
                bl = alg.basis[li]
                if bl.tgt != u:
                    continue
                left = alg.multiply({li: field.one}, sv)
                if not left:
                    continue
                for ri in [alg.e_idx[x] for x in alg.vertices] + alg.radical_indices():
                    br = alg.basis[ri]
                    if br.src != w:
                        continue
                    prod = alg.multiply(left, {ri: field.one})
                    if prod:
                        products.setdefault((bl.src, br.tgt), []).append(prod)
    out = []
    for (u, w), vecs in sorted(products.items()):
        cols = alg.basis_by_ends(u, w)
        pos = {c: i for i, c in enumerate(cols)}
        rows = [[field.zero] * len(cols) for _ in vecs]
        for r, v in zip(rows, vecs):
            for i, c in v.items():
                r[pos[i]] = r[pos[i]] + c
        red, pivots = Matrix.from_rows(rows, len(cols), field).rref()
        basis_rows = []
        for k in range(len(pivots)):
            vec = {cols[i]: red.data[k][i] for i in range(len(cols)) if red.data[k][i]}
            basis_rows.append(vec)
        if basis_rows:
            out.append((u, w, basis_rows))
    return out


def quotient_by_elements(alg: Algebra, gens: list[Vec]) -> Algebra:
    """Quotient by the two-sided ideal generated by ``gens``.

    The new basis is the subset of ``alg.basis`` surviving elimination; the
    projection map is retained so modules can be inflated back.  An empty
    ideal returns an isomorphic copy.
    """
    field = alg.field
    slices = two_sided_ideal_slices(alg, gens)

    ideal_vecs: list[Vec] = [v for _, _, rows in slices for v in rows]
    # eliminate against the full basis, least-preferred columns first
    order = sorted(range(alg.dim),
                   key=lambda i: (len(alg.basis[i].word), alg.basis[i].word), reverse=True)
    col_of = {b: i for i, b in enumerate(order)}
    rows = []
    for v in ideal_vecs:
        row = [field.zero] * alg.dim
        for i, c in v.items():
            row[col_of[i]] = row[col_of[i]] + c
        rows.append(row)
    red, pivots = Matrix.from_rows(rows, alg.dim, field).rref()
    pivset = set(pivots)

    surviving = sorted(
        (order[i] for i in range(alg.dim) if i not in pivset),
        key=lambda i: (len(alg.basis[i].word), alg.basis[i].word),
    )
    new_pos = {old: new for new, old in enumerate(surviving)}

    projection: dict[int, Vec] = {}
    for old in surviving:
        projection[old] = {new_pos[old]: field.one}
    for rix, pc in enumerate(pivots):
        old = order[pc]
        vec: Vec = {}
        for j in range(pc + 1, alg.dim):
            c = red.data[rix][j]
            if c:
                tail_old = order[j]
                if tail_old not in new_pos:
                    raise UnsupportedQuotient("rewrite tail hits an eliminated basis element")
                vec[new_pos[tail_old]] = -c
        projection[old] = vec

    killed = {order[c] for c in pivots}
    for old in killed:
        b = alg.basis[old]
        if b.is_idempotent and projection[old]:
            raise UnsupportedQuotient(f"idempotent e_{b.src} rewrites to a nonzero element")

    new_vertices = tuple(v for v in alg.vertices if alg.e_idx[v] not in killed)
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

    quoti = Algebra(field, new_quiver, None, new_basis, new_mult, alg.nil_index,
                    parent=alg, projection=projection, ideal_slices=slices)
    _check_generated_by_quiver(quoti)
    _check_associativity(quoti)
    return quoti


def _check_generated_by_quiver(alg: Algebra) -> None:
    """The surviving idempotents and arrows must generate the quotient.

    Products are reduced against an echelon basis kept as it grows (row p has
    leading index p and coefficient one there), and only the elements that
    enlarged the span are multiplied by the arrows in the next round.
    """
    field = alg.field
    echelon: dict[int, Vec] = {}

    def enlarges(v: Vec) -> bool:
        v = dict(v)
        while v:
            p = min(v)
            row = echelon.get(p)
            if row is None:
                scale = field.inverse(v[p])
                echelon[p] = {k: c * scale for k, c in v.items()}
                return True
            c = v[p]
            for k, ck in row.items():
                s = v.get(k, field.zero) - c * ck
                if s:
                    v[k] = s
                else:
                    v.pop(k, None)
        return False

    arrows = [alg.element_of_arrow(a.name) for a in alg.quiver.arrows]
    new = [x for x in [alg.element_of_vertex(v) for v in alg.vertices] + arrows if enlarges(x)]
    while new:
        new = [p for x in new for a in arrows if (p := alg.multiply(x, a)) and enlarges(p)]
    if len(echelon) != alg.dim:
        raise UnsupportedQuotient("quotient is not generated by its surviving quiver")


def vertex_subalgebra_quotient(alg: Algebra, support) -> Algebra:
    """Lambda / <e> where e is the sum of idempotents outside ``support``."""
    support = set(support)
    if not support:
        raise EmptySupport("support must be a nonempty vertex set")
    for v in support:
        if v not in alg.vertices:
            from .errors import UnknownVertex
            raise UnknownVertex(v)
    outside = [v for v in alg.vertices if v not in support]
    gens = [alg.element_of_vertex(v) for v in outside]
    return quotient_by_elements(alg, gens)


def extract_presentation(alg: Algebra, max_extra: int = 1):
    """Recover (quiver, relations) presenting ``alg``.

    For presented algebras this is the stored data.  For quotient algebras the
    relations are recomputed as the kernel of path evaluation, per parallel
    vertex pair, up to one step beyond the longest surviving word; the result
    is verified by rebuilding.
    """
    if alg.relations is not None:
        return alg.quiver, list(alg.relations)
    max_word = max((len(b.word) for b in alg.basis), default=0)
    bound = max_word + max_extra

    by_src: dict[str, list[Arrow]] = {v: [] for v in alg.vertices}
    for a in alg.quiver.arrows:
        by_src[a.src].append(a)

    def eval_word(word):
        vec = alg.element_of_vertex(alg.quiver.arrow(word[0]).src)
        for name in word:
            vec = alg.multiply(vec, alg.element_of_arrow(name))
            if not vec:
                return {}
        return vec

    words_by_ends: dict[tuple[str, str], list[tuple]] = {}
    level = [((a.name,), a.src, a.tgt) for a in alg.quiver.arrows]
    for ell in range(2, bound + 1):
        nxt = []
        for word, s, t in level:
            for a in by_src[t]:
                nxt.append((word + (a.name,), s, a.tgt))
        for w, s, t in nxt:
            words_by_ends.setdefault((s, t), []).append(w)
        level = nxt

    relations = []
    for (s, t), words in sorted(words_by_ends.items()):
        words = sorted(words, key=lambda w: (len(w), w))
        cols = list(range(alg.dim))
        rows = []
        for w in words:
            vec = eval_word(w)
            row = [alg.field.zero] * alg.dim
            for i, c in vec.items():
                row[i] = c
            rows.append(row)
        m = Matrix.from_rows(rows, alg.dim, alg.field)
        # kernel combinations of the evaluation map = relations among the words
        ker = left_nullspace(m)
        for krow in ker.data:
            terms = []
            for wi, c in enumerate(krow):
                if c:
                    lifted = Fraction(c.v) if isinstance(c, FpElement) else Fraction(c)
                    terms.append((lifted, words[wi]))
            if terms:
                relations.append(Relation(terms=tuple(terms)))
    # prefer pure monomial relations when a word evaluates to zero outright
    cleaned = []
    zero_words = set()
    for r in relations:
        if len(r.terms) == 1:
            zero_words.add(r.terms[0][1])
    for r in relations:
        if len(r.terms) == 1:
            w = r.terms[0][1]
            if any(_contains(w, z) for z in zero_words if z != w and len(z) < len(w)):
                continue
        cleaned.append(r)

    rebuilt = build_algebra(alg.quiver, cleaned, max_len=max(bound + 2, 4), field=alg.field)
    if rebuilt.dim != alg.dim:
        raise UnsupportedQuotient("extracted presentation does not rebuild the algebra")
    return alg.quiver, cleaned


def _contains(word, sub) -> bool:
    n, m = len(word), len(sub)
    return any(word[i:i + m] == sub for i in range(n - m + 1))
