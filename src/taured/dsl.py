"""Line-oriented description language for algebras and optional module inventories.

Grammar (one directive per line, ``#`` starts a comment):

    algebra <name>
    field rational | field fp <p>
    vertices <id> <id> ...
    arrow <name> <src> <tgt>
    relation <term> [(+|-) <term> ...]      term = [<rational>*] ( <arrow>+ ) | <arrow>+
    module <name>                           optional explicit inventory block
      dim <vertex> <n>
      map <arrow> <row>;<row>;...           row entries comma separated
    end

Errors carry line and column positions.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Arrow, Quiver, Relation, build_algebra
from .errors import ParseError
from .linalg import Matrix, PrimeField, field_from_name
from .reps import Representation


class ModuleBlock:
    """A ``module`` block: equal to another with the same name, dimensions and maps."""

    __slots__ = ("name", "dims", "maps", "line", "column")

    def __init__(self, name: str, dims: dict[str, int] | None = None,
                 maps: dict[str, list[list[Fraction]]] | None = None,
                 line: int = 0, column: int = 0):
        self.name = name
        self.dims = {} if dims is None else dims
        self.maps = {} if maps is None else maps
        self.line = line  # position of its `module` directive
        self.column = column

    def __eq__(self, other):
        if other.__class__ is not ModuleBlock:
            return NotImplemented
        return (self.name, self.dims, self.maps) == (other.name, other.dims, other.maps)


class AlgebraFile:
    """A parsed description; equal to another with the same fields."""

    __slots__ = ("name", "field_mode", "vertices", "arrows", "relations", "modules")

    def __init__(self, name: str = "algebra", field_mode: str = "rational",
                 vertices: list[str] | None = None,
                 arrows: list[tuple[str, str, str]] | None = None,
                 relations: list[Relation] | None = None,
                 modules: list[ModuleBlock] | None = None):
        self.name = name
        self.field_mode = field_mode
        self.vertices = [] if vertices is None else vertices
        self.arrows = [] if arrows is None else arrows
        self.relations = [] if relations is None else relations
        self.modules = [] if modules is None else modules

    def __eq__(self, other):
        if other.__class__ is not AlgebraFile:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def build(self, field_override: str | None = None):
        """Construct the algebra and, when present, the explicit inventory."""
        field = field_from_name(field_override or self.field_mode)
        quiver = Quiver(tuple(self.vertices),
                        tuple(Arrow(n, s, t) for n, s, t in self.arrows))
        algebra = build_algebra(quiver, self.relations, field=field)
        supplied = None
        if self.modules:
            supplied = []
            for blk in self.modules:
                dims = {v: blk.dims.get(v, 0) for v in self.vertices}
                maps = {}
                for aname, rows in blk.maps.items():
                    arr = quiver.arrow(aname)
                    data = [[field.from_fraction(c) for c in row] for row in rows]
                    maps[aname] = Matrix(dims[arr.src], dims[arr.tgt], data, field)
                rep = Representation(algebra, dims, maps)
                try:
                    rep.assert_valid()
                except ValueError as e:
                    raise ParseError(f"module {blk.name!r}: {e}", blk.line, blk.column) from None
                supplied.append((blk.name, rep))
        return algebra, supplied


def _rational(tok: str, line: int, col: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {tok!r}", line, col)


def _parse_relation(tokens: list[tuple[str, int]], line: int,
                    known_arrows: set[str]) -> tuple[Relation, list[int]]:
    """tokens: (text, column) after the ``relation`` keyword.  Also returns the
    column of each term's first token, its coefficient if it has one."""
    terms: list[tuple[Fraction, tuple[str, ...]]] = []
    starts: list[int] = []
    sign = Fraction(1)
    i = 0

    def fail(msg, col):
        raise ParseError(msg, line, col)

    while i < len(tokens):
        tok, col = tokens[i]
        starts.append(col)
        coeff = sign
        if tok not in ("(",) and not tok.replace("^", "").isidentifier() and tok not in known_arrows:
            # leading rational coefficient: requires `<rat>*`
            if tok.endswith("*"):
                coeff = sign * _rational(tok[:-1], line, col)
                i += 1
                if i >= len(tokens):
                    fail("dangling coefficient", col)
                tok, col = tokens[i]
            elif i + 1 < len(tokens) and tokens[i + 1][0] == "*":
                coeff = sign * _rational(tok, line, col)
                i += 2
                if i >= len(tokens):
                    fail("dangling coefficient", col)
                tok, col = tokens[i]
            else:
                fail(f"unexpected token {tok!r}", col)
        word: list[tuple[str, int]] = []
        if tok == "(":
            i += 1
            while i < len(tokens) and tokens[i][0] != ")":
                word.append(tokens[i])
                i += 1
            if i >= len(tokens):
                fail("unclosed parenthesis", col)
            i += 1  # consume ')'
        else:
            while i < len(tokens) and tokens[i][0] not in ("+", "-"):
                word.append(tokens[i])
                i += 1
        if not word:
            fail("empty relation term", col)
        for w, wcol in word:
            if w not in known_arrows:
                fail(f"unknown arrow {w!r} in relation", wcol)
        terms.append((coeff, tuple(w for w, _ in word)))
        if i < len(tokens):
            op, opcol = tokens[i]
            if op == "+":
                sign = Fraction(1)
            elif op == "-":
                sign = Fraction(-1)
            else:
                fail(f"expected + or - between terms, got {op!r}", opcol)
            i += 1
            if i >= len(tokens):
                fail("dangling sign", opcol)
    return Relation(terms=tuple(terms)), starts


def _tokenize(body: str):
    """Split a line into tokens with column positions, isolating parentheses."""
    out = []
    i = 0
    n = len(body)
    while i < n:
        if body[i].isspace():
            i += 1
            continue
        if body[i] in "()+":
            out.append((body[i], i))
            i += 1
            continue
        if body[i] == "-" and (i + 1 >= n or body[i + 1].isspace() or body[i + 1] in "()"):
            out.append(("-", i))
            i += 1
            continue
        j = i
        while j < n and not body[j].isspace() and body[j] not in "()":
            j += 1
        out.append((body[i:j], i))
        i = j
    return out


def _prime_field_mode(tok: str, line: int, col: int) -> str:
    """``fp:<p>`` for a prime ``tok``; anything else is a parse error at ``col``."""
    try:
        return PrimeField(int(tok)).name
    except ValueError:
        raise ParseError(f"field characteristic {tok!r} is not a prime", line, col)


def _check_map_shapes(blk: ModuleBlock, arrows, map_pos) -> None:
    """Each map of a finished module block must be dim(src) rows of dim(tgt) entries."""
    for name, src, tgt in arrows:
        rows = blk.maps.get(name)
        if rows is None:
            continue
        shape = (blk.dims.get(src, 0), blk.dims.get(tgt, 0))
        if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
            raise ParseError(f"map {name} of module {blk.name!r} must be a {shape[0]}x{shape[1]} "
                             f"matrix, the dimensions at {src} and {tgt}", *map_pos[name])


def parse(text: str) -> AlgebraFile:
    af = AlgebraFile()
    seen_vertices: set[str] = set()
    arrow_names: set[str] = set()
    current_module: ModuleBlock | None = None
    map_pos: dict[str, tuple[int, int]] = {}  # arrow -> (line, column) of its map body
    got_algebra = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        toks = _tokenize(body)
        key, kcol = toks[0]
        args = toks[1:]

        if current_module is not None and key not in ("dim", "map", "end"):
            raise ParseError(f"directive {key!r} inside a module block", lineno, kcol)

        if key == "algebra":
            if len(args) != 1:
                raise ParseError("algebra takes one name", lineno, kcol)
            af.name = args[0][0]
            got_algebra = True
        elif key == "field":
            if len(args) == 1 and args[0][0] == "rational":
                af.field_mode = "rational"
            elif len(args) == 2 and args[0][0] == "fp":
                af.field_mode = _prime_field_mode(args[1][0], lineno, args[1][1])
            elif len(args) == 1 and args[0][0].startswith("fp:"):
                af.field_mode = _prime_field_mode(args[0][0][3:], lineno, args[0][1] + 3)
            else:
                raise ParseError("field must be `rational` or `fp <p>`", lineno, kcol)
        elif key == "vertices":
            if not args:
                raise ParseError("vertices needs at least one id", lineno, kcol)
            for tok, col in args:
                if tok in seen_vertices:
                    raise ParseError(f"duplicate vertex {tok!r}", lineno, col)
                seen_vertices.add(tok)
                af.vertices.append(tok)
        elif key == "arrow":
            if len(args) != 3:
                raise ParseError("arrow takes: name src tgt", lineno, kcol)
            (nm, ncol), (src, scol), (tgt, tcol) = args
            if nm in arrow_names:
                raise ParseError(f"duplicate arrow {nm!r}", lineno, ncol)
            if src not in seen_vertices:
                raise ParseError(f"unknown vertex {src!r}", lineno, scol)
            if tgt not in seen_vertices:
                raise ParseError(f"unknown vertex {tgt!r}", lineno, tcol)
            arrow_names.add(nm)
            af.arrows.append((nm, src, tgt))
        elif key == "relation":
            if not args:
                raise ParseError("empty relation", lineno, kcol)
            rel, starts = _parse_relation(args, lineno, arrow_names)
            quiver = Quiver(tuple(af.vertices), tuple(Arrow(n, s, t) for n, s, t in af.arrows))
            # the term at fault is the last of the shortest prefix that fails
            for k, col in enumerate(starts, 1):
                try:
                    Relation(rel.terms[:k]).validate(quiver)
                except ValueError as e:
                    raise ParseError(str(e), lineno, col) from None
            af.relations.append(rel)
        elif key == "module":
            if len(args) != 1:
                raise ParseError("module takes one name", lineno, kcol)
            if any(blk.name == args[0][0] for blk in af.modules):
                raise ParseError(f"duplicate module {args[0][0]!r}", lineno, args[0][1])
            current_module = ModuleBlock(args[0][0], line=lineno, column=kcol)
            map_pos = {}
        elif key == "dim":
            if current_module is None:
                raise ParseError("dim outside a module block", lineno, kcol)
            if len(args) != 2:
                raise ParseError("dim takes: vertex n", lineno, kcol)
            (v, vcol), (d, dcol) = args
            if v not in seen_vertices:
                raise ParseError(f"unknown vertex {v!r}", lineno, vcol)
            if v in current_module.dims:
                raise ParseError(f"duplicate dim {v!r}", lineno, vcol)
            if not (d.isascii() and d.isdigit()):
                raise ParseError(f"dimension {d!r} is not a nonnegative integer", lineno, dcol)
            current_module.dims[v] = int(d)
        elif key == "map":
            if current_module is None:
                raise ParseError("map outside a module block", lineno, kcol)
            if len(args) < 2:
                raise ParseError("map takes: arrow rows", lineno, kcol)
            aname, acol = args[0]
            if aname not in arrow_names:
                raise ParseError(f"unknown arrow {aname!r}", lineno, acol)
            if aname in current_module.maps:
                raise ParseError(f"duplicate map {aname!r}", lineno, acol)
            # the column of each character of the body, and past its end
            at = [col + k for t, col in args[1:] for k in range(len(t))] + [len(body)]
            rows, pos = [], 0
            for chunk in "".join(t for t, _ in args[1:]).split(";"):
                if chunk:
                    rows.append([])
                    for x in chunk.split(","):
                        rows[-1].append(_rational(x, lineno, at[pos]))
                        pos += len(x) + 1
                else:
                    pos += 1
            current_module.maps[aname] = rows
            map_pos[aname] = (lineno, args[1][1])
        elif key == "end":
            if current_module is None:
                raise ParseError("end outside a module block", lineno, kcol)
            _check_map_shapes(current_module, af.arrows, map_pos)
            af.modules.append(current_module)
            current_module = None
        else:
            raise ParseError(f"unknown directive {key!r}", lineno, kcol)

    if current_module is not None:
        raise ParseError(f"unterminated module block {current_module.name!r}",
                         current_module.line, current_module.column)
    if not got_algebra and not af.vertices:
        raise ParseError("file declares no algebra", 1, 0)
    return af


def emit(af: AlgebraFile) -> str:
    """Canonical text for an AlgebraFile; parse(emit(parse(x))) == parse(x)."""
    lines = [f"algebra {af.name}", f"field {af.field_mode.replace(':', ' ', 1) if af.field_mode.startswith('fp:') else af.field_mode}"]
    if af.vertices:
        lines.append("vertices " + " ".join(af.vertices))
    for n, s, t in af.arrows:
        lines.append(f"arrow {n} {s} {t}")
    for rel in af.relations:
        parts = []
        for k, (coeff, word) in enumerate(rel.terms):
            mag = abs(coeff)
            prefix = "" if mag == 1 else f"{mag}*"
            term = prefix + "(" + " ".join(word) + ")"
            if k == 0:
                term = ("-" + term) if coeff < 0 else term
            else:
                term = ("- " if coeff < 0 else "+ ") + term
            parts.append(term)
        lines.append("relation " + " ".join(parts))
    for blk in af.modules:
        lines.append(f"module {blk.name}")
        for v in af.vertices:
            if blk.dims.get(v):
                lines.append(f"dim {v} {blk.dims[v]}")
        for aname in sorted(blk.maps):
            rows = blk.maps[aname]
            body = ";".join(",".join(str(c) for c in row) for row in rows)
            lines.append(f"map {aname} {body}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def parse_file(path: str) -> AlgebraFile:
    with open(path, "rb") as f:
        data = f.read()
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as e:  # located at the first byte that does not decode
        lines = data[:e.start].decode("utf-8").split("\n")
        raise ParseError(f"byte 0x{data[e.start]:02x} is not UTF-8",
                         len(lines), len(lines[-1])) from None
