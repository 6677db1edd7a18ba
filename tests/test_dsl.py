import pytest

from taured.dsl import AlgebraFile, emit, parse
from taured.errors import ParseError
from taured.tilting import build_inventory, enumerate_stpairs


A3SQ = """\
algebra a3sq
field rational
vertices 1 2 3
arrow a 1 2
arrow b 2 3
relation a b
"""

SQUARE = """\
algebra square
vertices 1 2 3 4
arrow a 1 2
arrow b 2 4
arrow c 1 3
arrow d 3 4
relation (a b) - (c d)
"""

WITH_COEFFS = """\
algebra square
vertices 1 2 3 4
arrow a 1 2
arrow b 2 4
arrow c 1 3
arrow d 3 4
relation 1/2*(a b) - 1/2*(c d)
"""

WITH_INVENTORY = """\
algebra a3sq
vertices 1 2 3
arrow a 1 2
arrow b 2 3
relation a b
module s1
dim 1 1
end
module s2
dim 2 1
end
module s3
dim 3 1
end
module p1
dim 1 1
dim 2 1
map a 1
end
module p2
dim 2 1
dim 3 1
map b 1
end
"""


def test_parse_a3sq():
    af = parse(A3SQ)
    assert af.name == "a3sq"
    assert af.vertices == ["1", "2", "3"]
    assert af.arrows == [("a", "1", "2"), ("b", "2", "3")]
    assert len(af.relations) == 1
    alg, supplied = af.build()
    assert alg.dim == 5 and supplied is None


def test_parse_coefficient_relation():
    af = parse(SQUARE)
    alg, _ = af.build()
    assert alg.dim == 9
    af2 = parse(WITH_COEFFS)
    alg2, _ = af2.build()
    assert alg2.dim == 9


def test_comments_and_blanks():
    af = parse("# top\n\nalgebra x\nvertices 1\n# done\n")
    assert af.name == "x" and af.vertices == ["1"]


def test_unknown_vertex_error_location():
    with pytest.raises(ParseError) as exc:
        parse("algebra x\nvertices 1 2\narrow a 1 9\n")
    assert exc.value.line == 3


def test_nonparallel_relation_rejected():
    text = "algebra x\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\nrelation (a b) - (a b) + (b)\n"
    with pytest.raises(ParseError):
        parse(text)
    bad = "algebra x\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\nrelation b a\n"
    with pytest.raises(ParseError):
        parse(bad)


def test_unknown_directive():
    with pytest.raises(ParseError):
        parse("algebra x\nvertices 1\nfrobnicate\n")


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse("algebra x\nvertices 1 1\n")
    with pytest.raises(ParseError):
        parse("algebra x\nvertices 1 2\narrow a 1 2\narrow a 2 1\n")


def test_repeated_module_name_located_at_the_second_name():
    text = MODULE.replace("relation a   zz\n", "").format(line="")
    with pytest.raises(ParseError) as exc:
        parse(text + "module  m\ndim 1 1\nend\n")
    assert (exc.value.line, exc.value.column) == (9, 8)
    assert exc.value.message == "duplicate module 'm'"


def test_field_directive():
    af = parse("algebra x\nfield fp 5\nvertices 1\n")
    assert af.field_mode == "fp:5"
    alg, _ = af.build()
    assert alg.field.p == 5
    alg2, _ = af.build(field_override="rational")
    assert alg2.field.name == "rational"


@pytest.mark.parametrize("line, col", [("field fp x", 9), ("field fp 4", 9), ("field fp:4", 9)])
def test_bad_field_characteristic_located(line, col):
    with pytest.raises(ParseError) as exc:
        parse(f"algebra x\n{line}\nvertices 1\n")
    assert (exc.value.line, exc.value.column) == (2, col)
    assert "not a prime" in exc.value.message


def test_roundtrip_idempotent():
    for text in (A3SQ, SQUARE, WITH_COEFFS, WITH_INVENTORY):
        af = parse(text)
        again = parse(emit(af))
        assert again == af
        assert emit(again) == emit(af)


def test_inventory_block_builds_and_enumerates():
    af = parse(WITH_INVENTORY)
    alg, supplied = af.build()
    assert supplied is not None and len(supplied) == 5
    inv = build_inventory(alg, supplied=supplied)
    assert len(enumerate_stpairs(inv)) == 12


def test_inventory_relation_violation_rejected():
    bad = """\
algebra x
vertices 1 2 3
arrow a 1 2
arrow b 2 3
relation a b
module m
dim 1 1
dim 2 1
dim 3 1
map a 1
map b 1
end
"""
    af = parse(bad)
    with pytest.raises(ParseError) as exc:
        af.build()
    assert (exc.value.line, exc.value.column) == (6, 0)
    assert exc.value.message == "module 'm': representation violates a relation"


@pytest.mark.parametrize("dim", ["abc", "-1", "1.5"])
def test_bad_module_dimension_located(dim):
    with pytest.raises(ParseError) as exc:
        parse(f"algebra x\nvertices 1\nmodule m\ndim 1 {dim}\nend\n")
    assert (exc.value.line, exc.value.column) == (4, 6)
    assert "not a nonnegative integer" in exc.value.message


MAP_SHAPE = """\
algebra x
vertices 1 2
arrow a 1 2
module m
{body}
end
"""


@pytest.mark.parametrize("body, line", [
    ("dim 1 1\ndim 2 1\nmap a 1,1", 7),
    ("dim 1 1\nmap a 1;1\ndim 2 1", 6),
    ("dim 1 2\ndim 2 2\nmap a 1,0;1", 7),
    ("dim 2 1\nmap a 1", 6),
], ids=["too-wide", "too-tall-dims-after", "ragged", "zero-source"])
def test_bad_module_map_shape_located(body, line):
    with pytest.raises(ParseError) as exc:
        parse(MAP_SHAPE.format(body=body))
    assert (exc.value.line, exc.value.column) == (line, 6)
    assert "map a of module 'm' must be a" in exc.value.message


def test_module_map_before_its_dims_builds():
    af = parse(MAP_SHAPE.format(body="map a 1\ndim 1 1\ndim 2 1"))
    _, supplied = af.build()
    assert supplied[0][1].dim_vector == (1, 1)


def test_unterminated_module():
    with pytest.raises(ParseError) as exc:
        parse("algebra x\nvertices 1\n  module m\ndim 1 1\n")
    assert (exc.value.line, exc.value.column) == (3, 2)  # at its `module` directive
    assert exc.value.message == "unterminated module block 'm'"


@pytest.mark.parametrize("text", ["", "# a comment\n", "field rational\n"])
def test_file_without_an_algebra_is_located_at_its_start(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (1, 0)  # columns count from 0
    assert exc.value.message == "file declares no algebra"


MODULE = """\
algebra x
vertices 1 2
arrow a 1 2
relation a   zz
module m
dim 1 1
dim 2 1
{line}
end
"""


@pytest.mark.parametrize("line, col, bad", [
    ("  map a    x", 11, "'x'"),
    ("map a 1, 0; 1,y", 14, "'y'"),
    ("map a 1,0;1,", 12, "''"),
])
def test_bad_map_entry_located_at_the_entry(line, col, bad):
    with pytest.raises(ParseError) as exc:
        parse(MODULE.replace("relation a   zz\n", "").format(line=line))
    assert (exc.value.line, exc.value.column) == (7, col)
    assert exc.value.message == f"bad rational {bad}"


@pytest.mark.parametrize("relation, col", [("relation a   zz", 13), ("relation 2*(a zz)", 14)])
def test_unknown_arrow_in_relation_located_at_the_arrow(relation, col):
    with pytest.raises(ParseError) as exc:
        parse(MODULE.replace("relation a   zz", relation).format(line="map a 1"))
    assert (exc.value.line, exc.value.column) == (4, col)
    assert exc.value.message == "unknown arrow 'zz' in relation"


@pytest.mark.parametrize("arrows, relation, col, message", [
    ("a 1 2|b 2 3", "relation (a b) - (b a)", 17, "non-composable path b a"),
    ("a 1 2|b 2 3", "  relation a b - 2*(a a)", 17, "non-composable path a a"),
    ("a 1 2|b 2 3", "relation 0*(a b)", 9, "zero coefficient in relation"),
    ("a 1 2|b 2 3", "relation a", 9, "relation paths must have length >= 2"),
    ("a 1 2|c 1 2|b 2 1", "relation (a b) - (c b) - (b a)", 25,
     "relation terms are not parallel"),
    ("a 1 2|b 2 3", "relation (a b) + (a b)", 17, "path a b appears twice in relation"),
    ("a 1 2|b 2 3", "relation (a b) - (a b)", 17, "path a b appears twice in relation"),
], ids=["composable", "coefficient", "zero", "short", "parallel", "twice+", "twice-"])
def test_invalid_relation_located_at_the_term_at_fault(arrows, relation, col, message):
    # at the term's first token: its coefficient if it has one
    text = "".join(f"arrow {a}\n" for a in arrows.split("|"))
    with pytest.raises(ParseError) as exc:
        parse(f"algebra x\nvertices 1 2 3\n{text}{relation}\n")
    assert (exc.value.line, exc.value.column) == (4 + arrows.count("|"), col)
    assert exc.value.message == message


@pytest.mark.parametrize("line, at, message", [
    ("dim  1 2", (7, 5), "duplicate dim '1'"),
    ("map a 1\n map  a 1", (8, 6), "duplicate map 'a'"),
], ids=["dim", "map"])
def test_repeated_module_directive_rejected(line, at, message):
    # located at the repeated vertex or arrow, as a duplicate declaration is
    with pytest.raises(ParseError) as exc:
        parse(MODULE.replace("relation a   zz\n", "").format(line=line))
    assert (exc.value.line, exc.value.column) == at
    assert exc.value.message == message
