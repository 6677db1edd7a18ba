from pathlib import Path

import pytest

from taured.algebra import Arrow, Quiver, Relation, build_algebra
from taured.corpus import standard_corpus
from taured.dsl import parse_file
from taured.series import series_algebra
from taured.tilting import build_inventory


A3SQ_TEXT = """\
# linear three-vertex quiver; the composite of the two arrows vanishes
algebra a3sq
field rational
vertices 1 2 3
arrow a 1 2
arrow b 2 3
relation a b
"""


@pytest.fixture(scope="session")
def a3sq():
    """The running example: 1 -a-> 2 -b-> 3 with a b = 0."""
    quiver = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    return build_algebra(quiver, [Relation.monomial(("a", "b"))])


@pytest.fixture(scope="session")
def a3sq_inv(a3sq):
    return build_inventory(a3sq)


@pytest.fixture(scope="session")
def a3_sink_inv():
    """Hereditary 1 -a-> 2 <-b- 3; its record 1>2<3 has top S1 + S3, not a simple top."""
    quiver = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "3", "2")))
    return build_inventory(build_algebra(quiver, []))


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus()


@pytest.fixture(scope="session")
def corpus_invs(corpus):
    return {name: build_inventory(alg) for name, alg in corpus.items()}


@pytest.fixture(scope="session")
def pair_invs(corpus_invs):
    """Inventories whose pair lists the tests compare with other routes: the corpus,
    the four golden inputs and the rows of ``taured series`` (A1..A10, D3..D9)."""
    invs = dict(corpus_invs)
    for name in ("rsz_A7", "rsz_D7", "nakayama_5_5", "nakayama_5_4"):
        path = Path(__file__).parent / "golden" / f"{name}.alg"
        invs[name] = build_inventory(parse_file(str(path)).build()[0])
    for kind, rows in (("A", range(1, 11)), ("D", range(3, 10))):
        invs.update((f"{kind}{n}", build_inventory(series_algebra(kind, n))) for n in rows)
    return invs


@pytest.fixture()
def a3sq_file(tmp_path):
    p = tmp_path / "a3sq.alg"
    p.write_text(A3SQ_TEXT)
    return str(p)
