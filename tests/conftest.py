import pytest

from taured.algebra import Arrow, Quiver, Relation, build_algebra
from taured.corpus import standard_corpus
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


@pytest.fixture()
def a3sq_file(tmp_path):
    p = tmp_path / "a3sq.alg"
    p.write_text(A3SQ_TEXT)
    return str(p)
