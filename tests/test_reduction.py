import copy
import os
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import taured.reduction as reduction
from taured.cli import main
from taured.corpus import hereditary_d3, ka2_times_k, selfinjective_nakayama2, standard_corpus
from taured.dsl import parse_file
from taured.errors import NonSimpleSocle, NoProjInjective, NotProjInjective
from taured.linalg import QQ, PrimeField
from taured.reduction import (
    ReductionContext,
    Report,
    ReductionSets,
    compute_nsets,
    find_proj_injectives,
    reconstruct_tau_tilt,
    reductions,
    socle_quotient,
    verify_reduction,
)
from taured.reps import bar
from taured.series import series_algebra, series_counts
from taured.tilting import (
    BlockProduct,
    Inventory,
    PosetQuiver,
    build_inventory,
    enumerate_stpairs,
)

from helpers import (
    direct_quotient_inventory,
    product_hasse_quiver,
    product_pairs,
    record_by_name,
    reference_hom_to_q,
    reference_nsets,
    reference_reductions,
    surgery,
    tau_tilting_pairs,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_find_proj_injectives_a3sq(a3sq):
    found = {v: s for v, (_, s, _) in find_proj_injectives(a3sq).items()}
    assert found["1"] == "2"          # P_1 is the injective at 2
    assert set(found) == {"1", "2"}   # P_2 = 2/3 is the injective at 3 as well


def test_find_proj_injectives_series():
    a5 = series_algebra("A", 5)
    found = {v: s for v, (_, s, _) in find_proj_injectives(a5).items()}
    assert found["5"] == "4"
    d5 = series_algebra("D", 5)
    foundd = {v: s for v, (_, s, _) in find_proj_injectives(d5).items()}
    assert foundd["5"] == "4"


def test_find_proj_injectives_kd3_empty():
    assert find_proj_injectives(hereditary_d3()) == {}


def test_socle_quotient_a3sq(a3sq):
    ctx = socle_quotient(a3sq, "1")
    assert ctx.socle_vertex == "2"
    assert not ctx.q_is_simple
    assert ctx.quotient.dim == 4
    assert [a.name for a in ctx.quotient.quiver.arrows] == ["b"]
    assert bar(ctx.q_rep, ctx.quotient).dim_vector == (1, 0, 0)


def test_socle_quotient_errors(a3sq):
    with pytest.raises(NotProjInjective):
        socle_quotient(a3sq, "3")  # simple socle S3, but I_3 = 2/3
    with pytest.raises(NotProjInjective):
        socle_quotient(hereditary_d3(), "3")
    with pytest.raises(NotProjInjective):
        socle_quotient(a3sq, "9")


def test_socle_quotient_names_each_failure(a3sq):
    from taured.algebra import Arrow, Quiver, build_algebra

    with pytest.raises(NotProjInjective, match="P_3 is not projective-injective"):
        socle_quotient(a3sq, "3")
    fork = build_algebra(Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "1", "3"))), [])
    with pytest.raises(NotProjInjective, match=r"Soc\(P_1\) has dimension 2"):
        socle_quotient(fork, "1")
    assert find_proj_injectives(fork) == {}


def test_reduction_context_is_a_value(a3sq, a3sq_inv):
    context = socle_quotient(a3sq, "1", a3sq_inv)
    with pytest.raises(AttributeError, match="'inv'"):
        context.inv = None
    # the quotient side reads no ambient inventory
    quotient_side = socle_quotient(a3sq, "1")
    assert compute_nsets(quotient_side).extend == compute_nsets(context).extend
    assert not {"q_id", "bar_of", "lift_of"} & set(vars(quotient_side))


def test_bar_undoes_lift(corpus, corpus_invs):
    for name, alg in corpus.items():
        for v in find_proj_injectives(alg):
            ctx = socle_quotient(alg, v, corpus_invs[name])
            assert set(ctx.lift_of) == set(ctx.hom_to_q), (name, v)
            assert all(ctx.bar_of[a] == j for j, a in ctx.lift_of.items()), (name, v)
            assert ctx.q_is_simple == (ctx.qbar_id is None), (name, v)


def _hom_to_q_cases():
    for field in (QQ, PrimeField(2)):
        for name, alg in standard_corpus(field).items():
            yield f"{name}/{field}", alg
    for name in ("nakayama_5_5", "nakayama_5_4", "rsz_A7", "rsz_D7"):
        yield name, parse_file(os.path.join(GOLDEN, f"{name}.alg")).build()[0]


def test_hom_to_q_matches_hom_bases():
    """dim Hom(X, Q) read at the socle vertex equals the Hom basis count, at every P_v."""
    candidates = 0
    for name, alg in _hom_to_q_cases():
        for v in find_proj_injectives(alg):
            ctx = socle_quotient(alg, v)
            assert ctx.hom_to_q == reference_hom_to_q(ctx), (name, v)
            candidates += len(ctx.hom_to_q)
    assert candidates > 600


def test_boundary_is_the_listed_extend_family():
    """The boundary family listed by restricted cliques is the family that ``extend`` marks
    on the codes, in the same order, at every projective-injective over Q and F_2 and of
    the golden inputs; Q is simple on KA2xK, and the A series has a one-vertex block."""
    simple = one_vertex = 0
    for name, alg in _hom_to_q_cases():
        for v in find_proj_injectives(alg):
            ctx = socle_quotient(alg, v)
            assert ctx.boundary == ctx.quotient_inv.listed(ctx.extend), (name, v)
            simple += ctx.q_is_simple
            one_vertex += bool(ctx.boundary) and any(
                len(b.algebra.vertices) == 1 for b in ctx.blocks)
    assert simple >= 2 and one_vertex >= 10


def _drop_a_restricted_pair(monkeypatch):
    """The restricted listing of every block misses its first pair."""
    real = reduction.restricted_stpairs
    monkeypatch.setattr(reduction, "restricted_stpairs", lambda *args: real(*args)[1:])


def test_boundary_missing_a_pair_fails_split_bijections(monkeypatch, capsys):
    _drop_a_restricted_pair(monkeypatch)
    assert main(["verify", os.path.join(GOLDEN, "rsz_A7.alg")]) == 1
    failed = _failed(capsys.readouterr().out)
    assert {"split-bijections", "reconstruction"} <= failed
    assert failed <= {"split-bijections", "reconstruction"}


def test_boundary_missing_a_pair_fails_the_series_boundary_check(monkeypatch):
    _drop_a_restricted_pair(monkeypatch)
    rep = series_counts("A", 6)
    assert not rep.ok()
    assert [r.boundary_structure_checked for r in rep.rows] == [None, None] + [False] * 4
    assert [r.recurrence_checked for r in rep.rows] == [None, None] + [True] * 4


def test_verify_finds_proj_injectives_once(monkeypatch):
    """Each vertex is tested once; each reduction reuses what its test found."""
    calls = []
    real = reduction._proj_injective
    monkeypatch.setattr(reduction, "_proj_injective",
                        lambda algebra, v: calls.append(v) or real(algebra, v))
    assert verify_reduction(series_algebra("A", 5)).passed
    assert sorted(calls) == ["1", "2", "3", "4", "5"]


def test_socle_quotient_series_products():
    a5 = series_algebra("A", 5)
    ctx = socle_quotient(a5, "5")
    assert ctx.quotient.dim == series_algebra("A", 4).dim + 1
    arrows = {a.name for a in ctx.quotient.quiver.arrows}
    assert arrows == {"a1", "a2", "a3"}  # vertex 5 isolated
    d5 = series_algebra("D", 5)
    ctxd = socle_quotient(d5, "5")
    assert ctxd.quotient.dim == series_algebra("D", 4).dim + 1


def test_bar_of_merges_duplicates_and_drops_zero_images(a3sq, a3sq_inv):
    ctx = socle_quotient(a3sq, "1", a3sq_inv)
    q = record_by_name(a3sq_inv, "1/2").id
    s1 = record_by_name(a3sq_inv, "1").id
    s3 = record_by_name(a3sq_inv, "3").id
    assert ctx.bar_of[q] == ctx.bar_of[s1]  # Q and S1 both go to S1
    image = frozenset(ctx.bar_of[i] for i in (q, s1, s3)) - {None}
    qinv = ctx.quotient_inv
    assert sorted(qinv.records[i].name for i in image) == ["1", "3"]
    # a simple Q is the one summand whose image is zero
    alg = ka2_times_k()
    inv = build_inventory(alg)
    simple = socle_quotient(alg, "3", inv)
    assert [i for i, b in simple.bar_of.items() if b is None] == [simple.q_id]


def test_nsets_example(a3sq, a3sq_inv):
    ctx = socle_quotient(a3sq, "1", a3sq_inv)
    ns = compute_nsets(ctx)
    qinv = ctx.quotient_inv

    def names(mods):
        return sorted(qinv.records[i].name for i in mods)

    assert ns.keep == []
    assert [names(m) for m in ns.extend] == [["1", "3"]]
    assert sorted(names(m) for m in ns.swap) == [["1", "2", "2/3"], ["1", "2/3", "3"]]
    surgery = qinv.listed(ctx.members[False, True])
    assert sorted(qinv.pair_label(p) for p in surgery) == ["1", "1+3"]


def test_nsets_a_series_structure():
    for n in (4, 5):
        alg = series_algebra("A", n)
        ctx = socle_quotient(alg, str(n))
        ns = compute_nsets(ctx)
        qinv = ctx.quotient_inv
        small = series_algebra("A", n - 2)
        sinv = build_inventory(small)
        expected = {frozenset(sinv.records[i].name for i in p.modules)
                    for p in tau_tilting_pairs(sinv)}
        got = set()
        for mods in ns.extend:
            names = {qinv.records[i].name for i in mods}
            assert str(n) in names
            got.add(frozenset(names - {str(n)}))
        assert got == expected


def test_reconstruct_example(a3sq, a3sq_inv):
    ctx = socle_quotient(a3sq, "1", a3sq_inv)
    recon = reconstruct_tau_tilt(ctx, compute_nsets(ctx))
    labels = sorted("+".join(sorted(a3sq_inv.records[i].name for i in s)) for s in recon)
    assert labels == ["1+1/2+3", "1/2+2+2/3", "1/2+2/3+3"]


def test_reconstruct_simple_q():
    alg = ka2_times_k()
    inv = build_inventory(alg)
    ctx = socle_quotient(alg, "3", inv)
    assert ctx.q_is_simple
    recon = reconstruct_tau_tilt(ctx, compute_nsets(ctx))
    tt = {frozenset(p.modules) for p in tau_tilting_pairs(inv)}
    assert set(recon) == tt
    q = ctx.q_id
    assert all(q in s for s in recon)


def test_q_and_qbar_looked_up_once_per_reduction(monkeypatch, a3sq, a3sq_inv):
    next(reductions(a3sq, Report("a3sq"), a3sq_inv))  # the blocks are built and cached
    looked_up = []
    find_iso = Inventory.find_iso
    monkeypatch.setattr(Inventory, "find_iso",
                        lambda inv, rep: looked_up.append((inv, rep)) or find_iso(inv, rep))
    report = Report("a3sq")
    red = next(reductions(a3sq, report, a3sq_inv))
    ctx = red.ctx
    assert report.passed and not ctx.q_is_simple
    assert sum(rep is ctx.q_rep for _, rep in looked_up) == 1
    # in the blocks: Q/Soc(Q) once for qbar_id, then one lookup per nonzero
    # image of an ambient candidate (Q's among them)
    in_blocks = [rep for inv, rep in looked_up if inv is not a3sq_inv]
    assert len(in_blocks) == 1 + sum(i is not None for i in ctx.bar_of.values())


def test_reconstruct_empty_sets(a3sq, a3sq_inv):
    ctx = socle_quotient(a3sq, "1", a3sq_inv)
    empty = ReductionSets([], [], [])
    assert reconstruct_tau_tilt(ctx, empty) == []


def test_surgery_tiny():
    pq = PosetQuiver(2, ((0, 1),))
    w = surgery(pq, [1])
    assert w.n == 3                   # vertex 2 is the copy of vertex 1
    assert set(w.arrows) == {(0, 2), (2, 1)}


def test_surgery_empty_subset():
    pq = PosetQuiver(3, ((0, 1), (1, 2)))
    assert surgery(pq, []) == pq


def test_surgery_unknown_vertex():
    from taured.errors import UnknownVertex

    pq = PosetQuiver(1, ())
    with pytest.raises(UnknownVertex):
        surgery(pq, [5])


@st.composite
def dag_and_subset(draw):
    n = draw(st.integers(1, 6))
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.add((i, j))
    subset = [i for i in range(n) if draw(st.booleans())]
    return PosetQuiver(n, tuple(sorted(edges))), subset


@settings(max_examples=50, deadline=None)
@given(dag_and_subset())
def test_surgery_counts(data):
    pq, subset = data
    w = surgery(pq, subset)
    nset = set(subset)
    assert w.n == pq.n + len(nset)
    internal = sum(1 for s, t in pq.arrows if s in nset and t in nset)
    assert len(w.arrows) == len(pq.arrows) + internal + len(nset)
    # family check: no arrow from the complement lands on an original N vertex
    for s, t in w.arrows:
        if t in nset and s < pq.n:
            assert s in nset


def test_verify_reduction_corpus_members(corpus, corpus_invs):
    for name in ("A3^2", "A4^2", "D4^2", "nakayama2", "KA2xK", "KA3", "A1^2"):
        rep = verify_reduction(corpus[name], name, inv=corpus_invs[name])
        assert rep.passed, [c.name for c in rep.checks if not c.passed]


def test_verify_moreover_clause_fires():
    alg = selfinjective_nakayama2()
    inv = build_inventory(alg)
    rep = verify_reduction(alg, "nakayama2", inv=inv)
    assert rep.passed
    fired = [c for c in rep.checks if c.name.endswith("socle-factor-forces-empty")]
    assert fired and all(c.passed for c in fired)
    # and the two tau-tilt posets really are in bijection
    ctx = socle_quotient(alg, "1", inv)
    assert not compute_nsets(ctx).extend


def test_verify_no_proj_injective_raises():
    with pytest.raises(NoProjInjective):
        verify_reduction(hereditary_d3(), "KD3")


def test_socle_nonsimple_unreachable_via_api(corpus):
    """Hereditary D3's P3 has a two-dimensional socle, so it is not projective-injective."""
    with pytest.raises(NotProjInjective):
        socle_quotient(hereditary_d3(), "3")


def _ka3_times_k():
    """Hereditary A3 (3 -> 2 -> 1) next to an isolated vertex 4."""
    from taured.algebra import Arrow, Quiver, build_algebra

    arrows = (Arrow("a1", "2", "1"), Arrow("a2", "3", "2"))
    return build_algebra(Quiver(("1", "2", "3", "4"), arrows), [])


@pytest.mark.parametrize("name, block_counts", [
    ("rsz_A7", {2}), ("rsz_D7", {2}),
    # cyclic Nakayama quotients are connected: one block, the quotient itself
    ("nakayama_5_4", {1}),
    # at P_3 the block {1, 2, 3} holds Q's vertex and the socle vertex beside
    # the block {4}; at the simple P_4 the one block is {1, 2, 3}
    ("KA3xK", {1, 2}),
])
def test_block_route_matches_the_direct_route(name, block_counts):
    """At every projective-injective, the quotient built by blocks has the pairs and
    the Hasse arrows of the quotient's inventory built whole, matched by names."""
    if name == "KA3xK":
        algebra = _ka3_times_k()
    else:
        algebra, _ = parse_file(os.path.join(GOLDEN, f"{name}.alg")).build()
    inv = build_inventory(algebra)
    seen = set()
    # with the ambient inventory its cache serves the blocks; without, they are built
    for v, ambient in product(find_proj_injectives(algebra), (inv, None)):
        ctx = socle_quotient(algebra, v, ambient)
        blocked, direct = ctx.quotient_inv, direct_quotient_inventory(ctx)
        seen.add(len(ctx.blocks))

        def named(qinv, pairs):
            return [(frozenset(qinv.records[i].name for i in p.modules), p.supports)
                    for p in pairs]

        assert named(blocked, product_pairs(blocked)) == named(direct, direct.pairs), \
            (name, v, ambient)
        # the same order, so the arrows match by index once the names do
        assert product_hasse_quiver(blocked).arrows == direct.hasse_quiver.arrows, \
            (name, v, ambient)
    assert seen == block_counts
    assert verify_reduction(algebra, name, inv=inv).passed


SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


@pytest.mark.parametrize("name", ["rsz_A7", "rsz_D7", "nakayama_5_4", "nakayama_5_5",
                                  "a3sq", "KA2xK"])
def test_blockwise_nsets_match_the_reference(name, corpus):
    """At every projective-injective the families read from the blocks are the ones read
    from the product's pairs, in the same order (KA2xK: Q simple, no Q/Soc(Q))."""
    if name == "KA2xK":
        algebra = corpus[name]
    else:
        path = os.path.join(SCRIPTS if name == "a3sq" else GOLDEN, f"{name}.alg")
        algebra, _ = parse_file(path).build()
    inv = build_inventory(algebra)
    for v, found in find_proj_injectives(algebra).items():
        ctx = socle_quotient(algebra, v, inv, found)
        nsets, surgery = reference_nsets(ctx)
        assert compute_nsets(ctx) == nsets, (name, v)
        assert ctx.quotient_inv.listed(ctx.members[False, True]) == surgery, (name, v)


@pytest.mark.parametrize("kind, n", [("A", n) for n in range(3, 9)]
                         + [("D", n) for n in range(5, 8)])
def test_blockwise_nsets_match_the_reference_on_series_rows(kind, n):
    """At P_n of each boundary row, with Lambda_{n-1} carried from the row before."""
    previous = build_inventory(series_algebra(kind, n - 1))
    ctx = socle_quotient(series_algebra(kind, n), str(n), classes=previous)
    nsets, surgery = reference_nsets(ctx)
    assert compute_nsets(ctx) == nsets
    assert ctx.quotient_inv.listed(ctx.members[False, True]) == surgery


def _drop_first_quotient_arrow(monkeypatch):
    """The last block of every socle quotient loses the first arrow of its certified quiver."""
    blocks = ReductionContext.__dict__["blocks"].func

    def dropped(self):
        out = blocks(self)
        inv = copy.copy(out[-1])
        quiver = out[-1].hasse_quiver
        inv.__dict__["hasse_quiver"] = PosetQuiver(quiver.n, quiver.arrows[1:])
        return out[:-1] + [inv]

    monkeypatch.setattr(ReductionContext, "blocks", property(dropped))


def _failed(out: str) -> set[str]:
    return {line.split(":")[0].split("/")[-1] for line in out.splitlines()
            if line.startswith("[FAIL]")}


def test_quotient_quiver_missing_an_arrow_fails_the_quiver_checks(monkeypatch, capsys):
    _drop_first_quotient_arrow(monkeypatch)
    assert main(["verify", os.path.join(GOLDEN, "rsz_A7.alg")]) == 1
    out = capsys.readouterr().out
    assert _failed(out) == {"tau-tilt-bijection", "surgery-isomorphism"}
    assert ("[FAIL] Q=P_2/tau-tilt-bijection: the tau-tilt quiver matches the quotient-side "
            "quiver, arrows both ways  [arrow not preserved: ") in out


def test_quotient_quiver_missing_an_arrow_fails_the_simple_bijection(monkeypatch):
    # KA2xK: Q = P_3 is simple
    _drop_first_quotient_arrow(monkeypatch)
    report = verify_reduction(ka2_times_k())
    failed = [c.name for c in report.checks if not c.passed]
    assert "Q=P_3/simple-bijection" in failed
    assert _failed("\n".join(report.lines())) == {"simple-bijection", "surgery-isomorphism"}


def test_moved_bar_image_fails_bar_fixes_non_q(monkeypatch, capsys):
    bar_of = ReductionContext.__dict__["bar_of"].func

    def moved(self):
        images = dict(bar_of(self))
        i, j = [k for k, b in images.items() if b is not None and k != self.q_id][:2]
        images[i] = images[j]
        return images

    monkeypatch.setattr(ReductionContext, "bar_of", property(moved))
    assert main(["verify", os.path.join(GOLDEN, "rsz_A7.alg")]) == 1
    assert "bar-fixes-non-q" in _failed(capsys.readouterr().out)


def _ka3_or_golden(name):
    if name == "KA2xK":
        return ka2_times_k()
    if name == "KA3xK":
        return _ka3_times_k()
    path = os.path.join(SCRIPTS if name == "a3sq" else GOLDEN, f"{name}.alg")
    return parse_file(path).build()[0]


@pytest.mark.parametrize("defect", [False, True])
@pytest.mark.parametrize("name", ["rsz_A7", "rsz_D7", "nakayama_5_4", "nakayama_5_5", "a3sq",
                                  "KA2xK", "KA3xK"])
def test_code_checks_match_the_reference_route(name, defect, monkeypatch):
    """At every projective-injective the checks on codes pass and fail as the reference
    route's, which builds the product's pairs, its box-product quiver and the surgery quiver;
    also when a quotient block's quiver misses an arrow, which both routes read."""
    if defect:
        _drop_first_quotient_arrow(monkeypatch)
    algebra = _ka3_or_golden(name)
    inv = build_inventory(algebra)
    got = verify_reduction(algebra, name, inv=inv)
    want = reference_reductions(algebra, name, inv)
    assert [(c.name, c.passed) for c in got.checks] == [(c.name, c.passed) for c in want.checks]
    assert got.passed != defect


def test_extra_ambient_arrow_is_not_preserved():
    algebra = _ka3_or_golden("rsz_A7")
    inv = build_inventory(algebra)
    H = inv.hasse_quiver
    # from the top pair Lambda to the zero pair: a relation of the Fac order, no covering
    assert (0, H.n - 1) not in H.arrows and not inv.pairs[0].supports
    inv.__dict__["hasse_quiver"] = PosetQuiver(H.n, tuple(sorted(H.arrows + ((0, H.n - 1),))))
    report = verify_reduction(algebra, "rsz_A7", inv=inv)
    failed = [c for c in report.checks if not c.passed]
    assert {c.name.split("/")[1] for c in failed} == {"surgery-isomorphism"}
    assert all(c.witness.startswith("arrow not preserved: ") for c in failed)
    want = reference_reductions(algebra, "rsz_A7", inv)
    assert [(c.name, c.passed) for c in report.checks] == [(c.name, c.passed) for c in want.checks]


def test_block_arrow_missing_from_the_count_side_fails_the_count(monkeypatch):
    """Arrows are tested in the blocks' difference table but walked and counted in their
    successor lists; one arrow dropped from the lists alone is caught by the counts."""
    succ = BlockProduct.__dict__["succ"].func

    def short(self):
        out = succ(self)
        a = next(a for a, targets in enumerate(out[-1]) if targets)
        out[-1][a] = out[-1][a][1:]
        return out

    monkeypatch.setattr(BlockProduct, "succ", property(short))
    report = verify_reduction(_ka3_or_golden("rsz_A7"), "rsz_A7")
    failed = [c for c in report.checks if not c.passed]
    assert {c.name.split("/")[1] for c in failed} == {"tau-tilt-bijection", "surgery-isomorphism"}
    assert all(c.witness.startswith("arrow count differs: ") for c in failed)


def _frozenset_collections(values, size: int) -> list:
    """The lists, tuples, sets and dicts among ``values`` with at least ``size`` entries,
    some of them frozensets (dict keys included)."""
    found = []
    for v in values:
        if isinstance(v, (list, tuple, set, frozenset, dict)) and len(v) >= size:
            items = list(v.keys()) + list(v.values()) if isinstance(v, dict) else v
            if any(isinstance(x, frozenset) for x in items):
                found.append(v)
    return found


def test_reductions_build_no_product_pairs_or_quivers():
    """On rsz_A7 the checks build neither the product's pairs nor a box-product or surgery
    quiver, and hold no list of frozensets with half as many entries as there are pairs."""
    import taured.tilting as tilting

    assert not hasattr(tilting, "box_product") and not hasattr(reduction, "surgery")
    assert not hasattr(reduction, "extend_family") and not hasattr(reduction, "_tuples")
    assert not hasattr(tilting.BlockProduct, "pairs")
    assert not hasattr(tilting.BlockProduct, "merged")
    assert not hasattr(tilting.BlockProduct, "shifted")
    assert not hasattr(tilting.BlockProduct, "hasse_quiver")
    algebra = _ka3_or_golden("rsz_A7")
    inv = build_inventory(algebra)
    report = Report("rsz_A7")
    checks = reductions(algebra, report, inv)
    size = len(inv.pairs) // 2
    for red in checks:
        ctx = red.ctx
        held = [*checks.gi_frame.f_locals.values(), *vars(ctx).values(),
                *vars(ctx.quotient_inv).values()]
        assert not _frozenset_collections(held, size), ctx.vertex
    assert report.passed


@pytest.mark.parametrize("name", ["rsz_A7", "nakayama_5_5"])
def test_verify_keys_only_the_listed_families(name, monkeypatch):
    """``verify_reduction`` sorts the pairs of keep, extend and swap, and lists no other
    quotient pairs: the surgery family stays a list of code flags."""
    algebra = _ka3_or_golden(name)
    inv = build_inventory(algebra)
    keyed = []
    pair_sort_key = BlockProduct.pair_sort_key

    def recorded(self, pair):
        keyed.append(pair)
        return pair_sort_key(self, pair)

    monkeypatch.setattr(BlockProduct, "pair_sort_key", recorded)
    assert verify_reduction(algebra, name, inv=inv).passed
    calls = len(keyed)
    listed = 0
    for v, found in find_proj_injectives(algebra).items():
        ns = compute_nsets(socle_quotient(algebra, v, inv, found))
        listed += len(ns.keep) + len(ns.extend) + len(ns.swap)
    assert calls == listed
