"""Tests of the benchmark itself: inputs, the verdict gate and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calib
import expected
import gen
import layertrace
import run

from taured.dsl import parse
from taured.tilting import build_inventory, enumerate_stpairs

# Layer metrics that must be nonzero on each workload: the map in README.md.
EXERCISED = {
    "verify-rsz": [
        "tilting.hasse.s", "tilting.hasse.calls", "tilting.order_ge.calls",
        "tilting.fac_contains.calls", "tilting.fac_contains.hit_ratio",
        "reduction.verify_reduction.s", "reduction.compute_nsets.calls",
        "tilting.enumerate_stpairs.calls", "reduction.socle_quotient.s",
        "reduction.find_proj_injectives.s", "tilting.oracle.s",
        "algebra.vertex_subalgebra_quotient.calls"],
    "verify-nakayama": [
        "reduction.verify_reduction.s", "reduction.compute_nsets.calls",
        "tilting.enumerate_stpairs.calls", "reduction.socle_quotient.s",
        "reduction.find_proj_injectives.s", "reps.is_iso.s", "reps.is_iso.true",
        "tilting.find_iso.s", "tilting.find_iso.calls", "reps.hom_basis.s",
        "reps.hom_basis.calls", "tilting.hom.hit_ratio", "reps.tau.s", "reps.tau.calls",
        "reps.bar.calls", "reps.inflate.calls", "linalg.rref.s", "linalg.rref.calls",
        "linalg.matmul.calls", "linalg.matrix_add.calls", "tilting.oracle.s",
        "algebra.vertex_subalgebra_quotient.calls"],
    "verify-nakayama-fp": [
        "reps.is_iso.s", "reps.is_iso.true", "tilting.find_iso.s", "tilting.find_iso.calls",
        "linalg.rref.s", "linalg.rref.calls", "linalg.matmul.calls",
        "linalg.matrix_add.calls"],
    "series": [
        "tilting.enumerate_stpairs.s", "tilting.build_inventory.s",
        "tilting.build_inventory.calls", "strings.enumerate_strings.s",
        "strings.string_to_rep.calls", "algebra.build_algebra.s",
        "algebra.build_algebra.calls", "algebra.quotient_by_elements.s",
        "dsl.parse_file.s", "series.series_counts.s", "series.tau_tilt_count.s"],
}

# The series workload never builds a Hasse quiver, runs the oracle or verify_reduction.
SERIES_UNTOUCHED = ["tilting.hasse.calls", "tilting.order_ge.calls",
                    "tilting.fac_contains.calls", "reduction.verify_reduction.s",
                    "tilting.oracle.s"]


def _algebra_sets(text):
    af = parse(text)
    return (set(af.vertices), set(af.arrows),
            {tuple(w for _, w in r.terms) for r in af.relations})


def test_generator_same_seed_same_bytes(tmp_path):
    names = list(gen.ALGEBRAS)
    first = gen.write_inputs(names, 7, tmp_path / "a")
    second = gen.write_inputs(names, 7, tmp_path / "b")
    for p, q in zip(first, second):
        assert p.read_bytes() == q.read_bytes()


def test_generator_seed_changes_order_only():
    for name in gen.ALGEBRAS:
        texts = {gen.alg_text(name, seed) for seed in range(6)}
        assert len(texts) > 1, name
        sets = {repr([sorted(part) for part in _algebra_sets(t)]) for t in texts}
        assert len(sets) == 1, name


@pytest.mark.parametrize("name", sorted(expected.PAIRS))
def test_pair_counts_match_table_for_every_seed(name):
    for seed in (0, 1, 2, 99):
        algebra, _ = parse(gen.alg_text(name, seed)).build()
        assert len(enumerate_stpairs(build_inventory(algebra))) == expected.PAIRS[name]


def nakayama_counts(n, r, cyclic):
    """(support tau-tilting pairs, tau-tilting modules) of a Nakayama algebra.

    An independent reference for the table, using only the combinatorics of
    uniserial modules: vertices 0..n-1, arrows v -> v+1 (mod n when cyclic),
    every path of length r zero.  M(i, l) has top i and length l; the
    projective at i is the longest one, and tau M(i, l) = M(i+1, l) for M not
    projective.  Pairs are the n-cliques of pairwise compatible tau-rigid
    modules and support vertices (Adachi-Iyama-Reiten).
    """
    def proj_len(i):
        return r if cyclic else min(r, n - i)

    def hom(x, y):  # the top of x goes to depth k of y, over the same vertex
        (i, a), (j, b) = x, y
        return sum(1 for k in range(b)
                   if (j + k) % n == i and (cyclic or j + k == i) and b - k <= a)

    def hom_tau(x, y):
        j, b = y
        return 0 if b == proj_len(j) else hom(x, ((j + 1) % n, b))

    def ok(p, q):
        if p[0] == "m" and q[0] == "m":
            return hom_tau(p[1], q[1]) == 0 == hom_tau(q[1], p[1])
        if p[0] == q[0] == "v":
            return True
        (i, length), vertex = (p[1], q[1]) if p[0] == "m" else (q[1], p[1])
        return vertex not in {(i + k) % n for k in range(length)}

    mods = [(i, l) for i in range(n) for l in range(1, proj_len(i) + 1)]
    elems = [("m", m) for m in mods if hom_tau(m, m) == 0] + [("v", v) for v in range(n)]
    counts = [0, 0]

    def extend(chosen, start):
        if len(chosen) == n:
            counts[0] += 1
            counts[1] += all(e[0] == "m" for e in chosen)
            return
        for k in range(start, len(elems)):
            if all(ok(elems[k], e) for e in chosen):
                extend(chosen + [elems[k]], k + 1)

    extend([], 0)
    return tuple(counts)


def test_table_agrees_with_an_independent_count():
    assert nakayama_counts(5, 5, True)[0] == expected.PAIRS["nakayama-5-5"]
    assert nakayama_counts(5, 4, True)[0] == expected.PAIRS["nakayama-5-4"]
    # rad-square-zero linear A_n is the linear Nakayama algebra with r = 2
    assert nakayama_counts(7, 2, False)[0] == expected.PAIRS["rsz-A7"]
    assert {n: nakayama_counts(n, 2, False)[1] for n in range(1, 11)} == \
        expected.TAU_TILT_COUNTS["A"]


def test_table_values():
    assert [expected.hasse_arrows(n) for n in ("rsz-A7", "rsz-D7")] == [1428, 1589]
    assert expected.TAU_TILT_COUNTS["A"][10] == 89
    assert expected.TAU_TILT_COUNTS["D"][9] == 73


GOOD_VERIFY = ("[PASS] oracle-equivalence: clique enumeration matches the "
               "quotient-definition oracle (182 pairs)\n[PASS] mutation-arrows: x\n"
               "all checks passed\n")


def test_verdict_gate():
    assert expected.verify_problems("nakayama-5-4", 0, GOOD_VERIFY) == []
    assert expected.verify_problems("nakayama-5-4", 1, GOOD_VERIFY)
    assert expected.verify_problems("nakayama-5-5", 0, GOOD_VERIFY)
    assert expected.verify_problems("nakayama-5-4", 0, GOOD_VERIFY + "[SKIP] reduction: x\n")
    assert expected.verify_problems("nakayama-5-4", 0, GOOD_VERIFY + "[FAIL] y: z\n")
    assert expected.verify_problems("nakayama-5-4", 0, "Traceback (most recent call last)\n"
                                    + GOOD_VERIFY)
    table = "  n     count  recurrence  boundary    closed\n"
    rows = "".join(f"{n:>3}  {c:>8}  {'-':>10}  {'-':>8}  {c:>8}\n"
                   for n, c in expected.TAU_TILT_COUNTS["D"].items())
    assert expected.series_problems("D", 9, 0, table + rows) == []
    assert expected.series_problems("D", 9, 0, table + rows.replace("73", "74", 1))
    assert expected.series_problems("D", 9, 0, table + rows.replace("-", "FAIL", 1))
    assert expected.hasse_problems("nakayama-5-4", [[182, 5, 455], [100, 4, 200]]) == []
    assert expected.hasse_problems("nakayama-5-4", [[182, 5, 455], [100, 4, 199]])
    assert expected.hasse_problems("nakayama-5-4", [[182, 5, 454]])


def test_wrappers_cover_every_binding_and_are_removed():
    import taured
    import taured.cli

    modules = [m for n, m in sys.modules.items() if n == "taured" or n.startswith("taured.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    matrix_ops = dict(vars(taured.linalg.Matrix))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        bound = set(layertrace.installed_wrappers())
        for name in ("taured.reps.hom_basis", "taured.tilting.hom_basis",
                     "taured.reduction.hom_basis", "taured.hom_basis",
                     "taured.cli.verify_reduction", "taured.linalg.Matrix.__matmul__",
                     "taured.tilting.Inventory.fac_contains", "taured.dsl.build_algebra"):
            assert name in bound
        assert not any(n.split(".")[-1].startswith("_") and ".Matrix." not in n for n in bound)
        taured.cli.main(["series", "--kind", "A", "--max", "3"])
    finally:
        tracer.remove()
    assert layertrace.installed_wrappers() == []
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert dict(vars(taured.linalg.Matrix)) == matrix_ops
    summary = tracer.summary()
    assert summary["calls"]["series.series_counts"] == 1
    assert summary["calls"]["linalg.matmul"] > 0


def test_self_time_excludes_nested_spans():
    tracer = layertrace.Tracer()
    inner = tracer.wrap("t.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("t.outer", lambda: [inner() for _ in range(5)])
    outer()
    summary = tracer.summary()
    assert summary["calls"] == {"t.inner": 5, "t.outer": 1}
    total = tracer.node_total[1]
    assert summary["self_s"]["t.outer"] + summary["self_s"]["t.inner"] == pytest.approx(total)


def _traced_layers(workload, seed, tmp_path):
    """Trace the workload's last (cheapest) input."""
    runner = run.Runner(tmp_path, seed)
    jobs = run.jobs_for(workload, seed, tmp_path)
    tally = run.Tally()
    metrics = run.measure_traced(runner, workload, jobs[-1:], tally)
    assert (tally.failed, tally.reasons) == (0, [])
    return metrics


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_each_workload_exercises_its_layers(workload, tmp_path):
    metrics = _traced_layers(workload, 3, tmp_path)
    assert set(metrics) == set(run.PER_LAYER) | {"trace.overhead_s"}
    assert [m for m in EXERCISED[workload] if not metrics[m] > 0] == []
    if workload == "series":
        assert [m for m in SERIES_UNTOUCHED if metrics[m] != 0] == []


def test_layer_counts_repeat_exactly(tmp_path):
    counts = []
    for attempt in range(2):
        metrics = _traced_layers("verify-nakayama", 5, tmp_path / str(attempt))
        counts.append({m: v for m, v in metrics.items()
                       if run.PER_LAYER.get(m, ("self_s",))[0] != "self_s"})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(run.__file__).parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "series",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout.splitlines()[-1] if proc.stdout else "")


def test_reference_work_is_fixed_and_independent_of_the_program():
    assert calib.work() == calib.CHECK
    tree = ast.parse(Path(calib.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith("taured") for name in imported)


class FakeRunner:
    """Children that take fixed times on a fake clock; the machine runs at half
    speed after the third child, so the references take twice as long from then on."""

    def __init__(self):
        self.children = 0
        self.now = 0.0

    def clock(self):
        return self.now

    def remaining(self):
        return 100.0

    def slow(self):
        return 2.0 if self.children > 3 else 1.0

    def took(self, wall, output=""):
        self.now += wall
        return run.ChildResult(wall, wall, 10.0 * (1 + self.children % 2), 0, output)

    def reference(self):
        return self.took(run.REF_S * self.slow(), str(calib.CHECK))

    def cli(self, job):
        self.children += 1
        return self.took({"a": 3.0, "b": 1.0}[job.label] * self.slow())

    def setup(self, job):
        return self.took(0.1 * self.slow()).wall_s


def test_scaling_takes_out_machine_speed(monkeypatch):
    runner = FakeRunner()
    monkeypatch.setattr(run, "perf_counter", runner.clock)
    jobs = [run.Job(label, (), Path(label), lambda code, out: []) for label in "ab"]
    tally = run.Tally()
    metrics = run.measure(runner, jobs, 30.0, tally)
    # the slow-down lands between the references around the fourth child, which
    # is scaled by their mean; the medians per input are the unscaled times
    assert metrics["wall_s"] == pytest.approx(4.0)
    assert metrics["cpu_s"] == pytest.approx(4.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["peak_rss_mb"] == 20.0
    # children run until the next one would end after 30 fake seconds
    assert (tally.attempted, tally.failed) == (runner.children, 0)
    assert 5 <= runner.children <= 8 and runner.now < 30.0 + 7 * 0.4 + 1e-9


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == {m: run.layer_unit(m) for m in [*run.PER_LAYER, "trace.overhead_s"]}
