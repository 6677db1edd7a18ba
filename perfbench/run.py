"""The taured benchmark: time to a checked verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is taken from ``src/``.  Each
input is handed to the `taured` command line in a fresh child process, one at
a time (a single closed loop; nothing else runs beside it).  A pass runs every
input of the workload once.

``--trace 0``: run the inputs round-robin for S seconds (at least one pass),
with the set-up (import, parse, build_algebra) timed several times in
between; report per input the median over its runs, summed over the inputs.
The times are scaled to a fixed machine speed: the reference work in
calib.py runs in its own process before the first child and after every
child, and a child that took w seconds between references that took r1 and
r2 counts as w * REF_S / ((r1 + r2) / 2); a set-up round is scaled by the
reference before it.  On a shared host the speed of a core drifts by a
quarter and more over minutes; the scaling takes that drift out and leaves
the program's own cost.  The unscaled medians are printed for a reader.
``--trace 1``: one plain pass and one pass with the layer wrappers installed
(see layertrace.py), whatever S is; report calls, self time and hit ratios
per layer, and the tracing overhead.

Every verdict is checked against the hand-written table in expected.py.  The
last line of stdout is the JSON result; the lines before it repeat the
metrics for a reader.  See README.md for why the workloads are these.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Callable
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import expected  # noqa: E402
import gen  # noqa: E402

SETUP_REPEATS = 7
# about the wall and CPU seconds of calib.py on a quiet 2-vCPU Xeon VM; the
# times reported are seconds on a machine that runs the reference in REF_S
REF_S = 0.8
DEADLINE_S = 170.0  # every run must end within 180 s


@dataclass(frozen=True)
class Job:
    """One verdict: a taured command on one input, and how to check it."""

    label: str
    argv: tuple[str, ...]
    setup_input: Path
    check: Callable[[int, str], list[str]]  # (exit code, output) -> problems


@dataclass(frozen=True)
class Workload:
    inputs: tuple[str, ...]  # names in gen.ALGEBRAS
    field: str | None = None  # --field override
    series: tuple[tuple[str, int], ...] = ()  # (kind, max) per input: `taured series`


# Why each workload exists, and which layers it stresses: README.md.
WORKLOADS = {
    "verify-rsz": Workload(("rsz-A7", "rsz-D7")),
    "verify-nakayama": Workload(("nakayama-5-5", "nakayama-5-4")),
    "verify-nakayama-fp": Workload(("nakayama-5-5", "nakayama-5-4"), field="fp:101"),
    # the inputs here only feed setup_s; `taured series` builds its own algebras
    "series": Workload(("rsz-A10", "rsz-D9"), series=(("A", 10), ("D", 9))),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (kind, span name); a kind other than hit_ratio names the
# section of the trace summary that holds the value
PER_LAYER = {}
for _span in ("tilting.hasse", "reduction.verify_reduction", "reduction.socle_quotient",
              "reduction.find_proj_injectives", "reps.is_iso", "tilting.find_iso",
              "reps.hom_basis", "reps.tau", "linalg.rref", "tilting.enumerate_stpairs",
              "tilting.build_inventory", "strings.enumerate_strings", "tilting.oracle",
              "algebra.build_algebra", "algebra.quotient_by_elements", "dsl.parse_file",
              "series.series_counts", "series.tau_tilt_count"):
    PER_LAYER[f"{_span}.s"] = ("self_s", _span)
for _span in ("tilting.hasse", "tilting.order_ge", "tilting.fac_contains",
              "reduction.compute_nsets", "tilting.enumerate_stpairs", "tilting.find_iso",
              "reps.hom_basis", "reps.tau", "reps.bar", "reps.inflate", "linalg.rref",
              "linalg.matmul", "linalg.matrix_add", "tilting.build_inventory",
              "strings.string_to_rep", "algebra.vertex_subalgebra_quotient",
              "algebra.build_algebra"):
    PER_LAYER[f"{_span}.calls"] = ("calls", _span)
PER_LAYER["reps.is_iso.true"] = ("outcomes", "reps.is_iso.true")
PER_LAYER["reps.is_iso.false"] = ("outcomes", "reps.is_iso.false")
PER_LAYER["tilting.fac_contains.hit_ratio"] = ("hit_ratio", "tilting.fac_contains")
PER_LAYER["tilting.hom.hit_ratio"] = ("hit_ratio", "tilting.hom")


def layer_unit(metric: str) -> str:
    kind = PER_LAYER[metric][0] if metric in PER_LAYER else "self_s"
    return {"self_s": "s", "calls": "count", "outcomes": "count", "hit_ratio": "ratio"}[kind]


def jobs_for(name: str, seed: int, directory: Path) -> list[Job]:
    """Write the workload's inputs (from the seed) and return its jobs in order."""
    wl = WORKLOADS[name]
    paths = gen.write_inputs(wl.inputs, None if wl.series else seed, directory)
    prefix = ("--field", wl.field) if wl.field else ()
    jobs = []
    if wl.series:
        for (kind, n_max), path in zip(wl.series, paths):
            jobs.append(Job(
                f"series-{kind}{n_max}",
                prefix + ("series", "--kind", kind, "--max", str(n_max), "--closed-form"),
                path,
                lambda code, out, kind=kind, n_max=n_max:
                    expected.series_problems(kind, n_max, code, out)))
    else:
        for input_name, path in zip(wl.inputs, paths):
            jobs.append(Job(
                input_name, prefix + ("verify", str(path)), path,
                lambda code, out, input_name=input_name:
                    expected.verify_problems(input_name, code, out)))
    return jobs


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    output: str


class Runner:
    """Starts children one at a time, reaps each, and keeps to the deadline."""

    def __init__(self, directory: Path, hash_seed: int):
        self.directory = directory
        self.start = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
        self.env.pop("TAURED_FIELD", None)

    def remaining(self) -> float:
        return DEADLINE_S - (perf_counter() - self.start)

    def run(self, argv, label: str) -> ChildResult:
        out_path = self.directory / f"{label}.out"
        done = threading.Event()
        with open(out_path, "wb") as out:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)

            def kill():
                if not done.is_set():
                    os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(self.remaining(), 1.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                done.set()
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                           proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"))

    def cli(self, job: Job) -> ChildResult:
        return self.run(["-m", "taured.cli", *job.argv], job.label)

    def reference(self) -> ChildResult:
        res = self.run([str(HERE / "calib.py")], "reference")
        if res.code != 0 or res.output.split() != [str(calib.CHECK)]:
            raise RuntimeError(f"reference work failed:\n{res.output}")
        return res

    def setup(self, job: Job) -> float:
        res = self.run([str(HERE / "child.py"), "setup", str(job.setup_input)],
                       f"{job.label}.setup")
        if res.code != 0:
            raise RuntimeError(f"set-up probe failed on {job.label}:\n{res.output}")
        return json.loads(res.output.splitlines()[-1])["setup_s"]

    def traced(self, job: Job) -> tuple[ChildResult, dict]:
        summary = self.directory / f"{job.label}.summary.json"
        spans = self.directory / f"{job.label}.spans.tsv"
        res = self.run([str(HERE / "child.py"), "trace", str(summary), str(spans),
                        str(job.setup_input), "--", *job.argv], f"{job.label}.traced")
        data = json.loads(summary.read_text()) if res.code == 0 and summary.exists() else {}
        return res, data


class Tally:
    """Verdicts attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 8:
                self.reasons.append(f"{label}: {'; '.join(problems)[:400]}")


def run_pass(runner: Runner, jobs: list[Job], tally: Tally) -> list[ChildResult]:
    results = []
    for job in jobs:
        res = runner.cli(job)
        tally.add(job.label, job.check(res.code, res.output))
        results.append(res)
    return results


def measure(runner: Runner, jobs: list[Job], seconds: float, tally: Tally) -> dict:
    """Run the jobs round-robin until `seconds` are up; medians per input, summed."""
    walls = {job.label: [] for job in jobs}  # scaled, per input
    cpus = {job.label: [] for job in jobs}
    raw_walls = {job.label: [] for job in jobs}
    raw_cpus = {job.label: [] for job in jobs}
    setups, raw_setups, rss = [], [], []
    start = perf_counter()
    refs = [runner.reference()]
    for n in itertools.count(1):
        job = jobs[(n - 1) % len(jobs)]
        res = runner.cli(job)
        tally.add(job.label, job.check(res.code, res.output))
        rss.append(res.rss_mb)
        # scale by the references run just before and just after this child
        refs.append(runner.reference())
        walls[job.label].append(res.wall_s * REF_S * 2 / (refs[-2].wall_s + refs[-1].wall_s))
        cpus[job.label].append(res.cpu_s * REF_S * 2 / (refs[-2].cpu_s + refs[-1].cpu_s))
        raw_walls[job.label].append(res.wall_s)
        raw_cpus[job.label].append(res.cpu_s)
        # after the first pass, stop before a child that would end after
        # `seconds` (or near the deadline), judged by its last run
        elapsed = perf_counter() - start
        upcoming = jobs[n % len(jobs)].label
        step = (raw_walls[upcoming] or [res.wall_s])[-1] + refs[-1].wall_s
        last = n >= len(jobs) and (elapsed + step > seconds or step > runner.remaining())
        # spread the set-up repeats over the run, as the children are, and
        # scale each by the reference run just before it
        due = SETUP_REPEATS if last else int(SETUP_REPEATS * elapsed / seconds)
        while len(setups) < due:
            raw_setups.append(sum(runner.setup(job) for job in jobs))
            setups.append(raw_setups[-1] * REF_S / refs[-1].wall_s)
        if last:
            break
    ref_wall = statistics.median(r.wall_s for r in refs)
    print(f"children {n}; scaled wall_s per input "
          + "; ".join(f"{k} {[round(w, 3) for w in v]}" for k, v in walls.items())
          + f"; set-up repeats {SETUP_REPEATS}")
    print(f"unscaled: raw_wall_s {sum(map(statistics.median, raw_walls.values()))} s, "
          f"raw_cpu_s {sum(map(statistics.median, raw_cpus.values()))} s, "
          f"raw_setup_s {statistics.median(raw_setups)} s; "
          f"reference {ref_wall} s wall (REF_S {REF_S} s)")
    return {"wall_s": sum(map(statistics.median, walls.values())),
            "cpu_s": sum(map(statistics.median, cpus.values())),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rss)}


def measure_traced(runner: Runner, name: str, jobs: list[Job], tally: Tally) -> dict:
    plain = sum(r.wall_s for r in run_pass(runner, jobs, tally))
    traced_wall = 0.0
    totals = {"calls": {}, "self_s": {}, "outcomes": {}, "distinct_keys": {}}
    for job in jobs:
        res, data = runner.traced(job)
        traced_wall += res.wall_s
        problems = job.check(res.code, res.output)
        if not data:
            problems.append("no trace summary")
        elif not WORKLOADS[name].series:
            problems += expected.hasse_problems(job.label, data["hasse_sizes"])
        tally.add(f"{job.label} (traced)", problems)
        for section, total in totals.items():
            for key, value in data.get(section, {}).items():
                total[key] = total.get(key, 0) + value
    metrics = {}
    for metric, (kind, span) in PER_LAYER.items():
        if kind == "hit_ratio":
            n = totals["calls"].get(span, 0)
            metrics[metric] = 1.0 - totals["distinct_keys"].get(span, 0) / n if n else 0.0
        else:
            metrics[metric] = totals[kind].get(span, 0.0 if kind == "self_s" else 0)
    metrics["trace.overhead_s"] = traced_wall - plain
    print(f"untraced pass {plain:.3f} s; traced pass {traced_wall:.3f} s; "
          f"spans in {runner.directory}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "taured" / "cli.py").is_file():
        print(f"no taured source under {SRC}; run from the root of a source tree",
              file=sys.stderr)
        return 2

    directory = WORK / args.workload
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    runner = Runner(directory, args.seed % 2**32)
    jobs = jobs_for(args.workload, args.seed, directory)
    tally = Tally()
    if args.trace:
        values = measure_traced(runner, args.workload, jobs, tally)
        units = {m: layer_unit(m) for m in values}
    else:
        values = measure(runner, jobs, args.seconds, tally)
        units = END_TO_END_UNITS

    for reason in tally.reasons:
        print(f"FAILED {reason}")
    fail_share = tally.failed / tally.attempted
    print(f"workload {args.workload} seed {args.seed}: "
          f"fail_share {fail_share} share ({tally.failed}/{tally.attempted} verdicts)")
    for metric, value in values.items():
        print(f"  {metric} {value} {units[metric]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
