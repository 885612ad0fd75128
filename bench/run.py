"""simpsurf benchmark: one closed-loop client running a fixed job list.

    python3 bench/run.py --workload cohomology --seed 1 --seconds 16 --trace 0

Workloads (see workloads.py for the job tables):

  cohomology  homology, cup-form and property-a on surfaces and wedges up
              to 600 triangles: F2 elimination, homology_summary, cup
              products and H^2 coordinates
  reduce      report --preserve on wedges of a preserved surface (and a
              fifth of reduce --target-rank 1): complex rebuilds, the
              reduction phases and their audits, JSON in and out
  search      desk-scale exhaustive searches and canonical_form calls:
              thousands of tiny complexes, classify, the relabeling loop

One client sends each job after the previous one finished, in one thread.
Set-up (import, seeded input generation, a warm-up pass) is repeated
seven times and its median reported.  The job list then runs as whole
passes for about --seconds, at least twice.  Every job's answer is
checked against the construction of its input, and every job's output
digest must be the same in every pass.

Times are reported at reference speed.  The speed of a small shared
machine drifts by half or more within seconds, whatever runs on it, so a
fixed piece of pure-Python work (reference_work, independent of
simpsurf) is timed a few times between every two jobs and around every
set-up, and each measured time is scaled by REFERENCE_S over the median
of the reference timings made within REFERENCE_WINDOW_S of it.  A time
so reported is what the job would take on a machine where
reference_work takes REFERENCE_S.  The raw times are printed beside
them.

With --trace 0 the end-to-end metrics are reported.  With --trace 1 the
passes run untraced for half of --seconds (at least once), then as many
times again with spans installed around each module's entry points, and
the per-layer metrics are reported, followed by four fixed north-star
calls timed once each.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
MIN_PASSES = 2
REFERENCE_S = 0.3e-3
REFERENCE_REPEATS = 5
REFERENCE_WINDOW_S = 0.5

sys.path.insert(0, str(BENCH))

from inputs import Surface, assemble  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402


def _import_package():
    """A fresh import of simpsurf from this checkout's source tree."""
    for name in [n for n in sys.modules if n.split(".")[0] == "simpsurf"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("simpsurf")
    importlib.import_module("simpsurf.cli")
    return pkg


_REFERENCE_ROWS = tuple(random.Random("reference").getrandbits(256)
                        for _ in range(48))


def reference_work() -> int:
    """A fixed piece of pure-Python work of the kinds simpsurf does:
    XOR elimination on int bitsets, and tuple-keyed dicts and a sort."""
    pivots: dict = {}
    for row in _REFERENCE_ROWS:
        while row:
            low = (row & -row).bit_length() - 1
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    edges: dict = {}
    for i in range(200):
        t = (i % 37, i % 41 + 37, i % 43 + 78)
        for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            edges.setdefault(e, []).append(i)
    return len(pivots) + len(sorted(edges))


class Speedometer:
    """Timings of reference_work through a stretch of a run."""

    def __init__(self) -> None:
        self.ends: list = []      # when each timing ended, in order
        self.seconds: list = []

    def sample(self) -> None:
        clock = time.perf_counter
        for _ in range(REFERENCE_REPEATS):
            start = clock()
            reference_work()
            end = clock()
            self.ends.append(end)
            self.seconds.append(end - start)

    def scaled(self, start: float, end: float) -> float:
        """end - start at reference speed, the speed read off the
        reference timings within REFERENCE_WINDOW_S of that interval."""
        lo = bisect.bisect_left(self.ends, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + REFERENCE_WINDOW_S)
        return (end - start) * REFERENCE_S / statistics.median(
            self.seconds[lo:hi])


def timed(call):
    """(result, raw seconds, seconds at reference speed) of call()."""
    meter = Speedometer()
    meter.sample()
    start = time.perf_counter()
    result = call()
    end = time.perf_counter()
    meter.sample()
    return result, end - start, meter.scaled(start, end)


class Runner:
    """Runs jobs against one imported simpsurf and checks their answers."""

    def __init__(self, pkg, jobs: list) -> None:
        self.pkg = pkg
        self.jobs = jobs
        self.bytes_out = 0

    def execute(self, job) -> tuple[int, str, object]:
        """Run one job: (exit code, output text, key or captured stderr)."""
        if job.argv is None:
            key = self.pkg.canonical_form(
                self.pkg.Complex2.from_triangles(job.complex))
            return 0, repr(key), key
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.pkg.cli.main(list(job.argv))
            except SystemExit as exc:  # argparse rejected the call
                code = exc.code
        self.bytes_out += len(out.getvalue())
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def verdict(job, code: int, text: str, detail) -> list:
        """The problems found in one job's answer; empty when it is right."""
        if job.argv is None:
            return job.check(job, code, detail)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return [f"exit {code}, output is not JSON: {detail.strip()[-200:]}"]
        return job.check(job, code, payload)

    def run_pass(self, jobs: list, on_job=None) -> tuple[list, list, list, list]:
        """Run jobs in order; returns (seconds at reference speed, raw
        seconds, digests, problems) per job.

        Only running the job is timed; checking its answer is not.  Each
        job starts with the previous jobs' garbage collected, as a fresh
        command would, so no job pays for another's.
        """
        spans, digests, problems = [], [], []
        clock = time.perf_counter
        meter = Speedometer()
        meter.sample()
        for i, job in enumerate(jobs):
            if on_job is not None:
                on_job(i + 1)
            gc.collect()
            start = clock()
            try:
                result, error = self.execute(job), None
            except Exception:
                error = traceback.format_exc(limit=3)
            spans.append((start, clock()))
            meter.sample()
            if error is not None:
                digests.append("")
                problems.append([error])
                continue
            code, text, detail = result
            digests.append(_digest(text))
            try:
                problems.append(self.verdict(job, code, text, detail))
            except Exception:
                problems.append([traceback.format_exc(limit=3)])
        # relabelings of one complex must get one key, other complexes others
        keys: dict = {}
        for job, digest in zip(jobs, digests):
            if job.group is not None and digest:
                keys.setdefault(job.group, set()).add(digest)
        owner: dict = {}
        for group, found in keys.items():
            for digest in found:
                owner.setdefault(digest, set()).add(group)
        for job, digest, found in zip(jobs, digests, problems):
            if job.group is None or not digest:
                continue
            if len(keys[job.group]) > 1:
                found.append("relabelings got different canonical keys")
            if len(owner[digest]) > 1:
                found.append("non-isomorphic complexes share a canonical key")
        times = [meter.scaled(start, end) for start, end in spans]
        raw_times = [end - start for start, end in spans]
        return times, raw_times, digests, problems


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def setup(workload: str, seed: int) -> tuple[Runner, float, float]:
    """Import, generate inputs and warm up; returns (runner, raw seconds,
    seconds at reference speed).  The warm-up pass's own reference
    timings (a few milliseconds) count as set-up."""
    def once() -> Runner:
        pkg = _import_package()
        jobs = build_jobs(workload, seed, WORK / f"{workload}-{seed}")
        runner = Runner(pkg, jobs)
        runner.run_pass([j for j in jobs if j.warm])
        return runner
    return timed(once)


class Passes:
    """Whole passes over the job list, with per-job and per-pass results."""

    def __init__(self) -> None:
        self.wall: list = []          # per pass, at reference speed
        self.raw_wall: list = []
        self.job_times: list = []     # per job, at reference speed
        self.raw_job_times: list = []
        self.reference = None     # the digests every pass must reproduce
        self.failed = 0
        self.attempted = 0
        self.examples: list = []

    def run(self, runner: Runner, count: int = 0, seconds: float = 0.0,
            min_passes: int = MIN_PASSES, on_job=None) -> None:
        """Run `count` passes, or at least `min_passes` passes and more
        while one more pass is expected to end within `seconds`."""
        began = time.perf_counter()
        while True:
            times, raw_times, digests, problems = runner.run_pass(runner.jobs,
                                                                  on_job)
            # the time to finish the job list; the reference timings
            # between jobs are no part of it
            self.wall.append(sum(times))
            self.raw_wall.append(sum(raw_times))
            self.job_times += times
            self.raw_job_times += raw_times
            if self.reference is None:
                self.reference = digests
            for job, digest, want, found in zip(runner.jobs, digests,
                                                self.reference, problems):
                if digest != want:
                    found.append("output differs from the first pass")
                self.attempted += 1
                if found:
                    self.failed += 1
                    if len(self.examples) < 5:
                        self.examples.append(f"{job.name}: {found[0]}")
            done = len(self.wall)
            elapsed = time.perf_counter() - began
            if count and done >= count:
                return
            if (not count and done >= min_passes
                    and elapsed * (done + 1) / done > seconds):
                return


def _quantile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_times: list, walls: list, job_times: list) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_ms": (1e3 * _quantile(job_times, 50), "ms"),
        "job_p90_ms": (1e3 * _quantile(job_times, 90), "ms"),
    }


def anchors(pkg) -> tuple[dict, list]:
    """The fixed north-star calls, each timed once; (metrics, problems)."""
    clock = time.perf_counter
    problems = []
    m8 = pkg.catalog(pkg.parse_surface_id("M8"))
    start = clock()
    result = pkg.has_property_a(m8)
    property_a = clock() - start
    if not result.holds:
        problems.append("anchor: property (A) fails on M8")
    start = clock()
    summary = pkg.homology_summary(m8)
    summary_s = clock() - start
    if summary.betti != (0, 16, 1):
        problems.append(f"anchor: M8 has betti {summary.betti}")
    # a fixed 446-triangle wedge: M2 (300) with a torus (102), a projective
    # plane (40), a sphere bubble and two circles; the seed never changes
    built = assemble(Surface(True, 2), 300, random.Random("wedge446"),
                     others=((Surface(True, 1), 102), (Surface(False, 1), 40)),
                     bubbles=1, circles=2)
    k = pkg.Complex2.from_triangles(built.triangles, extra_edges=built.loose_edges)
    spec = pkg.PreservationSpec.from_triangle_lists([built.preserve])
    start = clock()
    trace = pkg.simplify_pipeline(k, spec)
    pipeline = clock() - start
    kills, free = len(trace.killed_triangles), trace.free_rank
    if (k.n_triangles, kills, free) != (446, 3, built.betti[1] - 4):
        problems.append(f"anchor: wedge of {k.n_triangles} triangles gave "
                        f"{kills} kills and free rank {free}")
    start = clock()
    found = pkg.min_triangles_for_surface(8, pkg.parse_surface_id("N2"))
    search = clock() - start
    if found.min_triangles != 16:
        problems.append(f"anchor: N2 search found {found.min_triangles}")
    return {"anchor.property_a_M8_s": (property_a, "s"),
            "anchor.summary_M8_s": (summary_s, "s"),
            "anchor.pipeline_wedge446_s": (pipeline, "s"),
            "anchor.search_N2_8_s": (search, "s")}, problems


def traced(runner: Runner, untraced: Passes, workdir: Path) -> tuple[dict, Passes]:
    """Traced passes matching the untraced ones; per-layer metrics."""
    from tracing import Tracer, layer_metrics
    tracer = Tracer()
    passes = Passes()
    passes.reference = untraced.reference
    per_pass: list = []

    def on_job(i: int) -> None:
        tracer.job = i
    tracer.install()
    try:
        for _ in untraced.wall:
            mark, bytes_mark = len(tracer.spans), runner.bytes_out
            passes.run(runner, count=1, on_job=on_job)
            per_pass.append(layer_metrics(tracer.spans[mark:],
                                          runner.bytes_out - bytes_mark))
    finally:
        tracer.uninstall()
    tracer.write(workdir / "spans.jsonl")
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    base = statistics.median(untraced.wall)
    metrics["trace.overhead_frac"] = (
        (statistics.median(passes.wall) - base) / base, "ratio")
    return metrics, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "simpsurf" / "__init__.py").is_file():
        print(f"error: no simpsurf source under {SRC}", file=sys.stderr)
        return 2

    setup_times, raw_setup_times = [], []
    for _ in range(SETUP_REPEATS):
        runner, raw, seconds = setup(args.workload, args.seed)
        setup_times.append(seconds)
        raw_setup_times.append(raw)
    # the job list, its expected answers and the imported package stay for
    # the whole run; keep them out of the collections made during jobs
    gc.collect()
    gc.freeze()
    workdir = WORK / f"{args.workload}-{args.seed}"
    for job in runner.jobs:
        for name, alpha, content in job.inputs:
            print(f"input {name} alpha={list(alpha)} sha256={content} "
                  f"job={job.name!r}")

    passes = Passes()
    if args.trace:
        # half the time untraced, half traced, and the anchors after that
        passes.run(runner, seconds=args.seconds / 2, min_passes=1)
    else:
        passes.run(runner, seconds=args.seconds)
    results = [passes]
    if args.trace:
        metrics, traced_passes = traced(runner, passes, workdir)
        results.append(traced_passes)
        anchor_metrics, anchor_problems = anchors(runner.pkg)
        metrics.update(anchor_metrics)
    else:
        metrics = end_to_end(setup_times, passes.wall, passes.job_times)
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        raw = end_to_end(raw_setup_times, passes.raw_wall,
                         passes.raw_job_times)
        anchor_metrics, anchor_problems = {}, []

    attempted = sum(p.attempted for p in results) + len(anchor_metrics)
    failed = sum(p.failed for p in results) + len(anchor_problems)
    run_digest = _digest("".join(passes.reference))
    print(f"workload {args.workload} seed {args.seed}: {len(runner.jobs)} jobs "
          f"a pass, {len(passes.wall)} passes, digest {run_digest[:16]}")
    for example in sum((p.examples for p in results), anchor_problems):
        print(f"FAILED {example}")
    print(f"fail_frac {failed / attempted:.6f} ({failed} of {attempted} jobs)")
    samples = {"job_p50_ms": len(passes.job_times),
               "job_p90_ms": len(passes.job_times),
               "wall_s": len(passes.wall), "setup_s": len(setup_times)}
    for name, (value, unit) in metrics.items():
        n = f" (n={samples[name]})" if name in samples else ""
        if not args.trace and name in raw:
            n += f" raw {raw[name][0]:.6g} {unit}"
        print(f"{name} {value:.6g} {unit}{n}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
