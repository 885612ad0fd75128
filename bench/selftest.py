"""Self-test of the benchmark's own checks.

    python3 bench/selftest.py

1. A few cheap jobs of every workload pass their checks.
2. The same jobs, each with one planted wrong expected answer, are all
   counted as failures, and so is a pass whose outputs differ from the
   reference digests.
3. Two fresh processes with different string-hash seeds produce the same
   output digests, so the digest check rests on byte-deterministic output.

Exits 0 when every step holds.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys

import run
from inputs import Surface
from workloads import WORKLOADS, build_jobs

SEED = 7


def _cheap_jobs() -> list:
    """The warm-up jobs of every workload: one or a few of each kind."""
    jobs = []
    for workload in WORKLOADS:
        built = build_jobs(workload, SEED, run.WORK / f"selftest-{workload}")
        jobs += [j for j in built if j.warm]
    return jobs


def _plant(job) -> None:
    """Make the job's expected answer wrong in a way its check must see."""
    e = job.expect
    name = job.check.__name__
    if name in ("check_homology", "check_cup_form", "check_reduce_rank1",
                "check_report"):
        e["betti"] = [e["betti"][0], e["betti"][1] + 1, e["betti"][2]]
    elif name == "check_property_a":
        e["circles"] += 1
    elif name == "check_search":
        # at six vertices only N1 exists, so swapping N1 with M1 (or any
        # other surface with N1) flips the expected result
        e["surface"] = Surface(e["surface"].name == "N1", 1)
    elif name == "check_canonical":
        e["degrees"] = e["degrees"][1:] + [e["degrees"][-1] + 1]
    elif name == "check_triple":
        job.check = lambda job, code, out: ["planted"] if out["count"] == 0 else []
    else:
        raise AssertionError(f"no planting rule for {name}")


def _passes(runner, reference=None):
    passes = run.Passes()
    passes.reference = reference
    passes.run(runner, count=1)
    return passes


def main() -> int:
    if sys.argv[1:] == ["--digest"]:
        pkg = run._import_package()
        passes = _passes(run.Runner(pkg, _cheap_jobs()))
        print(run._digest("".join(passes.reference)))
        return 0

    pkg = run._import_package()
    jobs = _cheap_jobs()
    clean = _passes(run.Runner(pkg, jobs))
    print(f"clean: {clean.failed} of {clean.attempted} failed")
    for example in clean.examples:
        print(f"  {example}")

    planted = copy.deepcopy(jobs)
    for job in planted:
        _plant(job)
    caught = _passes(run.Runner(pkg, planted))
    print(f"planted: {caught.failed} of {caught.attempted} counted as failed")

    wrong = ["0" * 64] * len(jobs)
    drifted = _passes(run.Runner(pkg, jobs), reference=wrong)
    print(f"digest drift: {drifted.failed} of {drifted.attempted} counted as failed")

    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, __file__, "--digest"], env=env,
                             capture_output=True, text=True, timeout=600,
                             check=True)
        digests.add(out.stdout.strip())
    print(f"digests across hash seeds: {sorted(d[:16] for d in digests)}")

    ok = (clean.failed == 0 and caught.failed == caught.attempted
          and drifted.failed == drifted.attempted and len(digests) == 1)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
