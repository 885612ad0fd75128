"""Job lists for the three workloads, with the answer each job must give.

A job is one user action: a `simpsurf` command run in-process through
`simpsurf.cli.main`, or one library call.  Every workload is a fixed
table of job templates, run in one fixed order; the seed picks the
details inside each template (which triangles are subdivided and glued,
where summands attach, the vertex labels).  Keeping the table and its
order fixed keeps the work and the memory high-water mark of a run nearly
the same from seed to seed, so runs on different seeds can be compared.

Each job's expected answer comes from how its input was built
(inputs.py), never from simpsurf.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from typing import Callable, Optional

from inputs import (RP2_6, Built, Surface, assemble, build_surface,
                    circulant_torus)

WORKLOADS = ("cohomology", "reduce", "search")


@dataclass
class Job:
    """One user action and the check its answer must pass."""

    name: str
    argv: Optional[list]          # a CLI call, or None for a library call
    check: Callable               # (job, exit_code, payload) -> problems
    expect: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)   # (file, alpha, hash)
    complex: Optional[list] = None                # library-call input
    group: Optional[str] = None   # jobs whose keys must agree
    warm: bool = False            # runs in the set-up warm-up pass


# ------------------------------------------------------------ known values

def minimal_triangles(s: Surface) -> int:
    """Least triangle count of a triangulation of s (Jungerman-Ringel,
    Ringel), with the +2 correction on the three exceptional surfaces."""
    chi = s.chi
    d = 49 - 24 * chi
    r = isqrt(d)
    floor = (7 + r + 1) // 2 if r * r == d else (7 + r) // 2 + 1
    extra = 2 if s.name in ("M2", "N2", "N3") else 0
    return 2 * floor - 2 * chi + extra


# least vertex count at which each searched surface appears, and its
# least triangle count there (6-vertex RP2, 7-vertex torus, 8-vertex
# Klein bottle; N3 needs 9 vertices)
SEARCH_MINIMA = {"N1": (6, 10), "M1": (7, 14), "N2": (8, 16), "N3": (9, 20)}


def _surface(name: str) -> Surface:
    return Surface(name[0] == "M", int(name[1:]))


# ------------------------------------------------------------ checks

def _closed_surface_chi(triangles: list) -> Optional[int]:
    """chi of a complex whose every edge lies in two triangles, else None."""
    degree: dict = {}
    for t in triangles:
        a, b, c = sorted(t)
        for e in ((a, b), (a, c), (b, c)):
            degree[e] = degree.get(e, 0) + 1
    if not triangles or any(d != 2 for d in degree.values()):
        return None
    verts = {v for t in triangles for v in t}
    return len(verts) - len(degree) + len(triangles)


def _want(problems: list, what: str, got, expected) -> None:
    if got != expected:
        problems.append(f"{what}: got {got!r}, expected {expected!r}")


def check_homology(job: Job, code: int, out: dict) -> list:
    e, p = job.expect, []
    _want(p, "exit", code, 0)
    _want(p, "alpha", out.get("alpha"), e["alpha"])
    _want(p, "chi", out.get("chi"), e["chi"])
    _want(p, "betti", out.get("betti"), e["betti"])
    return p


def check_property_a(job: Job, code: int, out: dict) -> list:
    e, p = job.expect, []
    _want(p, "exit", code, 0)
    _want(p, "holds", out.get("holds"), e["circles"] == 0)
    _want(p, "radical_dimension", out.get("radical_dimension"), e["circles"])
    witness = out.get("witness_edges")
    if e["circles"] == 0:
        _want(p, "witness", witness, None)
    elif not witness:
        p.append("no witness for a failing property")
    else:
        # a witness must be a 1-cocycle: even on every triangle's boundary
        support = {tuple(sorted(x)) for x in witness}
        for t in e["triangles"]:
            a, b, c = sorted(t)
            if sum(x in support for x in ((a, b), (a, c), (b, c))) % 2:
                p.append(f"witness is not a cocycle on {t}")
                break
    return p


def check_cup_form(job: Job, code: int, out: dict) -> list:
    e, p = job.expect, []
    _want(p, "exit", code, 0)
    b1, b2 = e["betti"][1], e["betti"][2]
    _want(p, "b1", out.get("b1"), b1)
    _want(p, "b2", out.get("b2"), b2)
    entries = out.get("entries") or []
    if len(entries) != b1 or any(len(row) != b1 for row in entries):
        return p + ["entries are not b1 x b1"]
    # the pairing is symmetric on classes; a^2 = w1 a, so it is
    # alternating exactly when every summand is orientable
    if any(entries[i][j] != entries[j][i] for i in range(b1) for j in range(i)):
        p.append("cup form is not symmetric")
    diagonal_zero = all(not any(entries[i][i]) for i in range(b1))
    _want(p, "alternating", diagonal_zero, e["orientable"])
    if b2 <= 1:
        _want(p, "rank", out.get("rank"), b1 - e["circles"])
        _want(p, "nondegenerate", out.get("nondegenerate"), e["circles"] == 0)
    return p


def _check_pipeline(p: list, e: dict, pipe: dict, result_tris: list) -> int:
    """Shared identities of a reduction; returns the result's chi."""
    kills = len(pipe.get("killed_triangles", []))
    _want(p, "input alpha", pipe["input"]["alpha"], e["alpha"])
    _want(p, "input betti", pipe["input"]["betti"], e["betti"])
    _want(p, "kills", kills, e["betti"][2] - 1)
    free_rank = pipe.get("free_rank")
    chi_out = pipe["result"]["chi"]
    _want(p, "chi identity", chi_out, e["chi"] - kills + (free_rank or 0))
    a0, a1, a2 = pipe["result"]["alpha"]
    _want(p, "result chi", a0 - a1 + a2, chi_out)
    _want(p, "result triangles", len(result_tris), a2)
    _want(p, "b1 identity", pipe["result"]["betti"][1],
          e["betti"][1] - (free_rank or 0))
    return chi_out


def check_report(job: Job, code: int, out: dict) -> list:
    e, p = job.expect, []
    base = e["base"]
    pipe = out["pipeline"]
    result_tris = out["result_complex"]["triangles"]
    _check_pipeline(p, e, pipe, result_tris)
    _want(p, "free_rank", pipe["free_rank"], e["betti"][1] - base.b1)
    _want(p, "target", out.get("target"), base.name)
    _want(p, "input_disconnected", pipe["input_disconnected"], not e["connected"])
    if not e["connected"]:
        # the other component reduces to a point, so no surface remains
        _want(p, "exit", code, 4)
        _want(p, "certified", out.get("certified"), False)
        _want(p, "failure", out["classification"]["failure_reason"],
              "disconnected")
        return p
    _want(p, "exit", code, 0)
    _want(p, "certified", out.get("certified"), True)
    surface = out["classification"].get("surface") or {}
    _want(p, "surface", surface.get("name"), base.name)
    _want(p, "result betti", pipe["result"]["betti"], [0, base.b1, 1])
    _want(p, "result is closed with chi", _closed_surface_chi(result_tris),
          base.chi)
    cert = out.get("certificate") or {}
    _want(p, "triangle_complexity", cert.get("triangle_complexity"),
          minimal_triangles(base))
    return p


def check_reduce_rank1(job: Job, code: int, out: dict) -> list:
    e, p = job.expect, []
    _want(p, "exit", code, 0)
    result_tris = out["result_complex"]["triangles"]
    chi_out = _check_pipeline(p, e, out, result_tris)
    b1_out = out["result"]["betti"][1]
    if (b1_out, chi_out) not in {(s.b1, s.chi) for s in e["surfaces"]}:
        p.append(f"result (b1={b1_out}, chi={chi_out}) is no summand")
    _want(p, "result is closed with chi", _closed_surface_chi(result_tris),
          chi_out)
    return p


def check_search(job: Job, code: int, out: dict) -> list:
    e, p = job.expect, []
    _want(p, "exit", code, 0)
    least_n, least_t = SEARCH_MINIMA[e["surface"].name]
    found = e["max_vertices"] >= least_n
    _want(p, "found", out.get("found"), found)
    _want(p, "min_triangles", out.get("min_triangles"), least_t if found else None)
    if found:
        tris = out["witness"]["triangles"]
        _want(p, "witness triangles", len(tris), least_t)
        _want(p, "witness chi", _closed_surface_chi(tris), e["surface"].chi)
    if not 0 <= out.get("target_states", -1) <= out.get("complete_states", -1):
        p.append("target_states outside 0..complete_states")
    return p


def check_triple(job: Job, code: int, out: dict) -> list:
    p: list = []
    _want(p, "exit", code, 0)
    # edge degrees sum to 3 alpha2; one degree-3 edge makes that sum odd
    _want(p, "count", out.get("count"), 0)
    _want(p, "complexes", out.get("complexes"), [])
    return p


def check_canonical(job: Job, code: int, key) -> list:
    """The key must describe a relabeling of the input onto 0..n-1."""
    e, p = job.expect, []
    n, tris, edges = key
    _want(p, "vertices", n, e["alpha"][0])
    _want(p, "edges", len(edges), e["alpha"][1])
    _want(p, "triangles", len(tris), e["alpha"][2])
    degrees = sorted(sum(v in t for t in tris) for v in range(n))
    _want(p, "vertex degrees", degrees, e["degrees"])
    return p


# ------------------------------------------------------------ writing inputs

class _Writer:
    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.count = 0

    def complex(self, built: Built) -> tuple[str, tuple]:
        self.count += 1
        path = self.workdir / f"in{self.count:03d}.json"
        path.write_text(json.dumps(built.document(f"in{self.count:03d}")))
        return str(path), (str(path.name), built.alpha, built.content_hash())

    def spec(self, built: Built) -> str:
        path = self.workdir / f"spec{self.count:03d}.json"
        path.write_text(json.dumps([[list(t) for t in built.preserve]]))
        return str(path)


def _expect(built: Built) -> dict:
    return {"alpha": list(built.alpha), "chi": built.chi,
            "betti": list(built.betti), "circles": built.circles,
            "orientable": all(s.orientable for s in built.surfaces),
            "base": built.base, "surfaces": built.surfaces,
            "connected": built.connected}


# ------------------------------------------------------------ cohomology

# (command, surface, alpha2, circles, sphere bubbles), in tiers of similar cost
# so that the median and 90th-percentile job fall inside a tier, not on
# the edge between two: 21 cheap jobs, 13 around the median, 13 more,
# 7 around the 90th percentile and 2 of the largest.
_COHOMOLOGY = (
    ("homology", "N1", 20, 0, 0), ("homology", "N2", 60, 1, 0),
    ("homology", "N9", 200, 0, 2), ("homology", "N6", 260, 0, 0),
    ("homology", "M4", 320, 0, 0), ("homology", "N10", 380, 2, 0),
    ("property-a", "N1", 16, 0, 0), ("property-a", "N2", 30, 1, 0),
    ("property-a", "N3", 40, 0, 0), ("property-a", "N5", 50, 0, 1), ("property-a", "N2", 60, 0, 0),
    ("property-a", "M3", 80, 0, 0), ("property-a", "N1", 80, 2, 0),
    ("property-a", "N3", 50, 1, 1), ("property-a", "N4", 60, 0, 0),
    ("cup-form", "N1", 30, 0, 0), ("cup-form", "N2", 60, 0, 1),
    ("cup-form", "N4", 70, 0, 0),
    ("cup-form", "M1", 90, 1, 0), ("cup-form", "N6", 50, 0, 0),
    ("cup-form", "N1", 60, 0, 2),

    ("homology", "N2", 520, 0, 0), ("homology", "M2", 560, 1, 0),
    ("homology", "N6", 600, 0, 0),
    ("property-a", "M2", 150, 0, 0), ("property-a", "N4", 150, 1, 0),
    ("property-a", "M2", 150, 0, 0), ("property-a", "N4", 150, 0, 0),
    ("cup-form", "M2", 150, 0, 0), ("cup-form", "N4", 150, 0, 1),
    ("cup-form", "M2", 150, 0, 0),
    ("property-a", "N2", 190, 0, 0), ("property-a", "M1", 190, 0, 0),
    ("property-a", "N2", 190, 0, 0),

    ("property-a", "M3", 150, 0, 0), ("property-a", "N8", 130, 1, 0),
    ("property-a", "M5", 110, 0, 0), ("property-a", "M6", 90, 0, 0),
    ("property-a", "M1", 240, 0, 1), ("property-a", "N1", 260, 0, 0),
    ("property-a", "N3", 220, 0, 0), ("property-a", "N6", 160, 1, 0),
    ("cup-form", "M3", 140, 0, 1), ("cup-form", "N8", 110, 0, 0),
    ("cup-form", "M1", 230, 0, 0), ("cup-form", "N3", 200, 1, 0),
    ("cup-form", "M5", 90, 0, 0),

    ("property-a", "N2", 380, 0, 0), ("property-a", "M1", 380, 0, 0),
    ("property-a", "N1", 400, 0, 0), ("property-a", "N1", 400, 0, 0),
    ("property-a", "N2", 360, 1, 0), ("property-a", "M1", 380, 0, 0),
    ("cup-form", "M1", 380, 0, 0),

    ("property-a", "N2", 540, 0, 0), ("cup-form", "N2", 560, 0, 0),
)


def _cohomology(rng: random.Random, w: _Writer) -> list:
    jobs = []
    for command, name, alpha2, circles, bubbles in _COHOMOLOGY:
        s = _surface(name)
        built = assemble(s, alpha2, rng, circles=circles, bubbles=bubbles)
        path, record = w.complex(built)
        expect = _expect(built)
        if command == "property-a":
            expect["triangles"] = built.triangles
        check = {"homology": check_homology, "cup-form": check_cup_form,
                 "property-a": check_property_a}[command]
        jobs.append(Job(f"{command} {s.name} a2={alpha2}",
                        [command, path, "--json"], check, expect, [record]))
    for command in ("homology", "cup-form", "property-a"):
        min(filter(lambda j: j.argv[0] == command, jobs),
            key=lambda j: j.inputs[0][1][2]).warm = True
    return jobs


# ------------------------------------------------------------ reduce

# (base surface, its alpha2, other surfaces as (surface, alpha2), bubbles,
#  circles, kind), in cost tiers as for cohomology: 20, 10, 12, 6 and 2 jobs.
# kind is "report" (report --preserve), "apart" (the same on a
# disconnected input) or "rank1" (reduce --target-rank 1).  A rank1 input
# wedges two surfaces of one size, so the work does not depend on which
# of them the first H2 coordinate keeps.  The tiers holding the median and
# the 90th-percentile job wedge on bubbles and circles only: how a
# punctured surface collapses depends on its labels, how a bubble or a
# circle goes away does not, so those jobs cost the same on every seed.
_REDUCE = (
    ("M1", 18, (), 0, 0, "report"), ("N1", 10, (), 1, 1, "report"),
    ("M1", 20, (("N1", 10),), 0, 1, "report"), ("N3", 24, (), 2, 0, "report"),
    ("M2", 30, (("M1", 18),), 1, 0, "report"), ("N1", 30, (), 0, 3, "report"),
    ("M1", 30, (("N1", 10),), 2, 2, "report"), ("M3", 44, (), 0, 2, "report"),
    ("N3", 24, (("M1", 18),), 0, 0, "report"), ("N2", 36, (), 3, 3, "report"),
    ("N1", 20, (("N2", 18), ("N1", 10)), 1, 1, "report"),
    ("N4", 40, (), 2, 1, "report"), ("M1", 40, (("N1", 10),), 0, 2, "report"),
    ("M3", 42, (), 1, 0, "report"), ("N3", 40, (), 1, 2, "report"),
    ("N1", 40, (), 1, 4, "report"), ("N2", 30, (("N1", 10),), 0, 0, "apart"),
    ("N2", 20, (("M1", 20),), 0, 1, "rank1"),
    ("N1", 20, (("N1", 20),), 0, 2, "rank1"),
    ("N3", 24, (("N3", 24),), 0, 0, "rank1"),

    ("N2", 84, (), 2, 2, "report"), ("M1", 84, (), 2, 2, "report"),
    ("N2", 84, (), 2, 2, "report"), ("M1", 84, (), 2, 2, "report"),
    ("N2", 84, (), 2, 2, "report"), ("M1", 84, (), 2, 2, "report"),
    ("N3", 84, (), 1, 3, "report"), ("N3", 84, (), 1, 3, "report"),
    ("N2", 40, (("M1", 40),), 0, 1, "rank1"),
    ("N2", 40, (("M1", 40),), 0, 1, "rank1"),

    ("N1", 180, (), 2, 2, "report"), ("M1", 180, (("N2", 18),), 1, 0, "report"),
    ("M2", 190, (), 0, 2, "report"), ("N3", 180, (("N1", 10),), 0, 1, "report"),
    ("N2", 190, (), 2, 2, "report"), ("M3", 190, (), 1, 1, "report"),
    ("N1", 200, (("N1", 10),), 0, 0, "report"), ("N2", 200, (), 0, 2, "report"),
    ("N1", 150, (("N2", 18),), 0, 0, "apart"),
    ("M1", 64, (("N2", 64),), 0, 1, "rank1"),
    ("N1", 64, (("N1", 64),), 0, 0, "rank1"),
    ("N3", 64, (("N3", 64),), 0, 2, "rank1"),

    ("M1", 270, (), 1, 2, "report"), ("N2", 270, (), 1, 2, "report"),
    ("M1", 270, (), 1, 2, "report"), ("N2", 270, (), 1, 2, "report"),
    ("M1", 96, (("N2", 96),), 0, 1, "rank1"),
    ("M1", 96, (("N2", 96),), 0, 1, "rank1"),

    ("M1", 420, (("N1", 12),), 1, 2, "report"),
    ("N3", 380, (("N2", 18),), 0, 1, "report"),
)


def _reduce(rng: random.Random, w: _Writer) -> list:
    jobs = []
    for name, alpha2, others, bubbles, circles, kind in _REDUCE:
        base = _surface(name)
        pieces = tuple((_surface(other), oa2) for other, oa2 in others)
        built = assemble(base, alpha2, rng, others=pieces, bubbles=bubbles,
                         circles=circles, connected=kind != "apart",
                         preserve_size=rng.choice((1, 3)))
        path, record = w.complex(built)
        if kind == "rank1":
            argv = ["reduce", path, "--target-rank", "1", "--json"]
            check = check_reduce_rank1
        else:
            argv = ["report", path, "--preserve", w.spec(built),
                    "--surface", base.name, "--json"]
            check = check_report
        jobs.append(Job(f"{kind} {base.name} a2={built.alpha[2]}", argv,
                        check, _expect(built), [record]))
    # the warm-up makes one reduce call and certifies every base surface
    # once, which fills the catalog cache that complexity_certificate reads
    warmed = set()
    for job in sorted(jobs, key=lambda j: j.inputs[0][1][2]):
        key = job.expect["base"] if job.argv[0] == "report" else job.argv[0]
        if key not in warmed:
            warmed.add(key)
            job.warm = True
    return jobs


# ------------------------------------------------------------ search

def _octahedron() -> list:
    return [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]


def _degrees(tris: list) -> list:
    verts = sorted({v for t in tris for v in t})
    return sorted(sum(v in t for t in tris) for v in verts)


def _canonical_groups() -> list:
    """(name, triangles, copies) of pairwise non-isomorphic complexes.

    The complexes are the same for every seed, so the relabeling loop does
    the same work on each; the seed only picks the relabelings.
    Non-isomorphism is read off the construction: the surface and the
    sorted vertex degrees together tell every pair apart.  The copies put
    the vertex-transitive ones (6! to 8! relabelings) in the slow tiers
    and the rest among the cheap jobs.
    """
    rng = random.Random("canonical-form groups")
    torus, rp2, sphere = Surface(True, 1), Surface(False, 1), Surface(True, 0)
    groups = [
        (torus, "circulant-torus-8", circulant_torus(8), 2),
        (torus, "circulant-torus-7", circulant_torus(7), 9),
        (rp2, "rp2-6", list(RP2_6), 3),
        (sphere, "octahedron-6", _octahedron(), 3),
        (torus, "torus-8", build_surface(torus, 16, rng), 9),
        (rp2, "rp2-7", build_surface(rp2, 12, rng), 13),
        (rp2, "rp2-8", build_surface(rp2, 14, rng), 13),
        (sphere, "sphere-7", build_surface(sphere, 10, rng), 9),
        (sphere, "sphere-8", build_surface(sphere, 12, rng), 9),
    ]
    invariants = {(s.name, tuple(_degrees(tris))) for s, _, tris, _ in groups}
    if len(invariants) != len(groups):
        raise AssertionError("canonical-form groups are not told apart")
    return [g[1:] for g in groups]


def _search(rng: random.Random, w: _Writer) -> list:
    # the searches take no input, so every seed makes the same ones; of
    # the 8-vertex searches (a second or more each) only N2 runs, the
    # surface that first appears there.  A pass holds 47 jobs under 3 ms,
    # 30 from 5 to 250 ms with the nine circulant 7-vertex tori on top, and
    # 4 of half a second or more, which puts the median job in the middle
    # of the nine 8-vertex tori (about 1.5 ms, the dearest of the cheap
    # jobs) and the 90th-percentile job in the middle of the circulant
    # 7-vertex tori
    jobs = []
    plan = [*itertools.product(SEARCH_MINIMA, (6, 7)), ("N2", 8)]
    for name, n in plan:
        jobs.append(Job(f"search {name} n={n}",
                        ["search", "--surface", name, "--max-vertices", str(n),
                         "--json"], check_search,
                        {"surface": _surface(name), "max_vertices": n}))
    for n in (7, 8):
        jobs.append(Job(f"triple n={n}", ["search", "--one-triple-edge",
                                          "--max-vertices", str(n), "--json"],
                        check_triple))
    for name, tris, copies in _canonical_groups():
        verts = sorted({v for t in tris for v in t})
        edges = {e for t in tris for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))}
        expect = {"alpha": [len(verts), len(edges), len(tris)],
                  "degrees": _degrees(tris)}
        for _ in range(copies):
            mapping = dict(zip(verts, rng.sample(range(100), len(verts))))
            relabeled = [tuple(sorted(mapping[v] for v in t)) for t in tris]
            rng.shuffle(relabeled)
            jobs.append(Job(f"canonical {name}", None, check_canonical,
                            expect, complex=relabeled, group=name))
    for job in jobs:
        job.warm = (job.group == "rp2-6" if job.argv is None
                    else job.expect.get("max_vertices") == 6)
    return jobs


def build_jobs(workload: str, seed: int, workdir: Path) -> list:
    """The workload's job list for this seed; input files go to workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    make = {"cohomology": _cohomology, "reduce": _reduce, "search": _search}
    jobs = make[workload](rng, _Writer(workdir))
    # one fixed order per workload, whatever the seed: each cost tier is
    # spread over the whole pass, so a slow stretch of the machine does not
    # land on one tier alone, and the memory high-water mark repeats
    random.Random(f"order:{workload}").shuffle(jobs)
    return jobs
