"""Command-line front door: loading, dispatch, and certificate reports.

Exit codes separate the ways a run can go wrong: 0 success, 2 unreadable or
malformed input, 3 violated precondition, 4 requested certification failed.
Commands print text by default and a stable JSON document under --json; the
pipeline is deterministic, so JSON output is golden-testable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .bounds import (EXCEPTIONAL_SURFACES, SPHERE, ComplexityCertificate,
                     EulerBoundsReport, NotApplicableError,
                     SurfaceId, complexity_certificate, euler_bounds_check,
                     free_product_lower_bound, minimal_triangle_count,
                     parse_surface_id, truncated_euler_characteristic,
                     vertex_floor)
from .catalog_data import MINIMAL_TRIANGULATIONS
from .complex2 import Complex2
from .homology import (betti_numbers, chain_support, cup_pairing_on_h1,
                       has_property_a, homology_summary)
from .io import (FormatError, complex_to_dict, dump_complex, dumps_complex,
                 load_functionals, load_group_profile, load_named_complex)
from .reduction import PreservationSpec, ReductionTrace, simplify_pipeline
from .search import complexes_with_one_triple_edge, min_triangles_for_surface
from .surfaces import (ClassificationResult, catalog, classify,
                       surface_hypotheses_report, verify_orientation_witness)

__all__ = ["CertificateReport", "run_report", "main", "build_parser"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CERTIFICATION = 4

# ------------------------------------------------------------ shared pieces

def _parse_surface(text: str) -> SurfaceId:
    try:
        return parse_surface_id(text)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _load(path: str) -> tuple[str, Complex2]:
    name, k = load_named_complex(path)
    return name or Path(path).stem, k


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _complex_payload(k: Complex2, betti: tuple[int, int, int]) -> dict:
    return {"alpha": [k.n_vertices, k.n_edges, k.n_triangles],
            "chi": k.euler_characteristic(),
            "betti": list(betti)}


def _complex_line(k: Complex2, betti: tuple[int, int, int]) -> str:
    b0, b1, b2 = betti
    return (f"{k.n_vertices} vertices, {k.n_edges} edges, "
            f"{k.n_triangles} triangles; chi = {k.euler_characteristic()}; "
            f"betti = ({b0}, {b1}, {b2})")


def _surface_payload(s: SurfaceId) -> dict:
    return {"name": s.name, "orientable": s.orientable, "genus": s.genus,
            "chi": s.euler_characteristic}


def _face(f):
    return list(f) if isinstance(f, tuple) else f


def _trace_payload(trace: ReductionTrace) -> dict:
    # the first and last snapshots are the pipeline's audited Betti numbers
    return {
        "input": _complex_payload(trace.input_complex, trace.snapshots[0][1]),
        "result": _complex_payload(trace.result, trace.snapshots[-1][1]),
        "killed_triangles": [list(t) for t in trace.killed_triangles],
        "collapses": [[_face(face), list(coface)]
                      for face, coface in trace.collapses],
        "contractions": [list(e) for e in trace.contractions],
        "deleted_edges": [list(e) for e in trace.deleted_edges],
        "free_rank": trace.free_rank,
        "input_disconnected": trace.input_disconnected,
        "snapshots": [[label, list(b)] for label, b in trace.snapshots],
    }


def _trace_line(trace: ReductionTrace) -> str:
    return (f"killed {len(trace.killed_triangles)}; "
            f"collapses {len(trace.collapses)}; "
            f"contractions {len(trace.contractions)}; "
            f"deleted edges {len(trace.deleted_edges)}; "
            f"m = {trace.free_rank}")


def _print_snapshots(trace: ReductionTrace) -> None:
    for label, (b0, b1, b2) in trace.snapshots:
        print(f"  {label:<9} betti = ({b0}, {b1}, {b2})")


def _resolve_pipeline_args(args) -> tuple[Optional[PreservationSpec], Optional[int]]:
    spec = load_functionals(args.preserve) if args.preserve else None
    return spec, args.target_rank


def _certificate_payload(cert: ComplexityCertificate) -> dict:
    return {"surface": cert.surface.name,
            "group": cert.profile.name,
            "triangle_complexity": cert.triangle_complexity,
            "lower_bound": cert.lower_bound,
            "exceptional": cert.exceptional,
            "witness_alpha2": cert.witness_alpha2}


def _euler_payload(rep: EulerBoundsReport) -> dict:
    return {"applicable": rep.applicable, "failures": list(rep.failures),
            "chi": rep.chi,
            "alpha0": rep.alpha0, "alpha0_floor": rep.alpha0_floor,
            "alpha0_ok": rep.alpha0_ok,
            "alpha2": rep.alpha2, "alpha2_floor": rep.alpha2_floor,
            "alpha2_ok": rep.alpha2_ok,
            "satisfied": rep.satisfied}


def _euler_line(rep: EulerBoundsReport) -> str:
    if not rep.applicable:
        return "inapplicable: " + "; ".join(rep.failures)
    t0 = " [tight]" if rep.alpha0 == rep.alpha0_floor else ""
    t2 = " [tight]" if rep.alpha2 == rep.alpha2_floor else ""
    return (f"alpha_0 = {rep.alpha0} >= {rep.alpha0_floor}{t0}; "
            f"alpha_2 = {rep.alpha2} >= {rep.alpha2_floor}{t2}")


def _classification_line(res: ClassificationResult) -> str:
    if res.is_surface:
        return f"closed surface {res.surface.name}"
    return f"not a closed surface ({res.failure_reason})"


# ------------------------------------------------------------ plain queries

def _cmd_homology(args) -> int:
    name, k = _load(args.file)
    betti = betti_numbers(k)
    if args.json:
        _print_json({"name": name, **_complex_payload(k, betti)})
    else:
        print(f"{name}: {_complex_line(k, betti)}")
    return EXIT_OK


def _cmd_cup_form(args) -> int:
    name, k = _load(args.file)
    summary = homology_summary(k)
    form = cup_pairing_on_h1(k, summary)
    n = len(form.h1_reps)
    payload: dict = {"name": name, "b1": n, "b2": form.b2,
                     "entries": [[[e.get(c) for c in range(form.b2)]
                                  for e in row] for row in form.entries]}
    if form.b2 <= 1:
        payload["rank"] = form.rank()
        payload["nondegenerate"] = form.rank() == n
    if args.json:
        _print_json(payload)
        return EXIT_OK
    print(f"{name}: cup pairing on H^1 (b1 = {n}, b2 = {form.b2})")
    if form.b2 > 1:
        print("pairing is vector-valued; entries are H^2 coordinate vectors")
        return EXIT_OK
    for row in form.entries:
        print("  " + " ".join(str(e.get(0)) if form.b2 else "0" for e in row))
    print(f"rank = {payload['rank']}"
          + (" (nondegenerate)" if payload["nondegenerate"] else ""))
    return EXIT_OK


def _cmd_property_a(args) -> int:
    name, k = _load(args.file)
    res = has_property_a(k)
    witness = (None if res.witness is None
               else [list(e) for e in chain_support(k, res.witness)])
    if args.json:
        _print_json({"name": name, "holds": res.holds,
                     "radical_dimension": res.radical_dimension,
                     "witness_edges": witness})
    elif res.holds:
        print(f"{name}: every nonzero H^1 class cups nontrivially (radical 0)")
    else:
        print(f"{name}: property fails; radical dimension "
              f"{res.radical_dimension}, witness cocycle on edges {witness}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    name, k = _load(args.file)
    res = classify(k)
    payload: dict = {"name": name, "is_surface": res.is_surface,
                     "failure_reason": res.failure_reason,
                     "surface": _surface_payload(res.surface) if res.is_surface else None}
    if res.orientation_witness is not None:
        payload["orientation_witness_verified"] = verify_orientation_witness(
            k, res.orientation_witness)
    code = EXIT_OK
    if args.surface:
        target = _parse_surface(args.surface)
        rep = surface_hypotheses_report(k, target)
        payload["hypotheses"] = {
            "target": target.name,
            "edge_degrees_ok": rep.edge_degrees_ok,
            "betti": list(rep.betti),
            "betti_ok": rep.betti_ok,
            "cup_pairing_ok": rep.cup_pairing_ok,
            "all_hypotheses_hold": rep.all_hypotheses_hold,
            "classification_matches": rep.classification_matches,
        }
        if not rep.classification_matches:
            code = EXIT_CERTIFICATION
    if args.json:
        _print_json(payload)
        return code
    print(f"{name}: {_classification_line(res)}")
    if "orientation_witness_verified" in payload:
        print(f"orientation witness verified: {payload['orientation_witness_verified']}")
    if args.surface:
        h = payload["hypotheses"]
        print(f"against {h['target']}: edge degrees {h['edge_degrees_ok']}, "
              f"betti {h['betti_ok']}, cup pairing {h['cup_pairing_ok']}, "
              f"classification match {h['classification_matches']}")
    return code


# ------------------------------------------------------------ reduction

def _cmd_reduce(args) -> int:
    name, k = _load(args.file)
    spec, target_rank = _resolve_pipeline_args(args)
    try:
        trace = simplify_pipeline(k, spec, target_rank=target_rank)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    out_name = f"{name}-reduced"
    if args.out:
        dump_complex(trace.result, args.out, name=out_name)
    if args.json:
        payload = {"name": name, **_trace_payload(trace)}
        payload["result_complex"] = complex_to_dict(trace.result, out_name)
        _print_json(payload)
        return EXIT_OK
    print(f"input K '{name}': "
          f"{_complex_line(trace.input_complex, trace.snapshots[0][1])}")
    print(f"pipeline: {_trace_line(trace)}")
    if args.verbose:
        _print_snapshots(trace)
    print(f"reduced L: {_complex_line(trace.result, trace.snapshots[-1][1])}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


# ------------------------------------------------------------ bounds

def _bounds_surface(surface: SurfaceId, as_json: bool) -> int:
    chi = surface.euler_characteristic
    payload: dict = {"surface": _surface_payload(surface),
                     "vertex_floor": vertex_floor(chi),
                     "minimal_triangles": minimal_triangle_count(surface),
                     "exceptional": surface in EXCEPTIONAL_SURFACES}
    cert = None if surface == SPHERE else complexity_certificate(surface)
    payload["certificate"] = None if cert is None else _certificate_payload(cert)
    if as_json:
        _print_json(payload)
        return EXIT_OK
    print(f"{surface.name}: chi = {chi}, vertex floor {payload['vertex_floor']}, "
          f"minimal triangulation size {payload['minimal_triangles']}"
          + (" (exceptional, +2 over the generic count)"
             if payload["exceptional"] else ""))
    if cert is None:
        print("trivial fundamental group; no group-level triangle bound applies")
    else:
        print(f"kappa({cert.profile.name}) = {cert.triangle_complexity}: "
              f"lower bound {cert.lower_bound}, "
              f"catalog witness {cert.witness_alpha2}")
    return EXIT_OK


def _bounds_profile(path: str, as_json: bool) -> int:
    profile = load_group_profile(path)
    bound = free_product_lower_bound(profile)
    payload = {"group": profile.name, "h1": profile.h1, "h2": profile.h2,
               "property_a": profile.property_a,
               "truncated_chi": truncated_euler_characteristic(profile),
               "lower_bound": bound}
    if as_json:
        _print_json(payload)
    else:
        print(f"kappa({profile.name} * T) >= {bound} for every finitely "
              f"presented T (truncated chi = {payload['truncated_chi']})")
    return EXIT_OK


def _bounds_complex(path: str, as_json: bool) -> int:
    name, k = _load(path)
    rep = euler_bounds_check(k)
    if as_json:
        _print_json({"name": name, **_euler_payload(rep)})
    else:
        print(f"{name}: counting bounds {_euler_line(rep)}")
    if rep.applicable and not rep.satisfied:
        return EXIT_CERTIFICATION
    return EXIT_OK


def _cmd_bounds(args) -> int:
    chosen = [x for x in (args.surface, args.profile, args.file) if x]
    if len(chosen) != 1:
        print("error: give exactly one of --surface, --profile, or a complex file",
              file=sys.stderr)
        return EXIT_PARSE
    if args.surface:
        return _bounds_surface(_parse_surface(args.surface), args.json)
    if args.profile:
        return _bounds_profile(args.profile, args.json)
    return _bounds_complex(args.file, args.json)


# ------------------------------------------------------------ catalog, search

def _cmd_catalog(args) -> int:
    if args.surface:
        surface = _parse_surface(args.surface)
        text = dumps_complex(catalog(surface), name=surface.name)
        if args.out:
            Path(args.out).write_text(text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return EXIT_OK
    rows = []
    for name in MINIMAL_TRIANGULATIONS:
        surface = parse_surface_id(name)
        k = catalog(surface)
        rows.append({"name": name, "chi": surface.euler_characteristic,
                     "orientable": surface.orientable,
                     "vertices": k.n_vertices, "triangles": k.n_triangles,
                     "minimal_triangles": minimal_triangle_count(surface)})
    if args.json:
        _print_json({"surfaces": rows})
        return EXIT_OK
    print("surface  chi  orientable  vertices  triangles")
    for r in rows:
        print(f"{r['name']:<7} {r['chi']:>4}  {str(r['orientable']):<10} "
              f"{r['vertices']:>8}  {r['triangles']:>9}")
    print("higher genera are built on demand from polygon schemes")
    return EXIT_OK


def _cmd_search(args) -> int:
    if bool(args.surface) == bool(args.one_triple_edge):
        print("error: give exactly one of --surface or --one-triple-edge",
              file=sys.stderr)
        return EXIT_PARSE
    n = args.max_vertices
    surface = _parse_surface(args.surface) if args.surface else None
    try:
        if surface is not None:
            print(f"enumerating closed complexes on up to {n} vertices "
                  f"for {surface.name}", file=sys.stderr)
            res = min_triangles_for_surface(n, surface)
            payload = {"surface": surface.name, "max_vertices": n,
                       "found": res.found, "min_triangles": res.min_triangles,
                       "complete_states": res.complete_states,
                       "target_states": res.target_states,
                       "witness": (complex_to_dict(res.witness, surface.name)
                                   if res.found else None)}
            if args.json:
                _print_json(payload)
            elif res.found:
                print(f"minimum = {res.min_triangles} triangles "
                      f"({res.target_states} matching states, "
                      f"{res.complete_states} closed states)")
            else:
                print(f"no {surface.name} triangulation within {n} vertices "
                      f"({res.complete_states} closed states)")
            return EXIT_OK
        print(f"enumerating near-closed complexes on up to {n} vertices "
              "with a single degree-3 edge", file=sys.stderr)
        found = complexes_with_one_triple_edge(n)
        payload = {"max_vertices": n, "count": len(found),
                   "complexes": [complex_to_dict(c) for c in found]}
        if args.json:
            _print_json(payload)
        elif found:
            print(f"{len(found)} complexes found")
        else:
            print(f"none up to {n} vertices: an odd total edge degree "
                  "is unreachable")
        return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


# ------------------------------------------------------------ the report

@dataclass(frozen=True)
class CertificateReport:
    """Everything one end-to-end run established.

    Every number is recomputed from the artifact it describes: the
    classification, counting bounds, and certificate all come from fresh
    passes over the reduced complex, never from pipeline bookkeeping.
    """

    input_name: str
    trace: ReductionTrace
    euler: EulerBoundsReport
    classification: ClassificationResult
    certificate: Optional[ComplexityCertificate]
    target: Optional[SurfaceId]
    verdicts: tuple[str, ...]

    @property
    def certified(self) -> bool:
        """Whether the requested surface target (if any) was confirmed."""
        if self.target is None:
            return True
        return (self.classification.is_surface
                and self.classification.surface == self.target)


def run_report(name: str, k: Complex2,
               spec: Optional[PreservationSpec] = None,
               target_rank: Optional[int] = None,
               target: Optional[SurfaceId] = None) -> CertificateReport:
    """Reduce, classify, bound, and certify one complex."""
    trace = simplify_pipeline(k, spec, target_rank=target_rank)
    reduced = trace.result
    euler = euler_bounds_check(reduced)
    cls = classify(reduced)
    alpha2_input = k.n_triangles

    verdicts: list[str] = []
    if trace.input_disconnected:
        verdicts.append("input is disconnected; the pipeline ran on every "
                        "component and the free-product reading holds per "
                        "component")
    certificate: Optional[ComplexityCertificate] = None
    if cls.is_surface:
        surface = cls.surface
        verdicts.append(f"reduced complex is a {surface.name} triangulation "
                        f"with {reduced.n_triangles} triangles")
        if surface == SPHERE:
            verdicts.append("pi_1 is trivial; no group-level triangle bound applies")
        else:
            certificate = complexity_certificate(surface)
            gap = " (+2 exceptional gap)" if certificate.exceptional else ""
            kappa = certificate.triangle_complexity
            verdicts.append(
                f"kappa({certificate.profile.name}) = {kappa}: lower bound "
                f"{certificate.lower_bound}{gap}, catalog witness "
                f"{certificate.witness_alpha2}")
            m = trace.free_rank
            group = certificate.profile.name + (f" * F{m}" if m else "")
            if reduced.n_triangles == kappa:
                if m:
                    # wedging m circles onto L presents the free product
                    # with the same triangle count, so the bound is tight
                    verdicts.append(
                        f"kappa({group}) = {kappa}: free factors add no "
                        "triangles and cannot lower the bound")
                if alpha2_input == kappa:
                    verdicts.append(f"K realizes the minimum: "
                                    f"alpha_2(K) = {kappa}")
                elif m or trace.killed_triangles:
                    verdicts.append(
                        f"alpha_2(K) = {alpha2_input}: K presents {group} "
                        f"with {alpha2_input - kappa} excess triangles")
            else:
                verdicts.append(
                    f"alpha_2(L) = {reduced.n_triangles} > {kappa}: "
                    "this triangulation is not minimal")
    else:
        verdicts.append("reduced complex is not a closed surface "
                        f"({cls.failure_reason}); no surface certificate")
    verdicts.append("counting bounds on L: " + _euler_line(euler))
    if target is not None:
        if cls.is_surface and cls.surface == target:
            verdicts.append(f"requested surface {target.name} confirmed")
        else:
            got = cls.surface.name if cls.is_surface else "not a surface"
            verdicts.append(f"requested surface {target.name} "
                            f"NOT confirmed (reduced complex: {got})")
    return CertificateReport(input_name=name, trace=trace, euler=euler,
                             classification=cls, certificate=certificate,
                             target=target, verdicts=tuple(verdicts))


def _cmd_report(args) -> int:
    name, k = _load(args.file)
    spec, target_rank = _resolve_pipeline_args(args)
    target = _parse_surface(args.surface) if args.surface else None
    try:
        report = run_report(name, k, spec, target_rank=target_rank,
                            target=target)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    reduced = report.trace.result
    if args.out:
        dump_complex(reduced, args.out, name=f"{name}-reduced")
    if args.json:
        cls = report.classification
        payload = {
            "name": name,
            "pipeline": _trace_payload(report.trace),
            "euler_bounds": _euler_payload(report.euler),
            "classification": {
                "is_surface": cls.is_surface,
                "failure_reason": cls.failure_reason,
                "surface": _surface_payload(cls.surface) if cls.is_surface else None,
            },
            "certificate": (None if report.certificate is None
                            else _certificate_payload(report.certificate)),
            "target": None if target is None else target.name,
            "certified": report.certified,
            "verdicts": list(report.verdicts),
            "result_complex": complex_to_dict(reduced, f"{name}-reduced"),
        }
        _print_json(payload)
        return EXIT_OK if report.certified else EXIT_CERTIFICATION
    snapshots = report.trace.snapshots
    print(f"input K '{name}': {_complex_line(k, snapshots[0][1])}")
    print(f"pipeline: {_trace_line(report.trace)}")
    if args.verbose:
        _print_snapshots(report.trace)
    print(f"reduced L: {_complex_line(reduced, snapshots[-1][1])}")
    print(f"classification: {_classification_line(report.classification)}")
    print(f"counting bounds: {_euler_line(report.euler)}")
    print("verdict:")
    for line in report.verdicts:
        print(f"  - {line}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK if report.certified else EXIT_CERTIFICATION


# ------------------------------------------------------------ wiring

def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit a JSON document instead of text")


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--preserve", metavar="FILE",
                       help="functionals to keep surjective: a JSON list of "
                            "triangle lists")
    group.add_argument("--target-rank", type=int, metavar="R",
                       help="keep the first R coordinates of the H2 basis")
    p.add_argument("-o", "--out", metavar="PATH",
                   help="write the reduced complex here as canonical JSON")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="include per-step Betti snapshots")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simpsurf",
        description="Finite 2-complexes: F2 homology, cup pairings, "
                    "homology-preserving reduction, and triangle-count "
                    "bounds for closed surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="face counts and F2 Betti numbers")
    p.add_argument("file")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("cup-form", help="the cup pairing on H^1")
    p.add_argument("file")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_cup_form)

    p = sub.add_parser("property-a",
                       help="does every nonzero H^1 class cup nontrivially")
    p.add_argument("file")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_property_a)

    p = sub.add_parser("classify", help="closed-surface recognition")
    p.add_argument("file")
    p.add_argument("--surface", metavar="ID",
                   help="also check the named surface's hypotheses; "
                        "mismatch exits 4")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("reduce",
                       help="kill unpreserved H2, collapse, drop loose edges")
    p.add_argument("file")
    _add_pipeline_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("bounds",
                       help="triangle-count bounds for a surface, a group "
                            "profile, or a complex")
    p.add_argument("file", nargs="?",
                   help="complex file for the counting-bound check")
    p.add_argument("--surface", metavar="ID")
    p.add_argument("--profile", metavar="FILE",
                   help="group profile JSON: name, h1, h2, property_a")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("catalog",
                       help="stored minimal triangulations of closed surfaces")
    p.add_argument("--surface", metavar="ID",
                   help="emit this surface's triangulation as canonical JSON")
    p.add_argument("-o", "--out", metavar="PATH")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("search",
                       help="exhaustive desk-scale searches over small "
                            "closed complexes")
    p.add_argument("--surface", metavar="ID",
                   help="least triangle count of this surface; the state "
                        "counts are raw closed states, not isomorphism "
                        "classes")
    p.add_argument("--one-triple-edge", action="store_true",
                   help="look for a closed complex with exactly one "
                        "degree-3 edge, one per isomorphism class")
    p.add_argument("--max-vertices", type=int, required=True, metavar="N")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("report",
                       help="end-to-end reduction and certification report")
    p.add_argument("file")
    p.add_argument("--surface", metavar="ID",
                   help="surface the reduced complex must classify as; "
                        "mismatch exits 4")
    _add_pipeline_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
