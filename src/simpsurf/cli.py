"""Command-line front door: loading, dispatch, and certificate reports.

Each command returns (exit code, JSON payload, text lines) and prints nothing
to stdout.  main() alone prints the result, the payload under --json and the
lines otherwise, and alone maps exceptions to exit codes: 0 success, 2
unreadable or malformed input, 3 violated precondition, 4 requested
certification failed.  The pipeline is deterministic, so JSON output is
byte-deterministic and golden-testable.

main() runs each command with the cyclic garbage collector paused and
gives the caller's setting back on the way out.  Nothing the library
builds holds a reference cycle, so reference counting frees everything a
command drops and the collector's passes would only walk live data.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from dataclasses import asdict, dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
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
from .search import (_check_scale, complexes_with_one_triple_edge,
                     min_triangles_for_surface)
from .surfaces import (ClassificationResult, catalog, classify,
                       surface_hypotheses_report, verify_orientation_witness)

__all__ = ["CertificateReport", "run_report", "main", "build_parser"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CERTIFICATION = 4

# ------------------------------------------------------------ shared pieces

# what every command returns: exit code, --json document, text lines
_Result = tuple[int, Optional[dict], list[str]]


def _parse_surface(text: str) -> SurfaceId:
    try:
        return parse_surface_id(text)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _load(path: str) -> tuple[str, Complex2]:
    name, k = load_named_complex(path)
    return name or Path(path).stem, k


_INTS = {int}
_LISTS = {list}
_ROW_ITEMS = {int, str}
_FORMATS = {int: "%d", str: "%s"}


def _print_json(payload) -> None:
    print(_json_text(payload))


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, in about half its time.

    json.dumps writes an indented document in pure Python, one token at
    a time.  Here each container is one join over its items' texts, and a
    list of ints one join over str(int).  A list of rows (the edge and
    triangle lists, the trace's collapses and snapshots, the cup form's
    entries) is one format call, see _rows_text.  A scalar that is not a
    str or an int goes to json.dumps itself, so floats, bools and None
    come out as json writes them.
    """
    if isinstance(value, str):
        return _quote(value)
    if type(value) is int:
        return str(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        types = set(map(type, value))
        if types == _INTS:
            items = map(str, value)
        elif types == _LISTS and (rows := _rows_text(value, indent)) is not None:
            return rows
        else:
            items = [_json_text(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_json_key(k)}: {_json_text(v, inner)}"
                 for k, v in value.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    return json.dumps(value)


def _rows_text(rows: list, indent: str) -> Optional[str]:
    """_json_text of a list of lists, as one % format over all of their
    items, or None when a row is empty or holds anything but exact ints,
    strs and non-empty flat lists of those.

    Each row shape (the types of its items, and of theirs) gets one
    template, with the indented rows written into it: %d for an int and
    %s for a str, which is passed quoted.  Rows of exact ints that all
    have one length (the edge and triangle lists) share one template and
    take no per-row step at all.
    """
    inner = indent + "  "
    if (set(map(type, chain.from_iterable(rows))) == _INTS
            and len(set(map(len, rows))) == 1):
        lines = [_row_template((int,) * len(rows[0]), inner)] * len(rows)
        values = tuple(chain.from_iterable(rows))
    else:
        templates: dict = {}
        lines, values = [], []
        add = values.append
        for row in rows:
            shape = []
            for x in row:
                kind = type(x)
                if kind is int:
                    add(x)
                elif kind is str:
                    add(_quote(x))
                elif kind is list and x:
                    kind = tuple(map(type, x))
                    if not _ROW_ITEMS.issuperset(kind):
                        return None
                    values += [_quote(y) if type(y) is str else y for y in x] \
                        if str in kind else x
                else:
                    return None
                shape.append(kind)
            if not shape:
                return None
            shape = tuple(shape)
            template = templates.get(shape)
            if template is None:
                template = templates[shape] = _row_template(shape, inner)
            lines.append(template)
    return (f"[\n{inner}" + f",\n{inner}".join(lines) + f"\n{indent}]") % tuple(values)


def _row_template(shape: tuple, indent: str) -> str:
    """The % template of one row of _rows_text, written at indent."""
    inner = indent + "  "
    items = [_FORMATS[kind] if kind in _FORMATS else
             f"[\n{inner}  " + f",\n{inner}  ".join(map(_FORMATS.__getitem__, kind))
             + f"\n{inner}]" for kind in shape]
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _json_key(key) -> str:
    """A dict key as json.dumps writes it: a non-str key is converted."""
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{json.dumps(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


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


def _pipeline_lines(args, name: str, trace: ReductionTrace,
                    findings: list[str]) -> list[str]:
    """Text of a reduction run: K, the pipeline, L, what was found, -o."""
    lines = [f"input K '{name}': "
             f"{_complex_line(trace.input_complex, trace.snapshots[0][1])}",
             f"pipeline: killed {len(trace.killed_triangles)}; "
             f"collapses {len(trace.collapses)}; "
             f"contractions {len(trace.contractions)}; "
             f"deleted edges {len(trace.deleted_edges)}; "
             f"m = {trace.free_rank}"]
    if args.verbose:
        lines += [f"  {label:<9} betti = ({b0}, {b1}, {b2})"
                  for label, (b0, b1, b2) in trace.snapshots]
    lines.append(
        f"reduced L: {_complex_line(trace.result, trace.snapshots[-1][1])}")
    lines += findings
    if args.out:
        lines.append(f"wrote {args.out}")
    return lines


def _certificate_payload(cert: ComplexityCertificate) -> dict:
    return {"surface": cert.surface.name,
            "group": cert.profile.name,
            "triangle_complexity": cert.triangle_complexity,
            "lower_bound": cert.lower_bound,
            "exceptional": cert.exceptional,
            "witness_alpha2": cert.witness_alpha2}


def _witness_text(cert: ComplexityCertificate) -> str:
    if cert.witness_alpha2 is None:
        return "no catalog witness built at this genus"
    return f"catalog witness {cert.witness_alpha2}"


def _euler_payload(rep: EulerBoundsReport) -> dict:
    return {**asdict(rep), "satisfied": rep.satisfied}


def _euler_line(rep: EulerBoundsReport) -> str:
    if not rep.applicable:
        return "inapplicable: " + "; ".join(rep.failures)
    t0 = " [tight]" if rep.alpha0 == rep.alpha0_floor else ""
    t2 = " [tight]" if rep.alpha2 == rep.alpha2_floor else ""
    return (f"alpha_0 = {rep.alpha0} >= {rep.alpha0_floor}{t0}; "
            f"alpha_2 = {rep.alpha2} >= {rep.alpha2_floor}{t2}")


def _classification_payload(res: ClassificationResult) -> dict:
    return {"is_surface": res.is_surface,
            "failure_reason": res.failure_reason,
            "surface": _surface_payload(res.surface) if res.is_surface else None}


def _classification_line(res: ClassificationResult) -> str:
    if res.is_surface:
        return f"closed surface {res.surface.name}"
    return f"not a closed surface ({res.failure_reason})"


# ------------------------------------------------------------ plain queries

def _cmd_homology(args) -> _Result:
    name, k = _load(args.file)
    betti = betti_numbers(k)
    return (EXIT_OK, {"name": name, **_complex_payload(k, betti)},
            [f"{name}: {_complex_line(k, betti)}"])


def _cmd_cup_form(args) -> _Result:
    name, k = _load(args.file)
    summary = homology_summary(k)
    form = cup_pairing_on_h1(k, summary)
    n, b2 = len(form.rows), form.b2
    payload: dict = {"name": name, "b1": n, "b2": b2,
                     "entries": [[[r >> j * b2 + c & 1 for c in range(b2)]
                                  for j in range(n)] for r in form.rows]}
    lines = [f"{name}: cup pairing on H^1 (b1 = {n}, b2 = {b2})"]
    if b2 > 1:
        lines.append("pairing is vector-valued; entries are H^2 coordinate vectors")
        return EXIT_OK, payload, lines
    rank = form.rank()
    payload["rank"] = rank
    payload["nondegenerate"] = rank == n
    lines += ["  " + " ".join(str(r >> j & 1) for j in range(n)) for r in form.rows]
    lines.append(f"rank = {rank}" + (" (nondegenerate)" if rank == n else ""))
    return EXIT_OK, payload, lines


def _cmd_property_a(args) -> _Result:
    name, k = _load(args.file)
    res = has_property_a(k)
    witness = (None if res.witness is None
               else [list(e) for e in chain_support(k, res.witness)])
    payload = {"name": name, "holds": res.holds,
               "radical_dimension": res.radical_dimension,
               "witness_edges": witness}
    if res.holds:
        line = f"{name}: every nonzero H^1 class cups nontrivially (radical 0)"
    else:
        line = (f"{name}: property fails; radical dimension "
                f"{res.radical_dimension}, witness cocycle on edges {witness}")
    return EXIT_OK, payload, [line]


def _cmd_classify(args) -> _Result:
    name, k = _load(args.file)
    res = classify(k)
    payload: dict = {"name": name, **_classification_payload(res)}
    lines = [f"{name}: {_classification_line(res)}"]
    if res.orientation_witness is not None:
        verified = verify_orientation_witness(k, res.orientation_witness)
        payload["orientation_witness_verified"] = verified
        lines.append(f"orientation witness verified: {verified}")
    if not args.surface:
        return EXIT_OK, payload, lines
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
    lines.append(f"against {target.name}: edge degrees {rep.edge_degrees_ok}, "
                 f"betti {rep.betti_ok}, cup pairing {rep.cup_pairing_ok}, "
                 f"classification match {rep.classification_matches}")
    code = EXIT_OK if rep.classification_matches else EXIT_CERTIFICATION
    return code, payload, lines


# ------------------------------------------------------------ reduction

def _cmd_reduce(args) -> _Result:
    name, k = _load(args.file)
    spec = load_functionals(args.preserve) if args.preserve else None
    trace = simplify_pipeline(k, spec, target_rank=args.target_rank)
    if args.out:
        dump_complex(trace.result, args.out, name=f"{name}-reduced")
    payload = {"name": name, **_trace_payload(trace),
               "result_complex": complex_to_dict(trace.result,
                                                 f"{name}-reduced")}
    return EXIT_OK, payload, _pipeline_lines(args, name, trace, [])


# ------------------------------------------------------------ bounds

def _bounds_surface(surface: SurfaceId) -> _Result:
    chi = surface.euler_characteristic
    cert = None if surface == SPHERE else complexity_certificate(surface)
    payload: dict = {"surface": _surface_payload(surface),
                     "vertex_floor": vertex_floor(chi),
                     "minimal_triangles": minimal_triangle_count(surface),
                     "exceptional": surface in EXCEPTIONAL_SURFACES,
                     "certificate": None if cert is None
                     else _certificate_payload(cert)}
    lines = [f"{surface.name}: chi = {chi}, vertex floor {payload['vertex_floor']}, "
             f"minimal triangulation size {payload['minimal_triangles']}"
             + (" (exceptional, +2 over the generic count)"
                if payload["exceptional"] else "")]
    if cert is None:
        lines.append("trivial fundamental group; no group-level triangle bound applies")
    else:
        lines.append(f"kappa({cert.profile.name}) = {cert.triangle_complexity}: "
                     f"lower bound {cert.lower_bound}, {_witness_text(cert)}")
    return EXIT_OK, payload, lines


def _bounds_profile(path: str) -> _Result:
    profile = load_group_profile(path)
    bound = free_product_lower_bound(profile)
    payload = {"group": profile.name, "h1": profile.h1, "h2": profile.h2,
               "property_a": profile.property_a,
               "truncated_chi": truncated_euler_characteristic(profile),
               "lower_bound": bound}
    return EXIT_OK, payload, [
        f"kappa({profile.name} * T) >= {bound} for every finitely "
        f"presented T (truncated chi = {payload['truncated_chi']})"]


def _bounds_complex(path: str) -> _Result:
    name, k = _load(path)
    rep = euler_bounds_check(k)
    code = (EXIT_CERTIFICATION if rep.applicable and not rep.satisfied
            else EXIT_OK)
    return (code, {"name": name, **_euler_payload(rep)},
            [f"{name}: counting bounds {_euler_line(rep)}"])


def _cmd_bounds(args) -> _Result:
    if len([x for x in (args.surface, args.profile, args.file) if x]) != 1:
        raise FormatError(
            "give exactly one of --surface, --profile, or a complex file")
    if args.surface:
        return _bounds_surface(_parse_surface(args.surface))
    if args.profile:
        return _bounds_profile(args.profile)
    return _bounds_complex(args.file)


# ------------------------------------------------------------ catalog, search

def _cmd_catalog(args) -> _Result:
    if args.surface:
        # the complex file itself, even under --json
        surface = _parse_surface(args.surface)
        text = dumps_complex(catalog(surface), name=surface.name)
        if not args.out:
            return EXIT_OK, None, text.splitlines()
        Path(args.out).write_text(text)
        return EXIT_OK, None, [f"wrote {args.out}"]
    if args.out:
        raise FormatError("-o writes one surface's triangulation; give "
                          "--surface with it")
    rows = []
    for name in MINIMAL_TRIANGULATIONS:
        surface = parse_surface_id(name)
        k = catalog(surface)
        rows.append({"name": name, "chi": surface.euler_characteristic,
                     "orientable": surface.orientable,
                     "vertices": k.n_vertices, "triangles": k.n_triangles,
                     "minimal_triangles": minimal_triangle_count(surface)})
    lines = ["surface  chi  orientable  vertices  triangles"]
    lines += [f"{r['name']:<7} {r['chi']:>4}  {str(r['orientable']):<10} "
              f"{r['vertices']:>8}  {r['triangles']:>9}" for r in rows]
    lines.append("higher genera are built on demand from polygon schemes")
    return EXIT_OK, {"surfaces": rows}, lines


def _cmd_search(args) -> _Result:
    if bool(args.surface) == bool(args.one_triple_edge):
        raise FormatError("give exactly one of --surface or --one-triple-edge")
    n = args.max_vertices
    surface = _parse_surface(args.surface) if args.surface else None
    _check_scale(n)  # before the progress line, which announces a run
    if args.one_triple_edge:
        print(f"enumerating near-closed complexes on up to {n} vertices "
              "with a single degree-3 edge", file=sys.stderr)
        found = complexes_with_one_triple_edge(n)
        payload = {"max_vertices": n, "count": len(found),
                   "complexes": [complex_to_dict(c) for c in found]}
        line = (f"{len(found)} complexes found" if found
                else f"none up to {n} vertices: mod 2 the boundary of the "
                     "sum of all triangles would be the lone degree-3 edge, "
                     "whose own boundary is not zero")
        return EXIT_OK, payload, [line]
    print(f"enumerating closed complexes on up to {n} vertices "
          f"for {surface.name}", file=sys.stderr)
    res = min_triangles_for_surface(n, surface)
    payload = {"surface": surface.name, "max_vertices": n,
               "found": res.found, "min_triangles": res.min_triangles,
               "complete_states": res.complete_states,
               "target_states": res.target_states,
               "witness": (complex_to_dict(res.witness, surface.name)
                           if res.found else None)}
    if res.found:
        line = (f"minimum = {res.min_triangles} triangles "
                f"({res.target_states} matching states, "
                f"{res.complete_states} closed states)")
    else:
        line = (f"no {surface.name} triangulation within {n} vertices "
                f"({res.complete_states} closed states)")
    return EXIT_OK, payload, [line]


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
                f"{certificate.lower_bound}{gap}, {_witness_text(certificate)}")
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


def _cmd_report(args) -> _Result:
    name, k = _load(args.file)
    spec = load_functionals(args.preserve) if args.preserve else None
    target = _parse_surface(args.surface) if args.surface else None
    report = run_report(name, k, spec, target_rank=args.target_rank,
                        target=target)
    reduced = report.trace.result
    if args.out:
        dump_complex(reduced, args.out, name=f"{name}-reduced")
    payload = {
        "name": name,
        "pipeline": _trace_payload(report.trace),
        "euler_bounds": _euler_payload(report.euler),
        "classification": _classification_payload(report.classification),
        "certificate": (None if report.certificate is None
                        else _certificate_payload(report.certificate)),
        "target": None if target is None else target.name,
        "certified": report.certified,
        "verdicts": list(report.verdicts),
        "result_complex": complex_to_dict(reduced, f"{name}-reduced"),
    }
    findings = [f"classification: {_classification_line(report.classification)}",
                f"counting bounds: {_euler_line(report.euler)}",
                "verdict:"]
    findings += [f"  - {line}" for line in report.verdicts]
    code = EXIT_OK if report.certified else EXIT_CERTIFICATION
    return code, payload, _pipeline_lines(args, name, report.trace, findings)


# ------------------------------------------------------------ wiring

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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of text")

    def command(name, func, help):
        p = sub.add_parser(name, help=help, parents=[common])
        p.set_defaults(func=func)
        return p

    command("homology", _cmd_homology,
            "face counts and F2 Betti numbers").add_argument("file")
    command("cup-form", _cmd_cup_form,
            "the cup pairing on H^1").add_argument("file")
    command("property-a", _cmd_property_a,
            "does every nonzero H^1 class cup nontrivially").add_argument("file")

    p = command("classify", _cmd_classify, "closed-surface recognition")
    p.add_argument("file")
    p.add_argument("--surface", metavar="ID",
                   help="also check the named surface's hypotheses; "
                        "mismatch exits 4")

    p = command("reduce", _cmd_reduce,
                "kill unpreserved H2, collapse, drop loose edges")
    p.add_argument("file")
    _add_pipeline_flags(p)

    p = command("bounds", _cmd_bounds,
                "triangle-count bounds for a surface, a group profile, "
                "or a complex")
    p.add_argument("file", nargs="?",
                   help="complex file for the counting-bound check")
    p.add_argument("--surface", metavar="ID")
    p.add_argument("--profile", metavar="FILE",
                   help="group profile JSON: name, h1, h2, property_a")

    p = command("catalog", _cmd_catalog,
                "stored minimal triangulations of closed surfaces")
    p.add_argument("--surface", metavar="ID",
                   help="emit this surface's triangulation as canonical JSON")
    p.add_argument("-o", "--out", metavar="PATH")

    p = command("search", _cmd_search,
                "exhaustive desk-scale searches over small closed complexes")
    p.add_argument("--surface", metavar="ID",
                   help="least triangle count of this surface; the state "
                        "counts are raw closed states, not isomorphism "
                        "classes")
    p.add_argument("--one-triple-edge", action="store_true",
                   help="look for a closed complex with exactly one "
                        "degree-3 edge, one per isomorphism class")
    p.add_argument("--max-vertices", type=int, required=True, metavar="N")

    p = command("report", _cmd_report,
                "end-to-end reduction and certification report")
    p.add_argument("file")
    p.add_argument("--surface", metavar="ID",
                   help="surface the reduced complex must classify as; "
                        "mismatch exits 4")
    _add_pipeline_flags(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built once per process: parsing leaves it
    unchanged, and building one costs more than most commands' work."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; print its result and map its errors to exit codes.

    The command runs with the cyclic garbage collector paused, and the
    caller's setting comes back on every way out, a return or an
    exception.  The library makes no reference cycles (a test holds every
    command and public entry point to that), so reference counting frees
    all a command drops, and the collector's automatic passes, triggered
    by the tuples a large build allocates, would walk the live data and
    find nothing: a third of a report's time at 10^5 triangles.  The
    parser is built before the pause: argparse's help formatters leave a
    little cyclic garbage, once per process.
    """
    args = _parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if enabled:
            gc.enable()


def _run(args) -> int:
    try:
        code, payload, lines = args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.json and payload is not None:
        _print_json(payload)
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
