"""The command-line surface: exit codes, JSON payloads, golden stability."""

import gc
import hashlib
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpsurf import cli
from simpsurf.bounds import (SurfaceId, minimal_triangle_count, parse_surface_id,
                             vertex_floor)
from simpsurf.cli import main, run_report
from simpsurf.complex2 import Complex2
from simpsurf.io import dump_complex, dumps_complex, load_complex
from simpsurf.reduction import PreservationSpec, simplify_pipeline
from simpsurf.surfaces import _subdivide, attach_circle, catalog, wedge

from _fixtures import (TORUS_TRIS, sphere, torus, torus_circle_sphere,
                       torus_with_circle)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def torus_file(tmp_path):
    f = tmp_path / "torus.json"
    dump_complex(torus(), f, name="torus")
    return str(f)


@pytest.fixture
def wedge_file(tmp_path):
    f = tmp_path / "wedge.json"
    dump_complex(torus_circle_sphere(), f, name="wedge")
    return str(f)


@pytest.fixture
def spec_file(tmp_path):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps([[[0, 1, 3]]]))
    return str(f)


def test_homology_text_and_json(capsys, torus_file):
    code, out, _ = run(capsys, "homology", torus_file)
    assert code == 0 and "betti = (0, 2, 1)" in out
    code, out, _ = run(capsys, "homology", torus_file, "--json")
    payload = json.loads(out)
    assert payload == {"name": "torus", "alpha": [7, 21, 14], "chi": 0,
                       "betti": [0, 2, 1]}


def test_parse_failures_exit_2(capsys, tmp_path, torus_file):
    bad = tmp_path / "bad.json"
    bad.write_text('{"triangles": [[1, 1, 2]]}')
    code, _, err = run(capsys, "homology", str(bad))
    assert code == 2 and "degenerate triangle (1, 1, 2)" in err
    code, _, err = run(capsys, "homology", str(tmp_path / "absent.json"))
    assert code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _, err = run(capsys, "homology", str(broken))
    assert code == 2 and "line 1" in err
    # bytes that are not UTF-8, nesting deeper than the parser recurses,
    # and an integer longer than the interpreter converts
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    huge = tmp_path / "huge.json"
    huge.write_text('{"vertices": [' + "7" * 5000 + "]}")
    for argv in (("homology", str(latin1)),
                 ("reduce", torus_file, "--preserve", str(deep)),
                 ("bounds", "--profile", str(deep)),
                 ("homology", str(deep)),
                 ("homology", str(huge))):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_cup_form_json(capsys, torus_file):
    code, out, _ = run(capsys, "cup-form", torus_file, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["rank"] == 2 and payload["nondegenerate"]
    assert payload["entries"][0][1] == [1]


def test_cup_form_json_vector_valued(capsys, wedge_file):
    # b2 = 2; entries frozen from the completion of im(delta1) to C^2
    code, out, _ = run(capsys, "cup-form", wedge_file, "--json")
    payload = json.loads(out)
    assert code == 0 and payload["b2"] == 2 and "rank" not in payload
    assert payload["entries"] == [[[0, 0], [0, 0], [0, 0]],
                                  [[0, 0], [0, 0], [1, 0]],
                                  [[0, 0], [1, 0], [0, 0]]]


def test_main_builds_one_parser_per_process(capsys, monkeypatch, torus_file):
    built = []
    fresh = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or fresh())
    cli._parser.cache_clear()
    try:
        outputs = [run(capsys, "cup-form", torus_file, "--json") for _ in range(3)]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert outputs[0] == outputs[1] == outputs[2] and outputs[0][0] == 0
    assert fresh() is not fresh()


@pytest.mark.parametrize("was_enabled", [True, False])
def test_main_gives_the_collector_back_as_it_found_it(capsys, tmp_path,
                                                      monkeypatch, torus_file,
                                                      was_enabled):
    (tmp_path / "bad.json").write_text('{"triangles": [[1, 1, 2]]}')
    calls = [(0, ["homology", torus_file]),
             (2, ["homology", str(tmp_path / "bad.json")]),
             (3, ["reduce", torus_file, "--target-rank", "5"]),
             (4, ["classify", torus_file, "--surface", "N2", "--json"])]
    enabled = gc.isenabled()
    try:
        (gc.enable if was_enabled else gc.disable)()
        for expected, argv in calls:
            assert run(capsys, *argv)[0] == expected
            assert gc.isenabled() is was_enabled, argv

        def broken(args):
            assert not gc.isenabled()
            raise RuntimeError("broken command")

        monkeypatch.setattr(cli, "_cmd_homology", broken)
        cli._parser.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="broken command"):
                main(["homology", torus_file])
        finally:
            cli._parser.cache_clear()
        assert gc.isenabled() is was_enabled
    finally:
        (gc.enable if enabled else gc.disable)()


def test_main_runs_no_automatic_collection(tmp_path):
    m3 = tmp_path / "M3.json"
    dump_complex(catalog(parse_surface_id("M3")), m3, name="M3")
    argv = ["report", str(m3), "--json"]
    starts = []

    def count(phase, info):
        # a collection counts when it starts inside the command, which
        # main() runs through _run: the first allocation after main()
        # turns the collector back on may start one in the caller
        frame = sys._getframe()
        while frame is not None and frame.f_code is not cli._run.__code__:
            frame = frame.f_back
        starts.append(phase == "start" and frame is not None)

    def collections(call) -> int:
        with redirect_stdout(io.StringIO()):
            call()  # warm: the parser and the search tables are built
            gc.collect()
            starts.clear()
            call()
        return sum(starts)

    gc.callbacks.append(count)
    try:
        inside = collections(lambda: main(argv))
        # the same work with the collector on, as a library caller runs it
        outside = collections(lambda: cli._run(cli._parser().parse_args(argv)))
    finally:
        gc.callbacks.remove(count)
    assert gc.isenabled()
    assert inside == 0 and outside >= 1


def test_property_a(capsys, torus_file):
    code, out, _ = run(capsys, "property-a", torus_file, "--json")
    assert code == 0 and json.loads(out)["holds"]


def test_classify_with_target(capsys, torus_file):
    code, out, _ = run(capsys, "classify", torus_file, "--surface", "torus",
                       "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["surface"]["name"] == "M1"
    assert payload["orientation_witness_verified"]
    assert payload["hypotheses"]["classification_matches"]
    code, _, _ = run(capsys, "classify", torus_file, "--surface", "N2")
    assert code == 4
    code, _, err = run(capsys, "classify", torus_file, "--surface", "Q9")
    assert code == 2 and "unrecognized surface" in err


def test_reduce_writes_canonical_output(capsys, tmp_path, wedge_file,
                                        spec_file):
    out_path = tmp_path / "L.json"
    code, out, _ = run(capsys, "reduce", wedge_file, "--preserve", spec_file,
                       "-o", str(out_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["free_rank"] == 1
    assert payload["killed_triangles"] == [[0, 101, 102]]
    assert payload["result"]["betti"] == [0, 2, 1]
    assert load_complex(out_path) == torus()
    assert out_path.read_text() == dumps_complex(torus(), "wedge-reduced")


def test_preserve_with_a_contraction_onto_a_killed_name(capsys, tmp_path):
    # two tetrahedra sharing vertex 1, cones from the apexes "a" and "b" on
    # the triangle (1, 1001, 1002), and a loose 3-cycle: after the kills
    # and collapses, contracting (1002, 1003) would rename the killed
    # (1, 1001, 1003) onto the result triangle (1, 1001, 1002), which the
    # second functional never counted
    triangles = [t for quad in ((0, 1, 2, 3), (1, 1001, 1002, 1003))
                 for t in combinations(quad, 3)]
    triangles += [t for x in ("a", "b") for t in ((1, 1001, x), (1, 1002, x),
                                                  (1001, 1002, x))]
    k = Complex2.from_triangles(triangles, extra_edges=combinations((1003, 1004, 1005), 2))
    supports = [[[1, 1001, "b"], [1001, 1002, "a"], [1001, 1002, "b"]],
                [[1, 1001, 1003], [1, 1002, "b"]]]
    dump_complex(k, tmp_path / "k.json", name="k")
    (tmp_path / "spec.json").write_text(json.dumps(supports))
    for command in ("reduce", "report"):
        code, out, err = run(capsys, command, str(tmp_path / "k.json"), "--preserve",
                             str(tmp_path / "spec.json"), "--json")
        assert code == 0 and err == ""
        assert json.loads(out)
    trace = simplify_pipeline(k, PreservationSpec.from_triangle_lists(supports))
    assert (1002, 1003) in trace.contractions
    assert (1, 1001, 1003) in trace.killed_triangles
    # the functionals on the result: result triangles only, rank 2 kept
    assert set().union(*trace.spec.supports) <= set(trace.result.triangles)
    assert trace.spec.rank == 2 and trace.spec.is_surjective_on_cycles(trace.result)


def test_reduce_precondition_exit_3(capsys, torus_file):
    code, _, err = run(capsys, "reduce", torus_file, "--target-rank", "5")
    assert code == 3 and "rank" in err


def test_bounds_surface(capsys):
    code, out, _ = run(capsys, "bounds", "--surface", "M2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["minimal_triangles"] == 24 and payload["exceptional"]
    assert payload["certificate"]["lower_bound"] == 22
    code, out, _ = run(capsys, "bounds", "--surface", "S2", "--json")
    assert json.loads(out)["certificate"] is None
    for text in ("M²", "M１", "M" + "9" * 5000):
        code, _, err = run(capsys, "bounds", "--surface", text)
        assert code == 2 and "unrecognized surface id" in err, text


def _largest_printable_genus(orientable: bool, digits: int) -> int:
    """The largest genus whose minimal triangle count, 2 vertex_floor(chi)
    - 2 chi, has at most the given number of digits: a fixed point of
    genus = (10^digits + 3 - 2 vertex_floor(chi)) // per, where per is how
    much -2 chi grows per genus, from 10^digits // per down."""
    per = 4 if orientable else 2
    genus = 10 ** digits // per
    for _ in range(4):
        chi = SurfaceId(orientable, genus).euler_characteristic
        genus = (10 ** digits + 3 - 2 * vertex_floor(chi)) // per
    return genus


def test_a_genus_is_accepted_exactly_while_its_numbers_print(capsys):
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        pytest.skip("this interpreter converts ints of any length")
    for letter, orientable in (("M", True), ("N", False)):
        genus = _largest_printable_genus(orientable, digits)
        count = minimal_triangle_count(SurfaceId(orientable, genus))
        assert count < 10 ** digits <= minimal_triangle_count(SurfaceId(orientable, genus + 1))
        code, out, err = run(capsys, "bounds", "--surface", f"{letter}{genus}")
        assert code == 0 and err == ""
        assert f"minimal triangulation size {count}\n" in out
        code, out, err = run(capsys, "catalog", "--surface", f"{letter}{genus}")
        assert code == 3 and out == ""
        assert err.startswith(f"not applicable: {letter}{genus}: catalog")
        # the next genus, and 4300 nines, the default limit's worth
        for text in (f"{letter}{genus + 1}", letter + "9" * 4300):
            for command in ("bounds", "catalog"):
                code, out, err = run(capsys, command, "--surface", text)
                assert code == 2 and out == ""
                assert err.startswith("error: unrecognized surface id"), (command, text)


def test_huge_genus_builds_no_catalog_witness(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "bounds", "--surface", "M100000000")
    assert code == 0
    assert out.splitlines()[1] == ("kappa(pi1(M100000000)) = 400069286: "
                                   "lower bound 400069286, no catalog "
                                   "witness built at this genus")
    code, out, _ = run(capsys, "bounds", "--surface", "N257", "--json")
    cert = json.loads(out)["certificate"]
    assert code == 0 and cert["witness_alpha2"] is None
    assert cert["triangle_complexity"] == 596
    for name in ("M129", "N300"):
        code, out, err = run(capsys, "catalog", "--surface", name)
        assert code == 3 and out == ""
        assert err.startswith(f"not applicable: {name}: catalog")
    assert time.perf_counter() - start < 5.0


def test_bounds_profile(capsys, tmp_path):
    f = tmp_path / "bs.json"
    f.write_text(json.dumps({"name": "BS(3,5)", "h1": 2, "h2": 1,
                             "property_a": True}))
    code, out, _ = run(capsys, "bounds", "--profile", str(f), "--json")
    assert code == 0 and json.loads(out)["lower_bound"] == 14
    f.write_text(json.dumps({"name": "F2", "h1": 2, "h2": 0,
                             "property_a": False}))
    code, _, err = run(capsys, "bounds", "--profile", str(f))
    assert code == 3
    assert err == "not applicable: F2: cup-pairing property missing or unknown\n"
    f.write_text(json.dumps({"name": "x", "h1": -1, "h2": 0,
                             "property_a": True}))
    code, _, err = run(capsys, "bounds", "--profile", str(f))
    assert code == 2
    f.write_text("{")
    code, _, err = run(capsys, "bounds", "--profile", str(f))
    assert code == 2 and "line 1 column 2" in err


def test_bounds_complex_and_source_validation(capsys, torus_file):
    code, out, _ = run(capsys, "bounds", torus_file, "--json")
    payload = json.loads(out)
    assert code == 0 and payload["satisfied"]
    assert payload["alpha2"] == payload["alpha2_floor"] == 14
    code, _, err = run(capsys, "bounds")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "bounds", torus_file, "--surface", "M1")
    assert code == 2


def test_catalog_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "--surface", "N1")
    assert code == 0
    f = tmp_path / "n1.json"
    f.write_text(out)
    assert load_complex(f).n_triangles == 10
    code, out, _ = run(capsys, "catalog", "--json")
    names = [r["name"] for r in json.loads(out)["surfaces"]]
    assert names == ["S2", "N1", "M1", "N2", "N3", "M2"]


def test_search_commands(capsys):
    code, out, err = run(capsys, "search", "--surface", "N1",
                         "--max-vertices", "6", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["found"] and payload["min_triangles"] == 10
    assert "enumerating" in err
    code, out, _ = run(capsys, "search", "--one-triple-edge",
                       "--max-vertices", "5", "--json")
    assert code == 0 and json.loads(out)["count"] == 0
    code, _, err = run(capsys, "search", "--max-vertices", "5")
    assert code == 2
    # an out-of-range size is refused before the progress line is printed
    code, _, err = run(capsys, "search", "--surface", "N1",
                       "--max-vertices", "20")
    assert code == 3 and "enumerating" not in err
    code, _, err = run(capsys, "search", "--one-triple-edge",
                       "--max-vertices", "2")
    assert code == 3 and err == "error: search supports 3..8 vertices, got 2\n"
    code, _, err = run(capsys, "search", "--surface", "Q7",
                       "--max-vertices", "20")
    assert code == 2 and "unrecognized surface" in err
    code, _, err = run(capsys, "search", "--surface", "Q7",
                       "--max-vertices", "6")
    assert code == 2 and "unrecognized surface" in err


def test_report_certifies_free_product(capsys, wedge_file, spec_file):
    code, out, _ = run(capsys, "report", wedge_file, "--preserve", spec_file,
                       "--surface", "M1", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["certified"]
    assert payload["classification"]["surface"]["name"] == "M1"
    assert payload["certificate"]["triangle_complexity"] == 14
    assert payload["pipeline"]["free_rank"] == 1
    assert any("kappa(pi1(M1) * F1) = 14" in v for v in payload["verdicts"])
    assert payload["euler_bounds"]["satisfied"]


def test_report_upper_bound_tight_without_bubble(capsys, tmp_path):
    f = tmp_path / "tc.json"
    dump_complex(torus_with_circle(), f, name="tc")
    code, out, _ = run(capsys, "report", str(f))
    assert code == 0
    assert "K realizes the minimum: alpha_2(K) = 14" in out


def test_report_mismatch_exits_4(capsys, torus_file):
    code, out, _ = run(capsys, "report", torus_file, "--surface", "N2")
    assert code == 4 and "NOT confirmed" in out


def test_report_marks_inapplicable_without_crashing(capsys, tmp_path):
    from simpsurf.complex2 import Complex2
    circles = Complex2((0, 1, 2, 3, 4),
                       ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)), ())
    f = tmp_path / "circles.json"
    dump_complex(circles, f, name="circles")
    code, out, _ = run(capsys, "report", str(f), "--json")
    payload = json.loads(out)
    assert code == 0
    assert not payload["euler_bounds"]["applicable"]
    assert payload["certificate"] is None
    assert payload["pipeline"]["free_rank"] == 2


def test_report_on_disconnected_input_says_the_pipeline_ran():
    shifted = [tuple(v + 10 for v in t) for t in TORUS_TRIS]
    k = Complex2.from_triangles(list(TORUS_TRIS) + shifted)
    report = run_report("two-tori", k, target_rank=1)
    assert report.trace.input_disconnected
    assert len(report.trace.killed_triangles) == 1
    assert len(report.trace.collapses) == 16
    assert not any("did not run" in v for v in report.verdicts)
    assert report.verdicts[0] == (
        "input is disconnected; the pipeline ran on every component and "
        "the free-product reading holds per component")


def test_report_walks_the_result_components_once(monkeypatch):
    # classify and the counting bounds ask for the result's components
    # (the pipeline's audit only counts them); the second call gets the
    # first one's tuple
    calls = []
    walk = Complex2.connected_components

    def recording(k):
        comps = walk(k)
        calls.append((k, comps))
        return comps

    monkeypatch.setattr(Complex2, "connected_components", recording)
    report = run_report("wedge", torus_circle_sphere(), target_rank=1)
    assert report.classification.is_surface and report.euler.applicable
    results = [comps for k, comps in calls if k is report.trace.result]
    assert len(results) == 2
    assert len({id(comps) for comps in results}) == 1


def test_report_json_is_deterministic(capsys, wedge_file, spec_file):
    _, first, _ = run(capsys, "report", wedge_file, "--preserve", spec_file,
                      "--json")
    _, second, _ = run(capsys, "report", wedge_file, "--preserve", spec_file,
                       "--json")
    assert first == second


def test_verbose_snapshots(capsys, wedge_file, spec_file):
    code, out, _ = run(capsys, "reduce", wedge_file, "--preserve", spec_file,
                       "-v")
    assert code == 0 and "kill" in out and "betti = (0, 3, 1)" in out
    code, out, _ = run(capsys, "reduce", wedge_file, "--preserve", spec_file)
    assert "kill " not in out


# ------------------------------------------------------------ golden corpus
#
# Every subcommand in text and --json mode on a handful of complexes, with
# the -v, -o, --preserve, --target-rank and --surface options and the exit
# 2, 3 and 4 paths, pinned to stdout, stderr, exit code and -o file bytes.
# Text output is pinned in full and JSON documents by their sha256.  The
# temporary directory appears as <tmp> in arguments and output.  To rewrite
# the pins from trusted output: PYTHONPATH=src:tests python tests/test_cli.py

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _golden_calls(d: Path) -> list[list[str]]:
    """Write the corpus inputs into d; return the corpus calls."""
    shifted = [tuple(v + 10 for v in t) for t in TORUS_TRIS]
    complexes = {"torus": torus(), "wedge": torus_circle_sphere(),
                 "two_tori": Complex2.from_triangles(list(TORUS_TRIS) + shifted),
                 "empty": Complex2((), (), ()),
                 "point": Complex2((0,), (), ())}
    for name, k in complexes.items():
        dump_complex(k, d / f"{name}.json", name=name)
    # report's verdicts on a sphere and on a torus that is not minimal
    dump_complex(catalog(parse_surface_id("S2")), d / "S2.json", name="S2")
    dump_complex(_subdivide(catalog(parse_surface_id("M1")))[0], d / "M1-sd.json",
                 name="M1-sd")
    (d / "spec.json").write_text(json.dumps([[[0, 1, 3]]]))
    (d / "bad.json").write_text('{"triangles": [[1, 1, 2]]}')
    for name, h1, h2, prop in (("BS(3,5)", 2, 1, True), ("F2", 2, 0, False)):
        (d / f"{name}.profile.json").write_text(json.dumps(
            {"name": name, "h1": h1, "h2": h2, "property_a": prop}))
    calls = []
    for name in complexes:
        f, out = str(d / f"{name}.json"), str(d / f"{name}-L.json")
        calls += [["homology", f], ["cup-form", f], ["property-a", f],
                  ["classify", f], ["classify", f, "--surface", "M1"],
                  ["reduce", f], ["reduce", f, "-v"],
                  ["reduce", f, "--target-rank", "1", "-o", out],
                  ["report", f], ["report", f, "-v"],
                  ["report", f, "--surface", "M1", "-o", out],
                  ["bounds", f]]
    torus_f, wedge, spec = (str(d / "torus.json"), str(d / "wedge.json"),
                            str(d / "spec.json"))
    calls += [["reduce", wedge, "--preserve", spec, "-v"],
              ["report", wedge, "--preserve", spec, "--surface", "M1"],
              ["report", str(d / "S2.json")], ["report", str(d / "M1-sd.json")],
              ["bounds", "--surface", "S2"], ["bounds", "--surface", "M2"],
              ["bounds", "--surface", "N3"],
              ["bounds", "--profile", str(d / "BS(3,5).profile.json")],
              ["catalog"], ["catalog", "--surface", "N1"],
              ["catalog", "--surface", "M1", "-o", str(d / "M1-L.json")],
              ["search", "--surface", "N1", "--max-vertices", "6"],
              ["search", "--surface", "S2", "--max-vertices", "3"],
              ["search", "--one-triple-edge", "--max-vertices", "5"],
              # exit 2: malformed, missing, conflicting or unknown input
              ["homology", str(d / "bad.json")],
              ["property-a", str(d / "absent.json")],
              ["bounds"], ["search", "--max-vertices", "5"],
              ["catalog", "-o", str(d / "M1-L.json")],
              ["classify", torus_f, "--surface", "Q9"],
              # exit 3: a violated precondition
              ["reduce", torus_f, "--target-rank", "5"],
              ["report", wedge, "--target-rank", "3"],
              ["bounds", "--profile", str(d / "F2.profile.json")],
              ["search", "--surface", "N1", "--max-vertices", "20"],
              # exit 4: a requested certification failed
              ["classify", torus_f, "--surface", "N2"],
              ["report", torus_f, "--surface", "N2"]]
    return [c + mode for mode in ([], ["--json"]) for c in calls]


def _golden_records(d: Path) -> list[dict]:
    records = []
    for argv in _golden_calls(d):
        for written in d.glob("*-L.json"):
            written.unlink()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        stdout = out.getvalue().replace(str(d), "<tmp>")
        if "--json" in argv:
            stdout = "sha256:" + hashlib.sha256(stdout.encode()).hexdigest()
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(d.glob("*-L.json"))}
        records.append({"argv": " ".join(argv).replace(str(d), "<tmp>"),
                        "code": code, "stdout": stdout,
                        "stderr": err.getvalue().replace(str(d), "<tmp>"),
                        "files": files})
    return records


def test_cli_output_matches_the_golden_corpus(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = _golden_records(tmp_path)
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for g, e in zip(got, expected):
        assert g == e, g["argv"]


# ------------------------------------------------------------ JSON writer
#
# --json documents must stay byte-identical to json.dumps(payload,
# indent=2), the writer the CLI used before and the oracle here.

_SCALARS = st.one_of(st.integers(), st.integers(-3, 3), st.booleans(),
                     st.none(), st.floats(), st.text())
_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(),
                  st.none())
# odd cells planted in an int grid: each sends the grid off the one-format
# path (a bool would print as 1 through %d), or keeps it there (a huge int)
_ODD_CELLS = st.sampled_from([True, False, 0.5, -2.0, float("nan"), 2**64 + 1,
                              -(2**70), None, "7"])


def _int_grid(width: int):
    return st.lists(st.lists(st.integers(-9, 9), min_size=width, max_size=width),
                    min_size=1, max_size=5)


def _plant(grid: list, at: int, cell) -> list:
    flat = [x for row in grid for x in row]
    flat[at % len(flat)] = cell
    width = len(grid[0])
    return [flat[i:i + width] for i in range(0, len(flat), width)]


# lists of equal-length int rows, as complex_to_dict writes edges and
# triangles, some with one odd cell, and lists of empty rows
_GRIDS = st.one_of(
    st.integers(1, 3).flatmap(_int_grid),
    st.builds(_plant, st.integers(1, 3).flatmap(_int_grid), st.integers(0),
              _ODD_CELLS),
    st.lists(st.just([]), min_size=1, max_size=3))

# lists of rows as the trace and the cup form write them: ints, strs and
# flat int/str lists of different lengths, some with one odd item that
# sends the list off the one-format path, and some with an empty row
_ROW_SCALARS = st.one_of(st.integers(), st.integers(-3, 3), st.text(max_size=3),
                         st.sampled_from(["%s", "%d", "a%", '"', "\u00e9\n"]))
_ROW_ITEMS = st.one_of(_ROW_SCALARS, st.lists(_ROW_SCALARS, min_size=1, max_size=3))
_ODD_ITEMS = st.sampled_from([True, False, 0.5, float("inf"), None, [], [[1]],
                              [1, [2]], [1, False], ["a", None], (1, 2)])
_ROW_LISTS = st.lists(st.lists(_ROW_ITEMS, min_size=1, max_size=4),
                      min_size=1, max_size=5)


def _plant_item(rows: list, at: int, item) -> list:
    rows = [list(row) for row in rows]
    row = rows[at % len(rows)]
    row.insert(at % (len(row) + 1), item)
    return rows


def _plant_row(rows: list, at: int) -> list:
    return rows[:at % len(rows)] + [[]] + rows[at % len(rows):]


_ROWS = st.one_of(
    _ROW_LISTS,
    st.builds(_plant_item, _ROW_LISTS, st.integers(0), _ODD_ITEMS),
    st.builds(_plant_row, _ROW_LISTS, st.integers(0)))

_PAYLOADS = st.recursive(
    st.one_of(_SCALARS, st.lists(st.integers()),
              st.lists(st.lists(st.integers(-9, 9), max_size=3)), _GRIDS, _ROWS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None, database=None)
@given(_PAYLOADS)
def test_json_writer_matches_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2)


def test_json_writer_keeps_json_scalars_in_int_grids():
    # rows of exact ints, strs and flat lists of them are one format call;
    # any other item, and an empty row, takes the per-value path, so a
    # bool stays true rather than %d's 1
    for grid in ([[0, 1, 2], [3, 4, 5]], [[2**64 + 1, -(2**70)]],
                 [[1, True], [2, 3]], [[0, 1], [2, 2.5]], [[1], [2, 3]],
                 [[], []], [(1, 2), [3, 4]],
                 [["kill", [0, 1, 2]], ["collapse", [0, 1, 1]]],
                 [[0, [1, 2]], [[0, 1], [0, 1, 2]]], [["L.0", ["R.1", 2]]],
                 [["%s", "%d"], ['"%', ["\u00e9", 1]]], [[1], []], [["x", None]],
                 [[1, []]], [[1, [[2]]]], [[1, [True]]], [[(1, 2)]]):
        assert cli._json_text(grid) == json.dumps(grid, indent=2), grid
        assert cli._json_text({"g": grid}) == json.dumps({"g": grid}, indent=2)
    assert "true" in cli._json_text([[1, True]])


def test_report_json_on_str_labels_is_json_dumps(tmp_path, monkeypatch, capsys):
    # a wedge of two tori is namespaced L./R., so the trace's collapses,
    # contractions and the result's simplices are rows of strs
    k = attach_circle(wedge(torus(), 0, torus(), 0), "L.3")
    f = tmp_path / "wedge.json"
    dump_complex(k, f, name="wedge")
    payloads = []
    print_json = cli._print_json
    monkeypatch.setattr(cli, "_print_json",
                        lambda payload: (payloads.append(payload), print_json(payload)))
    assert main(["report", str(f), "--target-rank", "1", "--json"]) == 0
    (payload,) = payloads
    pipeline = payload["pipeline"]
    assert pipeline["contractions"] and pipeline["free_rank"] == 3
    assert any(type(face) is str for face, _ in pipeline["collapses"])
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_json_writer_matches_json_dumps_on_the_golden_corpus(tmp_path,
                                                             monkeypatch):
    payloads = []
    monkeypatch.setattr(cli, "_print_json", payloads.append)
    for argv in _golden_calls(tmp_path):
        if "--json" in argv:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                main(argv)
    assert len(payloads) > 40
    for payload in payloads:
        assert cli._json_text(payload) == json.dumps(payload, indent=2)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(_golden_records(Path(scratch)),
                                     indent=1) + "\n")
