"""The library makes no reference cycles.

cli.main runs each command with the cyclic garbage collector paused,
which frees nothing only if reference counting alone frees everything a
command drops.  Each call here runs twice, a warm run that fills the
caches and a measured run with the collector disabled, and the measured
run must leave gc.collect() nothing to free.
"""

import gc
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from simpsurf import cli
from simpsurf.bounds import parse_surface_id
from simpsurf.homology import (betti_numbers, cup_pairing_on_h1, has_property_a,
                               homology_summary)
from simpsurf.io import (complex_from_dict, complex_to_dict, dump_complex,
                         load_complex, load_functionals, load_group_profile,
                         load_named_complex)
from simpsurf.reduction import (collapse_all, eliminate_maximal_edges,
                                simplify_pipeline)
from simpsurf.search import (canonical_form, complexes_with_one_triple_edge,
                             min_triangles_for_surface)
from simpsurf.surfaces import catalog, classify

from _fixtures import label_cases
from test_cli import _golden_calls


def cyclic_garbage(call) -> int:
    """What gc.collect() frees after a measured run of call()."""
    call()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_every_golden_cli_call_leaves_no_cyclic_garbage(tmp_path):
    # argparse's help formatters leave some cyclic garbage once, when the
    # parser is built, which main() does before it pauses the collector
    cli._parser()

    def run(argv):
        for written in tmp_path.glob("*-L.json"):
            written.unlink()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(argv)

    calls = _golden_calls(tmp_path)
    left = {" ".join(argv).replace(str(tmp_path), "<tmp>"): n for argv in calls
            if (n := cyclic_garbage(lambda: run(argv)))}
    assert len(calls) > 100 and left == {}


_CASES = label_cases()
_ENTRY_POINTS = {
    "homology_summary": homology_summary,
    "betti_numbers": betti_numbers,
    "cup_pairing_on_h1": cup_pairing_on_h1,
    "has_property_a": has_property_a,
    "classify": classify,
    "simplify_pipeline": simplify_pipeline,
    "simplify_pipeline_to_rank_0": lambda k: simplify_pipeline(k, target_rank=0),
    "collapse_all": collapse_all,
    "eliminate_maximal_edges": eliminate_maximal_edges,
    "canonical_form": canonical_form,
    "complex_from_dict": lambda k: complex_from_dict(complex_to_dict(k)),
}


@pytest.mark.parametrize("name", list(_ENTRY_POINTS))
def test_entry_points_leave_no_cyclic_garbage(name):
    call = _ENTRY_POINTS[name]
    # one measured run over every case; the message names the cases that
    # leave garbage, measured one at a time, only when it is needed
    assert cyclic_garbage(lambda: [call(k) for _, k in _CASES]) == 0, [
        f"{labels} {k.n_triangles}" for labels, k in _CASES
        if cyclic_garbage(lambda: call(k))]


@pytest.mark.parametrize("call", [
    lambda: [catalog(parse_surface_id(s)) for s in ("S2", "N1", "M1", "N3", "M3")],
    lambda: min_triangles_for_surface(7, parse_surface_id("N2")),
    lambda: min_triangles_for_surface(7, parse_surface_id("M1")),
    lambda: complexes_with_one_triple_edge(7),
], ids=["catalog", "min_triangles_N2", "min_triangles_M1", "one_triple_edge"])
def test_searches_and_the_catalog_leave_no_cyclic_garbage(call):
    assert cyclic_garbage(call) == 0


def test_loaders_leave_no_cyclic_garbage(tmp_path):
    for i, (_, k) in enumerate(_CASES):
        dump_complex(k, tmp_path / f"{i}.json", name=str(i))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([[[0, 1, 2]], [[0, 1, 3], [0, 2, 3]]]))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"name": "BS(3,5)", "h1": 2, "h2": 1,
                                   "property_a": True}))

    def load():
        for i in range(len(_CASES)):
            load_complex(tmp_path / f"{i}.json")
            load_named_complex(tmp_path / f"{i}.json")
        load_functionals(spec)
        load_group_profile(profile)

    assert cyclic_garbage(load) == 0
