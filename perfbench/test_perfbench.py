"""Tests of the benchmark harness itself (not of dtl).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import UNITS, report
from spans import LAYER_UNITS, Tracer, self_times
from workloads import WORKLOADS, check_witnesses, shape_count, square_q, tri_q

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.run", 0.0, 10.0, -1],
        ["search.max_subset_with_k_shapes", 1.0, 7.0, 0],
        ["geometry.sq_dist", 2.0, 3.0, 1],
        ["geometry.sq_dist", 4.0, 4.5, 1],
        ["pointset_io.load_point_file", 8.0, 9.0, 0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 4.5, 1.0, 0.5, 1.0])
    # Self times of a properly nested tree add up to the root's duration.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_layer_self_time_and_absent_entry_points():
    tracer = Tracer()
    tracer.modules = {"cli", "search"}
    tracer.wrapped = {"cli.run", "search.max_subset_with_k_shapes"}
    tracer.spans = [
        ["cli.run", 0.0, 4.0, -1],
        ["search.max_subset_with_k_shapes", 1.0, 3.0, 0],
    ]
    tracer.facts["search.nodes_explored"] = 10
    got = tracer.metrics()
    assert got["cli.self_s"] == pytest.approx(2.0)
    assert got["search.self_s"] == pytest.approx(2.0)
    assert got["cli.calls"] == 1
    assert got["search.nodes_explored"] == 10
    # GroundSet.shape_key and the other modules were not found: absent, no error.
    assert "search.shape_key_calls" not in got
    assert "search.shape_keys_per_node" not in got
    assert "lattice.self_s" not in got
    assert "qscalar.init_calls" not in got


def test_wrong_census_count_is_a_failure(tmp_path):
    check = WORKLOADS["census-square-128"].check
    header = "kind,n,include_degenerate,distinct,ratio,elapsed_ms,workers"
    (tmp_path / "census.csv").write_text(f"{header}\nsquare,128,true,47621112,0.17,1,1\n")
    assert check({}, tmp_path) == []
    (tmp_path / "census.csv").write_text(f"{header}\nsquare,128,true,47621113,0.17,1,1\n")
    assert check({}, tmp_path) == ["census distinct 47621113 != 47621112"]


def test_witness_recount_catches_a_bad_witness():
    points = [(u, v) for u in range(3) for v in range(3)]
    # The four corners of the 3x3 grid span one shape (isosceles right).
    good = {"max_size": 4, "witnesses": [{"indices": [0, 2, 6, 8]}]}
    assert check_witnesses(points, good, 1, 4, 1, square_q) == []
    bad = {"max_size": 4, "witnesses": [{"indices": [0, 1, 2, 4]}]}
    assert check_witnesses(points, bad, 1, 4, 1, square_q) == [
        "witness (0, 1, 2, 4) spans more than 1 shapes"
    ]
    twice = {"max_size": 4, "witnesses": [{"indices": [0, 2, 6, 8]},
                                          {"indices": [8, 6, 2, 0]}]}
    assert "duplicate witnesses" in check_witnesses(points, twice, 1, 4, 2, square_q)


def test_integer_recounts():
    unit_square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert shape_count(unit_square, square_q) == 1
    # Three collinear lattice points: one degenerate shape (1, 1, 4).
    assert shape_count([(0, 0), (1, 0), (2, 0)], tri_q) == 1
    # The unit rhombus: two equilateral (1,1,1) and two (1,1,3) triangles.
    assert shape_count(unit_square, tri_q) == 2


def test_failed_run_is_reported_as_incorrect(capsys):
    summary = {"attempted": 4, "failed": 1, "untraced_reps": 4, "traced_reps": 0,
               "metrics": {"wall_s": 1.5}, "units": {"wall_s": "s"},
               "samples": {"wall_s": 3}}
    result = report("paper-checks", 1, summary)
    assert result == {"correct": False, "attempted": 4, "failed": 1,
                      "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    assert "(1 of 4 runs failed)" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_input_bytes(tmp_path, name):
    make = WORKLOADS[name].make_inputs
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    assert make(7, dirs[0]) == make(7, dirs[1])
    make(8, dirs[2])
    files = sorted(p.name for p in dirs[0].iterdir())
    for f in files:
        assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
    if files:  # the census workloads have no inputs; the seed is unused
        assert any((dirs[0] / f).read_bytes() != (dirs[2] / f).read_bytes() for f in files)


def test_tracer_records_a_real_command(tmp_path):
    """Installs the tracer in a fresh interpreter and runs one small search."""
    out = tmp_path / "s.json"
    code = f"""
import json, sys
sys.path[:0] = [{str(HERE.parent / 'src')!r}, {str(HERE)!r}]
import dtl.cli
from spans import Tracer
t = Tracer(); t.install()
assert dtl.cli.run(["search", "--ground", "ngon:6", "--k", "2", "--out", {str(out)!r}]) == 0
print(json.dumps({{"metrics": t.metrics(), "spans": len(t.spans)}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    m = got["metrics"]
    assert m["cli.calls"] == 1
    assert m["search.nodes_explored"] == json.loads(out.read_text())["nodes_explored"] > 0
    assert m["search.witnesses"] == len(json.loads(out.read_text())["witnesses"])
    assert m["search.shape_key_calls"] > 0 and m["qscalar.init_calls"] > 0
    assert m["lattice.calls"] == 0 and m["rotation.triples_enumerated"] == 0
    assert m["search.self_s"] > 0 and m["cli.self_s"] > 0


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == UNITS
    # The spec lists a subset of the harness's workloads, with the same reasons.
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w["name"]: WORKLOADS[w["name"]].why for w in spec["workloads"]
    }
