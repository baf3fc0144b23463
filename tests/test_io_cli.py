"""Point-set file formats and command-line interface."""

import json
from fractions import Fraction as F

import pytest

from dtl.cli import run
from dtl.errors import FormatError
from dtl.geometry import QPoint
from dtl.pointset_io import (
    DistanceMatrix,
    ExactPointSet,
    FloatPointSet,
    dump_point_file,
    ground_set_from_file,
    load_point_file,
)
from dtl.qscalar import QScalar

HEX_TEXT = """dtl-pointset v1 D=3
p 1 0 0 0
p 1/2 0 0 1/2
p -1/2 0 0 1/2
p -1 0 0 0
p -1/2 0 0 -1/2
p 1/2 0 0 -1/2
"""


@pytest.fixture
def hex_file(tmp_path):
    f = tmp_path / "hex.dtl"
    f.write_text(HEX_TEXT)
    return f


def test_load_exact(hex_file):
    data = load_point_file(hex_file)
    assert isinstance(data, ExactPointSet)
    assert data.disc == 3
    assert len(data.points) == 6
    assert data.points[1] == QPoint(QScalar(F(1, 2)), QScalar(0, F(1, 2), 3))


def test_exact_round_trip(hex_file, tmp_path):
    data = load_point_file(hex_file)
    out = tmp_path / "copy.dtl"
    out.write_text(dump_point_file(data))
    assert load_point_file(out) == data
    assert out.read_text() == HEX_TEXT


def test_load_float(tmp_path):
    f = tmp_path / "pts.dtl"
    f.write_text("dtl-pointset v1 float\np 0.0 0.0\np 1.5 -2.25\n")
    data = load_point_file(f)
    assert isinstance(data, FloatPointSet)
    assert list(data.points) == [(0.0, 0.0), (1.5, -2.25)]


def test_load_distance_matrix(tmp_path):
    f = tmp_path / "m.dtl"
    side, diag = "5/2 -1/2", "5/2 1/2"
    entries = []
    for i in range(5):
        for j in range(i + 1, 5):
            k = min(j - i, 5 - (j - i))
            entries.append(side if k == 1 else diag)
    f.write_text("dtl-distmatrix v1 D=5 n=5\n" + "\n".join(entries) + "\n")
    data = load_point_file(f)
    assert isinstance(data, DistanceMatrix)
    assert data.n == 5
    ground = ground_set_from_file(f)
    assert len(ground.distinct_shapes(range(5))) == 2


@pytest.mark.parametrize(
    "text",
    [
        "not-a-header\n",
        "dtl-pointset v2 D=3\n",
        "dtl-pointset v1 D=4\np 0 0 0 0\n",  # non-square-free field
        "dtl-pointset v1 D=3\np 1 0\n",  # wrong arity for exact mode
        "dtl-distmatrix v1 D=1 n=3\n1 0\n",  # missing entries
        "dtl-pointset v1 float\np 1.0 nope\n",
    ],
)
def test_malformed_rejected(tmp_path, text):
    f = tmp_path / "bad.dtl"
    f.write_text(text)
    with pytest.raises(FormatError):
        load_point_file(f)


def test_format_error_carries_line(tmp_path):
    f = tmp_path / "bad.dtl"
    f.write_text("dtl-pointset v1 D=3\np 0 0 0 0\np 1 0\n")
    with pytest.raises(FormatError, match=r":3"):
        load_point_file(f)


# --- CLI --------------------------------------------------------------------

def test_cli_census_row(capsys):
    assert run(["census", "--lattice", "square", "--n", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "kind,n,include_degenerate,distinct,ratio,elapsed_ms,workers"
    fields = out[1].split(",")
    assert fields[:4] == ["square", "3", "true", "10"]
    assert fields[4] == "0.1234567901"


def test_cli_census_series_and_fit(capsys):
    assert run(
        ["census", "--lattice", "square", "--series", "2:4", "--fit"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5  # header + 3 rows + fit comment
    assert out[-1].startswith("# fit c=")


def test_cli_constant(capsys):
    assert run(["constant", "--cutoff", "100000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_bound"] < 0.0633


def test_cli_ngon(capsys):
    assert run(["ngon", "--n", "7"]) == 0
    assert capsys.readouterr().out.strip() == "7,4"


def test_cli_triples(capsys):
    assert run(["triples", "--max-r", "13"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p,q,r"
    assert out[1:5] == ["3,4,5", "4,3,5", "5,12,13", "12,5,13"]


def test_cli_rotatable(capsys):
    assert run(["rotatable", "--n", "5", "--triple", "3,4,5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 5


def test_cli_verify_origin_reduction(capsys):
    assert run(["verify", "--lemma", "origin-reduction", "--n", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_cli_search(capsys):
    assert run(["search", "--ground", "ngon:10", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_size"] == 5
    assert payload["witnesses"][0]["verified"] is True


def test_cli_pointset(tmp_path, capsys):
    f = tmp_path / "hex.dtl"
    f.write_text(HEX_TEXT)
    assert run(["pointset", "--file", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "distinct_triangles,3"


# Collinear (0,0), (1,0), (2,0) plus (0,1): shapes (1,1,2), (1,2,5), (1,4,5)
# and the degenerate (1,1,4).
FLOAT_FOUR = "dtl-pointset v1 float\np 0 0\np 1 0\np 2 0\np 0 1\n"
MATRIX_FOUR = "dtl-distmatrix v1 D=1 n=4\n1 0\n4 0\n1 0\n1 0\n2 0\n5 0\n"


def test_cli_pointset_no_degenerate_distance_matrix(tmp_path, capsys):
    f = tmp_path / "m.dtl"
    f.write_text(MATRIX_FOUR)
    assert run(["pointset", "--file", str(f)]) == 0
    assert "shape,1,1,4" in capsys.readouterr().out.splitlines()
    assert run(["pointset", "--file", str(f), "--no-include-degenerate"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "distinct_triangles,3", "shape,1,1,2", "shape,1,2,5", "shape,1,4,5"
    ]


def test_cli_pointset_no_degenerate_float_is_an_error(tmp_path, capsys):
    f = tmp_path / "pts.dtl"
    f.write_text(FLOAT_FOUR)
    assert run(["pointset", "--file", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "distinct_triangles,4"
    assert run(["pointset", "--file", str(f), "--no-include-degenerate"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "degeneracy" in captured.err


@pytest.mark.parametrize("tol,code", [("0", 0), ("-1", 1), ("nan", 1)])
def test_cli_pointset_tolerance(tmp_path, capsys, tol, code):
    f = tmp_path / "pts.dtl"
    f.write_text(FLOAT_FOUR)
    assert run(["pointset", "--file", str(f), "--tolerance", tol]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.splitlines() == [
            "distinct_triangles,4", "shape,1.0,1.0,2.0", "shape,1.0,1.0,4.0",
            "shape,1.0,2.0,5.0", "shape,1.0,4.0,5.0",
        ]
    else:
        assert captured.out == "" and "tolerance" in captured.err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_census_workers_below_one_is_a_usage_error(capsys, workers):
    assert run(["census", "--lattice", "square", "--n", "3", "--workers", workers]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    # domain errors exit 1
    assert run(["census", "--lattice", "square", "--n", "0"]) == 1
    assert run(["pointset", "--file", str(tmp_path / "missing.dtl")]) == 1
    # usage errors exit 2
    assert run(["no-such-command"]) == 2
    assert run(["census", "--lattice", "bogus", "--n", "3"]) == 2
    capsys.readouterr()


def test_cli_out_file_and_manifest(tmp_path, capsys):
    out = tmp_path / "row.csv"
    assert run(
        ["census", "--lattice", "square", "--n", "3", "--out", str(out)]
    ) == 0
    capsys.readouterr()
    assert out.read_text().splitlines()[1].startswith("square,3,true,10,")
    manifest = json.loads((out.with_name("row.csv.manifest.json")).read_text())
    assert manifest["command"] == "census"
    assert manifest["params"]["n"] == 3
    assert manifest["outputs"] == [str(out)]
    assert "started_at" in manifest and "finished_at" in manifest


def test_cli_general_lattice(capsys):
    assert run(
        ["census", "--lattice", "general", "--gram", "1,0,1", "--n", "3"]
    ) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert fields[3] == "10"


def test_cli_version(capsys):
    assert run(["--version"]) == 0
    capsys.readouterr()
