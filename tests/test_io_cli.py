"""Point-set file formats and command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import dtl
from dtl import cli, lattice, pointset_io, rotation
from dtl.cli import run
from dtl.errors import FormatError
from dtl.pointset_io import load_point_file
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


def test_load_exact(hex_file, tmp_path, monkeypatch):
    ground = load_point_file(hex_file)
    assert (ground.mode, ground.size) == ("coordinates", 6)
    assert ground.values == (QScalar(1), QScalar(3), QScalar(4))
    assert ground.label == f"file:{hex_file}"
    monkeypatch.chdir(tmp_path)  # the label keeps the path as given
    assert load_point_file("./hex.dtl").label == "file:./hex.dtl"


def test_load_float(tmp_path):
    f = tmp_path / "pts.dtl"
    f.write_text("dtl-pointset v1 float\np 0.0 0.0\np 1.5 -2.25\n")
    ground = load_point_file(f)
    assert (ground.mode, ground.size) == ("float", 2)
    assert ground.values == (1.5**2 + 2.25**2,)
    assert ground.label == f"file:{f}"


def test_load_distance_matrix(tmp_path):
    f = tmp_path / "m.dtl"
    side, diag = "5/2 -1/2", "5/2 1/2"
    entries = []
    for i in range(5):
        for j in range(i + 1, 5):
            k = min(j - i, 5 - (j - i))
            entries.append(side if k == 1 else diag)
    f.write_text("dtl-distmatrix v1 D=5 n=5\n" + "\n".join(entries) + "\n")
    ground = load_point_file(f)
    assert (ground.mode, ground.size) == ("distance-matrix", 5)
    s, d = QScalar(F(5, 2), F(-1, 2), 5), QScalar(F(5, 2), F(1, 2), 5)
    assert ground.values == (s, d)
    assert ground.label == f"file:{f}"
    assert ground.sorted_sides() == [(0, 0, 1), (0, 1, 1)]  # (s, s, d) and (s, d, d)


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
    # the 1-based file line, counting comment and blank lines
    cases = [
        ("dtl-pointset v1 D=3\np 0 0 0 0\np 1 0\n", 3),
        ("# hexagon\n\ndtl-pointset v1 D=3\np 0 0 0 0\np 1 x 0 0\n", 5),
        ("# c\n\ndtl-pointset v1 D=4\n", 3),
        ("# c\n\ndtl-pointset v1 float\np 0 0\n\np 1 nope\n", 6),
        ("dtl-distmatrix v1 D=1 n=3\n1 0\n1 0\n1 x\n", 4),
        ("# m\ndtl-distmatrix v1 D=1 n=3\n1 0 1 0\n\n# last\n1/0 0\n", 6),  # zero denominator
    ]
    f = tmp_path / "bad.dtl"
    for text, line in cases:
        f.write_text(text)
        with pytest.raises(FormatError, match=rf"bad\.dtl:{line}: "):
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


@pytest.mark.parametrize("flags, message", [
    (["--n", "5", "--fit"], "census --fit requires --series"),
    (["--n", "5", "--series", "2:4"], "census takes --n or --series, not both"),
    (["--n", "5", "--series", "2:4", "--fit"], "census takes --n or --series, not both"),
])
def test_cli_census_flag_that_does_nothing_is_an_error(capsys, flags, message):
    assert run(["census", "--lattice", "square", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--lemma", "3.1", "--n", "4", "--cases-csv", "F"],
     "verify --lemma 3.1 does not read --cases-csv"),
    (["verify", "--lemma", "3.1", "--n", "4", "--cases-csv", "F", "--max-r", "7", "--m", "9"],
     "verify --lemma 3.1 does not read --max-r, --m, --cases-csv"),
    (["verify", "--lemma", "origin-reduction", "--n", "3", "--triple", "3,4,5"],
     "verify --lemma origin-reduction does not read --triple"),
    (["verify", "--lemma", "3.2", "--max-r", "13", "--n", "5", "--m", "5"],
     "verify --lemma 3.2 does not read --m"),
    (["verify", "--lemma", "3.3", "--max-r", "7"], "verify --lemma 3.3 does not read --max-r"),
    (["verify", "--lemma", "3.3", "--cases-csv", "F"],
     "verify --lemma 3.3 does not read --cases-csv"),
    (["ngon", "--n", "5", "--series", "3:4"], "ngon takes --n or --series, not both"),
    (["rotatable", "--n", "5", "--count-triangles", "--triple", "3,4,5"],
     "rotatable takes --triple or --count-triangles, not both"),
])
def test_cli_flag_that_is_not_read_is_an_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err
    assert list(tmp_path.iterdir()) == []  # no --cases-csv file either


def test_cli_census_fit_needs_three_rows(capsys):
    assert run(["census", "--lattice", "square", "--series", "2:3", "--fit"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "at least 3 rows" in captured.err


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


def test_cli_triples_count_only_is_the_listed_count(capsys):
    for max_r in ("5", "13", "5000"):
        assert run(["triples", "--max-r", max_r]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert run(["triples", "--max-r", max_r, "--count-only"]) == 0
        assert capsys.readouterr().out == listed[-1].removeprefix("# count,") + "\n"
    assert run(["triples", "--max-r", "4", "--count-only"]) == 1
    assert capsys.readouterr().err == "error: max_r must be at least 5\n"


def test_cli_triples_refuses_a_long_list(capsys, monkeypatch):
    def unbuilt(max_r):
        raise AssertionError("triples built")

    monkeypatch.setattr(rotation, "_triple_arrays", unbuilt)
    assert run(["triples", "--max-r", str(rotation.TRIPLE_LIST_LIMIT + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: triple list refused for max_r={rotation.TRIPLE_LIST_LIMIT + 1} "
        f"> {rotation.TRIPLE_LIST_LIMIT}\n")


def test_cli_rotatable(capsys):
    assert run(["rotatable", "--n", "5", "--triple", "3,4,5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 5


def test_cli_verify_origin_reduction(capsys):
    assert run(["verify", "--lemma", "origin-reduction", "--n", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    # n = 2..4, both degenerate modes, square and triangular
    assert payload["checked"] == 12


@pytest.mark.parametrize("n", ["0", "1"])
def test_cli_verify_origin_reduction_needs_two_points(capsys, n):
    assert run(["verify", "--lemma", "origin-reduction", "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--n >= 2" in captured.err


@pytest.mark.parametrize(
    "lemma, flags, message",
    [("3.1", ["--n", n], "n >= 4") for n in ("0", "1", "2", "3")]
    + [("3.2", flags, "max_r >= 5 and max_n >= 1")
       for flags in (["--max-r", "0"], ["--max-r", "4"], ["--n", "0"])],
)
def test_cli_verify_refuses_an_empty_check(capsys, lemma, flags, message):
    # an input that checks nothing is an error, not a pass with "checked": 0
    assert run(["verify", "--lemma", lemma, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize(
    "flags, message", [(["--m", "0"], "m > 4"), (["--n", "0"], "n >= m^5")]
)
def test_cli_verify_zero_is_not_the_default(capsys, flags, message):
    # an explicit 0 reaches the lemma's own precondition instead of its default
    assert run(["verify", "--lemma", "3.3", *flags]) == 1
    assert message in capsys.readouterr().err


def test_cli_verify_origin_reduction_names_the_lattice(capsys, monkeypatch):
    real = lattice.tri_lattice_census

    def off_by_one(n, include_degenerate=True, workers=1):
        c = real(n, include_degenerate, workers)
        return dataclasses.replace(c, distinct=c.distinct + 1)

    monkeypatch.setattr(lattice, "tri_lattice_census", off_by_one)
    assert run(["verify", "--lemma", "origin-reduction", "--n", "3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False
    assert [(v["lattice"], v["n"]) for v in payload["violations"]] == [
        ("triangular", 2), ("triangular", 2), ("triangular", 3), ("triangular", 3)
    ]


def _spoil_minimality(real):
    def spoiled(n):
        rep = real(n)
        rep.violations.append(((1, 2), (3, 1)))
        return rep

    return spoiled


def _spoil_point_bounds(real):
    def spoiled(max_r, max_n):
        rep = real(max_r, max_n)
        rep.cases[0].ok = False
        return rep

    return spoiled


def _spoil_spot_check(real):
    def spoiled(m, n, t):
        return dataclasses.replace(real(m, n, t), ok=False)

    return spoiled


@pytest.mark.parametrize("name, spoil, flags", [
    ("verify_minimality", _spoil_minimality, ["--lemma", "3.1", "--n", "5"]),
    ("lemma32_bound_check", _spoil_point_bounds,
     ["--lemma", "3.2", "--max-r", "13", "--n", "5"]),
    ("lemma33_spot_check", _spoil_spot_check, ["--lemma", "3.3"]),
])
def test_cli_verify_violation_exits_one(tmp_path, capsys, monkeypatch, name, spoil, flags):
    monkeypatch.setattr(cli, name, spoil(getattr(cli, name)))
    out = tmp_path / "report.json"
    assert run(["verify", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["pass"] is False


JSON_COMMANDS = [
    ["rotatable", "--n", "5", "--triple", "3,4,5"],
    ["rotatable", "--n", "5", "--count-triangles"],
    ["constant", "--cutoff", "1000"],
    ["verify", "--lemma", "origin-reduction", "--n", "2"],
    ["verify", "--lemma", "3.1", "--n", "4"],
    ["verify", "--lemma", "3.2", "--max-r", "13", "--n", "5"],
    ["verify", "--lemma", "3.3"],
    ["search", "--ground", "ngon:6", "--k", "2"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: "_".join(a).replace("-", ""))
def test_cli_report_ends_with_elapsed_ms(capsys, argv):
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload)[-1] == "elapsed_ms"
    assert isinstance(payload["elapsed_ms"], float) and payload["elapsed_ms"] >= 0


def test_cli_search(capsys):
    assert run(["search", "--ground", "ngon:10", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_size"] == 5
    assert payload["witnesses"][0]["verified"] is True


def test_cli_search_manifest_keeps_tolerance_a_number(tmp_path, capsys):
    out = tmp_path / "search.json"
    argv = ["search", "--ground", "ngon:6", "--k", "2", "--tolerance", "1e-6"]
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    manifest = json.loads(out.with_name("search.json.manifest.json").read_text())
    assert manifest["params"]["tolerance"] == 1e-6


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_cli_search_size_cap_below_one_is_a_usage_error(capsys, cap):
    assert run(["search", "--ground", "ngon:6", "--k", "2", "--size-cap", cap]) == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("ground, message", [
    ("ngon:abc", "bad ground spec"), ("grid:x", "bad ground spec"),
    ("disc:5", "bad ground spec"), ("grid:0", "grid needs n >= 1"),
])
def test_cli_search_bad_ground_is_an_error(capsys, ground, message):
    assert run(["search", "--ground", ground, "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err


def test_cli_verify_unwritable_cases_csv_is_an_error(tmp_path, capsys):
    path = tmp_path / "missing" / "cases.csv"
    assert run(["verify", "--lemma", "3.2", "--cases-csv", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: cannot write {path}" in captured.err


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


@pytest.mark.parametrize("command", [["pointset", "--file"], ["search", "--k", "1", "--ground"]],
                         ids=["pointset", "search"])
@pytest.mark.parametrize("text", [
    "dtl-pointset v1 float\np 0 0\np 1 0\np nan 1\np 0 1\n",
    "dtl-pointset v1 float\np nan 0\np 1 0\np 2 1\np 0 1\n",
    "dtl-pointset v1 float\np 0 0\np inf 0\np 2 1\np 0 1\n",
    # six entries, as many as n(n - 1)/2 asks for at n = -3
    "dtl-distmatrix v1 D=1 n=-3\n" + "1 0\n" * 6,
], ids=["nan-third", "nan-first", "inf", "matrix-n-3"])
def test_cli_rejects_a_non_finite_or_negative_size_file(tmp_path, capsys, command, text):
    f = tmp_path / "bad.dtl"
    f.write_text(text)
    spec = f"file:{f}" if command[0] == "search" else str(f)
    assert run(command + [spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("command", [["pointset", "--file"], ["search", "--k", "1", "--ground"]],
                         ids=["pointset", "search"])
@pytest.mark.parametrize("text", [
    # 1e200 squared raises OverflowError
    "dtl-pointset v1 float\np 0 0\np 1e200 0\np 2 1\np 0 1\n",
    # 1e154 squared is finite, but the two squares sum to inf
    "dtl-pointset v1 float\np 0 0\np 1e154 1e154\np 2 1\np 0 1\n",
], ids=["square", "sum"])
def test_cli_rejects_squared_distances_past_the_float_range(tmp_path, capsys, command, text):
    f = tmp_path / "big.dtl"
    f.write_text(text)
    spec = f"file:{f}" if command[0] == "search" else str(f)
    assert run(command + [spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "overflow" in captured.err


@pytest.mark.parametrize("command", [["pointset", "--file"], ["search", "--k", "1", "--ground"]],
                         ids=["pointset", "search"])
@pytest.mark.parametrize("text, pair", [
    ("dtl-pointset v1 float\np 0 0\np 0 0\np 1 0\np 0 1\n", "0, 1"),
    # (1, 0) and (0, 1) both repeat; (0, 2) comes first in pair order
    ("dtl-pointset v1 float\np 1 0\np 0 1\np 1 0\np 0 1\n", "0, 2"),
    ("dtl-pointset v1 D=1\np 0 0 0 0\np 0 0 0 0\np 1 0 0 0\np 0 0 1 0\n", "0, 1"),
], ids=["float", "float-two-pairs", "exact"])
def test_cli_rejects_duplicate_points(tmp_path, capsys, command, text, pair):
    f = tmp_path / "dup.dtl"
    f.write_text(text)
    spec = f"file:{f}" if command[0] == "search" else str(f)
    assert run(command + [spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: duplicate points at indices {pair}\n"


@pytest.mark.parametrize("ground, size", [("grid:9", 81), ("ngon:65", 65)])
def test_cli_search_refuses_an_oversized_ground_before_building_it(
    monkeypatch, capsys, ground, size
):
    def build(*args, **kwargs):
        raise AssertionError("ground set built")

    for name in ("ground_set_from_points", "ground_set_from_matrix", "ground_set_from_floats"):
        monkeypatch.setattr(f"dtl.search.{name}", build)
    assert run(["search", "--ground", ground, "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ground set of size {size} exceeds limit 64\n"
    with pytest.raises(AssertionError, match="built"):  # 64 points are within the limit
        run(["search", "--ground", "grid:8", "--k", "3"])


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_cli_exact_input_rejects_a_bad_tolerance(hex_file, capsys, tol):
    for argv in (["pointset", "--file", str(hex_file)], ["search", "--ground", "grid:3", "--k", "2"]):
        assert run([*argv, "--tolerance", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tolerance must be >= 0, got {float(tol)}\n"


def test_cli_import_loads_no_hash_or_pool_module():
    # hashlib (with OpenSSL) and the process pool cost megabytes at start-up;
    # only a command with an input file or a pool of workers loads them
    src = str(Path(dtl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, dtl.cli; print([m for m in ('hashlib', '_hashlib', "
            "'concurrent.futures', 'multiprocessing') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _last_line_of(code: str, cwd=None) -> str:
    """Runs `code` in a fresh interpreter that imports this checkout's dtl;
    returns the last line it prints."""
    src = str(Path(dtl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _loaded_hash_modules(argv: list[str]) -> str:
    """Runs `dtl.cli.run(argv)` in a fresh interpreter and lists the hash
    modules it loaded."""
    return _last_line_of(f"import sys, dtl.cli; assert dtl.cli.run({argv!r}) == 0; "
                         "print([m for m in ('hashlib', '_hashlib') if m in sys.modules])")


def test_cli_census_out_loads_no_hash_module(tmp_path):
    # the manifest of a command without an input file has no digest to take
    out = tmp_path / "census.csv"
    argv = ["census", "--lattice", "square", "--n", "3", "--out", str(out)]
    assert _loaded_hash_modules(argv) == "[]"
    manifest = json.loads(out.with_name("census.csv.manifest.json").read_text())
    assert manifest["input_digest"] is None


def test_cli_pointset_without_out_reads_its_file_once(hex_file, monkeypatch, capsys):
    reads = []
    for name in ("read_bytes", "read_text"):
        def counted(self, *args, _real=getattr(Path, name), **kwargs):
            reads.append(self)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Path, name, counted)
    assert run(["pointset", "--file", str(hex_file)]) == 0
    assert capsys.readouterr().out.startswith("distinct_triangles,3\n")
    assert reads == [hex_file]
    assert _loaded_hash_modules(["pointset", "--file", str(hex_file)]) == "[]"


def test_cli_pointset_out_loads_no_openssl(hex_file, tmp_path):
    # the digest comes from CPython's built-in SHA-256, not from OpenSSL
    import hashlib

    out = tmp_path / "payload"
    assert _loaded_hash_modules(["pointset", "--file", str(hex_file), "--out", str(out)]) == "[]"
    manifest = json.loads(out.with_name("payload.manifest.json").read_text())
    assert manifest["input_digest"] == hashlib.sha256(hex_file.read_bytes()).hexdigest()


def test_cli_digest_falls_back_to_hashlib(monkeypatch):
    import hashlib

    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)  # import raises ImportError
    digest = cli._sha256(b"dtl")
    assert type(digest) is type(hashlib.sha256())
    assert digest.hexdigest() == hashlib.sha256(b"dtl").hexdigest()


@pytest.mark.parametrize("command", [["pointset", "--file"], ["search", "--k", "2", "--ground"]],
                         ids=["pointset", "search"])
def test_cli_manifest_digest_is_the_input_sha256(hex_file, tmp_path, capsys, command):
    import hashlib

    out = tmp_path / "payload"
    spec = f"file:{hex_file}" if command[0] == "search" else str(hex_file)
    assert run([*command, spec, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    manifest = json.loads(out.with_name("payload.manifest.json").read_text())
    assert manifest["input_digest"] == hashlib.sha256(hex_file.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", [["pointset", "--file"], ["search", "--k", "2", "--ground"]],
                         ids=["pointset", "search"])
def test_cli_non_utf8_input_is_one_error_line(tmp_path, capsys, command):
    # a UTF-16 file starts with the bytes ff fe
    f = tmp_path / "utf16.dtl"
    f.write_bytes(HEX_TEXT.encode("utf-16"))
    assert f.read_bytes()[:2] == b"\xff\xfe"
    spec = f"file:{f}" if command[0] == "search" else str(f)
    assert run(command + [spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {f}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [["pointset", "--file"], ["search", "--k", "2", "--ground"]],
                         ids=["pointset", "search"])
def test_cli_refuses_a_disc_over_the_limit(tmp_path, capsys, command, monkeypatch):
    def unchecked(d):
        raise AssertionError("square-free check ran")

    monkeypatch.setattr(pointset_io, "is_square_free", unchecked)
    f = tmp_path / "wide.dtl"
    f.write_text(HEX_TEXT.replace("D=3", f"D={pointset_io.DISC_LIMIT + 39}"))
    spec = f"file:{f}" if command[0] == "search" else str(f)
    assert run(command + [spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: {f}:1: discriminant {pointset_io.DISC_LIMIT + 39} "
        f"is over the limit of {pointset_io.DISC_LIMIT}\n")


def test_cli_unreadable_input_names_the_file(tmp_path, capsys):
    missing = tmp_path / "missing.dtl"
    for argv in (["pointset", "--file", str(missing)],
                 ["search", "--k", "2", "--ground", f"file:{missing}"]):
        assert run([*argv, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot read {missing}: ")
    assert not (tmp_path / "o").exists()


def _masked(text: str):
    """A payload with its run time left out: the `elapsed_ms` of a report or
    the elapsed_ms column of a census table."""
    if text.startswith("{"):
        payload = json.loads(text)
        del payload["elapsed_ms"]
        return payload
    lines = text.splitlines()
    if lines[0] == cli.CENSUS_COLUMNS:
        lines[1:] = [line.split(",")[:5] + line.split(",")[6:] for line in lines[1:]]
    return lines


@pytest.mark.parametrize("argv", [
    ["census", "--lattice", "tri", "--series", "3:5", "--workers", "1"],
    ["ngon", "--series", "3:9:2"],
    ["triples", "--max-r", "30"],
    ["pointset", "--file"],
    ["constant", "--cutoff", "1000"],
    ["search", "--ground", "grid:3", "--k", "2"],
], ids=lambda a: a[0])
def test_cli_stdout_and_out_payload_are_the_same(hex_file, tmp_path, capsys, argv):
    if argv[-1] == "--file":
        argv = [*argv, str(hex_file)]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "payload"
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert _masked(out.read_text()) == _masked(printed)


@pytest.mark.parametrize("argv, count", [
    (["ngon", "--series", "3:1000000000000"], 999999999998),
    (["census", "--lattice", "square", "--series", "2:1000000000000"], 999999999999),
    (["ngon", "--series", "3:10003"], 10001),
    (["ngon", "--series", f"1:{10**30}:7"], (10**30 - 1) // 7 + 1),
])
def test_cli_refuses_an_oversized_series(capsys, argv, count):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: series {argv[-1]!r} holds {count} values, over the limit of 10000\n"
    )


def test_cli_series_at_the_limit_runs(capsys):
    assert run(["ngon", "--series", "3:10002"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 10_000


def test_cli_pointset_refuses_too_many_triples(tmp_path, capsys, monkeypatch):
    def key_all(rank, width):
        raise AssertionError("triples keyed")

    monkeypatch.setattr("dtl.geometry.TRIPLE_LIMIT", 3, raising=False)
    monkeypatch.setattr("dtl.geometry.rank_keys", key_all)
    f = tmp_path / "four.dtl"
    f.write_text(FLOAT_FOUR)
    assert run(["pointset", "--file", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 4 points span 4 triples, over the limit of 3\n"


def _lines(header: str, n: int, line: str) -> str:
    return header + "\n" + "".join(line.format(i=i) for i in range(n))


@pytest.mark.parametrize("command, text, err", [
    (["search", "--k", "3", "--ground"], _lines("dtl-pointset v1 float", 65, "p {i} 0.5\n"),
     "ground set of size 65 exceeds limit 64"),
    (["search", "--k", "3", "--ground"], _lines("dtl-pointset v1 D=2", 65, "p {i} 0 0 1\n"),
     "ground set of size 65 exceeds limit 64"),
    (["search", "--k", "3", "--ground"],
     _lines("dtl-distmatrix v1 D=1 n=65", 65 * 64 // 2, "1 0\n"),
     "ground set of size 65 exceeds limit 64"),
    (["pointset", "--file"], _lines("dtl-pointset v1 float", 393, "p {i} 0.5\n"),
     "393 points span 10039316 triples, over the limit of 10000000"),
    (["pointset", "--file"], _lines("dtl-distmatrix v1 D=1 n=393", 0, ""),
     "393 points span 10039316 triples, over the limit of 10000000"),
], ids=["search-float", "search-exact", "search-matrix", "pointset-float", "pointset-matrix"])
def test_cli_refuses_an_oversized_file_before_building_it(
    tmp_path, capsys, monkeypatch, command, text, err
):
    def build(*args, **kwargs):
        raise AssertionError("ground set built")

    for name in ("ground_set_from_points", "ground_set_from_matrix", "ground_set_from_floats"):
        monkeypatch.setattr(f"dtl.pointset_io.{name}", build)
    f = tmp_path / "big.dtl"
    f.write_text(text)
    spec = f"file:{f}" if command[0] == "search" else str(f)
    assert run([*command, spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err}\n"


def test_cli_parser_is_built_once_and_keeps_no_flags(tmp_path, capsys):
    f = tmp_path / "m.dtl"
    f.write_text(MATRIX_FOUR)
    assert run(["pointset", "--file", str(f), "--no-include-degenerate"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "distinct_triangles,3"
    assert run(["pointset", "--file", str(f), "--no-such-flag"]) == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert run(["pointset", "--file", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["distinct_triangles,4", "shape,1,1,2"]
    assert cli._build_parser() is cli._build_parser()


def test_cli_paper_checks_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, about 16 ms once per process
    f = tmp_path / "tri.dtl"
    f.write_text(_lines("dtl-pointset v1 D=3", 4,
                        "p {i} 0 0 0\n") + "p 1/2 0 0 1/2\np 3/2 0 0 1/2\n")
    commands = [
        ["constant", "--cutoff", "1000000"],
        ["rotatable", "--count-triangles", "--n", "40"],
        ["verify", "--lemma", "3.1", "--n", "12"],
        ["pointset", "--file", str(f)],
        ["search", "--ground", "ngon:12", "--k", "3"],
    ]
    code = (f"import sys, dtl.cli\nfor argv in {commands!r}:\n"
            "    assert dtl.cli.run([*argv, '--out', argv[0] + '.out']) == 0, argv\n"
            "print('numpy.ma' in sys.modules)")
    assert _last_line_of(code, cwd=tmp_path) == "False"


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


@pytest.mark.parametrize("argv, message", [
    (["--lattice", "general", "--gram", "1/0,0,1"], "bad gram '1/0,0,1'; expected a,b,c"),
    (["--lattice", "general", "--gram", "1,x,1"], "bad gram '1,x,1'; expected a,b,c"),
    (["--lattice", "square", "--gram", "1,0,1"], "census --lattice square does not read --gram"),
    (["--lattice", "tri", "--gram", "1,1,1"], "census --lattice tri does not read --gram"),
])
def test_cli_census_bad_or_unread_gram_is_an_error(capsys, argv, message):
    assert run(["census", *argv, "--n", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_cli_version(capsys):
    assert run(["--version"]) == 0
    capsys.readouterr()
