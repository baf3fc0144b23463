"""The benchmark's workloads: seeded inputs, the `dtl` commands, output checks.

Every check recomputes what it can with plain integer arithmetic, so it does
not lean on dtl's own shape code. Nothing here imports dtl.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

SQUARE_128_DISTINCT = 47_621_112
TRI_100_NONDEGENERATE = 22_000_143
CONSTANT_PARTIAL_1E6 = 0.05684014989718507
ROTATABLE_N40 = {"total": 130730, "three_on_box": 72739, "two_on_box": 57991}
LEMMA31_N12_CHECKED = 5180


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, work dir) -> generated input context; writes the input files
    make_inputs: Callable[[int, Path], dict]
    # (context, work dir) -> argv lists for dtl.cli.run, each with its --out
    commands: Callable[[dict, Path], list[list[str]]]
    # (context, work dir) -> failure messages; empty means correct
    check: Callable[[dict, Path], list[str]]


def out_files(argv: list[str]) -> list[Path]:
    """The payload and manifest a command writes with --out."""
    out = Path(argv[argv.index("--out") + 1])
    return [out, out.with_name(out.name + ".manifest.json")]


# -- exact integer shape recounts ---------------------------------------------


def shape_count(points: list[tuple[int, int]], q: Callable[[int, int], int]) -> int:
    """Distinct sorted squared-side triples over all triples of the points,
    collinear ones included; q maps a coordinate difference to its square."""
    shapes = set()
    for a, b, c in combinations(points, 3):
        shapes.add(tuple(sorted((
            q(a[0] - b[0], a[1] - b[1]),
            q(a[0] - c[0], a[1] - c[1]),
            q(b[0] - c[0], b[1] - c[1]),
        ))))
    return len(shapes)


def square_q(du: int, dv: int) -> int:
    return du * du + dv * dv


def tri_q(du: int, dv: int) -> int:
    return du * du + du * dv + dv * dv


def _frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# -- census workloads -----------------------------------------------------------


def _no_inputs(seed: int, work: Path) -> dict:
    return {}


def _census_check(expected: int) -> Callable[[dict, Path], list[str]]:
    def check(ctx: dict, work: Path) -> list[str]:
        lines = (work / "census.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        got = int(row["distinct"])
        return [] if got == expected else [f"census distinct {got} != {expected}"]

    return check


def _census_commands(*flags: str) -> Callable[[dict, Path], list[list[str]]]:
    def commands(ctx: dict, work: Path) -> list[list[str]]:
        return [["census", *flags, "--out", str(work / "census.csv")]]

    return commands


# -- search-grid5-k3 -----------------------------------------------------------


def _grid5_inputs(seed: int, work: Path) -> dict:
    points = [(u, v) for u in range(5) for v in range(5)]
    random.Random(seed).shuffle(points)
    lines = ["dtl-pointset v1 D=1"] + [f"p {u} 0 {v} 0" for u, v in points]
    (work / "grid5.dtl").write_text("\n".join(lines) + "\n")
    return {"points": points}


def _grid5_commands(ctx: dict, work: Path) -> list[list[str]]:
    return [["search", "--ground", f"file:{work / 'grid5.dtl'}", "--k", "3",
             "--out", str(work / "search.json")]]


def check_witnesses(points, payload: dict, k: int, size: int, count: int,
                    q: Callable[[int, int], int]) -> list[str]:
    """Max size, witness count, distinctness, and an integer shape recount."""
    bad = []
    if payload["max_size"] != size:
        bad.append(f"max_size {payload['max_size']} != {size}")
    found = [tuple(w["indices"]) for w in payload["witnesses"]]
    if len(found) != count:
        bad.append(f"{len(found)} witnesses != {count}")
    if len({frozenset(w) for w in found}) != len(found):
        bad.append("duplicate witnesses")
    for w in found:
        if len(set(w)) != size or not all(0 <= i < len(points) for i in w):
            bad.append(f"malformed witness {w}")
        elif shape_count([points[i] for i in w], q) > k:
            bad.append(f"witness {w} spans more than {k} shapes")
    return bad


def _grid5_check(ctx: dict, work: Path) -> list[str]:
    payload = json.loads((work / "search.json").read_text())
    return check_witnesses(ctx["points"], payload, 3, 5, 22, square_q)


# -- paper-checks ---------------------------------------------------------------


def _paper_inputs(seed: int, work: Path) -> dict:
    lattice = [(u, v) for u in range(10) for v in range(10)]
    points = random.Random(seed).sample(lattice, 48)
    # (u, v) sits at u*(1, 0) + v*(1/2, sqrt(3)/2).
    lines = ["dtl-pointset v1 D=3"] + [
        f"p {_frac(u + Fraction(v, 2))} 0 0 {_frac(Fraction(v, 2))}" for u, v in points
    ]
    (work / "tri48.dtl").write_text("\n".join(lines) + "\n")
    return {"points": points}


def _paper_commands(ctx: dict, work: Path) -> list[list[str]]:
    return [
        ["constant", "--cutoff", "1000000", "--out", str(work / "constant.json")],
        ["rotatable", "--count-triangles", "--n", "40", "--out", str(work / "rotatable.json")],
        ["verify", "--lemma", "3.1", "--n", "12", "--out", str(work / "verify.json")],
        ["pointset", "--file", str(work / "tri48.dtl"), "--out", str(work / "pointset.csv")],
        ["search", "--ground", "ngon:12", "--k", "3", "--out", str(work / "ngon12.json")],
    ]


def _paper_check(ctx: dict, work: Path) -> list[str]:
    bad = []
    c = json.loads((work / "constant.json").read_text())
    if not math.isclose(c["partial"], CONSTANT_PARTIAL_1E6, rel_tol=1e-12, abs_tol=0.0):
        bad.append(f"constant partial {c['partial']!r}")
    r = json.loads((work / "rotatable.json").read_text())
    got = {key: r[key] for key in ROTATABLE_N40}
    if got != ROTATABLE_N40:
        bad.append(f"rotatable breakdown {got}")
    v = json.loads((work / "verify.json").read_text())
    if v["pass"] is not True or v["checked"] != LEMMA31_N12_CHECKED:
        bad.append(f"lemma 3.1 pass={v['pass']} checked={v['checked']}")
    first = (work / "pointset.csv").read_text().splitlines()[0]
    want = shape_count(ctx["points"], tri_q)
    if first != f"distinct_triangles,{want}":
        bad.append(f"pointset {first!r}, recount {want}")
    s = json.loads((work / "ngon12.json").read_text())
    if s["max_size"] != 6 or len(s["witnesses"]) != 2:
        bad.append(f"ngon:12 max_size={s['max_size']} witnesses={len(s['witnesses'])}")
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census-square-128",
            "origin-anchored square census; 134M raw keys pass the accumulator "
            "flush twice; single worker",
            _no_inputs,
            _census_commands("--lattice", "square", "--n", "128", "--workers", "1"),
            _census_check(SQUARE_128_DISTINCT),
        ),
        Workload(
            "census-tri-100",
            "two-anchor triangular census with the degeneracy filter and a "
            "2-worker fork pool",
            _no_inputs,
            _census_commands("--lattice", "tri", "--n", "100", "--no-include-degenerate",
                             "--workers", "2"),
            _census_check(TRI_100_NONDEGENERATE),
        ),
        Workload(
            "search-grid5-k3",
            "exact branch-and-bound over a seed-shuffled 5x5 grid file; "
            "QScalar/Fraction shape keys, no numpy",
            _grid5_inputs,
            _grid5_commands,
            _grid5_check,
        ),
        Workload(
            "paper-checks",
            "constant, rotatable triangles, Lemma 3.1, a seeded triangular "
            "point set and ngon:12; rotation, geometry and the CLI",
            _paper_inputs,
            _paper_commands,
            _paper_check,
        ),
    )
}
