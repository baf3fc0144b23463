"""Readers and writers for the point-set and distance-matrix text formats.

Exact point set:        dtl-pointset v1 D=<square-free positive integer>
                        p <x_rat> <x_rad> <y_rat> <y_rad>     (reduced fractions)
Float point set:        dtl-pointset v1 float
                        p <x> <y>
Distance matrix:        dtl-distmatrix v1 D=<d> n=<n>
                        <rat> <rad>      (n(n-1)/2 upper-triangle entries, row-major)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Union

from .errors import FormatError
from .qscalar import QScalar, is_square_free
from .geometry import (
    DEFAULT_TOLERANCE,
    GroundSet,
    QPoint,
    ground_set_from_floats,
    ground_set_from_matrix,
    ground_set_from_points,
)


@dataclass
class ExactPointSet:
    disc: int
    points: list[QPoint]


@dataclass
class FloatPointSet:
    points: list[tuple[float, float]]


@dataclass
class DistanceMatrix:
    disc: int
    n: int
    entries: list[QScalar]


PointFile = Union[ExactPointSet, FloatPointSet, DistanceMatrix]


def _frac(tok: str, path: str, lineno: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"{path}:{lineno}: bad fraction {tok!r}") from e


def load_point_file(path: str | Path) -> PointFile:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    # (1-based file line, stripped text) of each line that is not blank or a comment
    lines = [(i, ln.strip()) for i, ln in enumerate(lines, start=1)]
    lines = [(i, ln) for i, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError(f"{path}: empty file")
    (head, text), body = lines[0], lines[1:]
    header = text.split()
    if header[:2] == ["dtl-pointset", "v1"]:
        if len(header) != 3:
            raise FormatError(f"{path}:{head}: malformed pointset header")
        if header[2] == "float":
            return _load_float_points(body, str(path))
        return _load_exact_points(_parse_disc(header[2], str(path), head), body, str(path))
    if header[:2] == ["dtl-distmatrix", "v1"]:
        if len(header) != 4 or not header[3].startswith("n="):
            raise FormatError(f"{path}:{head}: malformed distmatrix header")
        disc = _parse_disc(header[2], str(path), head)
        try:
            n = int(header[3][2:])
        except ValueError as e:
            raise FormatError(f"{path}:{head}: bad n in header") from e
        return _load_matrix(disc, n, body, str(path))
    raise FormatError(f"{path}:{head}: unknown header {text!r}")


def _parse_disc(tok: str, path: str, lineno: int) -> int:
    if not tok.startswith("D="):
        raise FormatError(f"{path}:{lineno}: expected D=<int>, got {tok!r}")
    try:
        d = int(tok[2:])
    except ValueError as e:
        raise FormatError(f"{path}:{lineno}: bad discriminant {tok!r}") from e
    if not is_square_free(d):
        raise FormatError(f"{path}:{lineno}: discriminant {d} is not square-free positive")
    return d


def _load_exact_points(disc: int, body: list[tuple[int, str]], path: str) -> ExactPointSet:
    pts = []
    for i, ln in body:
        toks = ln.split()
        if len(toks) != 5 or toks[0] != "p":
            raise FormatError(f"{path}:{i}: expected 'p x_rat x_rad y_rat y_rad'")
        xr, xd, yr, yd = (_frac(t, path, i) for t in toks[1:])
        pts.append(QPoint(QScalar(xr, xd, disc), QScalar(yr, yd, disc)))
    return ExactPointSet(disc, pts)


def _load_float_points(body: list[tuple[int, str]], path: str) -> FloatPointSet:
    pts = []
    for i, ln in body:
        toks = ln.split()
        if len(toks) != 3 or toks[0] != "p":
            raise FormatError(f"{path}:{i}: expected 'p x y'")
        try:
            pts.append((float(toks[1]), float(toks[2])))
        except ValueError as e:
            raise FormatError(f"{path}:{i}: bad decimal") from e
    return FloatPointSet(pts)


def _load_matrix(disc: int, n: int, body: list[tuple[int, str]], path: str) -> DistanceMatrix:
    toks = [(tok, i) for i, ln in body for tok in ln.split()]
    want = n * (n - 1) // 2
    if len(toks) != 2 * want:
        raise FormatError(
            f"{path}: expected {want} entry pairs for n={n}, got {len(toks) // 2}"
        )
    fracs = [_frac(tok, path, i) for tok, i in toks]
    entries = [QScalar(rat, rad, disc) for rat, rad in zip(fracs[::2], fracs[1::2])]
    return DistanceMatrix(disc, n, entries)


def dump_point_file(data: PointFile) -> str:
    if isinstance(data, ExactPointSet):
        lines = [f"dtl-pointset v1 D={data.disc}"]
        for p in data.points:
            lines.append(
                f"p {_ffmt(p.x.rat)} {_ffmt(p.x.rad)} {_ffmt(p.y.rat)} {_ffmt(p.y.rad)}"
            )
    elif isinstance(data, FloatPointSet):
        lines = ["dtl-pointset v1 float"]
        lines += [f"p {x!r} {y!r}" for x, y in data.points]
    elif isinstance(data, DistanceMatrix):
        lines = [f"dtl-distmatrix v1 D={data.disc} n={data.n}"]
        lines += [f"{_ffmt(e.rat)} {_ffmt(e.rad)}" for e in data.entries]
    else:
        raise TypeError(f"cannot serialize {type(data)!r}")
    return "\n".join(lines) + "\n"


def _ffmt(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def ground_set_from_file(path: str | Path, tolerance: float = DEFAULT_TOLERANCE) -> GroundSet:
    data = load_point_file(path)
    label = f"file:{path}"
    if isinstance(data, ExactPointSet):
        return ground_set_from_points(data.points, label=label)
    if isinstance(data, FloatPointSet):
        return ground_set_from_floats(data.points, tolerance, label=label)
    return ground_set_from_matrix(data.n, data.entries, label=label)
