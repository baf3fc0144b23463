"""Readers for the point-set and distance-matrix text formats.

Exact point set:        dtl-pointset v1 D=<square-free positive integer <= 10^12>
                        p <x_rat> <x_rad> <y_rat> <y_rad>     (reduced fractions)
Float point set:        dtl-pointset v1 float
                        p <x> <y>
Distance matrix:        dtl-distmatrix v1 D=<d> n=<n>
                        <rat> <rad>      (n(n-1)/2 upper-triangle entries, row-major)
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Callable

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

# The largest header D: `is_square_free` tries divisors up to sqrt(D), which
# takes about 0.15 s once at 10**12.
DISC_LIMIT = 10**12


def _frac(tok: str, path: str, lineno: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"{path}:{lineno}: bad fraction {tok!r}") from e


def load_point_file(
    path: str | Path,
    tolerance: float = DEFAULT_TOLERANCE,
    check_size: Callable[[int], None] = lambda size: None,
) -> GroundSet:
    """The ground set of a point-set or distance-matrix file, labelled
    `file:<path>`; `tolerance` is read by float files only. `check_size` is
    called with the number of points (the `p` lines, or the matrix `n=`)
    before any squared distance is computed, so it can refuse an oversized
    set before it is built."""
    label = f"file:{path}"
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    # (1-based file line, stripped text) of each line that is not blank or a comment
    lines = [(i, ln.strip()) for i, ln in enumerate(lines, start=1)]
    lines = [(i, ln) for i, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError(f"{path}: empty file")
    (head, text), body = lines[0], lines[1:]
    header = text.split()
    where = str(path)
    if header[:2] == ["dtl-pointset", "v1"]:
        if len(header) != 3:
            raise FormatError(f"{path}:{head}: malformed pointset header")
        check_size(len(body))
        if header[2] == "float":
            return ground_set_from_floats(_float_points(body, where), tolerance, label=label)
        disc = _parse_disc(header[2], where, head)
        return ground_set_from_points(_exact_points(disc, body, where), label=label)
    if header[:2] == ["dtl-distmatrix", "v1"]:
        if len(header) != 4 or not header[3].startswith("n="):
            raise FormatError(f"{path}:{head}: malformed distmatrix header")
        disc = _parse_disc(header[2], where, head)
        try:
            n = int(header[3][2:])
        except ValueError as e:
            raise FormatError(f"{path}:{head}: bad n in header") from e
        check_size(max(n, 0))  # ground_set_from_matrix refuses a negative n
        return ground_set_from_matrix(n, _matrix_entries(disc, n, body, where), label=label)
    raise FormatError(f"{path}:{head}: unknown header {text!r}")


def _parse_disc(tok: str, path: str, lineno: int) -> int:
    if not tok.startswith("D="):
        raise FormatError(f"{path}:{lineno}: expected D=<int>, got {tok!r}")
    try:
        d = int(tok[2:])
    except ValueError as e:
        raise FormatError(f"{path}:{lineno}: bad discriminant {tok!r}") from e
    if d > DISC_LIMIT:
        raise FormatError(f"{path}:{lineno}: discriminant {d} is over the limit of {DISC_LIMIT}")
    if not is_square_free(d):
        raise FormatError(f"{path}:{lineno}: discriminant {d} is not square-free positive")
    return d


def _exact_points(disc: int, body: list[tuple[int, str]], path: str) -> list[QPoint]:
    pts = []
    for i, ln in body:
        toks = ln.split()
        if len(toks) != 5 or toks[0] != "p":
            raise FormatError(f"{path}:{i}: expected 'p x_rat x_rad y_rat y_rad'")
        xr, xd, yr, yd = (_frac(t, path, i) for t in toks[1:])
        pts.append(QPoint(QScalar(xr, xd, disc), QScalar(yr, yd, disc)))
    return pts


def _float_points(body: list[tuple[int, str]], path: str) -> list[tuple[float, float]]:
    pts = []
    for i, ln in body:
        toks = ln.split()
        if len(toks) != 3 or toks[0] != "p":
            raise FormatError(f"{path}:{i}: expected 'p x y'")
        try:
            pts.append((float(toks[1]), float(toks[2])))
        except ValueError as e:
            raise FormatError(f"{path}:{i}: bad decimal") from e
    return pts


def _matrix_entries(disc: int, n: int, body: list[tuple[int, str]], path: str) -> list[QScalar]:
    toks = [(tok, i) for i, ln in body for tok in ln.split()]
    want = n * (n - 1) // 2
    if len(toks) != 2 * want:
        raise FormatError(
            f"{path}: expected {want} entry pairs for n={n}, got {len(toks) // 2}"
        )
    fracs = [_frac(tok, path, i) for tok, i in toks]
    return [QScalar(rat, rad, disc) for rat, rad in zip(fracs[::2], fracs[1::2])]
