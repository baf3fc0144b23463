"""Command-line interface.

Tables are emitted as CSV, reports as JSON; `--out` writes the payload to a
file and drops a run manifest next to it so every artifact is tied to the
exact parameters that produced it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import DtlError
from .geometry import DEFAULT_TOLERANCE, TriangleShape, is_degenerate
from .lattice import (
    GramForm,
    LatticeKind,
    all_triples_census,
    census,
    census_series,
    grid_census,
    ratio_fit,
)
from .pointset_io import ground_set_from_file
from .rotation import (
    PythTriple,
    constant_sum,
    count_rotatable_points,
    count_rotatable_triangles,
    enum_primitive_triples,
    lemma32_bound_check,
    lemma33_spot_check,
    smallest_triple_with_r_at_least,
    verify_minimality,
)
from .search import (
    grid_ground_set,
    make_ngon_ground_set,
    max_subset_with_k_shapes,
    ngon_asymptotic_check,
    ngon_distinct_triangles,
    verify_subset,
)

CENSUS_COLUMNS = "kind,n,include_degenerate,distinct,ratio,elapsed_ms,workers"


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _bool(b: bool) -> str:
    return "true" if b else "false"


class _Sink:
    """Collects the data payload and writes it (plus a manifest) at the end."""

    def __init__(self, args: argparse.Namespace, command: str):
        self.out_path: Path | None = Path(args.out) if getattr(args, "out", None) else None
        self.command = command
        self.params = {
            k: v for k, v in vars(args).items() if k not in ("func", "out") and v is not None
        }
        self.buffer = io.StringIO()
        self.input_digest: str | None = None
        self.started_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    def note_input(self, path: str | Path) -> None:
        try:
            self.input_digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        except OSError as e:
            raise DtlError(f"cannot read input {path}: {e}") from e

    def line(self, text: str) -> None:
        self.buffer.write(text + "\n")

    def json(self, payload: dict) -> None:
        self.buffer.write(json.dumps(payload, indent=2, default=_jsonable) + "\n")

    def finish(self) -> None:
        data = self.buffer.getvalue()
        if self.out_path is None:
            sys.stdout.write(data)
            return
        try:
            self.out_path.write_text(data)
            manifest = {
                "command": self.command,
                "params": {k: _jsonable_param(v) for k, v in self.params.items()},
                "artifact_version": __version__,
                "started_at": self.started_at,
                "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "input_digest": self.input_digest,
                "outputs": [str(self.out_path)],
            }
            manifest_path = self.out_path.with_name(self.out_path.name + ".manifest.json")
            manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        except OSError as e:
            raise DtlError(f"cannot write output {self.out_path}: {e}") from e


def _jsonable(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    return str(obj)


def _jsonable_param(v):
    return v if isinstance(v, (int, float, bool, str)) else str(v)


def _parse_triple(text: str) -> PythTriple:
    try:
        p, q, r = (int(t) for t in text.split(","))
    except ValueError as e:
        raise DtlError(f"bad triple {text!r}; expected p,q,r") from e
    return PythTriple(p, q, r)


def _parse_gram(text: str) -> GramForm:
    from fractions import Fraction

    try:
        a, b, c = (Fraction(t) for t in text.split(","))
    except ValueError as e:
        raise DtlError(f"bad gram {text!r}; expected a,b,c") from e
    return GramForm(a, b, c)


def _parse_series(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise DtlError(f"bad series {text!r}; expected lo:hi[:step]")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as e:
        raise DtlError(f"bad series {text!r}") from e
    if step < 1 or hi < lo:
        raise DtlError(f"bad series {text!r}")
    return list(range(lo, hi + 1, step))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _lattice_kind(args) -> LatticeKind:
    if args.lattice == "square":
        return LatticeKind.square()
    if args.lattice == "tri":
        return LatticeKind.triangular()
    if args.gram is None:
        raise DtlError("--lattice general requires --gram a,b,c")
    return LatticeKind.general(_parse_gram(args.gram))


def _census_row(c) -> str:
    return ",".join(
        [
            c.kind,
            str(c.n),
            _bool(c.include_degenerate),
            str(c.distinct),
            _fmt(c.ratio),
            _fmt(c.elapsed_ms),
            str(c.workers),
        ]
    )


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_census(args, sink: _Sink) -> int:
    kind = _lattice_kind(args)
    sink.line(CENSUS_COLUMNS)
    if args.series:
        rows = census_series(
            kind, _parse_series(args.series), args.include_degenerate, args.workers
        )
        for r in rows:
            sink.line(_census_row(r))
        if args.fit and len(rows) >= 3:
            fit = ratio_fit(rows)
            sink.line(f"# fit c={_fmt(fit.c)} d={_fmt(fit.d)} residual={_fmt(fit.residual)}")
        return 0
    if args.n is None:
        raise DtlError("census requires --n or --series")
    sink.line(_census_row(census(kind, args.n, args.include_degenerate, args.workers)))
    return 0


def _cmd_rotatable(args, sink: _Sink) -> int:
    t0 = time.monotonic()
    if args.count_triangles:
        b = count_rotatable_triangles(args.n)
        sink.json(
            {
                "op": "count-rotatable-triangles",
                "params": {"n": args.n},
                "total": b.total,
                "three_on_box": b.three_on_box,
                "two_on_box": b.two_on_box,
                "elapsed_ms": (time.monotonic() - t0) * 1000.0,
            }
        )
        return 0
    if args.triple is None:
        raise DtlError("rotatable requires --triple p,q,r or --count-triangles")
    t = _parse_triple(args.triple)
    count = count_rotatable_points(args.n, t)
    sink.json(
        {
            "op": "count-rotatable-points",
            "params": {"n": args.n, "triple": [t.p, t.q, t.r]},
            "count": count,
            "elapsed_ms": (time.monotonic() - t0) * 1000.0,
        }
    )
    return 0


def _cmd_constant(args, sink: _Sink) -> int:
    t0 = time.monotonic()
    c = constant_sum(args.cutoff)
    sink.json(
        {
            "op": "constant",
            "params": {"cutoff": args.cutoff},
            "partial": c.partial,
            "tail_bound": c.tail_bound,
            "total_bound": c.total_bound,
            "elapsed_ms": (time.monotonic() - t0) * 1000.0,
        }
    )
    return 0


def _cmd_verify(args, sink: _Sink) -> int:
    t0 = time.monotonic()
    if args.lemma == "origin-reduction":
        n_max = args.n or 6
        mismatches = []
        for n in range(2, n_max + 1):
            for deg in (True, False):
                fast = grid_census(n, deg).distinct
                slow = all_triples_census(n, LatticeKind.square(), deg).distinct
                if fast != slow:
                    mismatches.append({"n": n, "include_degenerate": deg,
                                       "reduced": fast, "oracle": slow})
        sink.json(
            {
                "op": "verify-origin-reduction",
                "params": {"n_max": n_max},
                "checked": 2 * (n_max - 1),
                "violations": mismatches,
                "pass": not mismatches,
                "elapsed_ms": (time.monotonic() - t0) * 1000.0,
            }
        )
        return 0 if not mismatches else 1
    if args.lemma == "3.1":
        if args.n is None:
            raise DtlError("verify --lemma 3.1 requires --n")
        rep = verify_minimality(args.n)
        sink.json(
            {
                "op": "verify-minimality",
                "params": {"n": args.n},
                "checked": rep.checked,
                "skipped_axis_parallel": rep.skipped_axis_parallel,
                "violations": [list(map(list, v)) for v in rep.violations],
                "pass": not rep.violations,
                "elapsed_ms": (time.monotonic() - t0) * 1000.0,
            }
        )
        return 0 if not rep.violations else 1
    if args.lemma == "3.2":
        max_r = args.max_r or 50
        max_n = args.n or 30
        rep = lemma32_bound_check(max_r, max_n)
        if args.cases_csv:
            rows = ["p,q,r,n,count,bound,ok"] + [
                f"{c.triple.p},{c.triple.q},{c.triple.r},{c.n},{c.count},{c.bound},{_bool(c.ok)}"
                for c in rep.cases
            ]
            Path(args.cases_csv).write_text("\n".join(rows) + "\n")
        sink.json(
            {
                "op": "verify-rotatable-point-bounds",
                "params": {"max_r": max_r, "max_n": max_n},
                "checked": len(rep.cases),
                "violations": len(rep.violations),
                "pass": not rep.violations,
                "elapsed_ms": (time.monotonic() - t0) * 1000.0,
            }
        )
        return 0 if not rep.violations else 1
    # lemma 3.3
    m = args.m or 5
    n = args.n or m**5
    t = _parse_triple(args.triple) if args.triple else smallest_triple_with_r_at_least(
        2 * m**4 * n
    )
    rep = lemma33_spot_check(m, n, t)
    sink.json(
        {
            "op": "verify-refined-point-bound",
            "params": {"m": m, "n": n, "triple": [t.p, t.q, t.r]},
            "count": rep.count,
            "bound": rep.bound,
            "pass": rep.ok,
            "elapsed_ms": (time.monotonic() - t0) * 1000.0,
        }
    )
    return 0 if rep.ok else 1


def _cmd_ngon(args, sink: _Sink) -> int:
    if args.series:
        sink.line("n,count,ratio")
        for n, count, ratio in ngon_asymptotic_check(_parse_series(args.series)):
            sink.line(f"{n},{count},{_fmt(ratio)}")
        return 0
    if args.n is None:
        raise DtlError("ngon requires --n or --series")
    sink.line(f"{args.n},{ngon_distinct_triangles(args.n)}")
    return 0


def _ground_set(spec: str, tolerance: float, sink: _Sink):
    if spec.startswith("ngon:"):
        return make_ngon_ground_set(int(spec[5:]), tolerance)
    if spec.startswith("grid:"):
        return grid_ground_set(int(spec[5:]))
    if spec.startswith("file:"):
        path = spec[5:]
        sink.note_input(path)
        return ground_set_from_file(path, tolerance)
    raise DtlError(f"bad ground spec {spec!r}; expected ngon:<n>, grid:<n>, or file:<path>")


def _cmd_search(args, sink: _Sink) -> int:
    ground = _ground_set(args.ground, args.tolerance, sink)
    result = max_subset_with_k_shapes(ground, args.k, args.size_cap)
    witnesses = [
        {
            "indices": list(w),
            "distinct_shapes": len(ground.distinct_shapes(w)),
            "verified": verify_subset(ground, w, args.k),
        }
        for w in result.witnesses
    ]
    sink.json(
        {
            "op": "search",
            "params": {"ground": ground.label, "k": args.k, "size_cap": args.size_cap},
            "max_size": result.max_size,
            "witnesses": witnesses,
            "nodes_explored": result.nodes_explored,
            "elapsed_ms": result.elapsed_ms,
        }
    )
    return 0


def _cmd_pointset(args, sink: _Sink) -> int:
    sink.note_input(args.file)
    ground = ground_set_from_file(args.file, args.tolerance)
    shapes = ground.sorted_sides()
    if not args.include_degenerate:
        if ground.mode == "float":
            raise DtlError("float files have no exact degeneracy test; drop --no-include-degenerate")
        shapes = [s for s in shapes if not is_degenerate(TriangleShape(*s))]
    sink.line(f"distinct_triangles,{len(shapes)}")
    for s in shapes:
        sink.line("shape," + ",".join(map(str, s)))
    return 0


def _cmd_triples(args, sink: _Sink) -> int:
    triples = enum_primitive_triples(args.max_r)
    if args.count_only:
        sink.line(str(len(triples)))
        return 0
    sink.line("p,q,r")
    for t in triples:
        sink.line(f"{t.p},{t.q},{t.r}")
    sink.line(f"# count,{len(triples)}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dtl", description="Distinct-triangle censuses, searches, and lemma checks."
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write payload to this file plus a run manifest")

    p = sub.add_parser("census", help="distinct-shape census of a lattice")
    p.add_argument("--lattice", choices=["square", "tri", "general"], required=True)
    p.add_argument("--gram", help="a,b,c rational Gram coefficients for --lattice general")
    p.add_argument("--n", type=int)
    p.add_argument("--series", help="lo:hi[:step] of n values")
    p.add_argument("--fit", action="store_true", help="append a c*n^4 + d*n^3 fit line")
    p.add_argument(
        "--include-degenerate",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="count collinear shapes (default: yes)",
    )
    p.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1)
    add_out(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("rotatable", help="rotatable point / triangle counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--triple", help="p,q,r primitive Pythagorean triple")
    p.add_argument("--count-triangles", action="store_true")
    add_out(p)
    p.set_defaults(func=_cmd_rotatable)

    p = sub.add_parser("constant", help="bounded sum of 1/(2 r^2) over primitive triples")
    p.add_argument("--cutoff", type=int, default=10**5)
    add_out(p)
    p.set_defaults(func=_cmd_constant)

    p = sub.add_parser("verify", help="exhaustive desk-scale lemma checks")
    p.add_argument(
        "--lemma", choices=["origin-reduction", "3.1", "3.2", "3.3"], required=True
    )
    p.add_argument("--n", type=int)
    p.add_argument("--max-r", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--triple")
    p.add_argument("--cases-csv", help="also write per-case rows to this CSV")
    add_out(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ngon", help="regular n-gon distinct-triangle counts")
    p.add_argument("--n", type=int)
    p.add_argument("--series", help="lo:hi[:step]")
    add_out(p)
    p.set_defaults(func=_cmd_ngon)

    p = sub.add_parser("search", help="maximum subset spanning at most k shapes")
    p.add_argument("--ground", required=True, help="ngon:<n> | grid:<n> | file:<path>")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--size-cap", type=int)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    add_out(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("pointset", help="distinct triangle count of a point-set file")
    p.add_argument("--file", required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument(
        "--include-degenerate", action=argparse.BooleanOptionalAction, default=True
    )
    add_out(p)
    p.set_defaults(func=_cmd_pointset)

    p = sub.add_parser("triples", help="enumerate primitive Pythagorean triples")
    p.add_argument("--max-r", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    add_out(p)
    p.set_defaults(func=_cmd_triples)

    return top


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    sink = _Sink(args, args.command)
    try:
        code = args.func(args, sink)
        sink.finish()
        return code
    except DtlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
