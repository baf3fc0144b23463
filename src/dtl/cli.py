"""Command-line interface.

Each command is a function from its parsed arguments to its payload: a table
command returns its CSV lines as a list, a report command returns a dict.
`run` is the one place that writes output: it renders a list one line per
item and a dict as JSON with its `elapsed_ms`, prints the text or writes it to
`--out` with a run manifest beside it (so every artifact is tied to the exact
parameters that produced it), and exits 1 when a report says `"pass": false`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import CostGuardExceeded, DtlError
from .geometry import DEFAULT_TOLERANCE, check_tolerance, check_triples
from .lattice import (
    GramForm,
    LatticeKind,
    all_triples_census,
    census,
    census_series,
    ratio_fit,
)
from .pointset_io import load_point_file
from .rotation import (
    PythTriple,
    constant_sum,
    count_rotatable_points,
    count_primitive_triples,
    count_rotatable_triangles,
    enum_primitive_triples,
    lemma32_bound_check,
    lemma33_spot_check,
    smallest_triple_with_r_at_least,
    verify_minimality,
)
from .search import (
    check_ground_size,
    grid_ground_set,
    make_ngon_ground_set,
    max_subset_with_k_shapes,
    ngon_asymptotic_check,
    ngon_distinct_triangles,
)

CENSUS_COLUMNS = "kind,n,include_degenerate,distinct,ratio,elapsed_ms,workers"
# The most values a --series may hold; checked before the list is built.
SERIES_LIMIT = 10_000


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _input_file(args: argparse.Namespace) -> str | None:
    """The file a command reads: `pointset --file` or a `file:` search ground."""
    if args.command == "pointset":
        return args.file
    if args.command == "search" and args.ground.startswith("file:"):
        return args.ground[len("file:"):]
    return None


def _sha256(data: bytes):
    """SHA-256 from the module that hashlib itself falls back to (`_sha2` on
    Python 3.12+, `_sha256` before), and from hashlib only without either."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data)


def _write_out(args: argparse.Namespace, text: str, started_at: str) -> None:
    """Writes `text` to `--out` and the run manifest next to it. The input
    file's digest is taken here, by CPython's built-in SHA-256 when it has
    one, so no command loads OpenSSL."""
    out = Path(args.out)
    digest = None
    path = _input_file(args)
    if path is not None:
        try:
            digest = _sha256(Path(path).read_bytes()).hexdigest()
        except OSError as e:
            raise DtlError(f"cannot read input {path}: {e}") from e
    try:
        out.write_text(text)
        manifest = {
            "command": args.command,
            "params": {
                k: v for k, v in vars(args).items() if k not in ("func", "out") and v is not None
            },
            "artifact_version": __version__,
            "started_at": started_at,
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "input_digest": digest,
            "outputs": [str(out)],
        }
        manifest_path = out.with_name(out.name + ".manifest.json")
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    except OSError as e:
        raise DtlError(f"cannot write output {out}: {e}") from e


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
    except (ValueError, ZeroDivisionError) as e:
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
    count = (hi - lo) // step + 1
    if count > SERIES_LIMIT:
        raise CostGuardExceeded(
            f"series {text!r} holds {count} values, over the limit of {SERIES_LIMIT}"
        )
    return list(range(lo, hi + 1, step))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _lattice_kind(args) -> LatticeKind:
    if args.lattice != "general":
        if args.gram is not None:
            raise DtlError(f"census --lattice {args.lattice} does not read --gram")
        return LatticeKind.square() if args.lattice == "square" else LatticeKind.triangular()
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


def _cmd_census(args) -> list[str]:
    kind = _lattice_kind(args)
    if args.series is None:
        if args.n is None:
            raise DtlError("census requires --n or --series")
        if args.fit:
            raise DtlError("census --fit requires --series")
        rows = [census(kind, args.n, args.include_degenerate, args.workers)]
    elif args.n is not None:
        raise DtlError("census takes --n or --series, not both")
    else:
        rows = census_series(
            kind, _parse_series(args.series), args.include_degenerate, args.workers
        )
    lines = [CENSUS_COLUMNS, *map(_census_row, rows)]
    if args.fit:
        fit = ratio_fit(rows)
        lines.append(f"# fit c={_fmt(fit.c)} d={_fmt(fit.d)} residual={_fmt(fit.residual)}")
    return lines


def _cmd_rotatable(args) -> dict:
    if args.count_triangles:
        if args.triple is not None:
            raise DtlError("rotatable takes --triple or --count-triangles, not both")
        b = count_rotatable_triangles(args.n)
        return {
            "op": "count-rotatable-triangles",
            "params": {"n": args.n},
            "total": b.total,
            "three_on_box": b.three_on_box,
            "two_on_box": b.two_on_box,
        }
    if args.triple is None:
        raise DtlError("rotatable requires --triple p,q,r or --count-triangles")
    t = _parse_triple(args.triple)
    return {
        "op": "count-rotatable-points",
        "params": {"n": args.n, "triple": [t.p, t.q, t.r]},
        "count": count_rotatable_points(args.n, t),
    }


def _cmd_constant(args) -> dict:
    c = constant_sum(args.cutoff)
    return {
        "op": "constant",
        "params": {"cutoff": args.cutoff},
        "partial": c.partial,
        "tail_bound": c.tail_bound,
        "total_bound": c.total_bound,
    }


# The flags each lemma reads; `verify` rejects the others.
_LEMMA_FLAGS = {
    "origin-reduction": {"n"},
    "3.1": {"n"},
    "3.2": {"max_r", "n", "cases_csv"},
    "3.3": {"m", "n", "triple"},
}


def _cmd_verify(args) -> dict:
    unread = [
        "--" + flag.replace("_", "-")
        for flag in ("n", "max_r", "m", "triple", "cases_csv")
        if getattr(args, flag) is not None and flag not in _LEMMA_FLAGS[args.lemma]
    ]
    if unread:
        raise DtlError(f"verify --lemma {args.lemma} does not read {', '.join(unread)}")
    if args.lemma == "origin-reduction":
        n_max = 6 if args.n is None else args.n
        if n_max < 2:
            raise DtlError(f"verify --lemma origin-reduction needs --n >= 2, got {n_max}")
        mismatches = []
        kinds = (LatticeKind.square(), LatticeKind.triangular())
        for kind in kinds:
            for n in range(2, n_max + 1):
                for deg in (True, False):
                    fast = census(kind, n, deg).distinct
                    slow = all_triples_census(n, kind, deg).distinct
                    if fast != slow:
                        mismatches.append({"lattice": kind.name, "n": n,
                                           "include_degenerate": deg,
                                           "reduced": fast, "oracle": slow})
        return {
            "op": "verify-origin-reduction",
            "params": {"n_max": n_max},
            "checked": 2 * len(kinds) * (n_max - 1),
            "violations": mismatches,
            "pass": not mismatches,
        }
    if args.lemma == "3.1":
        if args.n is None:
            raise DtlError("verify --lemma 3.1 requires --n")
        rep = verify_minimality(args.n)
        return {
            "op": "verify-minimality",
            "params": {"n": args.n},
            "checked": rep.checked,
            "skipped_axis_parallel": rep.skipped_axis_parallel,
            "violations": [list(map(list, v)) for v in rep.violations],
            "pass": not rep.violations,
        }
    if args.lemma == "3.2":
        max_r = 50 if args.max_r is None else args.max_r
        max_n = 30 if args.n is None else args.n
        rep = lemma32_bound_check(max_r, max_n)
        if args.cases_csv:
            rows = ["p,q,r,n,count,bound,ok"] + [
                f"{c.triple.p},{c.triple.q},{c.triple.r},{c.n},{c.count},{c.bound},{_bool(c.ok)}"
                for c in rep.cases
            ]
            try:
                Path(args.cases_csv).write_text("\n".join(rows) + "\n")
            except OSError as e:
                raise DtlError(f"cannot write {args.cases_csv}: {e}") from e
        return {
            "op": "verify-rotatable-point-bounds",
            "params": {"max_r": max_r, "max_n": max_n},
            "checked": len(rep.cases),
            "violations": len(rep.violations),
            "pass": not rep.violations,
        }
    # lemma 3.3
    m = 5 if args.m is None else args.m
    n = m**5 if args.n is None else args.n
    t = _parse_triple(args.triple) if args.triple else smallest_triple_with_r_at_least(
        2 * m**4 * n
    )
    rep = lemma33_spot_check(m, n, t)
    return {
        "op": "verify-refined-point-bound",
        "params": {"m": m, "n": n, "triple": [t.p, t.q, t.r]},
        "count": rep.count,
        "bound": rep.bound,
        "pass": rep.ok,
    }


def _cmd_ngon(args) -> list[str]:
    if args.series:
        if args.n is not None:
            raise DtlError("ngon takes --n or --series, not both")
        rows = ngon_asymptotic_check(_parse_series(args.series))
        return ["n,count,ratio"] + [f"{n},{count},{_fmt(ratio)}" for n, count, ratio in rows]
    if args.n is None:
        raise DtlError("ngon requires --n or --series")
    return [f"{args.n},{ngon_distinct_triangles(args.n)}"]


def _ground_set(spec: str, tolerance: float):
    kind, _, arg = spec.partition(":")
    if kind == "file":
        return load_point_file(arg, tolerance, check_ground_size)
    if kind in ("ngon", "grid") and arg.isdecimal():
        n = int(arg)
        check_ground_size(n if kind == "ngon" else n * n)
        return make_ngon_ground_set(n, tolerance) if kind == "ngon" else grid_ground_set(n)
    raise DtlError(f"bad ground spec {spec!r}; expected ngon:<n>, grid:<n>, or file:<path>")


def _cmd_search(args) -> dict:
    check_tolerance(args.tolerance)
    ground = _ground_set(args.ground, args.tolerance)
    result = max_subset_with_k_shapes(ground, args.k, args.size_cap)
    counts = [len(ground.distinct_shapes(w)) for w in result.witnesses]
    witnesses = [
        {"indices": list(w), "distinct_shapes": c, "verified": c <= args.k}
        for w, c in zip(result.witnesses, counts)
    ]
    return {
        "op": "search",
        "params": {"ground": ground.label, "k": args.k, "size_cap": args.size_cap},
        "max_size": result.max_size,
        "witnesses": witnesses,
        "nodes_explored": result.nodes_explored,
        "elapsed_ms": result.elapsed_ms,
    }


def _cmd_pointset(args) -> list[str]:
    check_tolerance(args.tolerance)
    ground = load_point_file(args.file, args.tolerance, check_triples)
    if not args.include_degenerate and ground.mode == "float":
        raise DtlError("float files have no exact degeneracy test; drop --no-include-degenerate")
    shapes = ground.sorted_sides(args.include_degenerate)
    text = [str(v) for v in ground.values]
    return [f"distinct_triangles,{len(shapes)}"] + [
        f"shape,{text[a]},{text[b]},{text[c]}" for a, b, c in shapes
    ]


def _cmd_triples(args) -> list[str]:
    if args.count_only:
        return [str(count_primitive_triples(args.max_r))]
    triples = enum_primitive_triples(args.max_r)
    return ["p,q,r", *(f"{t.p},{t.q},{t.r}" for t in triples), f"# count,{len(triples)}"]


# ---------------------------------------------------------------------------
# Parser


@functools.cache  # built on the first run() and reused by every later one
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
    p.add_argument("--size-cap", type=_positive_int)
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
    started_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    t0 = time.monotonic()
    try:
        payload = args.func(args)
        report = isinstance(payload, dict)
        if report:
            payload.setdefault("elapsed_ms", (time.monotonic() - t0) * 1000.0)
        lines = [json.dumps(payload, indent=2)] if report else payload
        text = "".join(line + "\n" for line in lines)
        if args.out is None:
            sys.stdout.write(text)
        else:
            _write_out(args, text, started_at)
    except DtlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 1 if report and payload.get("pass") is False else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
