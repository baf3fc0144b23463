"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --work DIR --result FILE
                             [--trace] [--setup-only]

Set-up is interpreter start, `import dtl` from the checkout's `src/`, and
input generation; the moment it ends is written to the result as `ready`
(a CLOCK_MONOTONIC reading, comparable with the parent's). Then every
command of the workload runs through `dtl.cli.run`, the outputs are checked,
and the result is written as JSON to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, max_rss_mb
from workloads import WORKLOADS, out_files

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import dtl.cli  # noqa: E402  (the program under test, from this checkout)

    if not Path(dtl.__file__).resolve().is_relative_to(SRC):
        print(f"dtl imported from {dtl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Outputs left by an earlier repetition must not pass this one's checks.
    shutil.rmtree(args.work, ignore_errors=True)
    args.work.mkdir(parents=True)
    ctx = workload.make_inputs(args.seed, args.work)
    result: dict = {"ready": time.monotonic()}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    commands = workload.commands(ctx, args.work)
    failures: list[str] = []
    runs = []
    cpu0 = _cpu_s()
    for argv in commands:
        t0 = time.perf_counter()
        try:
            code = dtl.cli.run(argv)
        except Exception:  # a crash in the program is a failed run, not a harness error
            failures.append(f"{argv[0]}: {traceback.format_exc()}")
            code = None
        runs.append({"argv": argv, "seconds": time.perf_counter() - t0, "exit": code})
        if code != 0:
            failures.append(f"{argv[0]} exited with {code}")
            break
    cpu_s = _cpu_s() - cpu0
    result.update(
        wall_s=sum(r["seconds"] for r in runs),
        peak_rss_mb=max_rss_mb(),
        cpu_s=cpu_s,
        runs=runs,
    )
    if not failures:
        try:
            result["bytes_written"] = sum(
                p.stat().st_size for argv in commands for p in out_files(argv)
            )
            failures += workload.check(ctx, args.work)
        except Exception:  # unreadable or malformed output fails the check
            failures.append(f"check: {traceback.format_exc()}")
    result["failures"] = failures
    if tracer is not None:
        spans_path = args.result.with_suffix(".spans.jsonl")
        tracer.write_spans(spans_path)
        result["spans"] = str(spans_path)
        result["layers"] = tracer.metrics()
        result["counts"] = dict(tracer.counts)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
