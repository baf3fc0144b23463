"""The dtl benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition of a workload runs in a
fresh interpreter (perfbench/rep.py), one at a time; the census workloads
use at most 2 worker processes of their own. Repetitions start until the
next one would end after S seconds, with at least MIN_REPS of them; in an
untraced run each one is preceded by a set-up-only start.

--trace 0 reports the end-to-end metrics: wall_s as the mean over the
repetitions, setup_s and peak_rss_mb as medians, with error_rate on its own
line (a failed run has a nonzero exit, an exception, or a wrong output).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics. The last line of output is one JSON object; the full record, with
the environment and every repetition, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REP = HERE / "rep.py"
MIN_REPS = 2  # untraced repetitions per --trace 0 run
# A repetition still running this long after the run began is killed, so the
# whole command ends within 180 s whatever --seconds (at most 60) asks for.
RUN_LIMIT_S = 165
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# wall_s is the run's command time over its repetitions: the inverse of its
# throughput. A shared machine can run the same code 1.7 times slower for a
# minute or more; a median of a handful of repetitions then jumps between the
# fast and the slow level, while the mean moves only by the share of the run
# that was slow.
MEANS = frozenset({"wall_s"})


def environment(workload: str, seed: int) -> dict:
    import numpy  # the program's one dependency; imported here only to report it

    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), platform.machine())
    except OSError:
        cpu = platform.machine()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_context().get_start_method(),
        "cpu": cpu,
        "commit": git_commit(ROOT),
        "seed": seed,
        "workload": workload,
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_rep(workload: str, seed: int, tag: str, deadline: float, trace: bool = False,
            setup_only: bool = False) -> dict:
    """One repetition in a fresh interpreter, killed at the monotonic time
    `deadline`; returns its result record."""
    work = OUT / "work" / workload
    result_path = OUT / f"{workload}-seed{seed}-{tag}.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(REP), "--workload", workload, "--seed", str(seed),
            "--work", str(work), "--result", str(result_path)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        log, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the rep and any pool workers it forked
        log, _ = proc.communicate()
    if proc.returncode != 0 or not result_path.exists():
        return {"failures": [f"rep exited with {proc.returncode}: {log[-2000:]}"]}
    rec = json.loads(result_path.read_text())
    result_path.unlink()  # kept in the run's record
    rec["setup_s"] = rec.pop("ready") - t0
    return rec


def _median(recs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in recs if key in r)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    run_rep(workload, seed, "warmup", deadline, setup_only=True)  # fills bytecode and page caches
    probes: list[dict] = []
    reps: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    while time.monotonic() < deadline:
        t0 = time.monotonic()
        if not trace:
            # The set-up samples are spread over the whole run, as the
            # repetitions are, so a slow spell of a shared machine weighs on
            # both alike instead of on whichever happened to come first.
            probes.append(run_rep(workload, seed, f"probe{len(probes)}", deadline,
                                  setup_only=True))
        tracing = trace and len(traced) < len(reps)
        rec = run_rep(workload, seed, f"rep{len(reps) + len(traced)}", deadline, trace=tracing)
        (traced if tracing else reps).append(rec)
        rounds.append(time.monotonic() - t0)
        enough = min(len(reps), len(traced)) >= 1 if trace else len(reps) >= MIN_REPS
        if enough and time.monotonic() - start + statistics.median(rounds) > seconds:
            break
    done = reps + traced
    timed = [r for r in reps if "wall_s" in r]
    if not timed:
        metrics, units, samples = {}, {}, {}
    elif trace:
        metrics, units, samples = layer_metrics(timed, [r for r in traced if "layers" in r])
    else:
        setups = [r for r in probes + reps if "setup_s" in r]
        metrics = {
            "wall_s": statistics.mean(r["wall_s"] for r in timed),
            "peak_rss_mb": _median(timed, "peak_rss_mb"),
            "setup_s": _median(setups, "setup_s"),
        }
        units = UNITS
        samples = {"wall_s": len(timed), "peak_rss_mb": len(timed), "setup_s": len(setups)}
    summary = {
        "attempted": len(done),
        "failed": sum(1 for r in done if r["failures"]),
        "untraced_reps": len(reps),
        "traced_reps": len(traced),
        "metrics": metrics,
        "units": units,
        "samples": samples,
        "failures": [msg for r in done for msg in r["failures"]],
    }
    record = {
        "environment": environment(workload, seed),
        "commands": [run["argv"] for run in next((r["runs"] for r in done if "runs" in r), [])],
        "summary": summary,
        "probes": probes,
        "reps": reps,
        "traced_reps": traced,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return summary


def layer_metrics(untraced: list[dict], traced: list[dict]):
    """Per-layer metrics: medians over the traced repetitions, plus the CPU
    time of the untraced ones and the tracing overhead between the two."""
    if not traced:
        return {}, {}, {}
    for r in traced:
        r["layers"]["cli.bytes_written"] = r.get("bytes_written", 0)
    names = set.intersection(*(set(r["layers"]) for r in traced))
    metrics = {k: statistics.median(r["layers"][k] for r in traced)
               for k in LAYER_UNITS if k in names}
    metrics["process.cpu_s"] = _median(untraced, "cpu_s")
    metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(untraced, "wall_s")
    units = {k: LAYER_UNITS[k] for k in metrics}
    samples = {k: len(untraced) if k == "process.cpu_s" else len(traced) for k in metrics}
    return metrics, units, samples


def report(workload: str, seed: int, s: dict) -> dict:
    """Prints the human-readable lines and returns the JSON result object."""
    print(f"{workload} seed={seed}: {s['attempted']} runs "
          f"({s['untraced_reps']} untraced, {s['traced_reps']} traced), {s['failed']} failed")
    for name, value in s["metrics"].items():
        print(f"  {name:34s} {value:14.6f} {s['units'][name]:6s} "
              f"({'mean' if name in MEANS else 'median'} of {s['samples'][name]})")
    if s["traced_reps"]:
        absent = [k for k in LAYER_UNITS if k not in s["metrics"]]
        print(f"  absent (entry point not found): {', '.join(absent) or 'none'}")
    print(f"  {'error_rate':34s} {s['failed'] / s['attempted']:14.6f} {'ratio':6s} "
          f"({s['failed']} of {s['attempted']} runs failed)")
    return {
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": s["units"][k]} for k, v in s["metrics"].items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dtl" / "__init__.py").is_file():
        print(f"no dtl sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        summary = measure(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, args.seed, summary)
        for msg in summary["failures"]:
            print(msg, file=sys.stderr)
    if not all(r["metrics"] for r in results.values()):
        print("no repetition produced measurements", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
