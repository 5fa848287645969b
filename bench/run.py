"""spindex benchmark: seeded workloads in a closed loop, one request in flight.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {orbit-grid,su3-qr,cli-census,all}
                         --seed N --seconds S --trace {0,1}

Each run is a child process (``child.py``) under an address-space cap and a
wall-clock budget, so a run that overflows either is recorded as ``oom`` or
``timeout`` and this process carries on.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` makes an untraced run and a traced run of the same
requests and prints the per-layer metrics.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it is the full record of the run, provenance included.  Exit code 2
means no run could be made; nothing is printed on stdout then.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from child import OOM_EXIT  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import ROOT, WORKLOADS, child_env  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 5
MEM_MB = 1536
BUDGET_GRACE_S = 45.0
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}
# fail_ratio is 0 on a correct program, so the result line carries it as
# ``failed`` / ``attempted`` rather than as a metric.
RESULT_METRICS = [m for m in END_TO_END_UNITS if m != "fail_ratio"]


def tail_percentile(n: int) -> float | None:
    """Highest percentile of the ladder with at least ten of n samples beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(n * p / 100) >= TAIL_MIN_BEYOND:
            return p
    return None


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(len(sorted_values) * p / 100), 1) - 1]


def _wait_for_group(pgid: int, timeout: float = 5.0) -> None:
    """Wait until no process of the child's session is left."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def run_child(workload: str, seed: int, *, budget: float, seconds: float | None = None,
              count: int | None = None, setup_only: bool = False,
              trace_out: Path | None = None, mem_mb: int = MEM_MB) -> dict:
    """Start one child, wait at most ``budget`` seconds, and parse what it wrote."""
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--mem-mb", str(mem_mb)]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    if count is not None:
        cmd += ["--count", str(count)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    finally:
        _wait_for_group(proc.pid)
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:  # a line cut short by the kill
            pass
    kinds = {r["type"] for r in records}
    if timed_out:
        status = "timeout"
    elif "oom" in kinds or proc.returncode in (OOM_EXIT, -signal.SIGKILL):
        status = "oom"
    elif proc.returncode == 0 and ("done" in kinds or (setup_only and "setup" in kinds)):
        status = "ok"
    else:
        status = "error"
    setup = next((r for r in records if r["type"] == "setup"), None)
    done = next((r for r in records if r["type"] == "done"), {})
    requests = [r for r in records if r["type"] == "request"]
    unfinished = 0 if status == "ok" else 1
    return {
        "status": status,
        "returncode": proc.returncode,
        "stderr": err[-2000:],
        "setup_s": setup["ready"] - spawned if setup else None,
        "ready": setup["ready"] if setup else None,
        "requests": requests,
        "attempted": len(requests) + unfinished,
        "failed": sum("error" in r for r in requests) + unfinished,
        "peak_rss_kb": done.get("peak_rss_kb"),
        "vm_peak_kb": setup.get("vm_peak_kb") if setup else None,
    }


def throughput(run: dict) -> float:
    """Requests completed per second, from the end of set-up to the last completion."""
    ok = sum("error" not in r for r in run["requests"])
    if not ok:
        return 0.0
    return ok / (run["requests"][-1]["end"] - run["ready"])


def _require(runs: list[dict]) -> None:
    for run in runs:
        if run["status"] == "error":
            sys.stderr.write(run["stderr"])
            print(f"bench: child failed (exit code {run['returncode']}), no result",
                  file=sys.stderr)
            sys.exit(2)


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    probes = [run_child(workload, seed, budget=BUDGET_GRACE_S, setup_only=True)
              for _ in range(SETUP_PROBES)]
    main = run_child(workload, seed, seconds=seconds, budget=seconds + BUDGET_GRACE_S)
    _require(probes + [main])
    latencies = sorted(r["latency"] * 1000 for r in main["requests"])
    p_tail = tail_percentile(len(latencies))
    metrics = {
        "throughput_rps": throughput(main),
        "latency_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "latency_tail_ms": percentile(latencies, p_tail) if p_tail else max(latencies, default=0.0),
        "setup_s": statistics.median(r["setup_s"] for r in probes + [main]),
        "peak_rss_mb": (main["peak_rss_kb"] or 0) / 1024,
        "fail_ratio": main["failed"] / main["attempted"],
    }
    return {
        "workload": workload,
        "trace": 0,
        "status": main["status"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "requests": len(latencies),
        "tail_percentile": p_tail,
        "tail_samples_beyond": len(latencies) - math.ceil(len(latencies) * p_tail / 100)
        if p_tail else 0,
        "failures": [r for r in main["requests"] if "error" in r][:5],
        "metrics": {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in metrics.items()},
    }


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    half = seconds / 2
    untraced = run_child(workload, seed, seconds=half, budget=half + BUDGET_GRACE_S)
    _require([untraced])
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    traced = run_child(workload, seed, count=len(untraced["requests"]), trace_out=spans_path,
                       budget=seconds + BUDGET_GRACE_S)
    _require([traced])
    spans = json.loads(spans_path.read_text()) if traced["status"] == "ok" else []
    base = throughput(untraced)
    metrics = layer_metrics(spans, throughput(traced) / base if base else 0.0)
    statuses = {untraced["status"], traced["status"]}
    return {
        "workload": workload,
        "trace": 1,
        "status": "ok" if statuses == {"ok"} else "/".join(sorted(statuses - {"ok"})),
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "requests": len(traced["requests"]),
        "spans": len(spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failures": [r for r in untraced["requests"] + traced["requests"] if "error" in r][:5],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def git_sha() -> str | None:
    """HEAD of the checkout, if the checkout is itself a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(seed: int, seconds: float) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "seconds": seconds,
        "mem_limit_mb": MEM_MB,
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    measure = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [measure(w, args.seed, args.seconds) for w in names]
    for rec in records:
        print(f"{rec['workload']}: status {rec['status']}, {rec['attempted']} attempted, "
              f"{rec['failed']} failed"
              + (f", tail = p{rec['tail_percentile']:g} with {rec['tail_samples_beyond']} "
                 f"samples beyond" if rec.get("tail_percentile") else ""))
        for m, v in rec["metrics"].items():
            print(f"  {m:34s} {v['value']:14.6g} {v['unit']}")
        for failure in rec["failures"]:
            print(f"  failed request: {failure}")
    print(json.dumps({"provenance": provenance(args.seed, args.seconds), "runs": records}))
    keep = None if args.trace else RESULT_METRICS
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for m, v in rec["metrics"].items():
            if keep is None or m in keep:
                metrics[prefix + m] = v
    print(json.dumps({
        "correct": all(r["status"] == "ok" and r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
