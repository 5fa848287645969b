"""One workload run in its own process: set up, then a closed loop of requests.

Usage: ``python bench/child.py --workload W --seed N (--seconds S | --count N)
[--setup-only] [--trace-out PATH] [--mem-mb M]``.  ``run.py`` starts it with
``PYTHONPATH`` pointing at the checkout's ``src``.

The address space is capped with RLIMIT_AS before spindex is imported; the cap
is inherited by CLI subprocesses.  stdout carries JSON lines: one ``setup``
record, one ``request`` record per request, then ``done``.  Running out of
memory writes an ``oom`` record and exits with ``OOM_EXIT``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

from tracing import Recorder
from workloads import CLASSES, SRC, schedule

OOM_EXIT = 3


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def vm_peak_kb() -> int | None:
    """Peak address-space size of this process so far (Linux), to set caps against."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmPeak:"))
    except (OSError, StopIteration):
        return None


def run(args) -> None:
    recorder = Recorder() if args.trace_out else None
    start = time.monotonic()
    import spindex

    if recorder is not None:
        recorder.add("cli.import", start, time.monotonic())
    if not Path(spindex.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"spindex was imported from {spindex.__file__}, not from {SRC}")
    wl = CLASSES[args.workload](spindex, recorder)
    stream = schedule(wl.pool, wl.stratum, args.seed)
    emit({"type": "setup", "ready": time.monotonic(), "pool": len(wl.pool),
          "vm_peak_kb": vm_peak_kb()})
    if args.setup_only:
        return
    if recorder is not None:
        recorder.install()
    deadline = time.monotonic() + args.seconds if args.seconds is not None else math.inf
    count = args.count if args.count is not None else math.inf
    for i, item in enumerate(stream):
        if i >= count or time.monotonic() >= deadline:
            break
        if recorder is not None:
            recorder.request = i
            span = recorder.open("request")
        t0 = time.perf_counter()
        try:
            answer = wl.run(item)
        except MemoryError:
            raise
        except Exception as exc:  # a request that raises is a failed request
            latency = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        else:
            latency = time.perf_counter() - t0
            try:
                error = None if wl.check(item, answer) else "wrong answer"
            except (ValueError, TypeError, KeyError, AttributeError) as exc:
                error = f"check failed: {type(exc).__name__}: {exc}"
        if recorder is not None:
            recorder.close(span)
            recorder.request = None
        record = {"type": "request", "latency": latency, "end": time.monotonic()}
        if error is not None:
            record.update(error=error[:300], item=repr(item)[:200])
        emit(record)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if recorder is not None:
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.trace_out).write_text(json.dumps(recorder.spans))
    emit({"type": "done", "peak_rss_kb": rss_kb})


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(CLASSES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out")
    p.add_argument("--mem-mb", type=int, required=True)
    args = p.parse_args()
    limit = args.mem_mb * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    try:
        run(args)
    except MemoryError:
        os.write(1, b'{"type": "oom"}\n')
        os._exit(OOM_EXIT)


if __name__ == "__main__":
    main()
