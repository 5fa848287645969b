"""Spans around calls into spindex's layers, and the per-layer metrics derived from them.

Tracing wraps public functions at every name where spindex modules look them
up (``qr`` imports ``localized_index`` by name, ``characters`` calls its own
``weyl_character``), so nothing under ``src/`` changes.  A span is
``[name, start, end, parent, request, extra]``: ``parent`` is the index of the
enclosing span, ``request`` the id of the request being served (None during
set-up) and ``extra`` a per-layer count, or the cache key for Weyl characters.
Spans stay in memory until the run ends.  Times are ``time.monotonic()``,
which is one system-wide clock on Linux, so spans from a CLI subprocess can
be nested under the span of the process that waited for it.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time

SPAN_MARKER = "BENCH_SPANS "


def _weyl_key(args, kwargs, result):
    lam = args[0] if args else kwargs["lam"]
    rs = args[1] if len(args) > 1 else kwargs["rs"]
    return f"{rs.cartan_matrix}|{tuple(str(c) for c in lam)}"


# (module, function) -> (span name, what to record in ``extra``)
TRACED = {
    ("roots", "build_root_system"): ("roots.build", None),
    ("roots", "stabilizer_classes"): ("roots.classes", None),
    ("roots", "levi_conjugate"): ("roots.classes", None),
    ("orbits", "admissible_orbits_on_face"): ("orbits.enum", None),
    ("orbits", "orbit_spin_index"): ("orbits.index", None),
    ("localization", "orbit_model"):
        ("localization.model", lambda a, k, r: len(r.fixed_points)),
    ("localization", "su3_flag_bundle"):
        ("localization.model", lambda a, k, r: len(r.fixed_points)),
    ("localization", "localized_index"): ("localization.index", lambda a, k, r: len(r)),
    ("characters", "decompose"): ("characters.decompose", lambda a, k, r: len(r)),
    ("characters", "weyl_character"): ("characters.weyl", _weyl_key),
    ("qr", "verify_qr"): ("qr.verify", lambda a, k, r: len(r.orbit_terms)),
    ("cli", "main"): ("cli.main", None),
}


class Recorder:
    """In-memory span list with a stack of open spans; one per process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.monotonic(), None, parent, self.request, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, extra=None) -> None:
        span = self.spans[idx]
        span[2] = time.monotonic()
        span[5] = extra
        self.stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, start, end, parent, self.request, None])

    def wrap(self, name: str, fn, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    extra = measure(args, kwargs, result)
                return result
            finally:
                self.close(idx, extra)

        return traced

    def install(self) -> list[tuple]:
        """Replace each traced function at every spindex name bound to it.

        Returns the replaced bindings as (module, name, original) triples.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "spindex" or name.startswith("spindex."))]
        replaced = []
        for (mod, fname), (span, measure) in TRACED.items():
            module = sys.modules.get(f"spindex.{mod}")
            if module is None:
                continue
            original = getattr(module, fname)
            wrapper = self.wrap(span, original, measure)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        replaced.append((m, attr, original))
        return replaced

    def traced_process(self, argv, env, timeout):
        """Run a CLI shim process under a ``cli.process`` span and adopt its spans."""
        idx = self.open("cli.process")
        try:
            proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        finally:
            self.close(idx)
        offset = len(self.spans)
        for line in proc.stderr.splitlines():
            if line.startswith(SPAN_MARKER):
                for name, start, end, parent, _, extra in json.loads(line[len(SPAN_MARKER):]):
                    parent = idx if parent is None else parent + offset
                    self.spans.append([name, start, end, parent, self.request, extra])
        return proc.returncode, proc.stdout


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


SELF_TIME_METRICS = {
    "roots.build_s": "roots.build",
    "roots.classes_s": "roots.classes",
    "orbits.enum_s": "orbits.enum",
    "orbits.index_s": "orbits.index",
    "localization.model_s": "localization.model",
    "localization.index_s": "localization.index",
    "characters.decompose_s": "characters.decompose",
    "characters.weyl_s": "characters.weyl",
    "qr.verify_self_s": "qr.verify",
    "cli.import_s": "cli.import",
    "cli.main_self_s": "cli.main",
    "cli.process_other_s": "cli.process",
}

CALL_METRICS = {
    "roots.build_calls": "roots.build",
    "localization.index_calls": "localization.index",
    "characters.weyl_calls": "characters.weyl",
}

SUM_METRICS = {
    "localization.model_fixed_points": "localization.model",
    "localization.index_terms_out": "localization.index",
    "characters.irreducibles_out": "characters.decompose",
    "qr.orbit_terms": "qr.verify",
}


def layer_metrics(spans, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; a layer never called reads 0."""
    selfs = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, int] = {}
    request_s = 0.0
    weyl_seen: set = set()
    weyl_repeats = 0
    for span, own in zip(spans, selfs):
        name, start, end, _, _, extra = span
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if isinstance(extra, int):
            sums[name] = sums.get(name, 0) + extra
        if name == "request":
            request_s += end - start
        elif name == "characters.weyl":
            weyl_repeats += extra in weyl_seen
            weyl_seen.add(extra)
    out = {m: (self_s.get(s, 0.0), "s") for m, s in SELF_TIME_METRICS.items()}
    out.update({m: (calls.get(s, 0), "count") for m, s in CALL_METRICS.items()})
    out.update({m: (sums.get(s, 0), "count") for m, s in SUM_METRICS.items()})
    out["localization.index_share"] = (
        self_s.get("localization.index", 0.0) / request_s if request_s else 0.0, "ratio")
    weyl_calls = calls.get("characters.weyl", 0)
    out["characters.weyl_repeat_ratio"] = (
        weyl_repeats / weyl_calls if weyl_calls else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
