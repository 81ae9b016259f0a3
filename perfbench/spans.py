"""In-memory span tracing of the public functions of every ``rhomix`` module.

``Tracer.install`` wraps each public function once and rebinds every name
under which a ``rhomix`` module (``rhomix/__init__`` included) holds it, so
calls through ``rhomix.x``, ``module.x`` and a bare global ``x`` all record a
span.  A span is ``[name, start, end, parent, sizes]``: ``parent`` is the
index of the enclosing span or -1, and ``sizes`` holds the input-size labels
of a kernel call or is None.  Nothing is written until ``dump``.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("discrete", "gaussian", "tensor_bounds", "events", "glauber", "lattice",
          "convdecay", "acceptance", "cli")


def _layer(qualname: str) -> str:
    return qualname.split(".", 1)[0]


def _sizes(qualname, args, kwargs, result):
    """Input size and the work count computed from it, for the ROADMAP kernels.

    Counts are derived from the input size, not counted inside the program:
    a computed ``dense_bytes`` is the 8 * ns^2 of the dense operator, and
    ``subsets`` ignores the early exit at rho = 1.
    """
    def arg(i, name):
        return args[i] if len(args) > i else kwargs.get(name)

    if qualname == "glauber.exact_gap":
        ns = int((arg(0, "sys").joint > 0).sum())
        return {"states": ns, "dense_bytes": 8 * ns * ns}
    if qualname == "discrete.event_extremes":
        n, m = arg(0, "pair").joint.shape
        return {"states": n + m, "pairs_scanned": 2 ** (n + m)}
    if qualname == "discrete.subjective_maxcorr":
        sys_, pool = arg(0, "sys"), arg(3, "conditioning_pool")
        k = len(sys_.variables) - 2 if pool is None else len(pool)
        return {"pool": k, "subsets": 2 ** k}
    if qualname in ("glauber.glauber_simulate", "glauber.glauber_simulate_ising"):
        target = arg(0, "sys" if qualname.endswith("simulate") else "torus")
        sites = len(target.variables) if hasattr(target, "variables") else target.L ** target.n
        return {"events": arg(1, "horizon") * sites}
    if qualname == "events.chogosov_sample":
        return {"samples": int(arg(1, "n"))}
    if qualname == "events.chogosov_opnorm":
        return {"grid_m": int(result.m), "iterations": int(result.iterations)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._rebound: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; return its result."""
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        rec[4] = _sizes(name, args, kwargs, result)
        return result

    def _wrap(self, qualname: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(qualname, fn, *args, **kwargs)

        return traced

    def install(self) -> int:
        """Wrap every public function of every loaded ``rhomix`` module; return the count."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rhomix" or n.startswith("rhomix."))]
        wrapped: dict = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("rhomix."):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(f"{home[len('rhomix.'):]}.{obj.__name__}", obj)
                self._rebound.append((mod, name, obj))
                setattr(mod, name, wrapped[id(obj)])
        return len(wrapped)

    def uninstall(self) -> None:
        """Restore every name ``install`` rebound."""
        for mod, name, obj in reversed(self._rebound):
            setattr(mod, name, obj)
        self._rebound.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part its children cover.

    Children are clipped to the parent's interval and their overlaps merged,
    so the result never goes below zero.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], start), min(spans[c][2], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (end - start) - covered))
    return out


def summarize(spans) -> dict:
    """Per-function and per-layer totals: calls, self_s, total_s and the size labels of each call."""
    selfs = self_times(spans)
    funcs: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "sizes": {}})
    for i, (name, start, end, _, sizes) in enumerate(spans):
        f = funcs[name]
        f["calls"] += 1
        f["self_s"] += selfs[i]
        f["total_s"] += end - start
        for key, value in (sizes or {}).items():
            f["sizes"].setdefault(key, []).append(value)
    layers: dict = {}
    for name, f in funcs.items():
        lay = layers.setdefault(_layer(name), {"calls": 0, "self_s": 0.0})
        lay["calls"] += f["calls"]
        lay["self_s"] += f["self_s"]
    return {"functions": dict(funcs), "layers": layers}
