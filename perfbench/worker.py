"""One workload in one fresh process; started by ``run.py``, not meant to be run by hand.

``worker.py --workload W --seed N --seconds S --trace 0|1 --out FILE [--setup-only]``

Prints ``READY`` once ``rhomix`` is imported and the inputs are generated,
then runs passes of the workload until S seconds have gone (at least one),
checks every result and writes a JSON record to FILE.  With ``--trace 1`` it
runs one traced and one untraced pass and adds the per-layer numbers.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np
import scipy

import rhomix
import spans
from stats import median


def blas_info() -> dict:
    """OpenBLAS version and live thread count of the library numpy loaded."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)  # the copy numpy already loaded
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads and config:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return {"openblas": config().decode(), "blas_threads": threads()}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"openblas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}


def meta() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "rhomix": rhomix.__version__, "rhomix_file": rhomix.__file__, **blas_info()}


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# in-process workloads


def run_pass(ops, tracer=None):
    """Run every op once; return (wall seconds, per-op seconds, results or exceptions)."""
    results, times = [], []
    t0 = time.perf_counter()
    for op in ops:
        s = time.perf_counter()
        try:
            res = tracer.span(f"bench.{op.name}", op.run) if tracer else op.run()
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            res = exc
        times.append(time.perf_counter() - s)
        results.append(res)
    return time.perf_counter() - t0, times, results


def check_pass(ops, results) -> list:
    failures = []
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            probs = [f"raised {type(res).__name__}: {res}"]
        else:
            try:
                probs = op.check(res)
            except Exception as exc:
                probs = [f"check raised {type(exc).__name__}: {exc}"]
        if probs:
            failures.append({"op": op.name, "problems": probs})
    return failures


def per_layer(summary: dict, n_spans: int) -> dict:
    funcs, layers = summary["functions"], summary["layers"]

    def val(name, key):
        return funcs.get(name, {}).get(key, 0.0)

    def sizes(name, key):
        return funcs.get(name, {}).get("sizes", {}).get(key, [])

    out = {"trace.spans": n_spans}
    for lay in spans.LAYERS:
        out[f"{lay}.self_s"] = layers.get(lay, {}).get("self_s", 0.0)
        out[f"{lay}.calls"] = layers.get(lay, {}).get("calls", 0)
    for name in ("glauber.glauber_simulate", "glauber.exact_gap", "discrete.subjective_maxcorr",
                 "discrete.event_extremes", "events.chogosov_opnorm",
                 "events.lambda_integral_identity", "gaussian.build_optimal_simple",
                 "gaussian.three_lines"):
        out[f"{name}.self_s"] = val(name, "self_s")
    for name in ("discrete.maxcorr_pair", "gaussian.three_lines"):
        out[f"{name}.calls"] = val(name, "calls")
    events = sum(sizes("glauber.glauber_simulate", "events"))
    out["glauber.sim_events"] = events
    out["glauber.sim_us_per_event"] = 1e6 * val("glauber.glauber_simulate", "self_s") / events if events else 0.0
    out["glauber.exact_gap.dense_bytes"] = max(sizes("glauber.exact_gap", "dense_bytes"), default=0)
    out["glauber.exact_gap.max_states"] = max(sizes("glauber.exact_gap", "states"), default=0)
    out["discrete.subjective_maxcorr.subsets"] = sum(sizes("discrete.subjective_maxcorr", "subsets"))
    out["discrete.subjective_maxcorr.max_pool"] = max(sizes("discrete.subjective_maxcorr", "pool"), default=0)
    out["discrete.event_extremes.pairs_scanned"] = sum(sizes("discrete.event_extremes", "pairs_scanned"))
    out["discrete.event_extremes.max_states"] = max(sizes("discrete.event_extremes", "states"), default=0)
    samples = sum(sizes("events.chogosov_sample", "samples"))
    out["events.chogosov_sample.samples"] = samples
    out["events.chogosov_sample.ns_per_sample"] = (
        1e9 * val("events.chogosov_sample", "self_s") / samples if samples else 0.0)
    out["events.chogosov_opnorm.iterations"] = sum(sizes("events.chogosov_opnorm", "iterations"))
    out["events.chogosov_opnorm.grid_m"] = max(sizes("events.chogosov_opnorm", "grid_m"), default=0)
    for name, f in funcs.items():
        if name.startswith("acceptance.check_"):
            out[f"acceptance.check_{name.split('_')[1]}_s"] = f["total_s"]
    return out


def run_inprocess(args, record: dict) -> None:
    import workloads

    ops = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return
    failures, attempted = [], 0
    if args.trace:
        # The traced pass goes first, so it runs as cold as an untraced run
        # does (first BLAS calls, page faults); the untraced pass after it is
        # warm, which makes trace.overhead_s an upper bound.
        tracer = spans.Tracer()
        tracer.install()
        traced_wall, _, results = run_pass(ops, tracer)
        tracer.uninstall()
        failures += check_pass(ops, results)
        attempted += len(ops)
        tracer.dump(os.path.join(os.path.dirname(args.out), f"spans-{args.workload}-{args.seed}.json"))
        layer = per_layer(spans.summarize(tracer.spans), len(tracer.spans))
        if args.workload == "acceptance":
            layer["acceptance.checks_passed"] = sum(
                1 for res in results if not isinstance(res, Exception) and res.passed)
        del results
    passes, op_times = [], []
    start = time.perf_counter()
    while not passes or (not args.trace and time.perf_counter() - start < args.seconds):
        wall, times, results = run_pass(ops)
        passes.append(wall)
        op_times.extend(times)
        failures += check_pass(ops, results)
        attempted += len(ops)
        del results
    record["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
    if args.trace:
        layer["trace.overhead_s"] = traced_wall - passes[0]
        record["per_layer"] = layer
    # one pass is one call here, as one verify-all is for a user
    record.update(wall_s=median(passes), passes_s=passes, call_s=passes, op_s=op_times, attempted=attempted,
                  failures=failures, known=sorted(workloads.KNOWN_FAILURES))


# ---------------------------------------------------------------------------
# cli workload

SETUP_REPEATS = 9


def run_cli(args, record: dict) -> None:
    import clicalls

    base = os.path.join(os.path.dirname(args.out), f"cli-{args.seed}")
    folder = os.path.join(base, "inputs")
    gen_times = []
    for _ in range(SETUP_REPEATS):
        # into an empty folder each time: overwriting files left by an earlier
        # run is slower than creating them, so reruns of a seed would drift
        shutil.rmtree(folder, ignore_errors=True)
        t0 = time.perf_counter()
        calls = clicalls.write_inputs(np.random.default_rng(args.seed), folder, full=bool(args.trace))
        gen_times.append(time.perf_counter() - t0)
    record["setup_s"] = median(gen_times)
    print("READY", flush=True)
    if args.setup_only:
        return
    env = dict(os.environ)
    untraced, passes = [], []
    start = time.perf_counter()
    while not passes or (not args.trace and time.perf_counter() - start < args.seconds):
        t0 = time.perf_counter()
        untraced += [(c, clicalls.run_call(c, folder, env)) for c in calls]
        passes.append(time.perf_counter() - t0)
    record["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    checked = list(untraced)
    if args.trace:
        traced, all_spans = [], []
        for k, call in enumerate(calls):
            path = os.path.join(base, f"spans-{k}.json")
            traced.append((call, clicalls.run_call(call, folder, env, spans_path=path)))
            with open(path) as fh:
                child = json.load(fh)
            offset = len(all_spans)  # re-index parents into one list of spans
            all_spans += [[n, s, e, p + offset if p >= 0 else -1, z] for n, s, e, p, z in child]
        checked += traced
        layer = per_layer(spans.summarize(all_spans), len(all_spans))
        layer["trace.overhead_s"] = sum(out[0] for _, out in traced) - passes[0]
        by_kind: dict = {}
        for call, out in untraced:
            by_kind.setdefault(call.name if call.kind == "compute" else f"cli.{call.kind}", []).append(out[0])
        for key, secs in by_kind.items():
            layer[f"{key}_ms"] = 1e3 * median(secs)
        record["per_layer"] = layer
    expected = {c.name: clicalls.in_process(c, folder) for c in calls if c.expect == 0}
    failures = []
    for call, (_, code, stdout, _) in checked:
        probs = clicalls.problems(call, code, stdout, expected.get(call.name))
        if probs:
            failures.append({"op": call.name, "problems": probs})
    record.update(wall_s=median(passes), passes_s=passes, call_s=[out[0] for _, out in untraced],
                  attempted=len(checked), failures=failures,
                  known=sorted(c.name for c in calls if c.kind == "invalid"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    record = {"meta": meta()}
    if args.workload == "cli":
        run_cli(args, record)
    else:
        run_inprocess(args, record)
    if not args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
