"""rhomix benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, nothing is installed.  The workloads and metrics
are declared in ``BENCHMARK.json``.  Each workload runs in a fresh worker
process (``worker.py``) with BLAS threads pinned to ``nproc`` and no
``rhomix`` thread pool.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run, with the tracing
overhead against an untraced pass of the same run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Full records, spans and inputs go to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time

from stats import median, tail

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 2          # extra set-up-only processes; with the run's own, three samples
RUN_TIMEOUT_S = 170.0
IMPORTS = ("rhomix", "rhomix.cli", "rhomix.discrete", "rhomix.events", "rhomix.gaussian",
           "rhomix.tensor_bounds", "rhomix.glauber", "rhomix.convdecay", "rhomix.lattice",
           "rhomix.acceptance", "numpy", "scipy", "scipy.integrate", "scipy.signal",
           "scipy.special", "scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.sparse")


def fail(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def pinned_env(root: str, nproc: int) -> dict:
    env = dict(os.environ)
    env.pop("RHOMIX_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def source_meta(root: str) -> dict:
    h = hashlib.sha256()
    srcdir = os.path.join(root, "src", "rhomix")
    for name in sorted(os.listdir(srcdir)):
        if name.endswith(".py"):
            with open(os.path.join(srcdir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def start_worker(argv: list, env: dict):
    """Start a worker; return (process, seconds from start until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv], env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        fail(f"worker did not start: {line!r}")
    return proc, ready


def import_times(env: dict) -> dict:
    """Cumulative first-import seconds per module, from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rhomix, rhomix.cli"],
                          env=env, capture_output=True, text=True, timeout=120)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) not in cumulative:
            cumulative[m.group(2)] = int(m.group(1)) * 1e-6
    return {f"setup.import.{name}_s": cumulative.get(name, 0.0) for name in IMPORTS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rhomix", "__init__.py")):
        fail("src/rhomix not found; run from the root of a rhomix source checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    nproc = len(os.sched_getaffinity(0))
    env = pinned_env(root, nproc)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-t{args.trace}"
    out = os.path.join(out_dir, f"record-{tag}.json")
    wargs = ["--workload", args.workload, "--seed", str(args.seed), "--out", out]

    setups = []
    if args.workload != "cli":  # cli set-up is input generation only, timed by its worker
        for _ in range(SETUP_PROBES):
            probe, ready = start_worker(wargs + ["--setup-only"], env)
            probe.wait()
            setups.append(ready)
    proc, ready = start_worker(wargs + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env)
    setups.append(ready)
    try:
        proc.wait(timeout=max(1.0, RUN_TIMEOUT_S - (time.perf_counter() - t_start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload did not finish in time")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    with open(out) as fh:
        record = json.load(fh)

    expected_file = os.path.join(root, "src", "rhomix", "__init__.py")
    if os.path.realpath(record["meta"]["rhomix_file"]) != os.path.realpath(expected_file):
        fail(f"imported {record['meta']['rhomix_file']}, not this checkout's rhomix")

    attempted = record["attempted"]
    failures = record["failures"]
    known = set(record["known"])
    calls = record["call_s"]
    pct, tail_s, n_calls = tail(calls)
    record["meta"].update(source_meta(root), nproc=nproc, workload=args.workload, seed=args.seed,
                          seconds=args.seconds, trace=args.trace,
                          blas_threads_env=env["OPENBLAS_NUM_THREADS"])
    if args.workload == "cli":
        setup_s = record["setup_s"]
    else:
        setup_s = median(setups)
        record["setup_samples_s"] = setups
    if args.trace:
        values = {**record["per_layer"], **import_times(env)}
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": record["wall_s"],
            "peak_rss_mb": record["peak_rss_mb"],
            "ok_ratio": (attempted - len(failures)) / attempted,
            "call_p50_ms": 1e3 * median(calls),
            "call_tail_ms": 1e3 * tail_s,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    result = {
        "correct": all(f["op"] in known for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record["result"] = result
    record["tail"] = {"percentile": pct, "samples": n_calls}
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# meta {json.dumps(record['meta'], sort_keys=True)}")
    print(f"# calls: {n_calls}, p50 and tail p{pct:.1f} (the highest percentile with "
          f"at least ten calls beyond it); passes_s {record['passes_s']}")
    for f in failures:
        print(f"# failed{' (known)' if f['op'] in known else ''}: {f['op']}: {'; '.join(f['problems'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
