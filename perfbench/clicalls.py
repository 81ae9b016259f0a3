"""The ``cli`` workload: one client, a closed loop of seeded ``rhomix`` subprocess calls.

Every call runs ``python -m rhomix.cli`` (the ``rhomix`` console script
without the installer) and waits for it before sending the next.  The mix has
a fixed shape: ``COMPUTE_CALLS`` compute calls on distinct commands drawn
from the table, two ``--dry-run`` calls, and three invalid inputs whose
expected exit code is 2.  The seed draws the values, the commands and the
order.  The full table (one compute call per command) is used by the traced
run, which reports the latency of each command.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
COMPUTE_CALLS = 10  # of the 15 commands; 15 calls of about 1.7 s keep a run near 25 s


@dataclass
class Call:
    name: str       # "cli.<command>", "cli.dry_run.<command>" or "cli.invalid.<kind>"
    kind: str       # "compute", "dry_run" or "invalid"
    argv: list
    expect: int     # expected exit code


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def write_inputs(rng, folder: str, full: bool = False) -> list:
    """Write the input files into ``folder`` and return the seeded call list."""
    os.makedirs(folder, exist_ok=True)

    def dump(name, obj):
        with open(os.path.join(folder, name), "w") as fh:
            json.dump(obj, fh)

    joint = rng.dirichlet(np.ones(12)).reshape(3, 4)
    dump("pair.json", {"labels_x": ["a", "b", "c"], "labels_y": ["0", "1", "2", "3"],
                       "joint": joint.tolist()})
    sys_joint = rng.dirichlet(np.ones(8))
    dump("system.json", {"variables": [{"name": f"X{k}", "size": 2} for k in range(3)],
                         "joint_flat": sys_joint.tolist()})
    gamma = float(rng.uniform(0.05, 0.2))
    dump("gamma.json", {"n": 1, "R": 1, "values": {"(1)": gamma, "(-1)": gamma}})
    kern = rng.uniform(0.05, 0.3, size=3)
    dump("kernel.json", {"n": 1, "R": 2, "values": {"(1)": kern[0], "(2)": kern[1], "(-1)": kern[2]}})
    with open(os.path.join(folder, "bad.json"), "w") as fh:
        fh.write('{"labels_x": ["a", "b"], "labels_y": ["0", "1"], "joint": [[0.25, ')
    u = rng.standard_normal((3, 3))
    calls = [
        Call("cli.maxcorr", "compute", ["maxcorr", "--pair", "pair.json", "--witness"], 0),
        Call("cli.subjective", "compute", ["subjective", "--system", "system.json", "--i", "X0", "--j", "X1"], 0),
        Call("cli.mixing", "compute", ["mixing", "--pair", "pair.json"], 0),
        Call("cli.tensor-bound", "compute",
             ["tensor-bound", "simple", "--eps", _fmt(rng.uniform(0.05, 0.9, size=3))], 0),
        Call("cli.event-bound", "compute", ["event-bound", "extremes", "--pair", "pair.json"], 0),
        Call("cli.chogosov", "compute",
             ["chogosov", "quantile", "--eps", repr(float(rng.uniform(0.2, 0.8))),
              "--p", repr(float(rng.uniform(0.1, 0.9))), "--omega", repr(float(rng.uniform(0.1, 0.9)))], 0),
        Call("cli.glauber-gap", "compute", ["glauber-gap", "exact", "--system", "system.json"], 0),
        Call("cli.glauber-sim", "compute",
             ["glauber-sim", "--system", "system.json", "--horizon", "50", "--seed", str(int(rng.integers(1000)))], 0),
        Call("cli.ising", "compute", ["ising", "--L", "6", "--T", repr(float(rng.uniform(1.5, 3.0)))], 0),
        Call("cli.quadratic", "compute", ["quadratic", "--gamma", "gamma.json"], 0),
        Call("cli.conv-inverse", "compute", ["conv-inverse", "--kernel", "kernel.json"], 0),
        Call("cli.clt", "compute",
             ["clt", "--model", "ising", "--T", "3.0", "--ells", "4,8", "--replicas", "2000",
              "--seed", str(int(rng.integers(1000)))], 0),
        Call("cli.ou-chain", "compute", ["ou-chain", "--t", repr(float(rng.uniform(0.5, 2.0))), "--K", "8"], 0),
        Call("cli.three-lines", "compute",
             ["three-lines", f"--u1={_fmt(u[0])}", f"--u2={_fmt(u[1])}", f"--u3={_fmt(u[2])}"], 0),
        Call("cli.verify-all", "compute", ["verify-all", "--only", "01"], 0),
        Call("cli.dry_run.glauber-gap", "dry_run", ["glauber-gap", "exact", "--system", "system.json", "--dry-run"], 0),
        Call("cli.dry_run.maxcorr", "dry_run", ["maxcorr", "--pair", "pair.json", "--dry-run"], 0),
        Call("cli.invalid.nan", "invalid", ["tensor-bound", "simple", "--eps", "nan,0.5"], 2),
        Call("cli.invalid.missing_file", "invalid", ["mixing", "--pair", "missing.json"], 2),
        Call("cli.invalid.malformed_json", "invalid", ["maxcorr", "--pair", "bad.json"], 2),
    ]
    compute = [c for c in calls if c.kind == "compute"]
    keep = rng.permutation(len(compute))[:COMPUTE_CALLS]
    if not full:
        calls = [compute[k] for k in sorted(keep)] + [c for c in calls if c.kind != "compute"]
    order = rng.permutation(len(calls))
    return [calls[k] for k in order]


def call_argv(call: Call, spans_path: str | None) -> list:
    if spans_path is None:
        return [sys.executable, "-m", "rhomix.cli", *call.argv]
    return [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, *call.argv]


def run_call(call: Call, folder: str, env: dict, spans_path: str | None = None):
    """Run one call to completion; return (seconds, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run(call_argv(call, spans_path), cwd=folder, env=env,
                          capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


_TIMING = re.compile(r"[0-9.]+s\b")


def comparable(call: Call, text: str) -> str:
    """verify-all prints the check's own timing; mask it before comparing."""
    return _TIMING.sub("<t>", text) if call.argv[0] == "verify-all" else text


def in_process(call: Call, folder: str):
    """(exit code, stdout) of ``rhomix.cli.main`` on the same argv, in this process."""
    import rhomix.cli

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = rhomix.cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error exits 1 in a real process
                traceback.print_exc()
                code = 1
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def problems(call: Call, code: int, stdout: str, expected) -> list:
    """Output check of one call: its exit code, and stdout against the in-process result."""
    if code != call.expect:
        return [f"exit {code}, expected {call.expect}"]
    if call.expect != 0:
        return []
    exp_code, exp_out = expected
    if exp_code != 0 or comparable(call, stdout) != comparable(call, exp_out):
        return ["stdout differs from the in-process result"]
    return []
