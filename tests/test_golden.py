"""Golden outputs of a fixed table of seeded CLI calls.

``golden/cli.json`` holds the input files, and for every call its argv, exit
code and stdout.  Each call runs through ``cli.main`` in process, in a folder
holding those input files.  Exit codes and the text around the numbers (keys,
structure, labels) must match exactly, and every number to GOLDEN_RTOL
relative.  Under the numpy version that wrote the file, stdout must match byte
for byte.  A change that moves an output on purpose regenerates the file, and
the diff of the file is the list of outputs that moved:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rhomix import cli

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
GOLDEN_RTOL = 1e-12
GOLDEN_ATOL = 1e-15  # for values that are zero in exact arithmetic
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
TIMING = re.compile(r"\b\d+\.\d+s\b")  # verify-all prints each check's own run time


def make_table(seed: int = 2026) -> tuple:
    """(input files, argv list) of the golden table; the values are drawn from ``seed``."""
    rng = np.random.default_rng(seed)

    def numbers(values):
        return ",".join(repr(float(v)) for v in values)

    def system(sizes):
        return {"variables": [{"name": f"X{k}", "size": s} for k, s in enumerate(sizes)],
                "joint_flat": rng.dirichlet(np.ones(math.prod(sizes))).tolist()}

    gamma = float(rng.uniform(0.05, 0.2))
    inputs = {
        "pair.json": {"labels_x": ["a", "b", "c"], "labels_y": ["0", "1", "2", "3"],
                      "joint": rng.dirichlet(np.ones(12)).reshape(3, 4).tolist()},
        # 2^9 and 2^8 events per side: more than event_extremes' seed scan holds
        "wide_pair.json": {"labels_x": list(range(10)), "labels_y": list(range(9)),
                           "joint": rng.dirichlet(np.ones(90)).reshape(10, 9).tolist()},
        "system.json": system([2, 3, 4, 2, 3]),
        "spins.json": system([2, 2, 2]),
        "matrix.json": {"entries": rng.uniform(0.0, 0.4, size=(3, 3)).tolist()},
        "kernel.json": {"n": 1, "R": 2, "values": dict(zip(("(1)", "(2)", "(-1)"), rng.uniform(0.05, 0.3, 3)))},
        "gamma.json": {"n": 1, "R": 1, "values": {"(1)": gamma, "(-1)": gamma}},
        "bad.json": '{"labels_x": ["a", "b"], "labels_y": ["0", "1"], "joint": [[0.25, ',
    }
    u = rng.standard_normal((3, 3))
    argvs = [
        ["maxcorr", "--pair", "pair.json", "--witness"],
        ["maxcorr", "--system", "system.json", "--x", "X0,X1", "--y", "X4"],
        ["subjective", "--system", "system.json", "--i", "X0", "--j", "X4"],
        ["subjective", "--system", "spins.json", "--i", "X0", "--j", "X1"],
        ["mixing", "--pair", "wide_pair.json"],
        ["tensor-bound", "simple", "--eps", numbers(rng.uniform(0.05, 0.9, size=3))],
        ["tensor-bound", "nm", "--matrix", "matrix.json"],
        ["tensor-bound", "zn", "--kernel", "kernel.json"],
        ["event-bound", "extremes", "--pair", "pair.json"],
        ["event-bound", "extremes", "--pair", "wide_pair.json"],
        ["event-bound", "nu", "--eps", "0.5"],
        ["event-bound", "lambda", "--eps", repr(float(rng.uniform(0.1, 0.9)))],
        ["chogosov", "quantile", "--eps", repr(float(rng.uniform(0.2, 0.8))), "--p", repr(float(rng.uniform(0.1, 0.9)))],
        ["chogosov", "sample", "--eps", "0.5", "--n", "50", "--seed", "7", "--format", "csv"],
        ["glauber-gap", "exact", "--system", "spins.json"],
        ["glauber-sim", "--system", "spins.json", "--horizon", "20", "--seed", "3"],
        ["glauber-sim", "--system", "spins.json", "--horizon", "20", "--seed", "3", "--format", "csv"],
        ["ising", "--L", "6", "--T", repr(float(rng.uniform(1.5, 3.0)))],
        ["ising", "--method", "mcmc", "--L", "6", "--T", "2.4", "--seed", "1"],
        ["quadratic", "--gamma", "gamma.json"],
        ["conv-inverse", "--kernel", "kernel.json"],
        ["clt", "--model", "ising", "--T", "3.0", "--ells", "4,8", "--replicas", "2000", "--seed", "5"],
        ["clt", "--model", "independent", "--ells", "4,8", "--replicas", "50", "--seed", "2", "--format", "csv"],
        ["ou-chain", "--t", repr(float(rng.uniform(0.5, 2.0))), "--K", "8"],
        ["three-lines", f"--u1={numbers(u[0])}", f"--u2={numbers(u[1])}", f"--u3={numbers(u[2])}"],
        ["verify-all", "--only", "01"],
        ["glauber-gap", "exact", "--system", "spins.json", "--dry-run"],
        ["maxcorr", "--pair", "pair.json", "--dry-run"],
        ["tensor-bound", "simple", "--eps", "nan,0.5"],
        ["mixing", "--pair", "missing.json"],
        ["maxcorr", "--pair", "bad.json"],
    ]
    return inputs, argvs


def write_inputs(inputs: dict, folder: Path) -> None:
    for name, obj in inputs.items():
        (folder / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))


def run_call(argv: list) -> tuple:
    """(exit code, stdout) of ``cli.main(argv)`` in the current folder."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, TIMING.sub("<t>", out.getvalue())


def split_numbers(text: str) -> tuple:
    """(text with every number replaced by '#', the numbers as floats)."""
    return NUMBER.sub("#", text), [float(v) for v in NUMBER.findall(text)]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


CALLS = _golden()["calls"] if GOLDEN.exists() else []  # a missing file fails test_table_covers_every_command


@pytest.fixture(scope="module")
def golden_folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    write_inputs(_golden()["inputs"], folder)
    return folder


@pytest.mark.parametrize("entry", CALLS, ids=lambda e: " ".join(e["argv"])[:60])
def test_golden_call(entry, golden_folder, monkeypatch):
    monkeypatch.chdir(golden_folder)
    code, out = run_call(entry["argv"])
    assert code == entry["exit"]
    if _golden()["numpy"] == np.__version__:
        assert out == entry["stdout"]
    skeleton, got = split_numbers(out)
    want_skeleton, want = split_numbers(entry["stdout"])
    assert skeleton == want_skeleton
    moved = [(g, w) for g, w in zip(got, want) if not math.isclose(g, w, rel_tol=GOLDEN_RTOL, abs_tol=GOLDEN_ATOL)]
    assert not moved, moved[:5]


def test_table_covers_every_command():
    calls = _golden()["calls"]
    assert {c["argv"][0] for c in calls} == set(cli.HANDLERS)
    assert sum("--dry-run" in c["argv"] for c in calls) == 2 and sum(c["exit"] == 2 for c in calls) == 3


def regenerate(path: Path = GOLDEN) -> None:
    """Run the table on the installed code and write it, with the numpy version, to ``path``."""
    inputs, argvs = make_table()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        write_inputs(inputs, Path(folder))
        os.chdir(folder)
        try:
            calls = [dict(zip(("argv", "exit", "stdout"), (argv, *run_call(argv)))) for argv in argvs]
        finally:
            os.chdir(cwd)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"numpy": np.__version__, "inputs": inputs, "calls": calls}, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
