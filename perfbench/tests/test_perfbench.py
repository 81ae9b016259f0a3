"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q`` from the repo root."""
import filecmp
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]

import clicalls  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# self time and the tail rule


def test_self_time_of_nested_trace():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    trace = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    summary = spans.summarize(trace)
    assert summary["functions"]["a"]["total_s"] == pytest.approx(3.0)
    total_self = sum(f["self_s"] for f in summary["functions"].values())
    assert total_self == pytest.approx(10.0)  # self times partition the root span


def test_self_time_clips_and_merges_children():
    trace = [["p", 0.0, 4.0, -1, None], ["x", 1.0, 3.0, 0, None], ["y", 2.0, 6.0, 0, None]]
    assert spans.self_times(trace)[0] == pytest.approx(1.0)


def test_tail_rule():
    xs = list(range(1, 101))  # 1..100
    pct, value, n = stats.tail(xs)
    assert (pct, value, n) == (90.0, 90.0, 100)
    assert sum(1 for x in xs if x > value) == 10
    pct, value, n = stats.tail(list(range(20)))
    assert (pct, value, n) == (50.0, 9.0, 20)
    assert stats.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)


def test_statistical_thresholds():
    assert stats.dkw_epsilon(10_000, 1e-6) == pytest.approx(math.sqrt(math.log(2e6) / 2e4))
    # Wilson-Hilferty at z = 0 is close to the chi-square median df (1 - 2/(9 df))^3
    assert stats.chi2_upper(50, 0.0) == pytest.approx(50 * (1 - 2 / 450) ** 3)
    assert stats.chi2_upper(50, 4.75) > 50 + 4.75 * math.sqrt(100) * 0.9


# ---------------------------------------------------------------------------
# output checks reject corrupted results


def _op(ops, prefix):
    return next(op for op in ops if op.name.startswith(prefix))


def test_gap_check_rejects_bound_above_exact_gap():
    op = _op(workloads.build("oracles", 5), "oracles.exact_gap[256]")
    gap, rep = op.run()
    assert op.check((gap, rep)) == []
    assert op.check((0.5 * rep.bound_M, rep))


def test_bound_checks_reject_bound_below_oracle():
    op = _op(workloads.build("oracles", 5), "oracles.blocks[2x1]")
    rho, bounds = op.run()
    assert op.check((rho, bounds)) == []
    assert op.check((rho, {**bounds, "nm": rho - 1e-3}))
    ev = _op(workloads.build("oracles", 5), "oracles.event_extremes[8x9]")
    ratio, rho = ev.run()
    assert ev.check((ratio, rho)) == []
    assert ev.check((rho + 0.01, rho))           # ratio above rho
    assert ev.check((ratio, ratio * (1 + abs(math.log(ratio))) + 1e-3))  # rho above lambda(ratio)


def test_conv_check_rejects_wrong_inverse():
    op = _op(workloads.build("oracles", 5), "oracles.conv_inverse[n=1]")
    b = op.run()
    assert op.check(b) == []
    bad = SimpleNamespace(R=b.R, values=b.values * 1.001)
    assert op.check(bad)


def test_sampler_checks_reject_corrupted_cloud():
    op = _op(workloads.build("samplers", 5), "samplers.chogosov_sample")
    cloud = op.run()
    assert op.check(cloud) == []
    shifted = cloud.copy()
    shifted[:, 1] = np.clip(shifted[:, 1] + 0.05, 0, 1)
    assert op.check(shifted)


def test_heat_bath_check_rejects_wrong_conditionals():
    rng = np.random.default_rng(3)
    sys_ = workloads._random_system(rng, (2, 2, 2))
    import rhomix.glauber as glauber

    sim = glauber.glauber_simulate(sys_, 5000.0, seed=1)
    assert workloads.heat_bath_problems(sys_, 5000.0, sim) == []
    flipped = SimpleNamespace(times=sim.times, sites=sim.sites, new_states=1 - sim.new_states)
    assert workloads.heat_bath_problems(sys_, 5000.0, flipped)


def test_cli_check_rejects_wrong_exit_code_and_output():
    call = clicalls.Call("cli.maxcorr", "compute", ["maxcorr"], 0)
    assert clicalls.problems(call, 0, '{"rho": 0.5}\n', (0, '{"rho": 0.5}\n')) == []
    assert clicalls.problems(call, 1, '{"rho": 0.5}\n', (0, '{"rho": 0.5}\n'))
    assert clicalls.problems(call, 0, '{"rho": 0.4}\n', (0, '{"rho": 0.5}\n'))
    invalid = clicalls.Call("cli.invalid.nan", "invalid", ["tensor-bound"], 2)
    assert clicalls.problems(invalid, 2, "", None) == []
    assert clicalls.problems(invalid, 0, "0.0\n", None)


def test_acceptance_check_rejects_failed_verdict():
    op = workloads.build("acceptance", 0)[0]
    assert op.check(SimpleNamespace(passed=True, detail="")) == []
    assert op.check(SimpleNamespace(passed=False, detail="x"))


# ---------------------------------------------------------------------------
# determinism of the generated inputs


@pytest.mark.parametrize("workload", ["oracles", "samplers"])
def test_same_seed_same_inputs(workload):
    a = workloads.inputs_digest(workloads.build(workload, 11))
    b = workloads.inputs_digest(workloads.build(workload, 11))
    c = workloads.inputs_digest(workloads.build(workload, 12))
    assert a == b != c


def test_cli_inputs_byte_identical(tmp_path):
    calls_a = clicalls.write_inputs(np.random.default_rng(11), str(tmp_path / "a"))
    calls_b = clicalls.write_inputs(np.random.default_rng(11), str(tmp_path / "b"))
    assert [c.argv for c in calls_a] == [c.argv for c in calls_b]
    names = sorted(os.listdir(tmp_path / "a"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert match == names and not mismatch and not errors


# ---------------------------------------------------------------------------
# the tracer


def test_tracer_rebinds_reimported_names_and_restores():
    import rhomix
    import rhomix.discrete as discrete

    original = discrete.maxcorr_pair
    tracer = spans.Tracer()
    assert tracer.install() > 0
    try:
        assert rhomix.maxcorr_pair is discrete.maxcorr_pair is not original
        pair = discrete.FinitePair.from_joint(np.array([[0.4, 0.1], [0.1, 0.4]]))
        rhomix.maxcorr_blocks(discrete.FiniteSystem((("a", 2), ("b", 2)), pair.joint), ["a"], ["b"])
    finally:
        tracer.uninstall()
    assert discrete.maxcorr_pair is original and rhomix.maxcorr_pair is original
    names = [s[0] for s in tracer.spans]
    assert names == ["discrete.maxcorr_blocks", "discrete.maxcorr_pair"]
    assert tracer.spans[1][3] == 0  # maxcorr_pair ran inside maxcorr_blocks


def test_tracer_labels_kernel_sizes():
    import rhomix.glauber as glauber

    sys_ = workloads._random_system(np.random.default_rng(4), (2, 2, 3))
    tracer = spans.Tracer()
    tracer.install()
    try:
        glauber.exact_gap(sys_)
    finally:
        tracer.uninstall()
    (name, _, _, _, sizes), = tracer.spans
    assert name == "glauber.exact_gap" and sizes == {"states": 12, "dense_bytes": 8 * 12 * 12}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(HERE), tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracles", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
