"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete, or `rhomix verify-all` for the same checks from the CLI.
"""
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from rhomix import acceptance, discrete, gaussian, glauber

CHECKS = {fn.__name__: fn for fn in acceptance.ALL_CHECKS}


@pytest.mark.parametrize("name", list(CHECKS))
def test_criterion(name):
    result = CHECKS[name]()
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("law_factor, passes", [(0.0, False), (2.0, False), (1.0, True)])
def test_check_12_pins_contraction_law(monkeypatch, law_factor, passes):
    # a chain whose 1 - rho is law_factor times lam omega^2 t^3 / 12: rho = 1
    # (no contraction) and a wrong constant must fail, the exact law must pass
    def fake_joint(params):
        law = params.lam * params.omega**2 * params.t**3 / 12
        return SimpleNamespace(maxcorr=1.0 - law_factor * law)

    monkeypatch.setattr(gaussian, "ou_chain_joint", fake_joint)
    result = acceptance.check_12_hypocoercive()
    assert result.passed == passes, result.detail


@pytest.mark.parametrize("error, passes", [(1e-7, False), (0.0, True)])
def test_check_03_catches_a_low_maxcorr_kernel(monkeypatch, error, passes):
    # every measured eps scaled by 1 - error: the tightest bounds drop below
    # the exact block maxcorr (passes at error 1e-9, the tolerance)
    batch_maxcorr = discrete._batch_maxcorr
    monkeypatch.setattr(discrete, "_batch_maxcorr", lambda tables: batch_maxcorr(tables) * (1 - error))
    result = acceptance.check_03_tensor_sweep()
    assert result.passed == passes, result.detail


@pytest.mark.parametrize("error, passes", [(1e-7, False), (0.0, True)])
def test_check_07_catches_a_high_event_scan(monkeypatch, error, passes):
    # every scanned event ratio scaled by 1 + error: two-state pairs, whose
    # ratio equals rho, breach ratio <= rho (passes at error 1e-9, the tolerance)
    ratio_scan = discrete._event_ratio_scan

    def scaled(*args):
        ratio, row, col = ratio_scan(*args)
        return ratio * (1 + error), row, col

    monkeypatch.setattr(discrete, "_event_ratio_scan", scaled)
    result = acceptance.check_07_event_criteria()
    assert result.passed == passes, result.detail


_RINGS, _ROW = glauber._expected_rings, glauber._conditional_row


def _cdf_shifted(joint, site, state):  # cum[1:] / cum[-1] in place of cum[:-1] / cum[-1]
    cdf, nxt = _ROW(joint, site, state)
    return np.append(cdf[1:], 1.0), nxt


def _next_sites_cdf(joint, site, state):  # the site takes the next site's conditional law
    return _ROW(joint, (site + 1) % joint.ndim, state)[0], _ROW(joint, site, state)[1]


@pytest.mark.parametrize("name, fault, passes", [
    ("_expected_rings", lambda nsites, t: 1.1 * _RINGS(nsites, t), False),
    ("_conditional_row", _cdf_shifted, False),
    ("_conditional_row", _next_sites_cdf, False),
    ("_conditional_row", _ROW, True),
], ids=["clocks-10%-fast", "cdf-shifted", "wrong-site", "honest"])
def test_check_08_catches_a_wrong_simulator(monkeypatch, name, fault, passes):
    # the replicas' ring rate or conditional tables broken: the correlations at 0.5, 1 and 2
    # relaxation times leave exp(-gap t) by more than SIM_Z standard errors (max |z| 11.4,
    # 303 and 162 at the check's seed; honest 1.77).  exact_gap builds no table here, so
    # only the simulated side moves
    monkeypatch.setattr(glauber, name, fault)
    result = acceptance.check_08_glauber()
    assert result.passed == passes, result.detail


def test_sweep_eps_are_subjective_maxcorr_bit_for_bit():
    # criteria 3 and 8 score every pair's metalgebra stack within shape groups of
    # SWEEP_CHUNK systems: each eps must be the per-pair oracle's, bit for bit
    sweep = acceptance._scored_sweep(500, acceptance._sweep_system, acceptance._tensor_stacks, discrete._batch_maxcorr)
    for (sys, xs, ys), eps in sweep:
        assert eps.tolist() == [discrete.subjective_maxcorr(sys, x, y) for x, y in itertools.product(xs, ys)]
    sweep = acceptance._scored_sweep(200, acceptance._spin_system, acceptance._spin_stacks, discrete._batch_maxcorr)
    for sys, eps in sweep:
        pairs = itertools.combinations(range(len(sys.variables)), 2)
        assert eps.tolist() == [discrete.subjective_maxcorr(sys, i, j) for i, j in pairs]


def test_event_sweep_matches_the_per_pair_oracles():
    # criterion 7 reads its tables as marginals and scans each shape group whole: on
    # single-variable pairs the event maxima must be event_extremes' bits; on blocks, where
    # event_extremes prunes and its row blocks round otherwise, within 1e-14 relative.  The
    # maximal correlations are the SVD's within 1e-14
    def sweep(score):
        return acceptance._scored_sweep(500, acceptance._sweep_system, acceptance._event_tables, score)

    blocks = 0
    for ((sys, xs, ys), ratio), (_, rho) in zip(sweep(acceptance._event_maxima), sweep(discrete._batch_maxcorr)):
        pairs = [sys.pair([x], [y]) for x, y in itertools.product(xs, ys)]
        block = sys.pair(xs, ys)
        if max(len(block.labels_x), len(block.labels_y)) <= 10:
            pairs.append(block)
        assert len(ratio) == len(pairs)
        want = np.array([discrete.event_extremes(p).max_ratio for p in pairs])
        single = len(xs) * len(ys)
        assert ratio[:single].tolist() == want[:single].tolist()
        assert np.all(np.abs(ratio[single:] - want[single:]) <= 1e-14 * want[single:])
        assert np.abs(rho - [discrete.maxcorr_pair(p).rho for p in pairs]).max() <= 1e-14
        blocks += len(pairs) - single
    assert blocks > 200


def test_check_13_reports_a_broken_identity(monkeypatch):
    # the middle apparent-sine column off by 1e-9 of its geometric sine moves
    # every sine ratio spread to 1e-9: the check must fail and say so, not raise
    line_sines = gaussian._line_sines

    def broken(U):
        sin_g, sin_a = line_sines(U)
        return sin_g, sin_a + [0.0, 1e-9, 0.0] * sin_g

    monkeypatch.setattr(gaussian, "_line_sines", broken)
    result = acceptance.check_13_three_lines()
    assert not result.passed
    assert "worst sine-ratio spread 1.00e-09" in result.detail


def test_registry_lists_the_13_checks_in_criterion_order():
    assert [fn.__name__ for fn in acceptance.ALL_CHECKS] == [
        "check_01_worked_example", "check_02_closed_forms", "check_03_tensor_sweep",
        "check_04_independent_tensorization", "check_05_gaussian_optimality", "check_06_chogosov",
        "check_07_event_criteria", "check_08_glauber", "check_09_quadratic", "check_10_conv_exact",
        "check_11_clt", "check_12_hypocoercive", "check_13_three_lines",
    ]


@pytest.mark.parametrize("seconds, passes, suffix", [
    (2.0, False, "; 2.00s, over the 1s budget"),
    (0.5, True, "; 0.50s"),
])
def test_check_01_fails_past_its_budget(monkeypatch, seconds, passes, suffix):
    clock = iter([0.0, seconds])
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    result = acceptance.check_01_worked_example()
    assert result.passed == passes and result.elapsed == seconds
    assert result.detail.startswith("max err ") and result.detail.endswith(suffix), result.detail
