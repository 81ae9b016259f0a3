import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from rhomix import discrete, events
from rhomix.discrete import FinitePair
from rhomix.errors import CapExceededError, ValidationError
from rhomix.events import ChogosovModel, NuModel


def chogosov_interior_density(model, p, q):
    """Density of the Chogosov law in the interior of zone 2: 1 + eps p~ q~ / sqrt(p p̄ q q̄)."""
    return 1.0 + model.eps * (p - 0.5) * (q - 0.5) / np.sqrt(p * (1 - p) * q * (1 - q))


def curve_atom_fraction(model):
    """P(sample lies on the lower curve) = int_0^1 q_D(p)/(2p) dp = eps^2 |ln eps| / (1 - eps^2)."""
    e2 = model.eps**2
    return e2 * abs(math.log(model.eps)) / (1.0 - e2)


def mu_star_rect_mass(eps, p1, p2, q1, q2):
    """Mass of the corner measure on the rectangle (p1, p2] x (q1, q2]."""
    f = events.mu_star_cdf
    return float(f(eps, p2, q2) - f(eps, p1, q2) - f(eps, p2, q1) + f(eps, p1, q1))


class TestLambda:
    def test_endpoints(self):
        assert events.lambda_fn(0.0) == 0.0
        assert events.lambda_fn(1.0) == 1.0

    def test_inverse_e(self):
        assert events.lambda_fn(1 / math.e) == pytest.approx(2 / math.e, abs=1e-15)

    def test_strictly_above_identity(self):
        assert events.lambda_fn(0.3) > 0.3

    def test_non_finite_is_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            events.lambda_fn(float("nan"))

    @given(st.floats(0.001, 1.0), st.floats(0.0, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, eps, bump):
        hi = min(1.0, eps + bump)
        assert events.lambda_fn(hi) >= events.lambda_fn(eps) - 1e-12


def bisection_quantile(model, p, w):
    """Reference Q(p, w): the curve atoms, else bisection between the curves."""
    qd, qu = float(model.q_lower(p)), float(model.q_upper(p))
    if w <= qd / (2 * p):
        return qd, -1.0
    if w >= 1 - (1 - qu) / (2 * (1 - p)):
        return qu, 1.0
    c = model.eps * (p - 0.5) / math.sqrt(p * (1 - p))
    lo, hi = qd, qu
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid, 0.0
        if mid - c * math.sqrt(mid * (1 - mid)) < w:
            lo = mid
        else:
            hi = mid


class TestChogosovLaw:
    def test_cdf_edges_and_symmetry(self):
        m = ChogosovModel(0.5)
        assert float(events.chogosov_cdf(m, 0.37, 1.0)) == pytest.approx(0.37, abs=1e-15)
        assert float(events.chogosov_cdf(m, 1.0, 0.8)) == pytest.approx(0.8, abs=1e-15)
        assert float(events.chogosov_cdf(m, 0.3, 0.6)) == pytest.approx(
            float(events.chogosov_cdf(m, 0.6, 0.3)), abs=1e-15
        )

    def test_zones_and_borders(self):
        m = ChogosovModel(0.5)
        assert events.chogosov_zone(m, 0.1, 0.9) == "1"
        assert events.chogosov_zone(m, 0.5, 0.5) == "2"
        assert events.chogosov_zone(m, 0.9, 0.1) == "3"
        p = 0.4
        qd = float(m.q_lower(p))
        qu = float(m.q_upper(p))
        assert qd < qu
        assert events.chogosov_zone(m, p, qd) == "D"
        assert events.chogosov_zone(m, p, qu) == "U"

    def test_interior_density_center(self):
        m = ChogosovModel(0.5)
        assert float(chogosov_interior_density(m, 0.5, 0.5)) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=80, deadline=None)
    def test_cdf_monotone(self, p, q, bump):
        m = ChogosovModel(0.5)
        hi = min(0.999, p + bump)
        assert float(events.chogosov_cdf(m, hi, q)) >= float(events.chogosov_cdf(m, p, q)) - 1e-12
        assert float(events.chogosov_cdf(m, q, hi)) >= float(events.chogosov_cdf(m, q, p)) - 1e-12

    def test_quantile_branches(self):
        m = ChogosovModel(0.5)
        p = 0.4
        qd = float(m.q_lower(p))
        qu = float(m.q_upper(p))
        w_lo = qd / (2 * p)
        w_hi = 1 - (1 - qu) / (2 * (1 - p))
        assert events.chogosov_quantile(m, p, 0.5 * w_lo) == pytest.approx(qd, abs=1e-14)
        assert events.chogosov_quantile(m, p, 1 - 0.5 * (1 - w_hi)) == pytest.approx(qu, abs=1e-14)
        assert events.chogosov_quantile(m, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.05, 0.5, 0.99])
    def test_closed_form_quantile_matches_bisection(self, eps):
        m = ChogosovModel(eps)
        ps = [1e-9, 1e-4, 0.1, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.9, 1 - 1e-4, 1 - 1e-9]
        ws = [0.0, 1e-9, 1e-3, 0.01, 0.2, 0.4999, 0.5, 0.8, 0.99, 1 - 1e-3, 1 - 1e-9, 1.0]
        P, W = np.meshgrid(ps, ws, indexing="ij")
        q, branch = events._quantile(m, P, W)
        seen = set()
        for i, p in enumerate(ps):
            for j, w in enumerate(ws):
                ref_q, ref_branch = bisection_quantile(m, p, w)
                assert branch[i, j] == ref_branch
                assert q[i, j] == pytest.approx(ref_q, rel=1e-14, abs=0)  # relative: q can be ~1e-9
                assert events.chogosov_quantile(m, p, w) == q[i, j]
                seen.add(ref_branch)
        assert seen == {-1.0, 0.0, 1.0}

    def test_sampler_uses_the_quantile(self):
        m = ChogosovModel(0.7)
        cloud = events.chogosov_sample(m, 500, seed=11)
        rng = np.random.default_rng(11)
        ps = rng.uniform(size=500)
        ws = rng.uniform(size=500)
        assert np.array_equal(cloud[:, 0], ps)
        for (p, q, br), w in zip(cloud, ws):
            ref_q, ref_branch = bisection_quantile(m, p, w)
            assert br == ref_branch and q == pytest.approx(ref_q, rel=1e-14, abs=0)

    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.5, 0.9, 0.99])
    def test_curve_atom_fraction_matches_quadrature(self, eps):
        m = ChogosovModel(eps)
        ref, _ = integrate.quad(lambda p: float(m.q_lower(p)) / (2 * p), 0.0, 1.0, limit=200)
        assert curve_atom_fraction(m) == pytest.approx(ref, abs=1e-13)

    def test_quantile_inverts_cdf_slope(self):
        # on the interior branch the quantile solves dZ/dp = omega
        m = ChogosovModel(0.5)
        for p, w in ((0.3, 0.5), (0.6, 0.4), (0.5, 0.7)):
            q = events.chogosov_quantile(m, p, w)
            h = 1e-6
            slope = (
                float(events.chogosov_cdf(m, p + h, q)) - float(events.chogosov_cdf(m, p - h, q))
            ) / (2 * h)
            assert slope == pytest.approx(w, abs=1e-6)

    def test_quantile_monotone_in_p(self):
        m = ChogosovModel(0.5)
        for w in (0.2, 0.5, 0.8):
            qs = [events.chogosov_quantile(m, p, w) for p in np.linspace(0.02, 0.98, 40)]
            assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))

    def test_sampler_statistics(self):
        m = ChogosovModel(0.5)
        n = 20_000
        cloud = events.chogosov_sample(m, n, seed=3)
        crit = 1.63 / math.sqrt(n)
        for col in (0, 1):
            s = np.sort(cloud[:, col])
            grid = np.arange(1, n + 1) / n
            ks = max(np.abs(s - grid).max(), np.abs(s - grid + 1.0 / n).max())
            assert ks < crit
        # joint empirical CDF against the law's CDF
        ps = np.linspace(0.1, 0.9, 9)
        worst = 0.0
        for p in ps:
            for q in ps:
                emp = np.mean((cloud[:, 0] <= p) & (cloud[:, 1] <= q))
                worst = max(worst, abs(emp - float(events.chogosov_cdf(m, p, q))))
        assert worst < 2 * crit
        # curve-atom fraction against its closed form
        frac = np.mean(cloud[:, 2] == -1.0)
        assert frac == pytest.approx(curve_atom_fraction(m), abs=4 / math.sqrt(n))

    def test_sampler_deterministic(self):
        m = ChogosovModel(0.3)
        a = events.chogosov_sample(m, 100, seed=9)
        b = events.chogosov_sample(m, 100, seed=9)
        assert np.array_equal(a, b)


def transfer_matrix(model, m):
    """Dense reference of the cell transfer operator: T[i,j] = m * mass(C_i x C_j)
    from CDF differences on the (m+1)^2 grid, assembled in row blocks."""
    g = np.linspace(0.0, 1.0, m + 1)
    T = np.empty((m, m))
    for i in range(0, m, 256):
        T[i:i + 256] = np.diff(np.diff(events.chogosov_cdf(model, g[i:i + 257, None], g), axis=0), axis=1)
    T *= m
    return T


class TestTransferOperator:
    def test_rows_are_stochastic(self):
        T = transfer_matrix(ChogosovModel(0.5), 256)
        assert np.abs(T.sum(axis=1) - 1.0).max() < 1e-10
        for eps in (0.2, 0.5, 0.8):
            w, _ = events.transfer_matvec(ChogosovModel(eps), 1024)(np.ones(1024))
            assert np.abs(w - 1.0).max() < 1e-12

    @pytest.mark.parametrize("m", [256, 1024, 4096])
    def test_matvec_matches_dense_within_its_rounding_bound(self, m):
        rng = np.random.default_rng(m)
        quasi = events.truncated_quasi_eigenvector(m, 4.0 / m)
        for eps in (0.2, 0.5, 0.8):
            model = ChogosovModel(eps)
            T, apply = transfer_matrix(model, m), events.transfer_matvec(model, m)
            for x in (rng.standard_normal(m), quasi):
                x = x / np.linalg.norm(x)
                w, beta = apply(x)
                err = T @ x - w
                assert np.abs(err).max() <= min(1e-9, beta)
                # the part of the bound chogosov_opnorm subtracts from a Rayleigh quotient
                assert abs(x @ err) <= np.abs(x).sum() * beta

    def test_opnorm_at_4096(self):
        rep = events.chogosov_opnorm(ChogosovModel(0.5), 4096)
        assert rep.rho_hat == pytest.approx(0.834017, abs=5e-7)
        assert 0 < rep.iterations < rep.m

    def test_opnorm_below_lambda(self):
        for eps in (0.25, 0.5):
            rep = events.chogosov_opnorm(ChogosovModel(eps), 512)
            assert rep.rho_hat <= events.lambda_fn(eps) * (1 + 1e-6)
            assert rep.rayleigh_quotient <= rep.rho_hat + 1e-12

    @given(st.floats(0.01, 0.99, exclude_min=True, exclude_max=True), st.integers(256, 8192))
    @settings(max_examples=20, deadline=None)
    def test_opnorm_bracketed_and_monotone_under_refinement(self, eps, m):
        model = ChogosovModel(eps)
        rep = events.chogosov_opnorm(model, m)
        assert 0 <= rep.rho_hat <= events.lambda_fn(eps)
        assert rep.rayleigh_quotient <= rep.rho_hat
        assert events.chogosov_opnorm(model, 2 * m).rayleigh_quotient >= rep.rayleigh_quotient

    def test_small_eps_norm_vanishes(self):
        rep = events.chogosov_opnorm(ChogosovModel(0.02), 256)
        assert rep.rho_hat < 0.12

    def test_rayleigh_quotient_increases_under_refinement(self):
        m1 = events.chogosov_opnorm(ChogosovModel(0.5), 256)
        m2 = events.chogosov_opnorm(ChogosovModel(0.5), 512)
        m3 = events.chogosov_opnorm(ChogosovModel(0.5), 1024)
        assert m1.rayleigh_quotient < m2.rayleigh_quotient < m3.rayleigh_quotient

    def test_grid_floor(self):
        with pytest.raises(ValidationError):
            events.chogosov_opnorm(ChogosovModel(0.5), 128)

    def test_size_caps(self):
        with pytest.raises(CapExceededError, match=f"cap {events.OPNORM_MAX_GRID}"):
            events.chogosov_opnorm(ChogosovModel(0.5), events.OPNORM_MAX_GRID + 1)
        with pytest.raises(CapExceededError, match=f"cap {events.SAMPLE_CAP}"):
            events.chogosov_sample(ChogosovModel(0.5), events.SAMPLE_CAP + 1)


class TestIdentities:
    def test_lstar_residual(self):
        for eps in (0.2, 0.5, 0.8):
            m = ChogosovModel(eps)
            assert events.lstar_identity(m, [0.04, 0.3, 1.0, 7.5]) < 1e-12

    def test_lstar_value_at_half(self):
        assert events.lambda_fn(0.5) == pytest.approx(0.5 * (1 + math.log(2)), abs=1e-15)

    def test_lambda_integral_constant_in_p(self):
        for eps in (0.2, 0.5, 0.8):
            m = ChogosovModel(eps)
            lam = events.lambda_fn(eps)
            for p in (0.1, 0.5, 0.9):
                rep = events.lambda_integral_identity(m, p)
                assert rep.value == pytest.approx(lam, abs=1e-8)
                assert rep.atom_lower == pytest.approx(eps / 2, abs=1e-12)
                assert rep.atom_upper == pytest.approx(eps / 2, abs=1e-12)
                assert rep.interior == pytest.approx(eps * abs(math.log(eps)), abs=1e-8)

    def test_variance_identity(self):
        # Var f = int int [p(1-q) ^ q(1-p)] a'(p) a'(q) dp dq for a the inverse CDF
        for aprime, var in (
            (lambda p: 2 * p, 4.0 / 45.0),        # f = U^2
            (lambda p: np.exp(p), None),          # f = e^U
        ):
            if var is None:
                e = math.e
                var = (e * e - 1) / 2 - (e - 1) ** 2  # Var e^U
            got, _ = integrate.dblquad(
                lambda q, p: min(p * (1 - q), q * (1 - p)) * aprime(p) * aprime(q),
                0.0, 1.0, 0.0, 1.0, epsabs=1e-10,
            )
            assert got == pytest.approx(var, abs=1e-6)


class TestStrongConditionSoundness:
    def test_scan_chain_on_random_pairs(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n, m = rng.integers(2, 7, size=2)
            joint = rng.dirichlet(np.ones(n * m)).reshape(n, m)
            pair = FinitePair.from_joint(joint)
            ratio = discrete.event_extremes(pair).max_ratio
            rho = discrete.maxcorr_pair(pair).rho
            assert rho <= events.lambda_fn(min(ratio, 1.0)) + 1e-9


class TestNuMeasure:
    def test_factor_formula(self):
        model = NuModel(0.5, 0.02)
        assert model.factor == pytest.approx(
            0.5 / 0.98 + (0.5 * 0.02 - 0.02**2) / (0.5 * 0.98**2), abs=1e-15
        )

    def test_factor_tends_to_eps(self):
        assert NuModel(0.5, 1e-6).factor == pytest.approx(0.5, abs=1e-4)

    def test_marginals_uniform(self):
        model = NuModel(0.5, 0.02, 256)
        cells = events.nu_cell_masses(model)
        assert np.abs(cells.sum(axis=0) - 1.0 / 256).max() < 1e-12
        assert np.abs(cells.sum(axis=1) - 1.0 / 256).max() < 1e-12

    def test_event_ratio_bounded_by_factor(self):
        model = NuModel(0.5, 0.02, 256)
        rep = events.nu_event_ratio(model, seed=1)
        assert rep.worst_ratio <= rep.factor + 2.0 / 256
        assert rep.witness_correlation >= 0.0

    @pytest.mark.parametrize("m", [64, 256, 512])
    def test_shared_scan_matches_the_family_code(self, m):
        # The prefix-table reference drifts from a correctly rounded sum by
        # up to 1.9e-12 relative on the unions (m = 512, seed 0), so the
        # unions get 5e-12; the scan itself is checked at its maximizer to 1e-12.
        rel = {"anchored": 1e-12, "stride8": 1e-12, "unions": 5e-12}
        cells = events.nu_cell_masses(NuModel(0.5, 0.02, m))
        ref = prefix_table_family_worst(cells, m)
        for seed in range(3):
            families = events._nu_event_families(cells, seed)
            ref["unions"] = prefix_table_union_worst(cells, m, seed)
            assert set(families) == set(ref)
            for name, (table, A, B) in families.items():
                got, i, j = discrete._event_ratio_scan(table, A, B)
                assert got == pytest.approx(fsum_ratio(table, A[i], B[j]), rel=1e-12, abs=0)
                assert got == pytest.approx(ref[name], rel=rel[name], abs=0), (name, seed)
            worst = events.nu_event_ratio(NuModel(0.5, 0.02, m), seed=seed).worst_ratio
            assert worst == pytest.approx(max(ref.values()), rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [64, 512, 768])
    def test_pruned_families_give_the_whole_scans_maximum(self, m):
        # nu_event_ratio bounds each family and scans only what can beat the running
        # maximum; the reference scans the three families whole.  The anchored and stride-8
        # families do not depend on the seed, so their whole scans are taken once a model
        for eps, x in ((0.2, 0.02), (0.2, 0.2), (0.5, 0.02), (0.5, 0.1), (0.8, 0.02), (0.8, 0.1)):
            model = NuModel(eps, x, m)
            cells = events.nu_cell_masses(model)
            fixed = None
            for seed in range(3):
                families = events._nu_event_families(cells, seed)
                if fixed is None:
                    fixed = max(discrete._event_ratio_scan(*families[name])[0] for name in ("anchored", "stride8"))
                want = max(fixed, discrete._event_ratio_scan(*families["unions"])[0])
                got = events.nu_event_ratio(model, seed=seed).worst_ratio
                assert got == pytest.approx(want, rel=1e-13, abs=0), (eps, x, seed)

    def test_families_below_the_anchored_maximum_are_not_scanned(self, monkeypatch):
        # at (0.5, 0.02, 512) no stride-8 event and no union has a bound u that reaches the
        # anchored maximum, so neither family reaches _event_ratio_scan with a single pair,
        # and the anchored family scans a small part of its 511 x 511 pairs
        event_max, ratio_scan = discrete._event_max, discrete._event_ratio_scan
        scanned = []

        def tagged(*args):
            scanned.append(0)
            return event_max(*args)

        def counted(joint, A, B):
            scanned[-1] += len(A) * len(B)
            return ratio_scan(joint, A, B)

        monkeypatch.setattr(discrete, "_event_max", tagged)
        monkeypatch.setattr(discrete, "_event_ratio_scan", counted)
        events.nu_event_ratio(NuModel(0.5, 0.02, 512))
        anchored, stride8, unions = scanned
        assert stride8 == unions == 0 and 0 < anchored < 511**2 // 20, scanned

    @pytest.mark.parametrize("m", [64, 100, 256, 512, 768])
    def test_block_table_scan_matches_the_fine_cell_scan(self, m):
        # the stride-8 family on the 8 x 8 block sums holds the same events as the
        # stride-8 intervals of the fine cells, and its scan gives the same worst ratio.
        # The block scan is checked to 1e-12 against correctly rounded sums at its own
        # maximizer and at the fine scan's; the fine scan's m-term sums drift by up to
        # 1.1e-12 relative (m = 768, where the block scan is off by 1.1e-14), so the two
        # scans agree to 2e-12.
        cells = events.nu_cell_masses(NuModel(0.5, 0.02, m))
        blocks, A, B = events._nu_event_families(cells, 0)["stride8"]
        idx, marks = np.arange(m), np.arange(0, m + 1, 8)
        lo, hi = np.meshgrid(marks, marks, indexing="ij")
        keep = lo < hi
        fine = ((idx >= lo[keep][:, None]) & (idx < hi[keep][:, None])).astype(float)
        assert blocks.shape == (-(-m // 8),) * 2 and blocks.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(np.repeat(A, 8, axis=1)[:, :m], fine) and np.array_equal(A, B)
        got, i, j = discrete._event_ratio_scan(blocks, A, B)
        want, fi, fj = discrete._event_ratio_scan(cells, fine, fine)
        assert got == pytest.approx(fsum_ratio(blocks, A[i], B[j]), rel=1e-12, abs=0)
        assert got == pytest.approx(fsum_ratio(cells, fine[fi], fine[fj]), rel=1e-12, abs=0)
        assert got == pytest.approx(want, rel=2e-12, abs=0)

    @pytest.mark.parametrize("m", [64, 100, 512, 768])
    def test_union_masks_match_the_interval_loop(self, m):
        # the endpoint scatter marks the same cells as one slice assignment per interval,
        # on the same RNG stream
        cells = events.nu_cell_masses(NuModel(0.5, 0.02, m))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            unions = np.zeros((events.NU_UNION_SAMPLES, m))
            for row in unions:
                k = int(rng.integers(1, 5))
                for a, b in np.sort(rng.integers(0, m + 1, size=2 * k)).reshape(k, 2):
                    row[a:b] = 1.0
            size = unions.sum(axis=1)
            unions = unions[(size > 0) & (size < m)]
            half = len(unions) // 2
            table, A, B = events._nu_event_families(cells, seed)["unions"]
            assert table is cells
            assert np.array_equal(A, unions[:half]) and np.array_equal(B, unions[half:])

    def test_every_accepted_model_is_a_measure_within_its_factor(self):
        # on a grid of eps and x, NuModel refuses x > eps and names the range; every model
        # it accepts has nonnegative cells and a worst scanned ratio within factor + 2/m.
        # Beyond the range both fail, as the unchecked models show: (0.8, 0.88) has a
        # negative cell, and (0.5, 0.65) a negative factor below its worst ratio
        m, accepted = 64, 0
        for eps, x in itertools.product(np.linspace(0.02, 0.98, 9).tolist(), np.linspace(0.01, 0.95, 9).tolist()):
            if x > eps:
                with pytest.raises(ValidationError, match=r"x must lie in \(0, eps\]"):
                    NuModel(eps, x, m)
                continue
            try:
                model = NuModel(eps, x, m)
            except ValidationError as exc:
                assert "factor >= 1" in str(exc)
                continue
            accepted += 1
            assert events.nu_cell_masses(model).min() >= 0.0, (eps, x)
            rep = events.nu_event_ratio(model)
            assert rep.worst_ratio <= rep.factor + 2.0 / m, (eps, x, rep)
        assert accepted >= 15

        def unchecked(eps, x):
            return SimpleNamespace(eps=eps, x=x, m=m, factor=NuModel.factor.fget(SimpleNamespace(eps=eps, x=x)))

        assert events.nu_cell_masses(unchecked(0.8, 0.88)).min() < 0.0
        rep = events.nu_event_ratio(unchecked(0.5, 0.65))
        assert rep.worst_ratio > rep.factor + 2.0 / m, rep

    def test_factor_too_large_is_an_error(self):
        with pytest.raises(ValidationError):
            events.nu_event_ratio(NuModel(0.9, 0.5, 64))

    def test_grid_cap(self):
        assert NuModel(0.5, 0.02, events.NU_GRID_CAP).m == events.NU_GRID_CAP
        with pytest.raises(CapExceededError, match="grid resolution above cap"):
            NuModel(0.5, 0.02, events.NU_GRID_CAP + 1)

    def test_mu_star_rectangle_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            eps = rng.uniform(0.1, 0.9)
            p1, p2 = np.sort(rng.uniform(0, 5, size=2))
            q1, q2 = np.sort(rng.uniform(0, 5, size=2))
            mass = mu_star_rect_mass(eps, p1, p2, q1, q2)
            assert mass <= eps * math.sqrt((p2 - p1) * (q2 - q1)) + 1e-12

    def test_mu_star_union_bound(self):
        rng = np.random.default_rng(7)
        eps = 0.5
        for _ in range(50):
            a = np.sort(rng.uniform(0, 3, size=4))
            b = np.sort(rng.uniform(0, 3, size=4))
            mass = (
                mu_star_rect_mass(eps, a[0], a[1], b[0], b[1])
                + mu_star_rect_mass(eps, a[0], a[1], b[2], b[3])
                + mu_star_rect_mass(eps, a[2], a[3], b[0], b[1])
                + mu_star_rect_mass(eps, a[2], a[3], b[2], b[3])
            )
            la = (a[1] - a[0]) + (a[3] - a[2])
            lb = (b[1] - b[0]) + (b[3] - b[2])
            assert mass <= eps * math.sqrt(la * lb) + 1e-12


# The nu event families as separate prefix-table computations: the reference
# for the shared event-ratio scan.


def fsum_ratio(cells, a, b):
    """The event ratio of one indicator pair from correctly rounded sums."""
    ia, ib = np.flatnonzero(a), np.flatnonzero(b)
    mass = math.fsum(cells[np.ix_(ia, ib)].ravel())
    pa, qb = math.fsum(cells[ia].ravel()), math.fsum(cells[:, ib].ravel())
    return abs(mass - pa * qb) / math.sqrt(pa * (1 - pa) * qb * (1 - qb))


def _prefix_table(cells, m):
    pref = np.zeros((m + 1, m + 1))
    pref[1:, 1:] = np.cumsum(np.cumsum(cells, axis=0), axis=1)
    return pref


def _ratio_of(mass, pa, qb):
    num = np.abs(mass - pa * qb)
    den = np.sqrt(pa * (1 - pa) * qb * (1 - qb))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / den, -np.inf)


def prefix_table_family_worst(cells, m):
    """Worst ratio of the anchored and the stride-8 interval families."""
    pref = _prefix_table(cells, m)
    frac = np.arange(1, m) / m
    anchored = float(_ratio_of(pref[1:m, 1:m], frac[:, None], frac[None, :]).max())
    marks = np.arange(0, m + 1, 8)
    starts, ends = np.meshgrid(marks, marks, indexing="ij")
    keep = starts < ends
    ivs = np.stack([starts[keep], ends[keep]], axis=1)
    lens = (ivs[:, 1] - ivs[:, 0]) / m
    inner = pref[ivs[:, 1]][:, ivs[:, 1]] - pref[ivs[:, 0]][:, ivs[:, 1]] \
        - pref[ivs[:, 1]][:, ivs[:, 0]] + pref[ivs[:, 0]][:, ivs[:, 0]]
    good = (lens > 0) & (lens < 1)
    stride8 = float(_ratio_of(inner[np.ix_(good, good)], lens[good][:, None], lens[good][None, :]).max())
    return {"anchored": anchored, "stride8": stride8}


def prefix_table_union_worst(cells, m, seed):
    """Worst ratio of the random-union family, first kept half against the second."""
    pref = _prefix_table(cells, m)
    rng = np.random.default_rng(seed)

    def random_union():
        k = int(rng.integers(1, 5))
        pts = np.sort(rng.integers(0, m + 1, size=2 * k))
        return [(int(pts[2 * t]), int(pts[2 * t + 1])) for t in range(k) if pts[2 * t] < pts[2 * t + 1]]

    unions = [u for u in (random_union() for _ in range(events.NU_UNION_SAMPLES)) if u]
    kept, profiles, lens_u = [], [], []
    for u in unions:
        prof = np.zeros(m + 1)
        total = 0.0
        for a, b in u:
            prof += pref[b] - pref[a]
            total += (b - a) / m
        if 0 < total < 1:
            kept.append(u)
            profiles.append(prof)
            lens_u.append(total)
    worst = -np.inf
    prof_arr, len_arr = np.array(profiles), np.array(lens_u)
    half = len(kept) // 2
    for u, blen in zip(kept[half:], len_arr[half:]):
        mass = np.zeros(half)
        for a, b in u:
            mass += prof_arr[:half, b] - prof_arr[:half, a]
        worst = max(worst, float(np.max(_ratio_of(mass, len_arr[:half], blen))))
    return worst
