import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rhomix import gaussian, tensor_bounds
from rhomix.errors import IntegratorError, ValidationError
from rhomix.gaussian import GaussianSystem, OUChainParams, ThreeLinesReport


def random_psd(rng, n, labels=None):
    A = rng.standard_normal((n, n))
    cov = A @ A.T + 0.1 * np.eye(n)
    return GaussianSystem(tuple(labels or (f"v{k}" for k in range(n))), cov)


def van_loan_reference(params):
    """The damped chain in site space: Chat and phi from one 4K x 4K exponential (Van Loan,
    IEEE TAC 1978), maxcorr from one 4K-dimensional canonical-correlation problem, and the
    joint precision's range from one 4K x 4K eigenvalue problem.  Its exponential holds
    e^{-tA^T}, so it loses accuracy as lam t grows and overflows at large t."""
    import scipy.linalg as sla

    K, T, lam, m = params.K, params.T, params.lam, params.m
    A = gaussian._ou_drift(params)
    B = np.zeros((2 * K, 2 * K))
    B[:K, :K] = 2 * T * lam * m * np.eye(K)
    E = sla.expm(params.t * np.block([[A, B], [np.zeros_like(A), -A.T]]))
    phi = E[:2 * K, :2 * K]
    chat = E[:2 * K, 2 * K:] @ phi.T
    chat = 0.5 * (chat + chat.T)
    eye = np.eye(K)
    lap = 2 * eye - np.roll(eye, 1, axis=0) - np.roll(eye, -1, axis=0)
    qcheck = np.block([[eye / m, 0 * eye], [0 * eye, m * (params.omega**2 * eye + params.c**2 * lap)]])
    ceq = T * np.linalg.inv(qcheck)
    cross = ceq @ phi.T
    labels = tuple(range(4 * K))
    rho = gaussian.maxcorr_gaussian(GaussianSystem(labels, np.block([[ceq, cross], [cross.T, ceq]])),
                                    labels[:2 * K], labels[2 * K:])
    sd = np.sqrt(np.diag(ceq))
    qhat = T * np.linalg.inv(chat)
    qbar = np.block([[qcheck + phi.T @ qhat @ phi, -phi.T @ qhat], [-qhat @ phi, qhat]])
    scale = np.repeat([m * params.omega, 1.0, m * params.omega, 1.0], K)
    wq = np.linalg.eigvalsh(qbar * np.outer(scale, scale))
    return {"chat": chat, "phi": phi, "ceq": ceq, "maxcorr": rho, "corr": np.abs(cross) / np.outer(sd, sd),
            "qbar_range": (wq.min(), wq.max())}


def chained(sys, xs, y):
    """(value, es): the sequential conditional correlations e_i = corr(X_i; Y | X_{<i}) and
    value = sqrt(1 - prod(1 - e_i^2)), which for a Gaussian system equals the direct
    block correlation; that is asserted to 1e-10."""
    current, es = sys, []
    for k, x in enumerate(xs):
        es.append(gaussian.maxcorr_gaussian(current, [x], [y]))
        if k < len(xs) - 1:
            current = gaussian.condition(current, [x])
    value = float(np.sqrt(max(0.0, 1.0 - np.prod([1.0 - e**2 for e in es]))))
    assert value == pytest.approx(gaussian.maxcorr_gaussian(sys, list(xs), [y]), abs=1e-10)
    return value, es


class TestMaxcorr:
    def test_worked_example(self):
        rep = gaussian.par411_report()
        assert rep["x1_y"] == pytest.approx(0.5, abs=1e-10)
        assert rep["x2_y"] == pytest.approx(0.5, abs=1e-10)
        assert rep["x1_y_given_x2"] == pytest.approx(1 / 3, abs=1e-10)
        assert rep["vec_y"] == pytest.approx(1 / math.sqrt(3), abs=1e-10)
        assert rep["l2_sum_bound"] == pytest.approx(1 / math.sqrt(2), abs=1e-10)
        assert np.abs(rep["vtable"] - [[40.5, 13.5], [24, 12]]).max() < 1e-10

    def test_vtable_edge_examples(self):
        t1 = gaussian.vtable(np.array([[1.0, 0, 0], [-1, 1, 0], [1, 1, 1]]))
        assert np.abs(t1 - [[0.0, 1.0], [1 / 6, 0.5]]).max() < 1e-10
        t2 = gaussian.vtable(np.array([[1.0, 0, 1], [0, 1, -1], [0, 0, 1]]))
        assert np.abs(t2 - [[0.5, 1.5], [1.0, 1.0]]).max() < 1e-10

    def test_block_diagonal_is_zero(self):
        cov = np.diag([1.0, 2.0, 3.0])
        sys = GaussianSystem(("a", "b", "c"), cov)
        assert gaussian.maxcorr_gaussian(sys, ["a"], ["b", "c"]) == 0.0

    def test_scalar_correlation(self):
        for r in (-0.7, 0.0, 0.3, 0.99):
            sys = GaussianSystem(("x", "y"), np.array([[1.0, r], [r, 1.0]]))
            assert gaussian.maxcorr_gaussian(sys, ["x"], ["y"]) == pytest.approx(abs(r), abs=1e-12)

    def test_deterministic_identity_gives_one(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        sys = GaussianSystem(("x", "y"), cov)
        assert gaussian.maxcorr_gaussian(sys, ["x"], ["y"]) == pytest.approx(1.0, abs=1e-10)

    def test_reparameterization_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            sys = random_psd(rng, 5)
            labels = list(sys.labels)
            I, J = labels[:2], labels[2:]
            base = gaussian.maxcorr_gaussian(sys, I, J)
            A = rng.standard_normal((2, 2)) + 2 * np.eye(2)
            B = rng.standard_normal((3, 3)) + 2 * np.eye(3)
            T = np.zeros((5, 5))
            T[:2, :2] = A
            T[2:, 2:] = B
            sys2 = GaussianSystem(sys.labels, T @ sys.cov @ T.T)
            assert gaussian.maxcorr_gaussian(sys2, I, J) == pytest.approx(base, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            GaussianSystem(("a", "b"), np.array([[1.0, 0.5], [0.3, 1.0]]))
        with pytest.raises(ValidationError):
            GaussianSystem(("a", "b"), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValidationError, match="finite"):
            GaussianSystem(("a", "b"), np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestConditioning:
    def test_conditioning_on_independent_block_is_identity(self):
        cov = np.diag([1.0, 2.0, 3.0])
        cov[0, 1] = cov[1, 0] = 0.5
        sys = GaussianSystem(("a", "b", "c"), cov)
        out = gaussian.condition(sys, ["c"])
        assert np.abs(out.cov - cov[:2, :2]).max() < 1e-12

    def test_against_monte_carlo_regression(self):
        rng = np.random.default_rng(8)
        sys = random_psd(rng, 4)
        out = gaussian.condition(sys, [sys.labels[3]])
        n = 400_000
        X = rng.multivariate_normal(np.zeros(4), sys.cov, size=n)
        # regression residual covariance, and empirical conditional covariance near values
        beta = np.linalg.lstsq(X[:, 3:4], X[:, :3], rcond=None)[0]
        resid = X[:, :3] - X[:, 3:4] @ beta
        emp = np.cov(resid.T)
        assert np.abs(emp - out.cov).max() < 0.05 * max(1.0, np.abs(out.cov).max())
        for v in (-1.0, 0.0, 1.0):
            sel = np.abs(X[:, 3] - v) < 0.05
            sub = X[sel][:, :3]
            emp_v = np.cov(sub.T)
            assert np.abs(emp_v - out.cov).max() < 0.12 * max(1.0, np.abs(out.cov).max())

    def test_chained_orderings_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            sys = random_psd(rng, 4)
            labels = list(sys.labels)
            v1, _ = chained(sys, labels[:3], labels[3])
            v2, _ = chained(sys, labels[:3][::-1], labels[3])
            assert v1 == pytest.approx(v2, abs=1e-9)

    def test_chained_matches_worked_example(self):
        M = np.array([[4.0, 1, 1], [1, 4, 1], [1, 1, 4]])
        sys = GaussianSystem(("X1", "X2", "Y"), M @ M.T)
        value, es = chained(sys, ["X1", "X2"], "Y")
        assert es[0] == pytest.approx(0.5, abs=1e-10)
        assert es[1] == pytest.approx(1 / 3, abs=1e-10)
        assert value == pytest.approx(1 / math.sqrt(3), abs=1e-10)


class TestOptimalConstructions:
    def test_single_epsilon_recovers_alpha(self):
        for eps in (0.0, 0.3, 0.8):
            sys = gaussian.build_optimal_simple([eps])
            # Cov(X1, Y) = sqrt(alpha); e_1 = sqrt(alpha) = eps
            assert sys.cov[0, 1] == pytest.approx(eps, abs=1e-10)

    def test_zero_vector(self):
        sys = gaussian.build_optimal_simple([0.0, 0.0])
        assert gaussian.maxcorr_gaussian(sys, ["X1", "X2"], ["Y"]) == pytest.approx(0.0, abs=1e-12)

    def test_half_half_reaches_bound(self):
        sys = gaussian.build_optimal_simple([0.5, 0.5])
        got = gaussian.maxcorr_gaussian(sys, ["X1", "X2"], ["Y"])
        assert got == pytest.approx(math.sqrt(7) / 4, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_conditional_correlations_equal_targets(self, seed):
        rng = np.random.default_rng(seed)
        eps = rng.uniform(0.0, 0.95, size=int(rng.integers(1, 7)))
        eps[rng.uniform(size=eps.size) < 0.3] = 0.0
        sys = gaussian.build_optimal_simple(eps)
        xs = [l for l in sys.labels if l != "Y"]
        _, es = chained(sys, xs, "Y")
        assert np.abs(np.array(es) - eps).max() <= 1e-12

    def test_random_gaussians_never_beat_their_chain_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sys = random_psd(rng, 4)
            labels = list(sys.labels)
            value, es = chained(sys, labels[:3], labels[3])
            assert value <= tensor_bounds.simple_bound(es) + 1e-9

    def test_banded_window(self):
        alpha, k = 1.0, 32
        rep = gaussian.build_banded_zz(alpha, k)
        expect = (math.sqrt(1 + 4 * alpha) - 1) / (2 * math.sqrt(1 + 2 * alpha))
        assert rep.e_half == pytest.approx(expect, abs=1e-9)
        limit = 2 * alpha / (1 + 2 * alpha)
        assert limit - 2.0 / k <= rep.maxcorr <= limit + 1e-12
        # consistency with the arcsine law: two conditional entries e_{1/2}
        assert tensor_bounds.zz_bound([expect, expect]) == pytest.approx(limit, abs=1e-12)

    def test_banded_zero_coupling(self):
        rep = gaussian.build_banded_zz(0.0, 4)
        assert rep.e_half == 0.0
        assert rep.maxcorr == pytest.approx(0.0, abs=1e-12)


class TestOUChain:
    def test_smallt_richardson(self):
        params = OUChainParams(K=16, t=0.05)
        co = gaussian.ou_smallt_coefficients(params, 0.05)
        assert co["pp"] == pytest.approx(co["pp_expected"], rel=0.02)
        assert co["pq"] == pytest.approx(co["pq_expected"], rel=0.02)
        assert co["qq"] == pytest.approx(co["qq_expected"], rel=0.02)
        assert co["slope_pp_1"] == pytest.approx(3.0, abs=0.3)
        assert co["slope_pp_2"] == pytest.approx(5.0, abs=0.3)

    def test_joint_report(self):
        rep = gaussian.ou_chain_joint(OUChainParams(K=8, t=0.5))
        assert rep.stationarity_residual < 1e-10
        r, R = rep.qbar_range
        assert 0 < r <= R < math.inf
        assert 0.0 < rep.maxcorr < 1.0
        assert rep.corr_pp.shape == (8, 8)
        # momentum autocorrelation decays with the friction to leading order
        assert rep.corr_pp[0, 0] < 1.0

    def test_short_time_contraction_law(self):
        # 1 - {eta : eta'} = lam omega^2 t^3 / 12 (1 + O(t^2)); non-unit
        # parameters so that a wrong factor of m, omega or lam shows
        p = OUChainParams(m=2.0, omega=0.5, lam=3.0, c=1.5, T=0.7, K=8, t=0.01)
        rho = gaussian.ou_chain_joint(p).maxcorr
        assert 1.0 - rho == pytest.approx(p.lam * p.omega**2 * p.t**3 / 12, rel=1e-3)

    def test_nondimensional_scaling(self):
        # the correlation structure is invariant under temperature changes
        r1 = gaussian.ou_chain_joint(OUChainParams(K=6, t=0.7, T=1.0)).maxcorr
        r2 = gaussian.ou_chain_joint(OUChainParams(K=6, t=0.7, T=3.5)).maxcorr
        assert r1 == pytest.approx(r2, abs=1e-10)

    @pytest.mark.parametrize("K", [3, 4, 5, 8, 16, 64])
    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 3.0])
    def test_modes_match_van_loan(self, K, t):
        # chat_qq ~ (2/3) t^3 keeps about 16 - 6 digits at t = 0.01, where 1 - rho is 8.3e-8 and
        # agrees to 5.3e-9 relative at worst; every other tolerance leaves 4x room or more
        params = OUChainParams(K=K, t=t)
        ref = van_loan_reference(params)
        rep = gaussian.ou_chain_joint(params)
        chat, phi = gaussian.ou_noise_covariance(params)
        scale = np.abs(ref["ceq"]).max()
        assert np.abs(chat - ref["chat"]).max() <= 2e-13 * scale
        assert np.abs(phi - ref["phi"]).max() <= 1e-13
        assert np.abs(rep.ceq - ref["ceq"]).max() <= 1e-14 * scale
        corr = np.block([[rep.corr_pp, rep.corr_pq], [rep.corr_qp, rep.corr_qq]])
        assert np.abs(corr - ref["corr"]).max() <= 1e-13
        assert rep.maxcorr == pytest.approx(ref["maxcorr"], abs=1e-14)
        assert 1 - rep.maxcorr == pytest.approx(1 - ref["maxcorr"], rel=1e-8)
        assert rep.qbar_range == pytest.approx(ref["qbar_range"], rel=2e-8)
        assert rep.stationarity_residual <= 1e-14

    def test_stationarity_residual_sees_a_wrong_gibbs_law(self, monkeypatch):
        modes = gaussian._ou_modes

        def off(params):
            ceq, phi, chat = modes(params)
            ceq[:, 1, 1] *= 1 + 1e-6
            return ceq, phi, chat

        params = OUChainParams(K=8, t=1.0)
        assert gaussian.ou_chain_joint(params).stationarity_residual <= 1e-14
        monkeypatch.setattr(gaussian, "_ou_modes", off)
        assert gaussian.ou_chain_joint(params).stationarity_residual >= 1e-7

    @pytest.mark.parametrize("t", [1e6, 1e300])
    def test_fully_mixed_chain(self, t):
        # the flow underflows to 0: no correlation, and the Gibbs law is the joint precision
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = gaussian.ou_chain_joint(OUChainParams(K=4, t=t))
        assert rep.maxcorr <= 1e-12 and rep.corr_pp.max() <= 1e-12
        assert rep.qbar_range == pytest.approx((1.0, 5.0), rel=1e-12)  # chi^2 / m and m (omega^2 + 4 c^2)

    @pytest.mark.parametrize("t, message", [(1e-103, "noise covariance is singular"),
                                            (1e-6, "joint precision is not positive definite")])
    def test_horizon_below_rounding_is_an_error(self, t, message):
        # chat = ceq - phi ceq phi^T rounds to 0 at t = 1e-103; at t = 1e-6 chat_qq ~ 7e-19 is
        # below the rounding of ceq_qq, so the joint precision comes out indefinite
        with pytest.raises(IntegratorError, match=message):
            gaussian.ou_chain_joint(OUChainParams(K=8, t=t))

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            OUChainParams(K=2)
        assert OUChainParams(K=gaussian.OU_CHAIN_K_CAP).K == gaussian.OU_CHAIN_K_CAP
        with pytest.raises(ValidationError, match="K above cap"):
            OUChainParams(K=gaussian.OU_CHAIN_K_CAP + 1)
        with pytest.raises(ValidationError):
            OUChainParams(t=-1.0)
        for name in ("m", "omega", "c", "T", "lam", "t"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValidationError, match=f"{name} must be finite"):
                    OUChainParams(**{name: bad})


def scalar_three_lines(u1, u2, u3):
    """Reference: three_lines one pair at a time, as (report, sines_geometric, sines_apparent)."""
    us = [gaussian._unit(u1), gaussian._unit(u2), gaussian._unit(u3)]

    def sin_geometric(a, b):
        return float(np.linalg.norm(np.cross(us[a], us[b])))

    def sin_apparent(a, b, v):
        pa = us[a] - (us[a] @ us[v]) * us[v]
        pb = us[b] - (us[b] @ us[v]) * us[v]
        na, nb = np.linalg.norm(pa), np.linalg.norm(pb)
        if na < 1e-12 or nb < 1e-12:
            raise ValidationError("three_lines: lines must be pairwise non-collinear")
        return float(np.linalg.norm(np.cross(pa, pb)) / (na * nb))

    pairs = [(1, 2, 0), (2, 0, 1), (0, 1, 2)]  # (A from L1), (B from L2), (Om from L3)
    sins_g = []
    sins_a = []
    for a, b, v in pairs:
        sg = sin_geometric(a, b)
        if sg < 1e-12:
            raise ValidationError("three_lines: lines must be pairwise non-collinear")
        sins_g.append(sg)
        sins_a.append(sin_apparent(a, b, v))
    ratios = tuple(sa / sg for sa, sg in zip(sins_a, sins_g))
    if max(ratios) - min(ratios) > 1e-10:
        raise ValidationError("three_lines: sine-ratio identity violated beyond 1e-10")
    geo = tuple(math.asin(min(s, 1.0)) for s in sins_g)
    app = tuple(math.asin(min(s, 1.0)) for s in sins_a)
    r = ratios[0]
    order = "equal" if abs(r - 1.0) <= 1e-12 else ("apparent<geometric" if r < 1 else "apparent>geometric")
    return ThreeLinesReport(geo, app, ratios, order), sins_g, sins_a


class TestThreeLines:
    def test_orthonormal_axes(self):
        rep = gaussian.three_lines([1, 0, 0], [0, 1, 0], [0, 0, 1])
        assert all(abs(a - math.pi / 2) < 1e-12 for a in rep.geometric)
        assert all(abs(a - math.pi / 2) < 1e-12 for a in rep.apparent)
        assert rep.order == "equal"

    def test_recovered_figure_configuration(self):
        # configuration recovered to match a reference drawing:
        # geometric angles ~ (58, 71, 15) deg, apparent ~ (30, 34, 9) deg
        u1 = (0.0, 0.0, 1.0)
        u2 = (0.2612607544865312, 0.0, 0.9652682622800401)
        u3 = (0.8177495314020848, -0.47378704096565905, 0.32682035387147423)
        rep = gaussian.three_lines(u1, u2, u3)
        got = np.rad2deg(list(rep.geometric) + list(rep.apparent))
        target = np.array([58.0, 71.0, 15.0, 30.0, 34.0, 9.0])
        assert np.abs(got - target).max() < 1.0
        assert rep.order == "apparent<geometric"

    def test_ratio_identity_random(self):
        rng = np.random.default_rng(6)
        done = 0
        while done < 300:
            u = rng.standard_normal((3, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            sines = [np.linalg.norm(np.cross(u[a], u[b])) for a, b in ((0, 1), (1, 2), (2, 0))]
            if min(sines) < 1e-3:
                continue
            done += 1
            rep = gaussian.three_lines(*u)
            assert max(rep.sine_ratios) - min(rep.sine_ratios) < 1e-10

    def test_collinear_error(self):
        with pytest.raises(ValidationError):
            gaussian.three_lines([1, 0, 0], [1, 0, 0], [0, 0, 1])

    def test_kernel_and_wrapper_match_the_scalar_reference(self):
        raw = np.random.default_rng(31).standard_normal((10_000, 3, 3))
        sin_g, sin_a = gaussian._line_sines(np.array([[gaussian._unit(v) for v in u] for u in raw]))
        assert sin_g.shape == sin_a.shape == (10_000, 3)
        for k, u in enumerate(raw):
            ref, ref_g, ref_a = scalar_three_lines(*u)
            assert np.abs(sin_g[k] - ref_g).max() <= 1e-14
            assert np.abs(sin_a[k] - ref_a).max() <= 1e-14
            if k < 1000:
                rep = gaussian.three_lines(*u)
                assert np.abs(np.subtract(rep.sine_ratios, ref.sine_ratios)).max() <= 1e-14
                # asin magnifies a sine's rounding near pi/2, so the angles are compared by their sines
                for field in ("geometric", "apparent"):
                    assert np.abs(np.sin(getattr(rep, field)) - np.sin(getattr(ref, field))).max() <= 1e-14
                assert rep.order == ref.order

    @given(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
           st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           st.permutations([0, 1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_rotation_invariant_and_permutation_equivariant(self, entries, quaternion, perm):
        U = np.array(entries).reshape(1, 3, 3)
        q = np.array(quaternion)
        assume(np.linalg.norm(U, axis=-1).min() > 1e-3 and np.linalg.norm(q) > 1e-3)
        U = U / np.linalg.norm(U, axis=-1, keepdims=True)
        sin_g, sin_a = gaussian._line_sines(U)
        assume(sin_g.min() > 1e-3)
        w, x, y, z = q / np.linalg.norm(q)
        R = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                      [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                      [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
        rot_g, rot_a = gaussian._line_sines(U @ R.T)
        assert np.abs(rot_g - sin_g).max() <= 1e-12 and np.abs(rot_a - sin_a).max() <= 1e-12
        perm_g, perm_a = gaussian._line_sines(U[:, perm])
        assert np.abs(perm_g - sin_g[:, perm]).max() <= 1e-12
        assert np.abs(perm_a - sin_a[:, perm]).max() <= 1e-12
