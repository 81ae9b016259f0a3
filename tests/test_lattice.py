import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rhomix import convdecay, lattice
from rhomix.convdecay import ToeplitzKernel, decay_fit
from rhomix.errors import CapExceededError, ValidationError
from rhomix.lattice import IsingTorus, QuadraticModel


def ising_transfer_correlation(T, L, d):
    """E[w_0 w_d] on the 1-d cycle: (th^d + th^{L-d}) / (1 + th^L), th = tanh(1/T)."""
    th = math.tanh(1.0 / T)
    return (th**d + th ** (L - d)) / (1.0 + th**L)


def nn_model(gamma_value, beta=1.0):
    return QuadraticModel(1, ToeplitzKernel.from_dict(1, 1, {1: gamma_value, -1: gamma_value}), beta)


class TestQuadratic:
    def test_truncation_mass_bounds_the_remainder_at_any_series_tol(self, monkeypatch):
        model = nn_model(0.3)
        # reference: 401 Neumann terms of a_inv by direct convolution on a window they fill
        R, G = 400, model.Gamma
        power, ref = np.zeros(2 * R + 1), np.zeros(2 * R + 1)
        power[R] = 1.0
        for _ in range(R + 1):
            ref += power
            power = np.convolve(power, model.gamma.values / (1.0 + G), mode="same")
        ref /= 1.0 + G
        for tol in (1e-3, 1e-6, 1e-12):
            monkeypatch.setattr(convdecay, "SERIES_TOL", tol)
            cov = lattice.quadratic_covariance(model)
            got = np.zeros(2 * R + 1)
            got[R - cov.a_inv.R:R + cov.a_inv.R + 1] = cov.a_inv.values
            # l1 error on the periodic window, where later terms fold back, plus the mass outside it
            assert np.abs(ref - got).sum() <= cov.truncation_mass + 1e-15, tol

    def test_zero_coupling_is_delta(self):
        cov = lattice.quadratic_covariance(nn_model(0.0))
        assert cov.a_inv_center == pytest.approx(1.0, abs=1e-15)
        assert cov.window_sum == pytest.approx(1.0, abs=1e-15)
        offs = cov.eps_kernel.offsets()
        vals = cov.eps_kernel.flat_values()
        assert vals[np.all(offs != 0, axis=1)].max(initial=0.0) == 0.0

    def test_mass_conservation_and_center_bound(self):
        model = nn_model(0.2)
        cov = lattice.quadratic_covariance(model)
        assert abs(cov.window_sum - 1.0) + cov.truncation_mass < 1e-10
        assert cov.a_inv_center >= 1.0 / (1.0 + model.Gamma) - 1e-12

    def test_covariance_entries_nonnegative(self):
        cov = lattice.quadratic_covariance(nn_model(0.35))
        assert cov.a_inv.values.min() >= -1e-15

    def test_rho_report(self):
        model = nn_model(0.2)  # Gamma = 0.4 < 1
        rep = lattice.quadratic_rho_report(model)
        assert rep.gamma_bound_applies
        assert rep.eps_sum_offcenter <= model.Gamma + 1e-9
        assert rep.sublattice is not None and rep.sublattice.k < 1.0
        assert rep.distance_profile[0] == 1.0 or rep.distance_profile[0] <= 1.0
        profile = [rep.distance_profile[d] for d in sorted(rep.distance_profile)]
        assert all(b <= a + 1e-12 for a, b in zip(profile, profile[1:]))

    def test_exponential_couplings_give_exponential_correlations(self):
        R = 40
        zs = np.arange(-R, R + 1)
        vals = 0.3 * np.exp(-0.7 * np.abs(zs))
        vals[R] = 0.0
        model = QuadraticModel(1, ToeplitzKernel(1, R, vals))
        fit = decay_fit(lattice.quadratic_covariance(model).a_inv, max_shell=R)
        assert fit.classification == "exponential"
        assert fit.rate <= 0.7 + 1e-9  # the inverse can decay more slowly, never faster

    def test_polynomial_couplings_keep_the_exponent(self):
        R = 46
        zs = np.arange(-R, R + 1)
        vals = 0.4 / (1.0 + np.abs(zs)) ** 3
        vals[R] = 0.0
        model = QuadraticModel(1, ToeplitzKernel(1, R, vals))
        fit = decay_fit(lattice.quadratic_covariance(model).a_inv, max_shell=R)
        assert fit.classification == "polynomial"
        assert fit.exponent == pytest.approx(3.0, abs=0.3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            QuadraticModel(1, ToeplitzKernel.from_dict(1, 1, {0: 0.5}))
        with pytest.raises(ValidationError):
            QuadraticModel(1, ToeplitzKernel.from_dict(1, 1, {1: -0.1, -1: -0.1}))


class TestIsingExact:
    def test_high_temperature_decouples(self):
        rep = lattice.ising_epsilon(IsingTorus(1, 6, 1e6))
        assert rep.kernel.flat_values().max() < 1e-5

    def test_transfer_matrix_correlation(self):
        T, L = 2.0, 12
        sys = lattice.ising_exact(IsingTorus(1, L, T))
        spins = np.indices(sys.joint.shape) * 2 - 1
        for d in (1, 3, 5):
            got = float((sys.joint * spins[0] * spins[d]).sum())
            assert got == pytest.approx(ising_transfer_correlation(T, L, d), abs=1e-12)

    def test_pair_correlation_equals_moment_on_the_ring(self):
        # two-state variables: maximal correlation of a symmetric pair is E[w_i w_j]
        T, L = 2.5, 8
        rep = lattice.ising_epsilon(IsingTorus(1, L, T))
        # subjective values dominate the plain pair moments
        for d in (1, 2, 3):
            moment = ising_transfer_correlation(T, L, d)
            assert rep.kernel.value_at((d,)) >= moment - 1e-12

    def test_monotone_decay_and_k0(self):
        rep = lattice.ising_epsilon(IsingTorus(2, 3, 2.0))
        c0, k0 = lattice.ising_constants(2, 2.0)
        assert rep.c0 == c0 and rep.k0 == k0
        assert rep.subjective  # 9 sites: clamped contexts scanned
        vals = rep.kernel.flat_values()
        assert vals.max() <= k0 + 1e-12
        # monotone decay along the axis distances
        v1 = rep.kernel.value_at((1, 0))
        v2 = rep.kernel.value_at((1, 1))
        assert v1 >= v2 - 1e-12

    def test_site_cap(self):
        with pytest.raises(CapExceededError):
            lattice.ising_exact(IsingTorus(1, 17, 1.0))

    def test_clamped_boundary(self):
        sys = lattice.ising_exact(IsingTorus(1, 5, 2.0, clamp_sites=((0,),), clamp_values=(1,)))
        marg = sys.marginal([0])
        assert marg[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("sites, values, message", [
        (((7,),), (1,), r"clamp site \(7,\) must hold n = 1 integers in \[0, 5\)"),
        (((0, 1),), (1,), r"clamp site \(0, 1\) must hold n = 1 integers"),
        (((0,), (0,)), (1, -1), "clamped only once"),
    ])
    def test_bad_clamp_sites(self, sites, values, message):
        with pytest.raises(ValidationError, match=message):
            IsingTorus(1, 5, 2.0, clamp_sites=sites, clamp_values=values)


class TestNeighbourTable:
    @pytest.mark.parametrize("n, L", [(1, 2), (1, 5), (2, 3), (3, 4)])
    def test_matches_site_arithmetic(self, n, L):
        torus = IsingTorus(n, L, 1.0)
        sites = torus.sites
        neigh = torus.neighbour_table()
        assert neigh.shape == (len(sites), 2 * n)
        for k, s in enumerate(sites):
            expect = []
            for ax in range(n):
                for d in (-1, 1):
                    u = list(s)
                    u[ax] = (u[ax] + d) % L
                    expect.append(sites.index(tuple(u)))
            assert list(neigh[k]) == expect


def per_site_mcmc_samples(torus, sweeps, thin, seed, burn=200):
    """Reference: the heat-bath sampler with one float-array update and one
    math.exp per site per sweep, drawing the same stream."""
    rng = np.random.default_rng(seed)
    sites = torus.sites
    nsite = len(sites)
    site_pos = {s: k for k, s in enumerate(sites)}
    neigh = torus.neighbour_table()
    clamp_pos = {site_pos[tuple(s)]: v for s, v in zip(torus.clamp_sites, torus.clamp_values)}
    state = rng.choice((-1, 1), size=nsite).astype(float)
    for k, v in clamp_pos.items():
        state[k] = v
    kept = []
    beta = 1.0 / torus.T
    for sweep in range(burn + sweeps):
        order = rng.permutation(nsite)
        us = rng.uniform(size=nsite)
        for t, k in enumerate(order):
            if k in clamp_pos:
                continue
            h = state[neigh[k]].sum()
            p_up = 1.0 / (1.0 + math.exp(-2.0 * beta * h))
            state[k] = 1.0 if us[t] < p_up else -1.0
        if sweep >= burn and (sweep - burn) % thin == 0:
            kept.append(state.copy())
    return np.array(kept)


CLAMPED_RING = IsingTorus(1, 5, 2.0, clamp_sites=((0,),), clamp_values=(1,))


class TestHeatBathUpdater:
    @pytest.mark.parametrize("torus", [IsingTorus(2, 2, 3.0), IsingTorus(2, 3, 2.5), CLAMPED_RING])
    def test_thresholds_are_the_exact_conditionals(self, torus):
        # IsingTorus(2, 2, .) counts each bond twice, as its neighbour table does
        joint = lattice.ising_exact(torus).joint
        update = lattice._heat_bath_updater(torus)
        clamped = {k for k, s in enumerate(torus.sites) if s in torus.clamp_sites}
        for digits in np.argwhere(joint > 0):
            spins = [2 * int(d) - 1 for d in digits]  # state 0 is spin -1
            for k in range(len(spins)):
                ctx = tuple(digits[:k]) + (slice(None),) + tuple(digits[k + 1:])
                down, up = joint[ctx]
                p = up / (down + up)
                for u, expect in ((p * (1 - 1e-9), 1), (p * (1 + 1e-9), -1)):
                    state = list(spins)
                    update(state, [k], [u])
                    assert state[:k] + state[k + 1:] == spins[:k] + spins[k + 1:]
                    assert state[k] == (spins[k] if k in clamped else expect)


class TestIsingMcmc:
    @pytest.mark.parametrize("torus", [IsingTorus(1, 16, 2.0), IsingTorus(2, 4, 2.5),
                                       IsingTorus(3, 3, 4.0), CLAMPED_RING])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_site_sampler(self, torus, seed):
        got = lattice.ising_mcmc_samples(torus, sweeps=30, thin=3, seed=seed, burn=20)
        ref = per_site_mcmc_samples(torus, sweeps=30, thin=3, seed=seed, burn=20)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_displacement_classes_are_flat_site_indices(self):
        torus = IsingTorus(2, 5, 2.0)
        sites = torus.sites
        classes = lattice._displacement_classes(torus)
        assert len(classes) == 12  # (5^2 - 1) / 2 pairs {z, -z}
        for key, (a, b) in classes.items():
            z = torus.min_image(sites[b])
            assert a == 0 and key in (z, tuple(-c for c in z))

    def test_pairwise_estimate_matches_exact(self):
        T, L = 3.0, 16
        rep = lattice.ising_epsilon(IsingTorus(1, L, T), method="mcmc", seed=2,
                                    sweeps=4000, thin=2)
        exact = ising_transfer_correlation(T, L, 1)
        assert rep.kernel.value_at((1,)) == pytest.approx(exact, abs=0.03)

    def test_heat_bath_takes_its_zero_temperature_limit(self):
        # exp(-2 beta h) overflows at T = 1e-3: the table takes its 0/1 limits without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = lattice.ising_mcmc_samples(IsingTorus(1, 8, 1e-3), sweeps=20, thin=1, seed=0)
        assert samples.shape == (20, 8) and set(np.unique(samples)) <= {-1.0, 1.0}

    def test_a_clamped_site_is_not_a_trapped_chain(self):
        torus = IsingTorus(1, 6, 2.4, clamp_sites=((0,),), clamp_values=(1,))
        rep = lattice.ising_epsilon(torus, method="mcmc", seed=1, sweeps=400)
        assert rep.kernel.value_at((1,)) == 0.0  # every pair table holds the clamped site 0


def full_ring_draw(L, T, size, seed):
    """The conditional transfer sampler drawing all L spins of the ring (the form of
    sample_ising_ring before it took a window): the reference for every window."""
    rng = np.random.default_rng(seed)
    th = math.tanh(1.0 / T)
    powers = th ** np.arange(L + 1)
    spins = np.empty((size, L))
    s0 = rng.choice((-1.0, 1.0), size=size)
    spins[:, 0] = s0
    cur = s0.copy()
    for i in range(L - 1):
        k = L - i - 1
        up = (1 + th * cur) * (1 + powers[k] * s0)
        dn = (1 - th * cur) * (1 - powers[k] * s0)
        cur = np.where(rng.uniform(size=size) < up / (up + dn), 1.0, -1.0)
        spins[:, i + 1] = cur
    return spins


class TestRingSampler:
    @pytest.mark.parametrize("L, ell, T, seed", [(72, 8, 3.0, 3), (96, 32, 3.0, 11), (40, 40, 1.0, 5),
                                                 (9, 1, 0.5, 0), (200, 136, 2.0, 2**62)])
    def test_window_is_the_leading_columns_of_the_full_ring(self, L, ell, T, seed):
        window = lattice.sample_ising_ring(L, T, 300, ell, seed=seed)
        assert window.shape == (300, ell)
        assert np.array_equal(window, full_ring_draw(L, T, 300, seed)[:, :ell])

    @pytest.mark.parametrize("window", [0, 9])
    def test_window_outside_the_ring_is_an_error(self, window):
        with pytest.raises(ValidationError, match="must lie in"):
            lattice.sample_ising_ring(8, 2.0, 10, window)

    def test_law_is_exact_on_small_ring(self):
        import itertools

        T, L = 2.0, 5
        th = math.tanh(1.0 / T)
        # enumerate the sampler's law and compare to the Gibbs weights
        def sampler_prob(cfg):
            prob = 0.5
            cur = cfg[0]
            for i in range(L - 1):
                k = L - i - 1
                up = (1 + th * cur) * (1 + th**k * cfg[0])
                dn = (1 - th * cur) * (1 - th**k * cfg[0])
                p_up = up / (up + dn)
                prob *= p_up if cfg[i + 1] > 0 else 1 - p_up
                cur = cfg[i + 1]
            return prob

        weights = {}
        for cfg in itertools.product((-1, 1), repeat=L):
            weights[cfg] = math.exp(sum(cfg[i] * cfg[(i + 1) % L] for i in range(L)) / T)
        Z = sum(weights.values())
        for cfg, w in weights.items():
            assert sampler_prob(cfg) == pytest.approx(w / Z, abs=1e-14)


class TestCLT:
    def test_independent_baseline(self):
        rep = lattice.clt_experiment("independent", (32,), replicas=10_000, seed=0)
        assert rep.cf_distances[0] < 0.02
        assert rep.sigma_hat2 == pytest.approx(1.0, rel=0.05)

    def test_disk_shape_supported(self):
        # a disk of radius ell / 2 on the line holds 2 (ell // 2) + 1 sites: 7 for ell = 6 and 7,
        # so the same seed draws the same blocks
        six, seven = (lattice.clt_experiment("independent", (ell,), replicas=2_000, seed=1, shape="disk")
                      for ell in (6, 7))
        assert six.cf_distances == seven.cf_distances
        assert six.cf_distances[0] < 0.2

    def test_quadratic_model_is_exactly_gaussian(self):
        model = nn_model(0.2)
        rep = lattice.clt_experiment(model, (4, 16), replicas=20_000, seed=2)
        assert max(rep.cf_distances) < 0.02
        assert rep.sigma2_limit == pytest.approx(1.0, abs=1e-12)
        assert rep.sigma_hat2 == pytest.approx(1.0, rel=0.08)

    def test_ising_chain_converges(self):
        model = IsingTorus(1, 8, 3.0)
        rep = lattice.clt_experiment(model, (8, 32), replicas=10_000, seed=4)
        th = math.tanh(1.0 / 3.0)
        assert rep.sigma2_limit == pytest.approx((1 + th) / (1 - th), abs=1e-12)
        assert rep.cf_distances[1] < rep.cf_distances[0]
        assert rep.sigma_hat2 == pytest.approx(rep.sigma2_limit, rel=0.06)

    def test_grouped_cf_matches_the_mean_over_replicas(self):
        # Ising and independent block sums take at most ell + 1 values, quadratic ones are
        # all distinct; cf distances lie in [0, 2], and the two sums differ by rounding only
        lam = np.linspace(-3.0, 3.0, 61)
        rng = np.random.default_rng(8)
        ising = lattice.sample_ising_ring(72, 3.0, 10_000, 8, seed=1).sum(axis=1) / math.sqrt(8)
        independent = rng.choice((-1.0, 1.0), size=(10_000, 32)).sum(axis=1) / math.sqrt(32)
        quadratic = rng.standard_normal(3 * lattice.CF_BLOCK // len(lam) + 5)  # four blocks
        for values in (ising, independent, quadratic):
            s2 = float(values.var())
            want = np.abs(np.exp(1j * np.outer(lam, values)).mean(axis=1) - np.exp(-s2 * lam**2 / 2)).max()
            assert abs(lattice._cf_distance(values, s2, lam) - want) <= 1e-14
        assert len(np.unique(ising)) <= 9 and len(np.unique(quadratic)) == len(quadratic)

    def test_cf_memory_is_bounded_by_the_block(self):
        # 2^16 distinct values, 61 x 2^16 (lam, value) terms in 61 blocks: the block work stays
        # within three block-sized complex arrays on top of a few copies of the values (the
        # one-expression form peaked at 61 x 2^16 x 40 bytes, 160 MB)
        values = np.random.default_rng(9).standard_normal(1 << 16)
        lam = np.linspace(-3.0, 3.0, 61)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            lattice._cf_distance(values, 1.0, lam)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * lattice.CF_BLOCK + 4 * values.nbytes, peak

    def test_sample_cap(self):
        cap = lattice.CLT_SAMPLE_CAP
        assert lattice._check_clt("independent", [cap // 4], 4) == (cap // 4,)
        assert lattice._check_clt(IsingTorus(1, 8, 3.0), (8, cap // 2 - 64), 2) == (8, cap // 2 - 64)
        for model, ells, replicas in [("independent", (cap // 4 + 1,), 4),
                                      (IsingTorus(1, 8, 3.0), (cap // 2 - 63,), 2),
                                      (nn_model(0.2), (cap // 8 + 1,), 2),
                                      ("independent", (10, 10**13), 10)]:
            with pytest.raises(CapExceededError, match="sampled sites above cap"):
                lattice.clt_experiment(model, ells, replicas)


class TestSiteCap:
    def test_torus_site_cap(self):
        assert IsingTorus(2, 256, 2.0).L ** 2 == lattice.ISING_SITE_CAP
        for n, L in [(1, lattice.ISING_SITE_CAP + 1), (17, 2), (3, 100_000), (10**9, 3)]:
            with pytest.raises(CapExceededError, match="more than 65536 sites"):
                IsingTorus(n, L, 2.0)


