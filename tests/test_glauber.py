import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from rhomix import discrete, glauber
from rhomix.discrete import FiniteSystem
from rhomix.errors import CapExceededError, IntegratorError, ValidationError
from rhomix.tensor_bounds import LatticeKernel, TailModel, sublattice_k


def ising_transfer_correlation(T, L, d):
    """E[w_0 w_d] on the 1-d cycle: (th^d + th^{L-d}) / (1 + th^L), th = tanh(1/T)."""
    th = math.tanh(1.0 / T)
    return (th**d + th ** (L - d)) / (1.0 + th**L)


def spin_system(joint):
    joint = np.asarray(joint, dtype=float)
    names = tuple((f"s{k}", joint.shape[k]) for k in range(joint.ndim))
    return FiniteSystem(names, joint)


def three_state_system():
    """Three sites with three values each; one zero cell leaves a zero-mass
    value in three (site, context) cells."""
    joint = np.random.default_rng(21).dirichlet(np.full(27, 4.0)).reshape(3, 3, 3)
    joint[2, 0, 1] = 0.0
    return spin_system(joint / joint.sum())


def two_class_system():
    """A 4 x 4 table supported on two 2 x 2 blocks: two communicating classes, and
    half the states of zero mass."""
    joint = np.zeros((4, 4))
    joint[:2, :2] = [[0.1, 0.2], [0.05, 0.15]]
    joint[2:, 2:] = [[0.2, 0.1], [0.12, 0.08]]
    return spin_system(joint)


def padded_2n(samples, max_lag):
    """Reference autocorrelation: one FFT of the mean-free series padded to 2n or more."""
    n = samples.size
    x = samples - samples.mean()
    var = float(x @ x) / n
    if var <= 0:
        return np.zeros(max_lag)
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, nfft)
    return np.fft.irfft(f * np.conj(f), nfft)[:max_lag] / ((n - np.arange(max_lag)) * var)


def snap_rings_to_samples(monkeypatch, sample_dt):
    """Make _schedule move every other ring back onto the sample time at or before it, so that
    rings tie with each other and with sample times; returns the list of schedules drawn."""
    schedule, drawn = glauber._schedule, []

    def snapped(rng, nsites, horizon):
        times, sites, uniforms = schedule(rng, nsites, horizon)
        times[::2] = np.floor(times[::2] / sample_dt) * sample_dt
        times.sort()
        drawn.append(times)
        return times, sites, uniforms

    monkeypatch.setattr(glauber, "_schedule", snapped)
    return drawn


def two_spin_ferromagnet(gamma):
    p_eq = (1 + gamma) / 4
    p_ne = (1 - gamma) / 4
    return spin_system([[p_eq, p_ne], [p_ne, p_eq]])


def heat_bath_matrix(joint):
    """Dense B on the full state grid: the operator applied to the identity."""
    apply = glauber._heat_bath(np.asarray(joint, dtype=float))
    return np.column_stack([apply(e) for e in np.eye(np.size(joint))])


def support_generator(joint):
    """(support states as digit rows, their masses, the heat-bath generator L on them), from
    its definition: between support states x != y that differ in exactly one site i the
    rate is p(y) / p(context of x at site i)."""
    digits = np.argwhere(joint > 0)
    p = joint[tuple(digits.T)]
    diff = digits[:, None, :] != digits[None, :, :]
    ctx = np.stack([np.broadcast_to(joint.sum(axis=i, keepdims=True), joint.shape)[tuple(digits.T)]
                    for i in range(joint.ndim)], axis=1)
    rates = p[None, :] / np.take_along_axis(ctx, diff.argmax(axis=2), axis=1)
    L = np.where(diff.sum(axis=2) == 1, rates, 0.0)
    L -= np.diag(L.sum(axis=1))
    return digits, p, L


def brute_force_gap(joint):
    """Smallest nonzero eigenvalue of the heat bath, built from its definition: the generator
    L is symmetrized with sqrt(p) and diagonalized densely.  Returns None if no mode is
    nonzero.
    """
    _, p, L = support_generator(joint)
    sq = np.sqrt(p)
    evals = np.linalg.eigvalsh(-(sq[:, None] * L / sq[None, :]))
    nonzero = evals[evals > 1e-9]
    return float(nonzero[0]) if nonzero.size else None


def random_joints():
    """Systems of at most 2^10 states: one site, zero cells, one disconnected support."""
    rng = np.random.default_rng(60)
    shapes = [(4,), (3, 2), (2, 2), (2, 2, 2), (3, 3, 3), (2, 3, 4), (4, 4, 4), (2,) * 6,
              (3,) * 5, (2, 3, 2, 3, 2), (2,) * 8, (4, 4, 4, 4), (2,) * 10]
    for k, shape in enumerate(shapes):
        joint = rng.dirichlet(np.full(int(np.prod(shape)), 2.0)).reshape(shape)
        if k % 2:
            joint[rng.random(shape) < 0.3] = 0.0
        yield joint / joint.sum()
    disconnected = np.zeros((4, 4, 2))  # two classes of 8 states, no one-site move between them
    disconnected[:2, :2] = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
    disconnected[2:, 2:] = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
    yield disconnected / disconnected.sum()


class TestGapLowerBounds:
    def test_zero_matrix(self):
        rep = glauber.gap_lower_bounds(np.zeros((3, 3)))
        assert np.array_equal(rep.M_matrix, np.eye(3))
        assert rep.bound_M == 1.0
        assert rep.bound_Mprime == 1.0
        assert rep.bound_simple == 1.0

    def test_two_site_closed_form(self):
        rep = glauber.gap_lower_bounds(np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert np.abs(rep.M_matrix - [[4 / 3, 2 / 3], [0, 1]]).max() < 1e-12
        assert rep.bound_M == pytest.approx(18.0 / (29.0 + math.sqrt(265.0)), abs=1e-12)
        assert rep.bound_simple == pytest.approx(0.25, abs=1e-15)
        assert rep.bound_M >= rep.bound_Mprime >= rep.bound_simple

    def test_entrywise_nesting_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            eps = rng.uniform(0, 0.45, size=(n, n))
            eps = 0.5 * (eps + eps.T)
            np.fill_diagonal(eps, 0.0)
            rep = glauber.gap_lower_bounds(eps)
            if rep.mprime_defined:
                assert (rep.M_matrix <= rep.Mprime_matrix + 1e-12).all()
                assert rep.bound_M >= rep.bound_Mprime - 1e-12
                assert rep.bound_Mprime >= rep.bound_simple - 1e-12

    def test_unit_entry_error(self):
        with pytest.raises(ValidationError):
            glauber.gap_lower_bounds(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_rejected(self, bad):
        with pytest.raises(ValidationError, match="eps entries must be finite"):
            glauber.gap_lower_bounds(np.array([[0.0, bad], [bad, 0.0]]))

    def test_overflowed_M_gives_zero(self):
        # prod_j (1 - 0.81) underflows in the first rows, so ones~ and M overflow
        eps = np.full((343, 343), 0.9)
        np.fill_diagonal(eps, 0.0)
        rep = glauber.gap_lower_bounds(eps)
        assert not np.isfinite(rep.M_matrix).all()
        assert (rep.bound_M, rep.bound_simple, rep.mprime_defined) == (0.0, 0.0, False)

    @pytest.mark.parametrize("failing, name", [(0, "M"), (1, "eps"), (2, "M'")])
    def test_failed_svd_is_an_integrator_error(self, failing, name, monkeypatch):
        svd, calls = np.linalg.svd, []

        def flaky(*args, **kwargs):
            calls.append(args)
            if len(calls) == failing + 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        monkeypatch.setattr(glauber.np.linalg, "svd", flaky)
        with pytest.raises(IntegratorError, match=f"gap_lower_bounds: SVD of {name} did not converge"):
            glauber.gap_lower_bounds(np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_mprime_flag_when_radius_reaches_one(self):
        eps = np.full((4, 4), 0.4)
        np.fill_diagonal(eps, 0.0)
        rep = glauber.gap_lower_bounds(eps)  # spectral radius 1.2
        assert not rep.mprime_defined
        assert rep.bound_Mprime is None
        assert rep.bound_simple == 0.0
        assert rep.bound_M > 0.0


class TestExactGap:
    def test_product_measure_gap_is_one(self):
        for n in (2, 3, 4):
            joint = np.full((2,) * n, 1.0 / 2**n)
            gap = glauber.exact_gap(spin_system(joint))
            assert gap == pytest.approx(1.0, abs=1e-10)

    def test_product_spectrum_is_integer(self):
        evals = np.linalg.eigvalsh(heat_bath_matrix(np.full((2, 2, 2), 1 / 8)))
        assert np.abs(evals - np.round(evals)).max() < 1e-9
        assert np.array_equal(np.round(evals), [0, 1, 1, 1, 2, 2, 2, 3])

    def test_two_spin_ferromagnet_oracle(self):
        for gamma in (0.2, 0.5, 0.8):
            sys = two_spin_ferromagnet(gamma)
            # independent 4-state oracle: -L = sum_i (I - Pi_i) symmetrized
            p = sys.joint.ravel()
            Pi_a = np.zeros((4, 4))
            Pi_b = np.zeros((4, 4))
            for b in (0, 1):  # contexts of the first spin
                idx = [b, 2 + b]
                mass = p[idx].sum()
                for x in idx:
                    for y in idx:
                        Pi_b[x, y] = p[y] / mass
            for a in (0, 1):
                idx = [2 * a, 2 * a + 1]
                mass = p[idx].sum()
                for x in idx:
                    for y in idx:
                        Pi_a[x, y] = p[y] / mass
            K = 2 * np.eye(4) - Pi_a - Pi_b
            D = np.diag(np.sqrt(p))
            B = D @ K @ np.linalg.inv(D)
            evals = np.sort(np.linalg.eigvalsh(0.5 * (B + B.T)))
            oracle = evals[1]
            gap = glauber.exact_gap(sys)
            assert gap == pytest.approx(oracle, abs=1e-10)
            # measured pair correlation is gamma, and the matrix bound holds
            eps = discrete.subjective_maxcorr(sys, 0, 1)
            assert eps == pytest.approx(gamma, abs=1e-12)
            rep = glauber.gap_lower_bounds(np.array([[0.0, eps], [eps, 0.0]]))
            assert gap >= rep.bound_M - 1e-9

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(6)
        joint = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        gap = glauber.exact_gap(spin_system(joint))
        permuted = np.transpose(joint, (2, 0, 1))
        assert glauber.exact_gap(spin_system(permuted)) == pytest.approx(gap, abs=1e-10)
        flipped = joint[::-1, :, :]
        assert glauber.exact_gap(spin_system(flipped)) == pytest.approx(gap, abs=1e-10)

    def test_operator_kernel_symmetry_and_sign(self):
        """B sqrt(p) = 0 (generator rows sum to zero), B = B^T (reversibility),
        B >= 0, also with a zero-mass cell."""
        rng = np.random.default_rng(3)
        for joint in (rng.dirichlet(np.ones(8)).reshape(2, 2, 2), three_state_system().joint):
            B = heat_bath_matrix(joint)
            assert np.abs(B @ np.sqrt(joint).ravel()).max() < 1e-12
            assert np.abs(B - B.T).max() < 1e-12
            assert np.linalg.eigvalsh(B).min() > -1e-12

    def test_matches_brute_force(self):
        for joint in random_joints():
            gap = glauber.exact_gap(spin_system(joint))
            assert gap == pytest.approx(brute_force_gap(joint), abs=1e-10)

    def test_ritz_residual_bounds_the_gap_error(self):
        # exact_gap returns shift - theta for the Ritz value theta of (shift I - B);
        # a symmetric operator has an eigenvalue within |(shift I - B)x - theta x|
        # of theta, so the residual must be small and must cover the dense error
        for joint in random_joints():
            gap, f = glauber.exact_gap(spin_system(joint), return_vector=True)
            x = np.sqrt(joint).ravel() * f.ravel()
            x /= np.linalg.norm(x)
            shift = joint.ndim + 1
            residual = np.linalg.norm(shift * x - glauber._heat_bath(joint)(x) - (shift - gap) * x)
            assert residual <= 1e-9
            assert abs(gap - brute_force_gap(joint)) <= residual + 1e-12

    def test_no_nonzero_mode(self):
        joint = np.diag([0.2, 0.3, 0.5])  # every support state is its own class
        assert brute_force_gap(joint) is None
        with pytest.raises(ValidationError, match="dynamics has no nonzero mode"):
            glauber.exact_gap(spin_system(joint))

    def test_order_of_calls_does_not_matter(self):
        systems = [spin_system(j) for j in random_joints()][:6]
        forward = [glauber.exact_gap(s) for s in systems]
        backward = [glauber.exact_gap(s) for s in reversed(systems)][::-1]
        assert forward == backward

    @pytest.mark.parametrize("sys", [three_state_system(), spin_system([0.1, 0.2, 0.3, 0.4])])
    def test_return_vector_is_an_eigenvector(self, sys):
        gap, f = glauber.exact_gap(sys, return_vector=True)
        assert np.all(f[sys.joint == 0] == 0)
        g = np.sqrt(sys.joint).ravel() * f.ravel()
        assert np.linalg.norm(g) > 0.5
        residual = glauber._heat_bath(sys.joint)(g) - gap * g
        assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(g)

    @pytest.mark.parametrize("make", [
        lambda: spin_system([[0.1, 0.2], [0.3, 0.4]]),
        lambda: spin_system(np.random.default_rng(4).dirichlet(np.ones(8)).reshape(2, 2, 2)),
        three_state_system,  # 27 states, one of zero mass
        two_class_system,
        lambda: spin_system(np.random.default_rng(5).dirichlet(np.ones(128)).reshape((2,) * 7)),  # at the cutoff
        lambda: spin_system(np.random.default_rng(6).dirichlet(np.ones(256)).reshape((2,) * 8)),  # above it
    ])
    def test_dense_matches_lanczos(self, make, monkeypatch):
        sys = make()
        runs = {}
        for cutoff in (0, glauber.EXACT_GAP_STATE_CAP):  # eigsh on every system, then eigh
            monkeypatch.setattr(glauber, "DENSE_GAP_STATES", cutoff)
            runs[cutoff] = glauber.exact_gap(sys, return_vector=True)
        (lanczos, f_l), (dense, f_d) = runs.values()
        assert dense == pytest.approx(lanczos, rel=1e-12, abs=0)
        w = np.sqrt(sys.joint)
        g_l, g_d = (w * f_l).ravel(), (w * f_d).ravel()
        assert np.linalg.norm(g_d) == pytest.approx(1.0, abs=1e-12)
        assert min(np.abs(g_d - g_l).max(), np.abs(g_d + g_l).max()) <= 1e-9
        assert np.all(f_d[sys.joint == 0] == 0)

    def test_batched_operator_is_the_operator_column_by_column(self):
        joint = three_state_system().joint
        eye = np.eye(joint.size)
        assert np.array_equal(glauber._heat_bath(joint)(eye), heat_bath_matrix(joint))

    def test_state_cap(self):
        with pytest.raises(CapExceededError):
            glauber.exact_gap(spin_system(np.full((2,) * 13, 1.0 / 2**13)))


class TestSimulator:
    @pytest.mark.parametrize("horizon, message", [
        (math.nan, "horizon must be finite"), (-1.0, "horizon must be finite"),
        (2.0**22, "expected events above cap"),  # 2 sites x 2^22 rings
    ])
    def test_both_simulators_reject_bad_horizons(self, horizon, message):
        from rhomix.lattice import IsingTorus

        with pytest.raises(ValidationError, match=message):
            glauber.glauber_simulate(spin_system(np.full((2, 2), 0.25)), horizon)
        with pytest.raises(ValidationError, match=message):
            glauber.glauber_simulate_ising(IsingTorus(1, 2, 2.0), horizon)

    def test_single_spin_rate_one(self):
        joint = np.full((2, 2), 0.25)
        sys = spin_system(joint)
        # seed-to-seed sd of the estimate is 3.2-3.8% at horizon 4e4; 10x the
        # horizon makes the 5% bound about 4 sd
        first_spin = np.indices(joint.shape, sparse=True)[0]
        sim = glauber.glauber_simulate(sys, horizon=400_000.0, seed=4, observable=first_spin, keep_events=False)
        assert sim.rate_estimate == pytest.approx(1.0, rel=0.05)

    def test_two_spin_rate_matches_exact_gap(self):
        sys = two_spin_ferromagnet(0.5)
        gap, mode = glauber.exact_gap(sys, return_vector=True)
        # seed-to-seed sd is ~2.8-3.5% at horizon 1e5; 2x the horizon makes
        # the 10% bound at least 4 sd
        sim = glauber.glauber_simulate(
            sys, horizon=200_000.0, seed=5, observable=mode, keep_events=False
        )
        assert sim.rate_estimate == pytest.approx(gap, rel=0.10)

    def test_deterministic_per_seed(self):
        sys = two_spin_ferromagnet(0.3)
        a = glauber.glauber_simulate(sys, horizon=50.0, seed=9)
        b = glauber.glauber_simulate(sys, horizon=50.0, seed=9)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.sites, b.sites)
        assert np.array_equal(a.new_states, b.new_states)

    def test_trajectory_states_follow_conditionals(self):
        sys = three_state_system()
        sizes = sys.joint.shape
        horizon = 20_000.0
        sim = glauber.glauber_simulate(sys, horizon=horizon, seed=1)
        mu = len(sizes) * horizon  # every ring is recorded: Poisson(N * horizon)
        assert abs(len(sim.times) - mu) <= 6.0 * math.sqrt(mu)
        assert np.all(np.diff(sim.times) > 0)
        assert 0.0 < sim.times[0] and sim.times[-1] <= horizon
        assert set(np.unique(sim.sites)) == {0, 1, 2}
        # once every site has rung the state is known; from then on each new
        # value is a draw from the conditional law of its site given the rest
        state = [-1] * len(sizes)
        counts = {}
        for site, new in zip(sim.sites.tolist(), sim.new_states.tolist()):
            if -1 not in state:
                key = (site, tuple(state[:site] + state[site + 1:]))
                counts.setdefault(key, np.zeros(sizes[site]))[new] += 1
            state[site] = new
        assert len(counts) == 3 * 9
        stat, df = 0.0, 0
        for (site, ctx), obs in counts.items():
            cond = sys.joint[ctx[:site] + (slice(None),) + ctx[site:]]
            cond = cond / cond.sum()
            assert obs[cond == 0].sum() == 0  # a zero-mass value is never drawn
            exp = obs.sum() * cond[cond > 0]
            assert exp.min() >= 5.0
            stat += float(((obs[cond > 0] - exp) ** 2 / exp).sum())
            df += exp.size - 1
        assert stat <= chi2.isf(1e-6, df)

    def test_replay_of_recorded_events_gives_the_samples(self):
        sys = three_state_system()
        sizes = sys.joint.shape
        weights = np.array([1.0, -2.0, 0.5])
        observable = sum(w * idx for w, idx in zip(weights, np.indices(sizes, sparse=True)))
        dt = 0.05
        sim = glauber.glauber_simulate(sys, horizon=400.0, seed=3, observable=observable, sample_dt=dt)
        # the initial state is the first draw of the seeded stream
        flat = sys.joint.ravel()
        start = np.random.default_rng(3).choice(flat.size, p=flat / flat.sum())
        state = list(np.unravel_index(start, sizes))
        samples, k = [], 0
        for j in range(int(400.0 / dt) + 1):
            while k < len(sim.times) and sim.times[k] <= j * dt:
                state[sim.sites[k]] = sim.new_states[k]
                k += 1
            samples.append(observable[tuple(state)])
        replayed = glauber._autocorrelation(np.array(samples), len(sim.autocorr))
        assert np.abs(replayed - sim.autocorr).max() <= 1e-12

    @pytest.mark.parametrize("keep_events", [True, False])
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_does_not_change_the_run(self, chunk, keep_events, monkeypatch):
        # the default chunk holds all ~1,200 rings; chunks of 1 and 7 rings
        # end on every ring and between samples
        sys = three_state_system()
        ref = glauber.glauber_simulate(sys, horizon=400.0, seed=6, sample_dt=0.07, keep_events=keep_events)
        monkeypatch.setattr(glauber, "_SIM_CHUNK", chunk)
        got = glauber.glauber_simulate(sys, horizon=400.0, seed=6, sample_dt=0.07, keep_events=keep_events)
        for name in ("times", "sites", "new_states", "autocorr"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert (got.rate_estimate, got.relaxation_time) == (ref.rate_estimate, ref.relaxation_time)
        assert len(ref.times) > 1000 or not keep_events

    def test_replica_correlation_matches_the_generator(self):
        # three values per site and zero-mass values: padded CDF rows and unfilled rows of
        # zero-mass states.  Against sum_x p(x) f(x) (e^{tL} f)(x) from the generator's
        # definition, every lag within 5.10 standard errors (criterion 8's SIM_Z)
        from scipy.linalg import expm

        sys = three_state_system()
        digits, p, L = support_generator(sys.joint)
        f = np.random.default_rng(4).standard_normal(sys.joint.shape)
        times = np.array([0.1, 0.7, 2.0])
        exact = [p @ (f[tuple(digits.T)] * (expm(t * L) @ f[tuple(digits.T)])) for t in times]
        c, se = glauber._replica_correlation(sys, f, times, 20_000, seed=2)
        assert np.all(se > 0) and np.all(se < 0.02)
        assert np.all(np.abs(c - exact) <= 5.10 * se), ((c - exact) / se)

    def test_replica_tables_are_the_simulators_rows(self, monkeypatch):
        # _replica_correlation reads every row of a positive-mass state through _conditional_row,
        # the helper glauber_simulate's lazy tables call
        sys = three_state_system()
        rows, row = set(), glauber._conditional_row

        def recording(joint, site, state):
            rows.add((site, state))
            return row(joint, site, state)

        monkeypatch.setattr(glauber, "_conditional_row", recording)
        glauber._replica_correlation(sys, np.ones(sys.joint.shape), [1.0], 10, seed=0)
        assert rows == {(i, y) for i in range(3) for y in np.flatnonzero(sys.joint.ravel() > 0).tolist()}
        rows.clear()
        glauber.glauber_simulate(sys, horizon=50.0, seed=0)
        assert len(rows) > 40

    def test_memory_per_ring_is_bounded(self):
        # 3 sites, 10^5 expected rings, 4 samples per ring, no events: at most
        # 160 traced bytes per ring (measured: 134; 141 with a whole-grid array
        # of sample counts, 263 when the whole path was held as a list, an
        # index array and a sample gather)
        sys = spin_system(np.random.default_rng(1).dirichlet(np.ones(8)).reshape(2, 2, 2))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            glauber.glauber_simulate(sys, horizon=1e5 / 3, seed=1, keep_events=False)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 160 * 1e5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 1000, 4097])
    def test_autocorrelation_matches_the_2n_padded_fft(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n).cumsum()  # a correlated series
        for max_lag in sorted({1, max(n // 4, 1), n}):
            got = glauber._autocorrelation(x, max_lag)
            assert got.shape == (max_lag,)
            assert np.abs(got - padded_2n(x, max_lag)).max() <= 1e-12

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocked_autocorrelation_matches_the_2n_padded_fft(self, block, monkeypatch):
        monkeypatch.setattr(glauber, "_ACF_BLOCK", block)
        rng = np.random.default_rng(block)
        for n in sorted({1, block, block + 1, 3 * block - 1, 4 * block}):  # one to four blocks
            x = rng.standard_normal(n).cumsum()
            for max_lag in sorted({m for m in (1, 2, block, max(n // 4, 1), n) if m <= n}):
                got = glauber._autocorrelation(x, max_lag)
                assert got.shape == (max_lag,)
                assert np.abs(got - padded_2n(x, max_lag)).max() <= 1e-12, (n, max_lag)

    def test_autocorrelation_memory_does_not_grow_with_the_run(self):
        # 2^21 samples at criterion 8's 8000 lags: blocks of 2^18 - 8192 samples take
        # about 8 MiB of traced memory (one 2^22-point FFT of the whole run took 64 MiB)
        x = np.random.default_rng(2).standard_normal(1 << 21).cumsum()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            glauber._autocorrelation(x, 8000)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    @pytest.mark.parametrize("chunk", [1, 5, glauber._SIM_CHUNK])
    def test_samples_count_the_rings_at_or_before_each_sample_time(self, chunk, monkeypatch):
        sys, dt = three_state_system(), 0.2
        drawn = snap_rings_to_samples(monkeypatch, dt)
        kept = []
        result = glauber._result
        monkeypatch.setattr(glauber, "_result", lambda samples, *rest: kept.append(samples) or result(samples, *rest))
        monkeypatch.setattr(glauber, "_SIM_CHUNK", chunk)
        flat_state = np.arange(sys.joint.size).reshape(sys.joint.shape)
        sim = glauber.glauber_simulate(sys, horizon=300.0, seed=8, observable=flat_state, sample_dt=dt)
        times = drawn[0]
        grid = np.arange(int(300.0 / dt) + 1) * dt
        on_grid = np.isin(times, grid)
        assert on_grid.sum() >= times.size // 2 and np.any(times[1:] == times[:-1])
        assert chunk > times.size or on_grid[chunk::chunk].any()  # a chunk ends on a sample time
        # replay the recorded events from the first draw of the seeded stream
        flat = sys.joint.ravel()
        path = [int(np.random.default_rng(8).choice(flat.size, p=flat / flat.sum()))]
        for site, new in zip(sim.sites.tolist(), sim.new_states.tolist()):
            digits = list(np.unravel_index(path[-1], sys.joint.shape))
            digits[site] = new
            path.append(int(np.ravel_multi_index(digits, sys.joint.shape)))
        expected = np.array(path)[np.searchsorted(times, grid, side="right")]
        assert np.array_equal(kept[0], expected)

    @pytest.mark.parametrize("chunk", [1, 5, glauber._SIM_CHUNK])
    def test_ising_samples_count_the_rings_at_or_before_each_sample_time(self, chunk, monkeypatch):
        from rhomix import lattice

        dt = glauber.ISING_SAMPLE_DT
        drawn = snap_rings_to_samples(monkeypatch, dt)
        rung = [0]
        updater = lattice._heat_bath_updater

        def counting(torus):
            update = updater(torus)
            rung[0] = 0  # count for the last updater made: the simulation's, after the burn-in's

            def counted(state, sites, uniforms):
                rung[0] += len(sites)
                update(state, sites, uniforms)
            return counted

        monkeypatch.setattr(lattice, "_heat_bath_updater", counting)
        monkeypatch.setattr(glauber, "_SIM_CHUNK", chunk)
        seen = []
        glauber.glauber_simulate_ising(lattice.IsingTorus(1, 5, 2.0), 60.0, seed=3,
                                       observable=lambda spins: seen.append(rung[0]) or 0.0)
        times = drawn[0]
        grid = np.arange(int(60.0 / dt) + 1) * dt
        assert np.isin(times, grid).sum() >= times.size // 2
        assert np.array_equal(seen, np.searchsorted(times, grid, side="right"))

    def test_ising_default_observable_is_the_scaled_magnetization(self):
        # the default sums the int state list; the explicit observable sums a float array per
        # sample time.  Both sums of +-1 are exact, so every output keeps its bits
        from rhomix.lattice import IsingTorus

        torus = IsingTorus(1, 8, 2.0)
        default = glauber.glauber_simulate_ising(torus, 500.0, seed=5)
        explicit = glauber.glauber_simulate_ising(torus, 500.0, seed=5,
                                                  observable=lambda s: float(s.sum()) / math.sqrt(8))
        assert default.rate_estimate == explicit.rate_estimate
        assert default.relaxation_time == explicit.relaxation_time
        assert np.array_equal(default.autocorr, explicit.autocorr)

    def test_ising_simulator_keeps_clamped_spins(self):
        from rhomix.lattice import IsingTorus

        torus = IsingTorus(1, 5, 2.0, clamp_sites=((0,),), clamp_values=(1,))
        seen = []
        glauber.glauber_simulate_ising(torus, 200.0, seed=1,
                                       observable=lambda spins: seen.append(spins[0]) or 0.0)
        assert all(s == 1.0 for s in seen)
        assert len(seen) == int(200.0 / glauber.ISING_SAMPLE_DT) + 1  # once per sample time

    def test_ising_replay_from_one_generator(self):
        from rhomix.lattice import IsingTorus, ising_mcmc_samples

        torus, horizon, seed = IsingTorus(2, 3, 2.5), 50.0, 4
        seen = []
        glauber.glauber_simulate_ising(torus, horizon, seed=seed,
                                       observable=lambda spins: seen.append(spins.copy()) or 0.0)
        # the burn-in and then the uniformized rings, all read from one generator
        rng = np.random.default_rng(seed)
        state = ising_mcmc_samples(torus, sweeps=1, thin=1, seed=rng, burn=glauber.ISING_BURN_SWEEPS)[-1]
        n_events = int(rng.poisson(state.size * horizon))
        times = np.sort(horizon * (1.0 - rng.random(n_events)))
        sites = rng.integers(state.size, size=n_events)
        uniforms = rng.random(n_events)
        neigh = torus.neighbour_table()
        beta, dt, k = 1.0 / torus.T, glauber.ISING_SAMPLE_DT, 0
        assert len(seen) == int(horizon / dt) + 1
        for j, spins in enumerate(seen):
            while k < n_events and times[k] <= j * dt:
                p_up = 1.0 / (1.0 + math.exp(-2.0 * beta * state[neigh[sites[k]]].sum()))
                state[sites[k]] = 1.0 if uniforms[k] < p_up else -1.0
                k += 1
            assert np.array_equal(spins, state)


def double_loop_eps_block(sums, ell):
    """Reference: the block matrix of the ell^n classes filled entry by entry,
    eps_block[u, v] = sums[(z_v - z_u) mod ell] off the diagonal."""
    n_cls = sums.size
    eps_block = np.zeros((n_cls, n_cls))
    for u in range(n_cls):
        zu = np.array(np.unravel_index(u, sums.shape))
        for v in range(n_cls):
            if u != v:
                zv = np.array(np.unravel_index(v, sums.shape))
                eps_block[u, v] = sums[tuple((zv - zu) % ell)]
    return eps_block


class TestSublatticeGap:
    @pytest.mark.parametrize("kernel", [
        LatticeKernel.from_dict(1, 1, {1: 0.6}),
        LatticeKernel.from_dict(2, 1, {(1, 0): 0.25, (0, 1): 0.2, (1, 1): 0.1, (1, -1): 0.05},
                                tail=TailModel("mass", total=0.05)),
        LatticeKernel.from_dict(2, 2, {(1, 0): 0.3, (0, 1): 0.3, (2, 0): 0.1, (1, 1): 0.05}, norm="l2",
                                tail=TailModel("exponential", C=0.05, psi=2.0)),
    ])
    def test_matches_the_double_loop_block(self, kernel):
        sub = sublattice_k(kernel)
        zeta = float(sub.class_sums[(0,) * kernel.n])
        bound_M = glauber.gap_lower_bounds(double_loop_eps_block(sub.class_sums, sub.ell)).bound_M
        rep = glauber.sublattice_gap(kernel)
        assert (rep.value, rep.ell, rep.zeta, rep.norm_M) == (bound_M * (1 - zeta) ** 2, sub.ell, zeta, bound_M**-0.5)
        assert sub.class_sums.size >= 3  # a block matrix with off-diagonal entries

    def test_block_cap(self):
        # a spacing of 2R + 1 gives every class one window value: 31^2 classes
        # fit under the cap, 33^2 do not
        def window(R):
            values = np.full((2 * R + 1,) * 2, 0.9)
            values[R, R] = 0.0
            return LatticeKernel(2, R, values, "l1", TailModel())

        assert glauber._sublattice_classes(window(15)).ell == 31
        assert 31**2 <= glauber.SUBLATTICE_BLOCK_CAP < 33**2
        with pytest.raises(CapExceededError, match="spacing 33 gives a block system of 1089 classes, above cap 1024"):
            glauber.sublattice_gap(window(16))

    def test_overflowed_block_system_gives_zero(self):
        # every window value 0.9 on the 3-d, R = 3 window: 343 classes, and M overflows
        values = np.full((7, 7, 7), 0.9)
        values[3, 3, 3] = 0.0
        rep = glauber.sublattice_gap(LatticeKernel(3, 3, values, "l1", TailModel()))
        assert (rep.value, rep.ell, rep.zeta, rep.norm_M) == (0.0, 7, 0.0, math.inf)

    def test_zero_kernel(self):
        k = LatticeKernel.from_dict(1, 1, {1: 0.0})
        rep = glauber.sublattice_gap(k)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.ell == 1

    def test_subcritical_reduces_to_simple_form(self):
        k = LatticeKernel.from_dict(1, 2, {1: 0.2, 2: 0.1})
        rep = glauber.sublattice_gap(k)
        assert rep.ell == 1
        assert rep.value == pytest.approx((1.0 - 0.6) ** 2, abs=1e-12)

    def test_supercritical_nearest_neighbor(self):
        rep = glauber.sublattice_gap(LatticeKernel.from_dict(1, 1, {1: 0.6}))
        assert rep.value > 0.0
        assert rep.ell == 3
        assert rep.zeta == 0.0

    def test_gap_dominates_sublattice_bound_on_ising_ring(self):
        from rhomix.lattice import IsingTorus, ising_epsilon, ising_exact

        torus = IsingTorus(1, 6, 4.0)
        rep = ising_epsilon(torus)
        bound = glauber.sublattice_gap(rep.kernel)
        gap = glauber.exact_gap(ising_exact(torus))
        assert gap >= bound.value - 1e-9

    def test_long_ring_fitted_rate_dominates_pipeline_bound(self):
        # high-temperature L = 64 ring: sublattice gap bound from the exact
        # ring kernel at every distance of the window (so no tail is
        # needed), fitted rate of the simulator above it
        from rhomix.lattice import IsingTorus, ising_epsilon

        T = 3.0
        small = ising_epsilon(IsingTorus(1, 10, T))  # subjective suprema over clamped contexts
        for d in range(1, 6):  # equal the closed form, which is thus the kernel the theorem takes
            assert small.kernel.value_at(d) == pytest.approx(ising_transfer_correlation(T, 10, d), abs=1e-12)
        L = 64
        entries = {d: ising_transfer_correlation(T, L, d) for d in range(1, L // 2 + 1)}
        bound = glauber.sublattice_gap(LatticeKernel.from_dict(1, L // 2, entries))
        sim = glauber.glauber_simulate_ising(IsingTorus(1, L, T), horizon=6_000.0, seed=2)
        assert bound.value >= 1e-3
        assert sim.rate_estimate >= bound.value

    @pytest.mark.parametrize("T", [8.0, 5.0, 3.5])
    def test_gap_theorem_on_a_2d_torus(self, T):
        # 3x3 torus, 512 states: subjective eps over all 36 site pairs
        from rhomix.lattice import IsingTorus, ising_epsilon, ising_exact

        torus = IsingTorus(2, 3, T)
        sys = ising_exact(torus)
        eps = np.zeros((9, 9))
        for i in range(9):
            for j in range(i + 1, 9):
                eps[i, j] = eps[j, i] = discrete.subjective_maxcorr(sys, i, j)
        rep = glauber.gap_lower_bounds(eps)
        gap = glauber.exact_gap(sys)
        assert gap >= rep.bound_M - 1e-9
        assert rep.bound_M >= rep.bound_simple - 1e-12
        assert gap >= glauber.sublattice_gap(ising_epsilon(torus).kernel).value - 1e-9


class TestSweep:
    def test_measured_bounds_hold_on_random_spin_systems(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            nspin = int(rng.integers(2, 6))
            joint = rng.dirichlet(np.ones(2**nspin)).reshape((2,) * nspin)
            sys = spin_system(joint)
            eps = np.zeros((nspin, nspin))
            for i in range(nspin):
                for j in range(i + 1, nspin):
                    eps[i, j] = eps[j, i] = discrete.subjective_maxcorr(sys, i, j)
            rep = glauber.gap_lower_bounds(eps)
            assert glauber.exact_gap(sys) >= rep.bound_M - 1e-9
