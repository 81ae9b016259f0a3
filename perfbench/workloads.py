"""The in-process workloads: seeded inputs, the operations on them, and their output checks.

Each workload is a list of ``Op``.  ``build`` generates every input from the
workload seed, so the same seed gives byte-identical inputs; sizes are fixed
per workload and only the values depend on the seed, which keeps the work
per run the same across seeds.  ``Op.run`` calls the library through module
attributes, so a ``spans.Tracer`` sees every call.  ``Op.check`` returns the
list of problems found in a result (empty when the result is correct).
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve

import rhomix.acceptance as acceptance
import rhomix.convdecay as convdecay
import rhomix.discrete as discrete
import rhomix.events as events
import rhomix.gaussian as gaussian
import rhomix.glauber as glauber
import rhomix.lattice as lattice
import rhomix.tensor_bounds as tensor_bounds

from stats import chi2_upper, dkw_epsilon

TOL = 1e-9            # slack for exact inequalities, as in the acceptance suite
ALPHA = 1e-6          # false-alarm level of each statistical check
Z_ALPHA = 4.75        # one-sided normal quantile at ALPHA

# Criterion 12 fails as documented in the README; it is counted as failed
# but does not make the run incorrect.
KNOWN_FAILURES = frozenset({"acceptance.check_12_hypocoercive"})


@dataclass
class Op:
    name: str
    run: object
    check: object
    inputs: dict = field(default_factory=dict)


def _problem(ok: bool, text: str) -> list:
    return [] if ok else [text]


def _lam(r: float) -> float:
    return r * (1.0 + abs(math.log(r))) if r > 0 else 0.0


def _random_system(rng, sizes, alpha=1.0) -> discrete.FiniteSystem:
    joint = rng.dirichlet(np.full(int(np.prod(sizes)), alpha)).reshape(sizes)
    return discrete.FiniteSystem(tuple((f"s{k}", s) for k, s in enumerate(sizes)), joint)


# ---------------------------------------------------------------------------
# acceptance: the 13 checks, the suite's own hard-coded seeds


def _acceptance_ops(rng) -> list:
    ops = []
    for fn in acceptance.ALL_CHECKS:
        name = fn.__name__

        def run(name=name):
            return getattr(acceptance, name)()  # threads unset: serial

        def check(res):
            return _problem(res.passed, f"FAIL ({res.detail})")

        ops.append(Op(f"acceptance.{name}", run, check))
    return ops


# ---------------------------------------------------------------------------
# oracles: exact oracles up to today's caps, no Monte Carlo

GAP_SHAPES = ((2,) * 8, (4,) * 5, (8, 8, 8, 4), (16, 16, 16))   # 2^8 .. 2^12 states
POOL_SIZES = (8, 9, 10, 11)
EVENT_SHAPES = ((8, 9), (10, 11), (12, 13))
BLOCK_SHAPES = ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3))
# Near-uniform laws keep the pairwise correlations well below 1, so bound_M
# stays far from 0 (about 0.2 to 0.9 on these shapes) and "gap >= bound_M"
# tests something; with alpha = 1 the bound is about 1e-12 on 8 spins.
GAP_ALPHA = 50.0


def _gap_op(sys_):
    def run():
        n = len(sys_.variables)
        eps = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            eps[i, j] = eps[j, i] = discrete.subjective_maxcorr(sys_, i, j)
        return glauber.exact_gap(sys_), glauber.gap_lower_bounds(eps)

    def check(res):
        gap, rep = res
        n = len(sys_.variables)
        return (_problem(gap >= rep.bound_M - TOL, f"exact gap {gap} < bound_M {rep.bound_M}")
                + _problem(rep.bound_M >= rep.bound_simple - TOL,
                           f"bound_M {rep.bound_M} < bound_simple {rep.bound_simple}")
                + _problem(0.0 < gap <= n + TOL, f"gap {gap} outside (0, {n}]"))

    return run, check


def _subjective_op(sys_, subsets):
    def run():
        return discrete.subjective_maxcorr(sys_, 0, 1)

    def check(value):
        plain = discrete.maxcorr_pair(sys_.pair([0], [1])).rho
        probs = _problem(plain <= value + TOL, f"subjective {value} < plain maxcorr {plain}")
        probs += _problem(value <= 1.0 + TOL, f"subjective {value} > 1")
        for sub in subsets:
            cond = discrete.conditional_maxcorr(sys_, 0, 1, list(sub))
            probs += _problem(cond <= value + TOL, f"subjective {value} < conditional {cond} on {sub}")
        return probs

    return run, check


def _event_op(pair):
    def run():
        return discrete.event_extremes(pair).max_ratio, discrete.maxcorr_pair(pair).rho

    def check(res):
        ratio, rho = res
        return (_problem(ratio <= rho + TOL, f"event ratio {ratio} > rho {rho}")
                + _problem(rho <= _lam(min(ratio, 1.0)) + TOL, f"rho {rho} > lambda(ratio {ratio})"))

    return run, check


def _block_op(sys_, xs, ys):
    def run():
        rho = discrete.maxcorr_blocks(sys_, xs, ys)
        eps = np.array([[discrete.subjective_maxcorr(sys_, x, y) for y in ys] for x in xs])
        zvals = {}
        for i in range(len(xs)):
            for j in range(len(ys)):
                z = j - i
                zvals[z] = max(zvals.get(z, 0.0), eps[i, j])
                zvals[-z] = max(zvals.get(-z, 0.0), eps[i, j])
        bounds = {"nm": tensor_bounds.nm_bound(eps), "zz": tensor_bounds.zz_bound(list(zvals.values()))}
        if len(ys) == 1:
            bounds["simple"] = tensor_bounds.simple_bound(eps[:, 0])
        return rho, bounds

    def check(res):
        rho, bounds = res
        probs = []
        for kind, value in bounds.items():
            probs += _problem(value >= rho - TOL, f"{kind} bound {value} < block maxcorr {rho}")
        single = max(discrete.maxcorr_pair(sys_.pair([x], [y])).rho for x in xs for y in ys)
        probs += _problem(single <= rho + TOL, f"block maxcorr {rho} < single pair {single}")
        return probs

    return run, check


def _gaussian_op(sys_, xs, ys):
    def run():
        return gaussian.maxcorr_gaussian(sys_, xs, ys)

    def check(rho):
        cov = sys_.cov
        sd = np.sqrt(np.diag(cov))
        corr = np.abs(cov / np.outer(sd, sd))[np.ix_(sys_.indices(xs), sys_.indices(ys))]
        return (_problem(float(corr.max()) <= rho + TOL, f"block maxcorr {rho} < pair corr {corr.max()}")
                + _problem(rho <= 1.0 + TOL, f"block maxcorr {rho} > 1"))

    return run, check


def _optimal_simple_op(eps):
    def run():
        sys_ = gaussian.build_optimal_simple(eps)
        xs = [l for l in sys_.labels if l != "Y"]
        return gaussian.maxcorr_gaussian(sys_, xs, ["Y"]), tensor_bounds.simple_bound(eps)

    def check(res):
        got, bound = res
        return _problem(abs(got - bound) <= TOL, f"optimal simple maxcorr {got} != simple bound {bound}")

    return run, check


def _ou_op(params):
    def run():
        return gaussian.ou_chain_joint(params)

    def check(rep):
        worst = max(float(c.max()) for c in (rep.corr_pp, rep.corr_pq, rep.corr_qp, rep.corr_qq))
        scale = max(1.0, float(np.abs(rep.ceq).max()))
        return (_problem(worst <= rep.maxcorr + TOL, f"ou maxcorr {rep.maxcorr} < coordinate corr {worst}")
                + _problem(rep.maxcorr <= 1.0 + TOL, f"ou maxcorr {rep.maxcorr} > 1")
                + _problem(rep.stationarity_residual <= 1e-8 * scale,
                           f"stationarity residual {rep.stationarity_residual}"))

    return run, check


def _conv_op(kernel):
    def run():
        return convdecay.conv_inverse(kernel)

    def check(b):
        n, R = kernel.n, b.R
        delta_a = np.zeros_like(b.values)
        delta_a[(slice(R - kernel.R, R + kernel.R + 1),) * n] = -kernel.values
        delta_b = b.values.copy()
        center = (R,) * n
        delta_a[center] += 1.0
        delta_b[center] += 1.0
        prod = fftconvolve(delta_a, delta_b)  # full: (delta - a) * (delta + b)
        prod[(2 * R,) * n] -= 1.0
        err = float(np.abs(prod).max())
        return _problem(err <= 1e-10, f"(delta - a) * (delta + B[a]) - delta = {err:.2e}")

    return run, check


def _oracles_ops(rng) -> list:
    ops = []
    for shape in GAP_SHAPES:
        sys_ = _random_system(rng, shape, GAP_ALPHA)
        ops.append(Op(f"oracles.exact_gap[{int(np.prod(shape))}]", *_gap_op(sys_), {"joint": sys_.joint}))
    for pool in POOL_SIZES:
        sys_ = _random_system(rng, (2,) * (pool + 2))
        subsets = [tuple(sorted(rng.choice(np.arange(2, pool + 2), size=k, replace=False).tolist()))
                   for k in (pool // 2, pool)]
        ops.append(Op(f"oracles.subjective[pool={pool}]", *_subjective_op(sys_, subsets),
                      {"joint": sys_.joint, "subsets": subsets}))
    for n, m in EVENT_SHAPES:
        pair = discrete.FinitePair.from_joint(rng.dirichlet(np.ones(n * m)).reshape(n, m))
        ops.append(Op(f"oracles.event_extremes[{n}x{m}]", *_event_op(pair), {"joint": pair.joint}))
    for nx, ny in BLOCK_SHAPES:
        sys_ = _random_system(rng, (3,) * (nx + ny))
        names = [v for v, _ in sys_.variables]
        ops.append(Op(f"oracles.blocks[{nx}x{ny}]", *_block_op(sys_, names[:nx], names[nx:]),
                      {"joint": sys_.joint}))
    a = rng.standard_normal((12, 12))
    labels = tuple([f"x{i}" for i in range(6)] + [f"y{i}" for i in range(6)])
    gsys = gaussian.GaussianSystem(labels, a @ a.T / 12.0 + 0.05 * np.eye(12))
    ops.append(Op("oracles.gaussian_blocks[6x6]", *_gaussian_op(gsys, labels[:6], labels[6:]),
                  {"cov": gsys.cov}))
    for k in range(3):
        eps = rng.uniform(0.0, 0.95, size=5)
        ops.append(Op(f"oracles.optimal_simple[{k}]", *_optimal_simple_op(eps), {"eps": eps}))
    params = gaussian.OUChainParams(K=32, t=float(rng.uniform(0.5, 2.0)))
    ops.append(Op("oracles.ou_chain[K=32]", *_ou_op(params), {"t": params.t}))
    for n, R, mass in ((1, 3, rng.uniform(0.3, 0.8)), (2, 1, rng.uniform(0.3, 0.7))):
        vals = rng.uniform(-1.0, 1.0, size=(2 * R + 1,) * n)
        vals *= mass / np.abs(vals).sum()
        kern = convdecay.ToeplitzKernel(n, R, vals)
        ops.append(Op(f"oracles.conv_inverse[n={n}]", *_conv_op(kern), {"values": vals}))
    return ops


# ---------------------------------------------------------------------------
# samplers: seeded Monte Carlo and sampling

SAMPLE_N = 50_000
OPNORM_GRIDS = (1024, 2048, 4096)
SIM_SPINS = (3, 4, 5)
SIM_EVENTS = 40_000


def _sample_op(model, n, seed):
    def run():
        return events.chogosov_sample(model, n, seed)

    def check(cloud):
        p, q, br = cloud[:, 0], cloud[:, 1], cloud[:, 2]
        e2 = model.eps ** 2
        q_lo = e2 * p / ((1.0 - p) + e2 * p)
        q_hi = p / (p + e2 * (1.0 - p))
        probs = _problem(np.isin(br, (-1.0, 0.0, 1.0)).all(), "branch code outside {-1, 0, 1}")
        probs += _problem(np.all(np.abs(q - q_lo)[br == -1] <= 1e-9), "lower-curve sample off the curve")
        probs += _problem(np.all(np.abs(q - q_hi)[br == 1] <= 1e-9), "upper-curve sample off the curve")
        probs += _problem(np.all((q >= q_lo - 1e-9) & (q <= q_hi + 1e-9)), "sample outside the zone")
        crit = dkw_epsilon(n, ALPHA / 2)
        grid = np.arange(1, n + 1) / n
        for col, name in ((p, "p"), (q, "q")):
            s = np.sort(col)
            ks = max(float(np.max(np.abs(s - grid))), float(np.max(np.abs(s - (grid - 1.0 / n)))))
            probs += _problem(ks < crit, f"KS of {name} {ks:.4f} >= {crit:.4f}")
        return probs

    return run, check


def _opnorm_op(model, m):
    def run():
        return events.chogosov_opnorm(model, m=m)

    def check(rep):
        lam = _lam(model.eps)
        return _problem(0.9 * lam <= rep.rho_hat <= lam * (1 + 1e-6),
                        f"rho_hat {rep.rho_hat} outside [{0.9 * lam}, {lam}]")

    return run, check


def _lambda_op(cases):
    def run():
        return [events.lambda_integral_identity(events.ChogosovModel(e), p).value for e, p in cases]

    def check(values):
        worst = max(abs(v - _lam(e)) for v, (e, _) in zip(values, cases))
        return _problem(worst <= 1e-8, f"lambda identity deviation {worst:.2e}")

    return run, check


def heat_bath_problems(sys_, horizon, sim) -> list:
    """Exact-law checks of a recorded trajectory.

    Every clock ring is recorded, so the event count is Poisson(N * horizon).
    Once every site has rung, the state is known; from then on the new value
    of each ringing site is a draw from its conditional law given the rest,
    which a pooled chi-square over (site, context) cells tests.
    """
    sizes = [s for _, s in sys_.variables]
    nsite = len(sizes)
    probs = []
    mu = nsite * horizon
    count = len(sim.times)
    probs += _problem(abs(count - mu) <= 6.0 * math.sqrt(mu), f"{count} events, expected {mu:.0f}")
    t = np.asarray(sim.times)
    probs += _problem(bool(np.all(np.diff(t) > 0)) and (t.size == 0 or 0 < t[0] and t[-1] <= horizon),
                      "event times not increasing inside (0, horizon]")
    state = [-1] * nsite
    counts: dict = {}
    for site, new in zip(sim.sites.tolist(), sim.new_states.tolist()):
        if -1 not in state:
            key = (site, tuple(state[:site] + state[site + 1:]))
            counts.setdefault(key, np.zeros(sizes[site]))[new] += 1
        state[site] = new
    stat, df = 0.0, 0
    for (site, ctx), obs in counts.items():
        sl = tuple(ctx[:site]) + (slice(None),) + tuple(ctx[site:])
        cond = sys_.joint[sl] / sys_.joint[sl].sum()
        exp = obs.sum() * cond
        if exp.min() < 5.0:
            continue
        stat += float(((obs - exp) ** 2 / exp).sum())
        df += sizes[site] - 1
    crit = chi2_upper(df, Z_ALPHA)
    probs += _problem(stat <= crit, f"heat-bath chi-square {stat:.1f} > {crit:.1f} (df {df})")
    return probs


def _sim_op(sys_, horizon, seed):
    def run():
        return glauber.glauber_simulate(sys_, horizon, seed=seed)

    def check(sim):
        return heat_bath_problems(sys_, horizon, sim)

    return run, check


def _sim_ising_op(torus, horizon, seed):
    def run():
        return glauber.glauber_simulate_ising(torus, horizon, seed=seed)

    def check(sim):
        return _problem(math.isfinite(sim.rate_estimate) and sim.rate_estimate > 0
                        and abs(sim.autocorr[0] - 1.0) <= 1e-9,
                        f"ising trajectory rate {sim.rate_estimate}, c(0) {sim.autocorr[0]}")

    return run, check


def _mcmc_op(torus, sweeps, seed):
    def run():
        return lattice.ising_mcmc_samples(torus, sweeps=sweeps, thin=1, seed=seed)

    def check(samples):
        if samples.shape != (sweeps, torus.L) or not np.isin(samples, (-1.0, 1.0)).all():
            return [f"mcmc samples of shape {samples.shape} or not +-1"]
        th = math.tanh(1.0 / torus.T)
        L = torus.L
        exact = (th + th ** (L - 1)) / (1.0 + th ** L)
        nn = (samples * np.roll(samples, -1, axis=1)).mean(axis=1)
        batches = nn.reshape(20, -1).mean(axis=1)
        se = float(batches.std(ddof=1)) / math.sqrt(batches.size)
        est = float(nn.mean())
        return _problem(abs(est - exact) <= 6.0 * se + 1e-12,
                        f"mcmc neighbour correlation {est:.4f} vs exact {exact:.4f} (se {se:.4f})")

    return run, check


def _clt_op(torus, ells, replicas, seed):
    def run():
        return lattice.clt_experiment(torus, ells, replicas=replicas, seed=seed)

    def check(rep):
        th = math.tanh(1.0 / torus.T)
        probs = []
        for ell, s2 in zip(ells, rep.sigma_hat2_by_block):
            exact = 1.0 + 2.0 * sum((1.0 - d / ell) * th ** d for d in range(1, ell))
            tol = 7.0 * exact * math.sqrt(2.0 / (replicas - 1))
            probs += _problem(abs(s2 - exact) <= tol, f"block variance {s2:.4f} at {ell} vs exact {exact:.4f}")
        probs += _problem(all(0.0 <= d <= 2.0 for d in rep.cf_distances), "cf distance outside [0, 2]")
        return probs

    return run, check


def _nu_op(model, seed):
    def run():
        return events.nu_event_ratio(model, seed=seed)

    def check(rep):
        return _problem(rep.worst_ratio <= rep.factor + 2.0 / model.m,
                        f"nu worst ratio {rep.worst_ratio} > factor {rep.factor} + 2/m")

    return run, check


def _samplers_ops(rng) -> list:
    def seed():
        return int(rng.integers(2**31))

    ops = []
    model = events.ChogosovModel(float(rng.uniform(0.3, 0.7)))
    s = seed()
    ops.append(Op(f"samplers.chogosov_sample[{SAMPLE_N}]", *_sample_op(model, SAMPLE_N, s),
                  {"eps": model.eps, "seed": s}))
    for m in OPNORM_GRIDS:
        eps = 0.5 if m == OPNORM_GRIDS[-1] else float(rng.uniform(0.3, 0.8))
        ops.append(Op(f"samplers.chogosov_opnorm[{m}]", *_opnorm_op(events.ChogosovModel(eps), m),
                      {"eps": eps}))
    cases = [(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.1, 0.9))) for _ in range(6)]
    ops.append(Op("samplers.lambda_integral_identity", *_lambda_op(cases), {"cases": cases}))
    for nspin in SIM_SPINS:
        sys_ = _random_system(rng, (2,) * nspin)
        s = seed()
        ops.append(Op(f"samplers.glauber_simulate[{nspin}]", *_sim_op(sys_, SIM_EVENTS / nspin, s),
                      {"joint": sys_.joint, "seed": s}))
    s = seed()
    ops.append(Op("samplers.glauber_simulate_ising[L=8]",
                  *_sim_ising_op(lattice.IsingTorus(1, 8, 2.0), 2000.0, s), {"seed": s}))
    s = seed()
    ops.append(Op("samplers.ising_mcmc[L=16]", *_mcmc_op(lattice.IsingTorus(1, 16, 2.0), 2000, s),
                  {"seed": s}))
    s = seed()
    ops.append(Op("samplers.clt", *_clt_op(lattice.IsingTorus(1, 8, 3.0), (8, 16, 32), 10_000, s),
                  {"seed": s}))
    s = seed()
    ops.append(Op("samplers.nu_event_ratio", *_nu_op(events.NuModel(0.5, 0.02, 512), s), {"seed": s}))
    return ops


BUILDERS = {"acceptance": _acceptance_ops, "oracles": _oracles_ops, "samplers": _samplers_ops}


def build(workload: str, seed: int) -> list:
    """The workload's operations on inputs generated from ``seed``."""
    return BUILDERS[workload](np.random.default_rng(seed))


def inputs_digest(ops) -> str:
    """sha256 over every op's name and inputs, for the same-seed determinism test."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.name.encode())
        for key in sorted(op.inputs):
            h.update(key.encode())
            value = op.inputs[key]
            h.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return h.hexdigest()
