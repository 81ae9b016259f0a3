"""The acceptance suite: one callable per criterion, shared by pytest and the CLI.

``_check`` registers each check in ALL_CHECKS, times it and builds its
CheckResult; ``run_all`` executes a selection and prints one pass/fail line
per criterion.  Each check imports the rhomix modules it runs in its own
body, so a selection loads only the modules of its checks.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .discrete import FinitePair, FiniteSystem

TOL = 1e-9
SWEEP_CHUNK = 25  # random systems whose tables the sweeps of criteria 3, 7 and 8 score together


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


ALL_CHECKS: list = []  # filled by _check


def _check(name: str, budget_s: float = math.inf):
    """Register a check body in ALL_CHECKS and time it.

    The body returns (passed, detail).  The check returns a CheckResult that
    fails past ``budget_s`` seconds and whose detail ends in the elapsed time.
    """
    def register(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            t0 = time.perf_counter()
            passed, detail = body()
            elapsed = time.perf_counter() - t0
            over = elapsed >= budget_s
            detail += f"; {elapsed:.2f}s" + (f", over the {budget_s:g}s budget" if over else "")
            return CheckResult(name, passed and not over, detail, elapsed)

        ALL_CHECKS.append(check)
        ALL_CHECKS.sort(key=lambda fn: fn.__name__)  # criterion order: check_01 .. check_13
        return check

    return register


# ---------------------------------------------------------------------------
# criterion 1: the worked 3x3 mixing example


@_check("01 worked example", budget_s=1.0)
def check_01_worked_example():
    from . import gaussian

    rep = gaussian.par411_report()
    errs = {
        "x1_y": abs(rep["x1_y"] - 0.5),
        "x2_y": abs(rep["x2_y"] - 0.5),
        "x1_y_given_x2": abs(rep["x1_y_given_x2"] - 1.0 / 3.0),
        "vec_y": abs(rep["vec_y"] - 1.0 / math.sqrt(3.0)),
        "l2_sum_bound": abs(rep["l2_sum_bound"] - 1.0 / math.sqrt(2.0)),
        "vtable": float(np.abs(rep["vtable"] - np.array([[40.5, 13.5], [24.0, 12.0]])).max()),
    }
    for mix, expect in (
        ([[1.0, 0, 0], [-1, 1, 0], [1, 1, 1]], [[0.0, 1.0], [1.0 / 6.0, 0.5]]),
        ([[1.0, 0, 1], [0, 1, -1], [0, 0, 1]], [[0.5, 1.5], [1.0, 1.0]]),
    ):
        errs[f"vtable_{expect[0][0]}"] = float(
            np.abs(gaussian.vtable(np.array(mix)) - np.array(expect)).max()
        )
    worst = max(errs.values())
    return worst <= 1e-10, f"max err {worst:.2e}"


# ---------------------------------------------------------------------------
# criterion 2: closed forms


def _membership_pair(n: int, p: int) -> FinitePair:
    from .discrete import FinitePair

    xs = list(itertools.combinations(range(n), p))
    joint = np.zeros((len(xs), n))
    for a, x in enumerate(xs):
        for y in x:
            joint[a, y] = 1.0
    return FinitePair.from_joint(joint / joint.sum())


def _membership_twostep_pair(n: int, p: int) -> FinitePair:
    """Joint of (Y, Y') for the resampling chain Y -> X -> Y', from counts."""
    from .discrete import FinitePair

    P = np.empty((n, n))
    same = 1.0 / p
    other = (p - 1.0) / (p * (n - 1.0))
    P.fill(other)
    np.fill_diagonal(P, same)
    return FinitePair.from_joint(P / n)


@_check("02 closed forms")
def check_02_closed_forms():
    from . import discrete
    from .discrete import FinitePair

    worst = 0.0
    details = []
    for n, p in ((5, 2), (10, 3), (50, 7)):
        expect = math.sqrt((n - p) / (p * (n - 1.0)))
        rho2 = discrete.maxcorr_pair(_membership_twostep_pair(n, p)).rho
        err = abs(math.sqrt(rho2) - expect)
        if n <= 10:
            err = max(err, abs(discrete.maxcorr_pair(_membership_pair(n, p)).rho - expect))
        worst = max(worst, err)
        details.append(f"({n},{p}) err {err:.1e}")
    for alpha in (-0.1, 0.0, 1.0 / 18.0):
        joint = np.array(
            [
                [2 / 9, 1 / 18, 1 / 18],
                [1 / 18, 2 / 9 + alpha, 1 / 18 - alpha],
                [1 / 18, 1 / 18 - alpha, 2 / 9 + alpha],
            ]
        )
        expect = 0.5 + 6.0 * max(alpha, 0.0)
        err = abs(discrete.maxcorr_pair(FinitePair.from_joint(joint)).rho - expect)
        worst = max(worst, err)
    return worst <= 1e-12, f"max err {worst:.2e}; " + ", ".join(details)


# ---------------------------------------------------------------------------
# criteria 3, 4, 7: random-system sweeps


def _sweep_system(seed: int) -> tuple:
    """The seed-th random system of criteria 3 and 7, as (sys, xs, ys)."""
    from . import discrete

    rng = np.random.default_rng(1000 + seed)
    nx = int(rng.integers(1, 4))
    ny = int(rng.integers(1, 4))
    return discrete.random_system(rng, nx, ny, max_alpha=3)


def _scored_sweep(count: int, make_system, stacks_of, score):
    """Yield (system, maxima) for make_system(0), ..., make_system(count - 1), where maxima[t]
    is the largest score over the tables of the t-th (k, n, m) stack of stacks_of(system).

    SWEEP_CHUNK systems are built at a time.  Their stacks are grouped by table shape,
    each group is scored by one call of ``score`` (one value per table), and each stack
    keeps its maximum (np.maximum.reduceat).
    """
    for lo in range(0, count, SWEEP_CHUNK):
        systems = [make_system(k) for k in range(lo, min(lo + SWEEP_CHUNK, count))]
        per_system = [stacks_of(system) for system in systems]
        stacks = [stack for own in per_system for stack in own]
        maxima = np.empty(len(stacks))
        groups = {}
        for s, stack in enumerate(stacks):
            groups.setdefault(stack.shape[1:], []).append(s)
        for members in groups.values():
            starts = np.cumsum([0] + [len(stacks[s]) for s in members[:-1]])
            maxima[members] = np.maximum.reduceat(score(np.concatenate([stacks[s] for s in members])), starts)
        yield from zip(systems, np.split(maxima, np.cumsum([len(own) for own in per_system])[:-1]))


def _subjective_stacks(sys: FiniteSystem, pairs) -> list:
    """The _metalgebra_stack of each pair (i, j): subjective_maxcorr(sys, i, j) is the largest
    maximal correlation of its tables (the sweep systems are far below STATE_CAP)."""
    from . import discrete

    stacks = []
    for x, y in pairs:
        i, j, pool = discrete.subjective_pool(sys, x, y)
        stacks.append(discrete._metalgebra_stack(sys.marginal(pool + [i, j])))
    return stacks


def _tensor_stacks(system: tuple) -> list:
    """Criterion 3's stacks of a sweep system: one per (x, y) in xs x ys, in row-major order."""
    sys, xs, ys = system
    return _subjective_stacks(sys, itertools.product(xs, ys))


def _bound_slacks(sys: FiniteSystem, xs, ys, eps: np.ndarray) -> tuple:
    """(nm, simple, zz) bound on the measured eps minus the exact block maxcorr; simple needs ny == 1, else inf."""
    from . import discrete, tensor_bounds

    rho = discrete.maxcorr_blocks(sys, xs, ys)
    simple = tensor_bounds.simple_bound(eps[:, 0]) - rho if len(ys) == 1 else np.inf
    # symmetrized Z-against-Z profile dominating every measured pair
    zvals = {}
    for (i, j), e in np.ndenumerate(eps):
        for z in (j - i, i - j):
            zvals[z] = max(zvals.get(z, 0.0), e)
    return tensor_bounds.nm_bound(eps) - rho, simple, tensor_bounds.zz_bound(list(zvals.values())) - rho


def _event_tables(system: tuple) -> list:
    """Criterion 7's tables of a sweep system, each a stack of one: every single X against
    single Y, and the full blocks when both sides have <= 10 states."""
    sys, xs, ys = system
    tables = [sys.marginal([x, y]) for x in xs for y in ys]
    blocks = sys.marginal(xs + ys)
    nx = math.prod(blocks.shape[:len(xs)])
    if max(nx, blocks.size // nx) <= 10:
        tables.append(blocks.reshape(nx, -1))
    return [table[None] for table in tables]


def _event_maxima(tables: np.ndarray) -> np.ndarray:
    """event_extremes' max_ratio of each table of a (K, n, m) stack, by the whole scan."""
    from . import discrete

    _, n, m = tables.shape
    joint = tables / tables.sum(axis=(1, 2), keepdims=True)
    return np.fmax(discrete._event_ratio_scan(joint, discrete._half_masks(n), discrete._half_masks(m))[0], 0.0)


def _event_violations(tables: np.ndarray) -> np.ndarray:
    """Breach of ratio <= rho <= lambda(ratio) of each table of a (K, n, m) stack, with ratio
    its largest event ratio and rho its maximal correlation."""
    from . import discrete, events

    ratio, rho = _event_maxima(tables), discrete._batch_maxcorr(tables)
    lam = np.array([events.lambda_fn(min(r, 1.0)) for r in ratio])
    return np.maximum(ratio - rho, rho - lam)


@_check("03 tensorization sweep", budget_s=300.0)
def check_03_tensor_sweep():
    from . import discrete

    sweep = _scored_sweep(500, _sweep_system, _tensor_stacks, discrete._batch_maxcorr)
    worst = min(min(_bound_slacks(*system, eps.reshape(len(system[1]), -1))) for system, eps in sweep)
    return worst >= -TOL, f"500 systems, worst slack {worst:.2e}"


@_check("04 independent tensorization")
def check_04_independent_tensorization():
    from . import discrete

    def one(seed: int) -> float:
        rng = np.random.default_rng(4000 + seed)
        sys, per_pair = discrete.product_pair_system(rng, int(rng.integers(1, 4)))
        xs = [n for n, _ in sys.variables if n.startswith("X")]
        ys = [n for n, _ in sys.variables if n.startswith("Y")]
        return abs(discrete.maxcorr_blocks(sys, xs, ys) - max(per_pair))

    worst = max(one(k) for k in range(100))
    return worst <= TOL, f"worst |equality gap| {worst:.2e}"


@_check("07 event criteria")
def check_07_event_criteria():
    from . import events

    worst = max(v.max() for _, v in _scored_sweep(500, _sweep_system, _event_tables, _event_violations))
    m = 512
    nu = events.nu_event_ratio(events.NuModel(0.5, 0.02, m))
    ok = worst <= TOL and nu.worst_ratio <= nu.factor + 2.0 / m
    return ok, (f"worst chain violation {worst:.2e}; nu ratio {nu.worst_ratio:.4f} vs "
                f"factor {nu.factor:.4f} + {2.0 / m:.4f}")


# ---------------------------------------------------------------------------
# criterion 5: Gaussian optimality


@_check("05 gaussian optimality")
def check_05_gaussian_optimality():
    from . import gaussian, tensor_bounds

    def one(seed: int) -> float:
        rng = np.random.default_rng(5000 + seed)
        eps = rng.uniform(0.0, 0.95, size=int(rng.integers(1, 6)))
        sys = gaussian.build_optimal_simple(eps)
        xs = [l for l in sys.labels if l != "Y"]
        got = gaussian.maxcorr_gaussian(sys, xs, ["Y"])
        return abs(got - tensor_bounds.simple_bound(eps))

    worst = max(one(k) for k in range(50))
    k = 64
    rep = gaussian.build_banded_zz(1.0, k)
    banded_err = abs(rep.maxcorr - 2.0 / 3.0)
    return (worst <= TOL and banded_err <= 2.0 / k,
            f"worst simple-bound gap {worst:.2e}; banded window error {banded_err:.2e} <= {2.0 / k:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: the Chogosov suite


@_check("06 chogosov suite", budget_s=120.0)
def check_06_chogosov():
    from . import events

    n = 100_000
    model = events.ChogosovModel(0.5)
    cloud = events.chogosov_sample(model, n, seed=7)
    crit = 1.63 / math.sqrt(n)  # 1% critical value
    ks = 0.0
    for col in (0, 1):
        s = np.sort(cloud[:, col])
        grid = np.arange(1, n + 1) / n
        ks = max(ks, float(np.max(np.abs(s - grid))), float(np.max(np.abs(s - (grid - 1.0 / n)))))
    lam_dev = 0.0
    for eps in (0.2, 0.5, 0.8):
        md = events.ChogosovModel(eps)
        lam = events.lambda_fn(eps)
        for p in (0.1, 0.5, 0.9):
            lam_dev = max(lam_dev, abs(events.lambda_integral_identity(md, p).value - lam))
    lstar = max(events.lstar_identity(events.ChogosovModel(e), [0.05, 0.3, 1.0]) for e in (0.2, 0.5, 0.8))
    rep = events.chogosov_opnorm(events.ChogosovModel(0.5), m=1 << 16)
    lam05 = events.lambda_fn(0.5)
    opnorm_ok = 0.985 * lam05 <= rep.rho_hat <= lam05 * (1 + 1e-6)
    ok = ks < crit and lam_dev <= 1e-8 and lstar < 1e-12 and opnorm_ok
    return ok, (f"KS {ks:.4f} < {crit:.4f}; lambda dev {lam_dev:.1e}; L* residual {lstar:.1e}; "
                f"rho_hat {rep.rho_hat:.4f} in [{0.985 * lam05:.4f}, {lam05:.4f}]")


# ---------------------------------------------------------------------------
# criterion 8: Glauber gaps


def _spin_system(seed: int) -> FiniteSystem:
    """The seed-th random spin system of criterion 8: 2 to 5 binary spins."""
    from .discrete import FiniteSystem

    rng = np.random.default_rng(8000 + seed)
    nspin = int(rng.integers(2, 6))
    joint = rng.dirichlet(np.ones(2**nspin)).reshape((2,) * nspin)
    return FiniteSystem(tuple((f"s{k}", 2) for k in range(nspin)), joint)


def _spin_stacks(sys: FiniteSystem) -> list:
    """Criterion 8's stacks of a spin system: one per spin pair i < j, in row-major order."""
    return _subjective_stacks(sys, itertools.combinations(range(len(sys.variables)), 2))


def _gap_slacks(sys: FiniteSystem, pair_eps: np.ndarray) -> tuple:
    """(gap - bound_M, bound_M - bound_simple, gap / bound_M), pair_eps the subjective
    maxcorr of each spin pair i < j in row-major order."""
    from . import glauber

    nspin = len(sys.variables)
    eps = np.zeros((nspin, nspin))
    eps[np.triu_indices(nspin, 1)] = pair_eps
    eps += eps.T
    rep = glauber.gap_lower_bounds(eps)
    gap = glauber.exact_gap(sys)
    return gap - rep.bound_M, rep.bound_M - rep.bound_simple, gap / rep.bound_M


SIM_REPLICAS = 50_000  # criterion 8's independent stationary chains
SIM_Z = 5.10  # two-sided, Bonferroni over the 3 lags: a false alarm once in 10^6 honest runs


@_check("08 glauber", budget_s=600.0)
def check_08_glauber():
    from . import discrete, glauber
    from .discrete import FiniteSystem

    rows = [_gap_slacks(*row) for row in _scored_sweep(200, _spin_system, _spin_stacks, discrete._batch_maxcorr)]
    worst_gap = min(r[0] for r in rows)
    worst_nest = min(r[1] for r in rows)
    tightest = min(r[2] for r in rows)  # recorded, never asserted: bound_M is not known to be tight
    prod = FiniteSystem(
        (("a", 2), ("b", 2), ("c", 2)), np.full((2, 2, 2), 1.0 / 8.0)
    )
    gap_prod = glauber.exact_gap(prod)
    # simulator vs exact gap on a 3-spin system, observable f = the slow eigenmode: E f = 0
    # and E f^2 = 1, so E f(X_0) f(X_t) = exp(-gap t) at 0.5, 1 and 2 relaxation times
    rng = np.random.default_rng(88)
    joint = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
    sys3 = FiniteSystem((("a", 2), ("b", 2), ("c", 2)), joint)
    gap3, mode = glauber.exact_gap(sys3, return_vector=True)
    lags = np.array([0.5, 1.0, 2.0]) / gap3
    corr, se = glauber._replica_correlation(sys3, mode, lags, SIM_REPLICAS, seed=11)
    sim_z = float(np.max(np.abs(corr - np.exp(-gap3 * lags)) / se))
    ok = worst_gap >= -TOL and worst_nest >= -TOL and abs(gap_prod - 1.0) <= 1e-9 and sim_z <= SIM_Z
    return ok, (f"worst gap slack {worst_gap:.2e}; worst bound nesting {worst_nest:.2e}; "
                f"tightest gap/bound ratio {tightest:.2f}; product gap err {abs(gap_prod - 1):.1e}; "
                f"sim corr max |z| {sim_z:.2f} <= {SIM_Z:.2f} over {SIM_REPLICAS} replicas")


# ---------------------------------------------------------------------------
# criterion 9 and 10: quadratic model and convolution inverses


@_check("09 quadratic model")
def check_09_quadratic():
    from . import lattice
    from .convdecay import ToeplitzKernel, decay_fit

    gam = ToeplitzKernel.from_dict(1, 1, {1: 0.2, -1: 0.2})
    model = lattice.QuadraticModel(1, gam)
    rep = lattice.quadratic_rho_report(model)
    cov = rep.covariance
    sum_err = abs(cov.window_sum - 1.0) + cov.truncation_mass
    eps_ok = rep.eps_sum_offcenter <= model.Gamma + TOL
    a0_ok = cov.a_inv_center >= 1.0 / (1.0 + model.Gamma) - 1e-12
    # decay-class preservation
    R = 46
    zs = np.arange(-R, R + 1)
    fits = []
    for vals in (0.3 * np.exp(-0.7 * np.abs(zs)), 0.4 / (1.0 + np.abs(zs)) ** 3):
        vals[R] = 0.0  # no self-coupling: a valid quadratic model
        cov_v = lattice.quadratic_covariance(lattice.QuadraticModel(1, ToeplitzKernel(1, R, vals)))
        fits.append(decay_fit(cov_v.a_inv, max_shell=R))
    fit_e, fit_p = fits
    decay_ok = (
        fit_e.classification == "exponential"
        and fit_e.rate <= 0.7 + 1e-6
        and fit_p.classification == "polynomial"
        and abs(fit_p.exponent - 3.0) <= 0.3
    )
    ok = sum_err <= 1e-10 and eps_ok and a0_ok and decay_ok
    return ok, (f"sum-to-one err {sum_err:.1e}; eps mass {rep.eps_sum_offcenter:.3f} <= {model.Gamma}; "
                f"exp rate {fit_e.rate:.3f} <= 0.7; poly exponent {fit_p.exponent:.2f}")


@_check("10 convolution inverses")
def check_10_conv_exact():
    from .convdecay import ToeplitzKernel, banded_inverse_constants, conv_inverse

    a = ToeplitzKernel.from_dict(1, 1, {1: math.exp(-1.0)})
    b = conv_inverse(a)
    worst = 0.0
    for z in range(-40, 41):
        expect = math.exp(-z) if z > 0 else 0.0
        worst = max(worst, abs(b.value_at((z,)) - expect))
    rng = np.random.default_rng(10)
    bound_ok = True
    for _ in range(50):
        n = 50
        gamma = rng.uniform(0.3, 1.5)
        amp = rng.uniform(0.05, 0.5)
        idx = np.arange(n)
        H = rng.uniform(-1, 1, size=(n, n)) * amp * np.exp(-gamma * np.abs(idx[:, None] - idx[None, :]))
        H = 0.5 * (H + H.T)
        w = np.linalg.eigvalsh(H)
        scale = 0.9 / max(abs(w.min()), abs(w.max()), 1e-9)
        H *= min(1.0, scale)
        M = np.eye(n) - H
        w = np.linalg.eigvalsh(M)
        r, R = float(w.min()), float(w.max())
        A = float(np.max(np.abs(M) * np.exp(gamma * np.abs(idx[:, None] - idx[None, :]))))
        consts = banded_inverse_constants(r, R, A, gamma)
        inv = np.linalg.inv(M)
        envelope = consts.A_out * np.exp(-consts.gamma_out * np.abs(idx[:, None] - idx[None, :]))
        if (np.abs(inv) > envelope * (1 + 1e-9)).any():
            bound_ok = False
    return (worst <= 1e-12 and bound_ok,
            f"geometric-inverse max err {worst:.2e}; banded envelope held on 50 matrices: {bound_ok}")


# ---------------------------------------------------------------------------
# criterion 11: the Ising CLT


@_check("11 ising clt")
def check_11_clt():
    from . import lattice

    model = lattice.IsingTorus(1, 8, 3.0)
    rep = lattice.clt_experiment(model, (8, 16, 32), replicas=10_000, seed=3)
    decreasing = rep.cf_distances[0] > rep.cf_distances[1] > rep.cf_distances[2]
    sig_err = abs(rep.sigma_hat2 - rep.sigma2_limit) / rep.sigma2_limit
    ok = decreasing and rep.cf_distances[-1] < 0.05 and sig_err <= 0.05
    return ok, (f"cf distances {tuple(round(d, 4) for d in rep.cf_distances)} decreasing={decreasing}; "
                f"sigma2 rel err {100 * sig_err:.1f}%")


# ---------------------------------------------------------------------------
# criterion 12: hypocoercive chain


@_check("12 hypocoercive chain", budget_s=60.0)
def check_12_hypocoercive():
    """Criterion 12: the damped harmonic chain contracts strictly,
    {eta_0 : eta_t} < 1 at every horizon t.

    Noise and friction act on the momenta only, so the contraction is weak
    at short horizons.  For the slowest mode, the uniform mode of frequency
    omega, the whitened noise covariance ceq^{-1/2} Chat ceq^{-1/2} is to
    leading order

        lam [[2 t, omega t^2], [omega t^2, (2/3) omega^2 t^3]]

    (its three coefficients are the ones checked here by Richardson
    extrapolation).  Its smallest eigenvalue is lam omega^2 t^3 / 6 + ...,
    and it equals 1 - rho^2, hence

        1 - rho(t) = lam omega^2 t^3 / 12 * (1 + O(t^2)).

    A fixed margin 1 - rho >= 1e-3 therefore needs t of about 0.23 or more.
    The check requires: the Richardson coefficients within 2%; at t = 0.01
    and 0.1, (1 - rho) / (lam omega^2 t^3 / 12) within 1e-2 of 1, which pins
    rho from both sides; rho(1) < 1 - 1e-3; under 60 s.
    """
    from . import gaussian

    params = gaussian.OUChainParams(K=16, t=0.05)
    co = gaussian.ou_smallt_coefficients(params, 0.05)
    rich_err = max(
        abs(co["pp"] / co["pp_expected"] - 1.0),
        abs(co["pq"] / co["pq_expected"] - 1.0),
        abs(co["qq"] / co["qq_expected"] - 1.0),
    )
    contraction_ok = True
    parts = []
    for t in (0.01, 0.1, 1.0):
        p = gaussian.OUChainParams(K=16, t=t)
        rho = gaussian.ou_chain_joint(p).maxcorr
        law = p.lam * p.omega**2 * t**3 / 12.0
        ratio = (1.0 - rho) / law
        if t < 1.0:
            passed, band = abs(ratio - 1.0) <= 1e-2, "ratio 1 +- 0.01"
        else:
            passed, band = rho < 1.0 - 1e-3, "rho < 0.999"
        contraction_ok = contraction_ok and passed
        parts.append(f"t={t:g}: 1-rho {1.0 - rho:.3e}, law {law:.3e}, ratio {ratio:.5f} (needs {band})")
    return rich_err <= 0.02 and contraction_ok, f"Richardson rel err {rich_err:.2e}; " + "; ".join(parts)


# ---------------------------------------------------------------------------
# criterion 13: three lines


@_check("13 three lines")
def check_13_three_lines():
    from . import gaussian

    rng = np.random.default_rng(13)
    sin_g, sin_a = np.empty((0, 3)), np.empty((0, 3))
    while len(sin_g) < 10_000:  # keep draws with every pairwise sine >= 1e-3, in draw order
        u = rng.standard_normal((10_000 - len(sin_g), 3, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        g, a = gaussian._line_sines(u)
        keep = g.min(axis=1) >= 1e-3
        sin_g, sin_a = np.concatenate([sin_g, g[keep]]), np.concatenate([sin_a, a[keep]])
    ratios = sin_a / sin_g
    worst_spread = float((ratios.max(axis=1) - ratios.min(axis=1)).max())
    r = ratios[:, :1]
    geo, app = np.arcsin(np.minimum(sin_g, 1.0)), np.arcsin(np.minimum(sin_a, 1.0))
    consistent = not np.any(((r < 1 - 1e-12) & (app > geo + 1e-12)) | ((r > 1 + 1e-12) & (app < geo - 1e-12)))
    return (worst_spread <= 1e-10 and consistent,
            f"worst sine-ratio spread {worst_spread:.2e} on 10^4 triples; orders consistent: {consistent}")


def run_all(only=None, out=print):
    results = []
    for fn in ALL_CHECKS:
        name = fn.__name__.replace("check_", "")
        if only and not any(sel in name for sel in only):
            continue
        res = fn()
        results.append(res)
        out(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    return results
