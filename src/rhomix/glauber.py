"""Spectral-gap lower bounds for single-site heat-bath dynamics.

The Dirichlet form is E(f,f) = sum_i E[Var(f | all other sites)] and the gap
is the smallest nonzero eigenvalue of the associated positive-semidefinite
operator on mean-zero functions in L2(Pr).  From a matrix of pairwise
subjective correlation bounds eps_ij < 1 the dynamics has gap at least
||M||^-2 with M = (unit upper triangular with -eps~ entries)^-1 diag(1~),
and the weaker forms ||(I - eps)^-1||^-2 and (1 - ||eps||)_+^2.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .discrete import FiniteSystem
from .errors import CapExceededError, IntegratorError, ValidationError

if TYPE_CHECKING:
    from .tensor_bounds import LatticeKernel, SublatticeK

EXACT_GAP_STATE_CAP = 1 << 12
DENSE_GAP_STATES = 128  # exact_gap's eigh up to here, eigsh above: 4 vs 12 ms on 7 spins, a tie on 8 (2 cores)
SIM_EVENT_CAP = 1 << 22  # expected clock rings N * horizon of one simulator trajectory
_SIM_CHUNK = 1 << 16  # rings per pass of glauber_simulate's integer loop
_ACF_BLOCK = (1 << 18) - 8192  # samples per FFT block of _autocorrelation: 2^18-point FFTs at 8000 lags
SUBLATTICE_BLOCK_CAP = 1 << 10  # classes of sublattice_gap's block system (eps_block is its square)
ISING_BURN_SWEEPS = 200  # MCMC sweeps before glauber_simulate_ising's trajectory starts
ISING_SAMPLE_DT = 0.25  # glauber_simulate_ising's sampling step
_NO_EVENTS = (np.empty(0), np.empty(0, dtype=int), np.empty(0, dtype=int))  # SimResult without events


@dataclass(frozen=True)
class GapBoundReport:
    M_matrix: np.ndarray
    Mprime_matrix: np.ndarray | None
    bound_M: float
    bound_Mprime: float | None
    bound_simple: float
    mprime_defined: bool


def _check_eps_matrix(eps) -> np.ndarray:
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 2 or eps.shape[0] != eps.shape[1]:
        raise ValidationError("gap_lower_bounds: eps must be a square matrix")
    if not np.isfinite(eps).all():
        raise ValidationError("gap_lower_bounds: eps entries must be finite numbers")
    if np.abs(eps - eps.T).max() > 1e-12:
        raise ValidationError("gap_lower_bounds: eps must be symmetric")
    eps = 0.5 * (eps + eps.T)
    np.fill_diagonal(eps, 0.0)
    if eps.size and (eps.min() < 0 or eps.max() > 1):
        raise ValidationError("gap_lower_bounds: eps entries must lie in [0, 1]")
    return eps


def _top_singular_value(a: np.ndarray, name: str) -> float:
    """Largest singular value of a; an SVD that does not converge is an IntegratorError."""
    try:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise IntegratorError(f"gap_lower_bounds: SVD of {name} did not converge ({exc})") from None


def gap_lower_bounds(eps) -> GapBoundReport:
    """Three nested spectral-gap lower bounds from pairwise correlation bounds.

    Every entry of eps~ and ones~ is non-negative, so M = U^-1 diag(ones~) =
    sum_k eps~^k diag(ones~) is a sum of non-negative terms.  An entry of M
    that is not finite has therefore overflowed: ||M|| > 1e308, ||M||^-2
    rounds to 0, and bound_M is 0 without an SVD.
    """
    e = _check_eps_matrix(eps)
    n = e.shape[0]
    off = e[~np.eye(n, dtype=bool)]
    if off.size and off.max() >= 1.0:
        raise ValidationError("gap_lower_bounds: M is undefined when some eps_ij = 1")
    # ones~_i = 1 / prod_{j > i} (1 - eps_ij^2); eps~_ij = eps_ij / prod_{i<j'<=j} (1 - eps_ij'^2)
    ones_t = np.ones(n)
    eps_t = np.zeros((n, n))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # an overflow gives bound_M = 0
        for i in range(n):
            prod = 1.0
            for j in range(i + 1, n):
                prod *= 1.0 - e[i, j] ** 2
                eps_t[i, j] = e[i, j] / prod
            ones_t[i] = 1.0 / prod
        U = np.eye(n) - eps_t  # unit upper triangular with -eps~ above the diagonal
        M = np.linalg.solve(U, np.diag(ones_t))
    if np.isfinite(M).all():
        norm_M = _top_singular_value(M, "M")
        bound_M = norm_M**-2 if norm_M > 0 else 1.0
    else:
        bound_M = 0.0
    opnorm = _top_singular_value(e, "eps")
    rho = float(np.max(np.abs(np.linalg.eigvals(e)))) if n else 0.0
    bound_simple = max(0.0, 1.0 - opnorm) ** 2
    if rho < 1.0:
        Mp = np.linalg.inv(np.eye(n) - e)
        norm_Mp = _top_singular_value(Mp, "M'")
        bound_Mp = norm_Mp**-2
        defined = True
    else:
        Mp, bound_Mp, defined = None, None, False
    return GapBoundReport(M, Mp, float(bound_M), bound_Mp, float(bound_simple), defined)


# ---------------------------------------------------------------------------
# exact gap: dense on small systems, matrix-free Lanczos above


def _heat_bath(joint: np.ndarray):
    """g -> B g for the heat-bath Dirichlet operator in weighted coordinates g = sqrt(p) f:
    B g = N g - sum_i sqrt(p) S_i(sqrt(p) g) / S_i(p), with S_i the sum over site i
    (keepdims).  A zero-mass context contributes 0.  g is one flat vector, or a matrix
    whose columns are flat vectors."""
    sqrtp = np.sqrt(joint)[..., None]  # a trailing axis over the columns
    masses = [joint.sum(axis=i, keepdims=True)[..., None] for i in range(joint.ndim)]
    inverses = [np.divide(1.0, m, out=np.zeros_like(m), where=m > 0) for m in masses]
    shape = joint.shape + (-1,)

    def apply(g):
        cols = np.reshape(g, shape)
        out = joint.ndim * cols
        for i, inv in enumerate(inverses):
            out -= sqrtp * ((sqrtp * cols).sum(axis=i, keepdims=True) * inv)
        return out.reshape(np.shape(g))

    return apply


def _check_gap_states(sys: FiniteSystem) -> None:
    """Raise CapExceededError if exact_gap would run on more than EXACT_GAP_STATE_CAP states."""
    if sys.joint.size > EXACT_GAP_STATE_CAP:
        raise CapExceededError(f"exact_gap: state count above cap {EXACT_GAP_STATE_CAP}")


def exact_gap(sys: FiniteSystem, return_vector: bool = False):
    """Smallest nonzero eigenvalue of the heat-bath Dirichlet operator B, and optionally its mode.

    With sqrt(p) 1_C projected out for every communicating class C of the
    support, the top eigenvalue of (N + 1) I - B is N + 1 - gap; the shift by
    N + 1, not N, keeps that operator nonzero for one site.  Zero-mass
    contexts contribute 0.  On at most DENSE_GAP_STATES states the operator is
    built as a dense matrix (B and the projection applied to the identity) and
    solved by ``np.linalg.eigh``.  Above that, implicitly restarted Lanczos
    (``eigsh`` from a fixed start) finds the top eigenvalue matrix-free.  Its
    Ritz value theta satisfies theta <= lambda_max, so that branch can only
    overstate the gap, and its residual bounds the distance from theta to some
    eigenvalue, not to lambda_max.
    """
    _check_gap_states(sys)
    joint = sys.joint
    total = joint.size
    on = joint > 0
    # communicating classes: the least flat index reachable by one-site moves
    labels, prev = np.where(on, np.arange(total).reshape(joint.shape), total), None
    while not np.array_equal(labels, prev):
        prev = labels
        for i in range(joint.ndim):
            labels = np.where(on, np.minimum(labels, labels.min(axis=i, keepdims=True)), total)
    if np.unique(labels[on]).size == np.count_nonzero(on):
        raise ValidationError("exact_gap: dynamics has no nonzero mode")
    cls = labels.ravel()  # off the support: one massless class
    mass = np.bincount(cls, weights=joint.ravel())
    inv = np.divide(1.0, mass, out=np.zeros_like(mass), where=mass > 0)
    w = np.sqrt(joint).ravel()
    shift = joint.ndim + 1
    heat_bath = _heat_bath(joint)

    def deflate(g):
        """Zero off the support and orthogonal to every sqrt(p) 1_C, for one flat vector or
        each row of a matrix: class c of row r sums into bin r * nbins + c."""
        bins = cls if g.ndim == 1 else (mass.size * np.arange(len(g))[:, None] + cls).ravel()
        sums = np.bincount(bins, weights=(w * g).ravel()).reshape(g.shape[:-1] + mass.shape)
        return on.ravel() * g - w * (sums * inv).take(cls, axis=-1)

    # B leaves the deflated space invariant, so deflating its output is enough; B and the
    # deflation commute, so deflating the rows of the symmetric shift I - B deflates its columns
    if total <= DENSE_GAP_STATES:
        eye = np.eye(total)
        evals, evecs = np.linalg.eigh(deflate(shift * eye - heat_bath(eye)))
    else:
        from scipy.sparse.linalg import LinearOperator, eigsh

        op = LinearOperator((total, total), dtype=float,
                            matvec=lambda g: deflate(shift * np.ravel(g) - heat_bath(np.ravel(g))))
        v0 = deflate(np.random.default_rng(0).standard_normal(total))
        evals, evecs = eigsh(op, k=1, which="LA", tol=0, v0=v0)
    gap = float(shift - evals[-1])
    if not return_vector:
        return gap
    f = np.divide(evecs[:, -1], w, out=np.zeros(total), where=w > 0)  # back to unweighted coordinates
    return gap, f.reshape(joint.shape)


# ---------------------------------------------------------------------------
# trajectory simulation (continuous-time heat bath)


@dataclass(frozen=True)
class SimResult:
    times: np.ndarray
    sites: np.ndarray
    new_states: np.ndarray
    rate_estimate: float
    relaxation_time: float
    autocorr: np.ndarray


def _autocorrelation(samples: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation c(k), k < max_lag, by blocked (overlap-save) FFT.

    Each block of _ACF_BLOCK samples is correlated with itself plus the next
    max_lag - 1 samples, by FFTs padded to the next power of two at or above
    block + max_lag, and the blocks' sums are added: no lag wraps, and the work
    space does not grow with n.  A series of at most one block takes one
    forward FFT, of the whole series.
    """
    n = samples.size
    mean = samples.mean()
    acf = np.full(max_lag, -0.0)  # -0.0 + x is x bit for bit, so one block adds nothing
    sumsq = 0.0
    for lo in range(0, n, _ACF_BLOCK):
        hi = min(lo + _ACF_BLOCK, n)
        x = samples[lo:hi + max_lag - 1] - mean
        nfft = 1 << (hi - lo + max_lag - 1).bit_length()  # >= block + max_lag: no circular wrap
        sumsq += float(x[:hi - lo] @ x[:hi - lo])
        f = np.fft.rfft(x, nfft)
        g = f if x.size == hi - lo else np.fft.rfft(x[:hi - lo], nfft)
        del x
        acf += np.fft.irfft(f * np.conj(g), nfft)[:max_lag]  # out of place: in place rounds differently
    var = sumsq / n
    if var <= 0:
        return np.zeros(max_lag)
    return acf / ((n - np.arange(max_lag)) * var)


def _fit_rate(c: np.ndarray, dt: float) -> tuple:
    """Exponential-decay rate of the sample autocorrelation ``c``.

    Least squares on log c(tau) over the window [0.1, 3] estimated relaxation
    times, which avoids both the transient and the noise floor.
    """
    max_lag = c.size
    if max_lag < 4:
        return 0.0, math.inf
    below = np.flatnonzero(c < math.exp(-1.0))
    tau_rel = (below[0] if below.size else max_lag) * dt
    if tau_rel <= 0:
        tau_rel = dt
    lo = max(1, int(round(0.1 * tau_rel / dt)))
    hi = min(max_lag - 1, max(lo + 2, int(round(3.0 * tau_rel / dt))))
    ks = np.arange(lo, hi + 1)
    good = c[ks] > 0.02
    if good.sum() < 2:
        good = c[ks] > 0
    ks = ks[good]
    if ks.size < 2:
        return 0.0, tau_rel
    y = np.log(c[ks])
    t = ks * dt
    slope = float(np.polyfit(t, y, 1)[0])
    return -slope, tau_rel


def _check_horizon(nsites: int, horizon: float) -> None:
    """Raise unless horizon is finite and > 0 with N * horizon <= SIM_EVENT_CAP expected rings."""
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValidationError("heat-bath simulator: horizon must be finite and > 0")
    if nsites * horizon > SIM_EVENT_CAP:
        raise CapExceededError(f"heat-bath simulator: N * horizon = {nsites * horizon:.6g} "
                               f"expected events above cap {SIM_EVENT_CAP}")


def _expected_rings(nsites: int, t):
    """Expected rings of N unit-rate site clocks in time t, the Poisson mean of uniformization:
    exact_gap's operator is the generator of clocks of rate 1."""
    return nsites * t


def _schedule(rng, nsites: int, horizon: float) -> tuple:
    """Uniformized rings of N site clocks on (0, horizon]: K ~ Poisson(N horizon), then K sorted
    times, K sites and K uniforms, in that order.  Returns (times, sites, uniforms)."""
    n_events = int(rng.poisson(_expected_rings(nsites, horizon)))
    times = np.sort(horizon * (1.0 - rng.random(n_events)))
    sites = rng.integers(nsites, size=n_events)
    uniforms = rng.random(n_events)
    return times, sites, uniforms


def _sample_counts(times: np.ndarray, sample_dt: float, n_samples: int):
    """Split the rings into chunks lo..hi-1 of _SIM_CHUNK rings and yield (lo, hi, counts) for
    each.  The sample times k * sample_dt, k < n_samples, are taken in order, a chunk taking
    those before times[hi] (all that are left, for the last chunk), and counts[j] is the
    number of rings of times[lo:hi] at or before the chunk's j-th sample time.  Only
    times[lo:hi] is searched: a sample left over from the chunk before is at or after times[lo]."""
    done = 0
    for lo in range(0, times.size + 1, _SIM_CHUNK):
        hi = min(lo + _SIM_CHUNK, times.size)
        # k * sample_dt < times[hi] holds for no k above times[hi] / sample_dt + 1, rounding included
        stop = min(n_samples, int(times[hi] / sample_dt) + 2) if hi < times.size else n_samples
        grid = np.arange(done, stop) * sample_dt
        if hi < times.size:  # the samples before times[hi]
            grid = grid[:np.searchsorted(grid, times[hi])]
        done += grid.size
        counts = np.searchsorted(times[lo:hi], grid, side="right")
        del grid  # not held while the caller runs the chunk
        yield lo, hi, counts


def _conditional_row(joint: np.ndarray, site: int, state: int) -> tuple:
    """(cdf, next) of a ring of ``site`` at flat state ``state`` of ``joint``: the cumulative
    conditional law of the site given the rest without its last entry, and the flat states
    with the site set to 0, 1, ...  The new state is next[bisect_right(cdf, u)] for a uniform
    u.  Both simulators build their tables here, and exact_gap does not, so a fault in the
    tables moves only the simulated side of criterion 8."""
    sizes = joint.shape
    stride = math.prod(sizes[site + 1:])
    digits = np.unravel_index(state, sizes)
    cum = np.cumsum(joint[digits[:site] + (slice(None),) + digits[site + 1:]])
    first = state - int(digits[site]) * stride
    return cum[:-1] / cum[-1], range(first, first + sizes[site] * stride, stride)


def _result(samples: np.ndarray, sample_dt: float, times, sites, new_states) -> SimResult:
    """SimResult of samples every sample_dt: autocorrelation to 8000 lags, its fitted rate, 400 lags kept."""
    c = _autocorrelation(samples, max(min(samples.size // 4, 8000), 1))
    rate, tau = _fit_rate(c, sample_dt)
    nlag = min(c.size, 400)
    return SimResult(times, sites, new_states, float(rate), float(tau), c[:nlag])


def glauber_simulate(
    sys: FiniteSystem,
    horizon: float,
    seed: int = 0,
    observable=None,
    sample_dt: float | None = None,
    keep_events: bool = True,
) -> SimResult:
    """Exact-in-law continuous-time heat-bath trajectory of a finite system.

    Site clocks ring at total rate N; the ringing site is resampled from its
    conditional law given the rest (possibly landing on the same state).
    Because N does not depend on the state, the trajectory is simulated by
    uniformization (Jensen 1953; Gillespie 1977): after a stationary initial
    state, ``_schedule`` draws every ring up front, and one integer loop maps
    each uniform through the conditional CDF of its site given the current
    flat state, _SIM_CHUNK rings at a time, so that only one chunk of the
    path is held.  Every ring is recorded in ``times``/``sites``/``new_states``,
    same-state resamples included.  ``observable`` holds the observable's
    value at each state, in any shape that broadcasts to the joint's (default:
    the value of the first coordinate); it is sampled every ``sample_dt``
    (default 0.25 / N) on [0, horizon].  The trajectory is deterministic per seed.
    """
    sizes = [s for _, s in sys.variables]
    nsites = len(sizes)
    _check_horizon(nsites, horizon)
    if observable is None:
        observable = np.indices(sizes, sparse=True)[0]
    if sample_dt is None:
        sample_dt = 0.25 / nsites
    rng = np.random.default_rng(seed)
    flat = sys.joint.ravel()
    total = flat.size
    x = int(rng.choice(total, p=flat / flat.sum()))
    times, sites, uniforms = _schedule(rng, nsites, horizon)
    # row i * total + y -> _conditional_row of site i at y, as tuples, filled
    # when the chain first needs it.  The chain only visits states of positive
    # mass, so every context it meets has positive mass and a zero-mass value
    # is never drawn.
    table = {}

    def fill(row):
        cdf, nxt = _conditional_row(sys.joint, *divmod(row, total))
        table[row] = tuple(cdf.tolist()), tuple(nxt)
        return table[row]

    obs = np.broadcast_to(np.asarray(observable, dtype=float), sys.joint.shape).ravel()
    samples = np.empty(int(horizon / sample_dt) + 1)
    new_states = np.empty(times.size, dtype=int) if keep_events else None
    size_of = np.array(sizes)
    stride_of = np.array([math.prod(sizes[i + 1:]) for i in range(nsites)])
    done = 0
    # rings lo..hi-1 take the chain from path[lo] to path[hi]; only seg = path[lo:hi + 1]
    # of the path is ever held, and a sample taken after lo + j rings reads seg[j]
    for lo, hi, counts in _sample_counts(times, sample_dt, samples.size):
        seg = [x]
        step = seg.append
        for row, u in zip((sites[lo:hi] * total).tolist(), uniforms[lo:hi].tolist()):
            cdf, nxt = table.get(row + x) or fill(row + x)
            x = nxt[bisect_right(cdf, u)]
            step(x)
        seg = np.array(seg)
        np.take(obs[seg], counts, out=samples[done:done + counts.size])
        done += counts.size
        if keep_events:
            new_states[lo:hi] = seg[1:] // stride_of[sites[lo:hi]] % size_of[sites[lo:hi]]
    del uniforms
    if not keep_events:
        del times, sites
        return _result(samples, sample_dt, *_NO_EVENTS)
    return _result(samples, sample_dt, times, sites, new_states)


def _replica_correlation(sys: FiniteSystem, observable, times, replicas: int, seed: int) -> tuple:
    """(c, se): estimates of E f(X_0) f(X_t) under the stationary heat-bath dynamics at each
    of ``times``, and their standard errors, from ``replicas`` independent chains.

    Each replica starts from the stationary law.  At each step every replica
    takes one uniformized ring: a uniform site, resampled through the tables of
    ``_conditional_row``, all replicas in one lookup.  With Poisson(N t) rings
    by time t (Jensen 1953), E f(X_0) f(X_t) = sum_k Pois(k; N t) E f(Y_0) f(Y_k)
    for the ring chain Y, so each replica accumulates
    Z(t) = sum_{k <= K} Pois(k; N t) f(Y_0) f(Y_k) as the steps run; no path is
    held.  The replicas are independent, so se is the sample standard deviation
    of Z over sqrt(replicas), with no batch-means assumption.  K is the least
    count at or above N max(t) with e^-lam (e lam / (K + 1))^(K + 1) max f^2
    <= 1e-9 at lam = N max(t): that Chernoff bound on the Poisson tail past K,
    times max f^2, bounds the truncation's move of each E Z, against an se of
    about 3e-3 for criterion 8's unit-variance f at 5 10^4 replicas (K = 71
    there).  ``observable`` holds f at each state, in any shape that broadcasts
    to the joint's; ``times`` are > 0.
    """
    joint = sys.joint
    nsites, flat = joint.ndim, joint.ravel()
    total = flat.size
    f = np.broadcast_to(np.asarray(observable, dtype=float), joint.shape).ravel()
    lam = _expected_rings(nsites, np.asarray(times, dtype=float))
    top, log_bound = float(lam.max()), math.log(1e-9 / float(np.max(f * f)))
    steps = math.ceil(top)
    while -top + (steps + 1) * (1 + math.log(top / (steps + 1))) > log_bound:
        steps += 1
    weights = np.exp([-lam + k * np.log(lam) - math.lgamma(k + 1) for k in range(steps + 1)])
    # row r = i * total + y is site i's ring at y: column j of cdf holds entry j of every
    # row's CDF, padded with +inf, and nxt[r * width + j] the state of value j, so the new
    # state is nxt[r * width + #{j: cdf[j, r] <= u}], bisect_right on every replica at once.
    # States of zero mass are never visited, and their rows stay unfilled
    width = max(joint.shape)
    cdf = np.full((width - 1, nsites * total), np.inf)
    nxt = np.zeros((nsites * total, width), dtype=np.intp)
    for i in range(nsites):
        for y in np.flatnonzero(flat > 0).tolist():
            row_cdf, row_nxt = _conditional_row(joint, i, y)
            cdf[:row_cdf.size, i * total + y] = row_cdf
            nxt[i * total + y, :len(row_nxt)] = row_nxt
    nxt = nxt.ravel()
    rng = np.random.default_rng(seed)
    x = rng.choice(total, size=replicas, p=flat / flat.sum())
    f0 = f[x]
    acc = weights[0][:, None] * (f0 * f0)  # one row per time: Z of every replica
    for k in range(1, steps + 1):
        row = rng.integers(nsites, size=replicas) * total + x
        u = rng.random(replicas)
        pick = row * width
        for column in cdf:
            pick += column[row] <= u
        x = nxt[pick]
        acc += weights[k][:, None] * (f0 * f[x])
    return acc.mean(axis=1), acc.std(axis=1, ddof=1) / math.sqrt(replicas)


def glauber_simulate_ising(torus, horizon: float, seed: int = 0, observable=None) -> SimResult:
    """Continuous-time heat-bath trajectory of an Ising torus of any size, uniformized
    like ``glauber_simulate``; clamped spins keep their value.  The initial state is
    burned in by ``ising_mcmc_samples`` on the same generator.  ``observable`` maps the
    +-1 spin vector, a float ndarray, to a float and is evaluated once per sample
    time, every ISING_SAMPLE_DT on [0, horizon].  The default, magnetization /
    sqrt(N), sums the int state list: a sum of +-1 is exact, so it gives the bits of
    ``lambda s: float(s.sum()) / math.sqrt(N)`` without an array per sample.  No
    events are recorded.
    """
    from .lattice import _heat_bath_updater, ising_mcmc_samples

    nsite = torus.L**torus.n
    _check_horizon(nsite, horizon)
    if observable is None:
        read = lambda state: sum(state) / math.sqrt(nsite)
    else:
        read = lambda state: observable(np.array(state, dtype=float))
    rng = np.random.default_rng(seed)
    burned = ising_mcmc_samples(torus, sweeps=1, thin=1, seed=rng, burn=ISING_BURN_SWEEPS)
    state = burned[-1].astype(int).tolist()
    times, sites, uniforms = _schedule(rng, nsite, horizon)
    update = _heat_bath_updater(torus)
    samples, done = [], 0
    for lo, _, counts in _sample_counts(times, ISING_SAMPLE_DT, int(horizon / ISING_SAMPLE_DT) + 1):
        for upto in (lo + counts).tolist():
            update(state, sites[done:upto].tolist(), uniforms[done:upto].tolist())
            samples.append(read(state))
            done = upto
    return _result(np.array(samples), ISING_SAMPLE_DT, *_NO_EVENTS)


# ---------------------------------------------------------------------------
# sublattice route for translation-invariant kernels


@dataclass(frozen=True)
class SublatticeGap:
    value: float
    ell: int
    zeta: float
    norm_M: float


def _sublattice_classes(kernel: LatticeKernel) -> SublatticeK:
    """sublattice_k of the kernel; raise if its ell^n classes exceed SUBLATTICE_BLOCK_CAP."""
    from .tensor_bounds import sublattice_k

    sub = sublattice_k(kernel)
    if sub.class_sums.size > SUBLATTICE_BLOCK_CAP:
        raise CapExceededError(f"sublattice_gap: spacing {sub.ell} gives a block system of "
                               f"{sub.class_sums.size} classes, above cap {SUBLATTICE_BLOCK_CAP}")
    return sub


def sublattice_gap(kernel: LatticeKernel) -> SublatticeGap:
    """Positive gap bound ||M||^-2 (1 - zeta)^2 via sublattice block dynamics.

    Takes sublattice_k's spacing ell, the smallest whose congruence-class
    sums are all < 1; zeta is the class sum of the zero class (the ell Z^n tail of the kernel)
    and M is the triangular-inverse matrix of the block system.
    """
    sub = _sublattice_classes(kernel)
    sums, ell = sub.class_sums, sub.ell
    zeta = float(sums[(0,) * kernel.n])
    # eps_block[u, v] = sums[(z_v - z_u) mod ell] over the flattened classes;
    # gap_lower_bounds sets the diagonal to 0
    z = np.indices(sums.shape).reshape(kernel.n, -1)
    eps_block = sums[tuple((z[:, None, :] - z[:, :, None]) % ell)]
    report = gap_lower_bounds(eps_block)
    value = report.bound_M * (1.0 - zeta) ** 2
    norm_M = report.bound_M ** -0.5 if report.bound_M > 0 else math.inf
    return SublatticeGap(float(value), ell, zeta, float(norm_M))
