"""Concrete models feeding the bound machinery.

* quadratic lattice model: Gaussian field with quadratic pinning and
  attractive pair couplings; its covariance kernel is the convolution inverse
  of the coupling kernel and the pairwise correlations are
  eps(z) = a_inv(z) / a_inv(0).
* small Ising tori: exact Gibbs enumeration, measured correlation kernels,
  theoretical constants c0 and k0, and an MCMC pairwise estimator.
* block-sum central limit experiments with empirical characteristic functions.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapExceededError, IntegratorError, ValidationError

if TYPE_CHECKING:
    from .convdecay import ToeplitzKernel
    from .discrete import FiniteSystem
    from .tensor_bounds import LatticeKernel

ISING_SITE_CAP = 1 << 16  # sites of any IsingTorus; its site list and MCMC state grow like L^n
ISING_EXACT_SITE_CAP = 16
ISING_SUBJECTIVE_SITE_CAP = 10
QUADRATIC_PROFILE_DISTANCES = (0, 1, 2, 4, 8)  # the distances of quadratic_rho_report's profile
# replicas x sites of the widest sampled ring (ell + 64 on the Ising ring, of which only the ell-site
# window is drawn) or block: bounds the samples of clt_experiment
CLT_SAMPLE_CAP = 1 << 24
CF_BLOCK = 1 << 16  # (lam, value) terms in one block of _cf_distance (1 MiB of complex floats)


# ---------------------------------------------------------------------------
# quadratic model


@dataclass(frozen=True)
class QuadraticModel:
    """Coupling kernel gamma(z) >= 0 on a window, with unit quadratic pinning."""

    n: int
    gamma: ToeplitzKernel
    beta: float = 1.0

    def __post_init__(self):
        from .convdecay import _check_neumann

        g = self.gamma
        if g.n != self.n:
            raise ValidationError("QuadraticModel: kernel dimension mismatch")
        if g.values.min() < 0:
            raise ValidationError("QuadraticModel: couplings must be nonnegative")
        if g.value_at((0,) * self.n) != 0:
            raise ValidationError("QuadraticModel: gamma(0) must be 0")
        flipped = g.values[(slice(None, None, -1),) * self.n]
        if np.abs(g.values - flipped).max() > 1e-12:
            raise ValidationError("QuadraticModel: gamma must be symmetric")
        if not 0 < self.beta < math.inf:
            raise ValidationError("QuadraticModel: beta must be finite and > 0")
        _check_neumann(self._scaled)

    @property
    def Gamma(self) -> float:
        return self.gamma.l1_norm()

    @property
    def _scaled(self) -> ToeplitzKernel:
        """gamma / (1 + Gamma), whose Neumann series gives the covariance kernel."""
        from .convdecay import ToeplitzKernel

        return ToeplitzKernel(self.n, self.gamma.R, self.gamma.values / (1.0 + self.Gamma))


@dataclass(frozen=True)
class QuadraticCovariance:
    a_inv: ToeplitzKernel         # convolution inverse of the precision kernel
    eps_kernel: LatticeKernel     # eps(z) = a_inv(z)/a_inv(0), certified tail
    a_inv_center: float
    window_sum: float
    truncation_mass: float        # certified l1 error of a_inv on the window plus mass outside


def quadratic_covariance(model: QuadraticModel) -> QuadraticCovariance:
    """Covariance kernel of the quadratic model via the Neumann series.

    The precision kernel is (1+Gamma) delta_0 - gamma, so
    a_inv = (delta_0 + B[gamma/(1+Gamma)]) / (1+Gamma); the series always
    converges since ||gamma||_1/(1+Gamma) < 1.  Cov(w_i, w_j) =
    a_inv(j-i)/beta and eps(z) = a_inv(z)/a_inv(0).
    """
    from .convdecay import ToeplitzKernel, _tail_bound, conv_inverse
    from .tensor_bounds import LatticeKernel, TailModel

    G = model.Gamma
    scaled = model._scaled
    series = conv_inverse(scaled)
    values = series.values.copy()
    center = (series.R,) * model.n
    values[center] += 1.0
    values /= 1.0 + G
    a_inv = ToeplitzKernel(model.n, series.R, values)
    trunc = _tail_bound(scaled, series.R) / (1.0 + G)
    a0 = float(values[center])
    eps_vals = np.clip(values / a0, 0.0, 1.0)
    tail = TailModel(kind="mass", total=min(1.0, trunc / a0)) if trunc > 0 else TailModel()
    eps_kernel = LatticeKernel(model.n, a_inv.R, eps_vals, norm="l1", tail=tail)
    return QuadraticCovariance(a_inv, eps_kernel, a0, float(values.sum()), trunc)


@dataclass(frozen=True)
class QuadraticRhoReport:
    covariance: QuadraticCovariance  # the quadratic_covariance the report is built from
    Gamma: float
    eps_sum_offcenter: float
    gamma_bound_applies: bool
    distance_profile: dict
    sublattice: object


def quadratic_rho_report(model: QuadraticModel) -> QuadraticRhoReport:
    """Mixing report: off-center eps mass vs Gamma, distance and sublattice bounds."""
    from .tensor_bounds import distance_bound, sublattice_k

    cov = quadratic_covariance(model)
    k = cov.eps_kernel
    offs = k.offsets()
    vals = k.flat_values().copy()
    vals[np.all(offs == 0, axis=1)] = 0.0
    eps_sum = float(vals.sum()) + cov.truncation_mass / cov.a_inv_center
    if eps_sum > model.Gamma + 1e-9:
        raise ValidationError("quadratic_rho_report: eps mass exceeds Gamma")
    profile = {d: distance_bound(k, d) for d in QUADRATIC_PROFILE_DISTANCES}
    sub = sublattice_k(k) if vals.max() < 1 else None
    return QuadraticRhoReport(cov, model.Gamma, eps_sum, model.Gamma < 1.0, profile, sub)


# ---------------------------------------------------------------------------
# Ising tori


@dataclass(frozen=True)
class IsingTorus:
    """Periodic Ising model; bonds are the multiset {(i, i+e_k)} over sites
    and axes (for L = 2 each pair along an axis is counted twice)."""

    n: int
    L: int
    T: float
    clamp_sites: tuple = ()
    clamp_values: tuple = ()

    def __post_init__(self):
        if self.n < 1 or self.L < 2:
            raise ValidationError("IsingTorus: need n >= 1 and L >= 2")
        # with L >= 2 a torus has at least 2^n sites, so a large n is rejected before L**n is formed
        if self.n >= ISING_SITE_CAP.bit_length() or self.L**self.n > ISING_SITE_CAP:
            raise CapExceededError(f"IsingTorus: more than {ISING_SITE_CAP} sites")
        if not 0 < self.T < math.inf:
            raise ValidationError("IsingTorus: temperature must be finite and > 0")
        if len(self.clamp_sites) != len(self.clamp_values):
            raise ValidationError("IsingTorus: clamp sites/values mismatch")
        if any(v not in (-1, 1) for v in self.clamp_values):
            raise ValidationError("IsingTorus: clamp values must be +-1")
        for s in self.clamp_sites:
            if not (isinstance(s, tuple) and len(s) == self.n
                    and all(isinstance(c, (int, np.integer)) and 0 <= c < self.L for c in s)):
                raise ValidationError(f"IsingTorus: clamp site {s!r} must hold n = {self.n} integers in [0, {self.L})")
        if len(set(self.clamp_sites)) != len(self.clamp_sites):
            raise ValidationError("IsingTorus: a site may be clamped only once")

    @property
    def sites(self) -> list:
        return list(itertools.product(range(self.L), repeat=self.n))

    def bonds(self) -> list:
        out = []
        for s in self.sites:
            for k in range(self.n):
                t = list(s)
                t[k] = (t[k] + 1) % self.L
                out.append((s, tuple(t)))
        return out

    def neighbour_table(self) -> np.ndarray:
        """Row k holds the flat indices of site k's 2n neighbours, ordered by
        axis and then by step -1, +1; flat indices follow ``sites``."""
        coords = np.array(self.sites).reshape(-1, self.n)
        shape = (self.L,) * self.n
        cols = []
        for ax in range(self.n):
            for d in (-1, 1):
                u = coords.copy()
                u[:, ax] = (u[:, ax] + d) % self.L
                cols.append(np.ravel_multi_index(u.T, shape))
        return np.stack(cols, axis=1)

    def min_image(self, z) -> tuple:
        return tuple((c + self.L // 2) % self.L - self.L // 2 for c in z)


def _check_exact_sites(torus: IsingTorus) -> None:
    """Raise CapExceededError if ising_exact cannot enumerate the torus."""
    if torus.L**torus.n > ISING_EXACT_SITE_CAP:
        raise CapExceededError(f"ising_exact: more than {ISING_EXACT_SITE_CAP} sites")


def ising_exact(torus: IsingTorus) -> FiniteSystem:
    """Exact Gibbs law of a small torus as a FiniteSystem (state 0 is spin -1)."""
    from .discrete import FiniteSystem

    _check_exact_sites(torus)
    sites = torus.sites
    nsite = len(sites)
    site_pos = {s: k for k, s in enumerate(sites)}
    bonds = [(site_pos[a], site_pos[b]) for a, b in torus.bonds()]
    states = np.array(list(itertools.product((-1, 1), repeat=nsite)), dtype=float)
    energy = np.zeros(len(states))
    for a, b in bonds:
        energy -= states[:, a] * states[:, b]
    logw = -energy / torus.T
    for site, val in zip(torus.clamp_sites, torus.clamp_values):
        logw = np.where(states[:, site_pos[tuple(site)]] == val, logw, -np.inf)
    logw -= logw.max()
    w = np.exp(logw)
    w /= w.sum()
    joint = w.reshape((2,) * nsite)
    names = tuple((f"s{'_'.join(map(str, s))}", 2) for s in sites)
    return FiniteSystem(names, joint)


@dataclass(frozen=True)
class IsingEpsilonReport:
    kernel: LatticeKernel
    c0: float
    k0: float
    method: str
    subjective: bool


def _exp(x: float) -> float:
    """math.exp, but inf where it overflows, so that low temperatures take their limits."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def ising_constants(n: int, T: float) -> tuple:
    """(c0, k0): the conditional-decorrelation constants of the torus model."""
    c0 = math.tanh(4.0 * n / T) + 1.0
    k0 = 1.0 - 4.0 / (_exp(8.0 * n / T) + 2.0 * _exp((4.0 * n + 2.0) / T) + 1.0)
    return c0, k0


def _displacement_classes(torus: IsingTorus) -> dict:
    """Representative flat site pairs (0, b), one per minimal-image displacement
    class; a site's flat index is its position in ``sites``."""
    classes = {}
    for b, s in enumerate(torus.sites[1:], start=1):
        z = torus.min_image(s)
        key = max(z, tuple(-c for c in z))  # identify z and -z
        classes.setdefault(key, (0, b))
    return classes


def ising_epsilon(torus: IsingTorus, method: str = "exact", seed: int = 0,
                  sweeps: int = 2000, thin: int = 4) -> IsingEpsilonReport:
    """Pairwise correlation kernel eps(z) of a torus, plus (c0, k0).

    exact path (<= 16 sites): enumerates the Gibbs law; on <= 10 sites the
    values are subjective suprema over clamped contexts, otherwise plain pair
    correlations.  mcmc path: heat-bath samples, thinned, pair tables and the
    two-state formula; the values are point estimates.  A chain that kept an
    unclamped site at one value in every kept sample is trapped, and its pair
    tables would read eps = 0: that is an IntegratorError.
    """
    from . import discrete
    from .tensor_bounds import LatticeKernel

    c0, k0 = ising_constants(torus.n, torus.T)
    nsite = torus.L**torus.n
    if method == "exact":
        sys = ising_exact(torus)
        subjective = nsite <= ISING_SUBJECTIVE_SITE_CAP
        values: dict = {}
        for key, (ia, ib) in _displacement_classes(torus).items():
            if subjective:
                v = discrete.subjective_maxcorr(sys, ia, ib)
            else:
                v = discrete.maxcorr_pair(sys.pair([ia], [ib])).rho
            values[key] = v
        kern = LatticeKernel.from_dict(torus.n, torus.L // 2, values, norm="l1")
        return IsingEpsilonReport(kern, c0, k0, "exact", subjective)
    if method != "mcmc":
        raise ValidationError("ising_epsilon: method must be 'exact' or 'mcmc'")
    samples = ising_mcmc_samples(torus, sweeps=sweeps, thin=thin, seed=seed)
    stuck = (samples == samples[0]).all(axis=0)
    for s in torus.clamp_sites:
        stuck[np.ravel_multi_index(s, (torus.L,) * torus.n)] = False
    if stuck.any():
        k = int(np.argmax(stuck))
        raise IntegratorError(f"ising_epsilon: the heat-bath chain kept site {torus.sites[k]} at "
                              f"{int(samples[0, k]):+d} in all {len(samples)} kept samples; it is trapped, "
                              "so its pair tables cannot estimate eps")
    values = {}
    for key, (ia, ib) in _displacement_classes(torus).items():
        sa = samples[:, ia]
        sb = samples[:, ib]
        cells = np.array(
            [
                [np.mean((sa < 0) & (sb < 0)), np.mean((sa < 0) & (sb > 0))],
                [np.mean((sa > 0) & (sb < 0)), np.mean((sa > 0) & (sb > 0))],
            ]
        )
        cells = cells / cells.sum()
        values[key] = discrete.maxcorr_pair(discrete.FinitePair.from_joint(cells)).rho
    kern = LatticeKernel.from_dict(torus.n, torus.L // 2, values, norm="l1")
    return IsingEpsilonReport(kern, c0, k0, "mcmc", False)


def _heat_bath_updater(torus: IsingTorus):
    """update(state, sites, uniforms): single-site heat-bath updates of a +-1
    int list, in order.  Site k with neighbour sum h becomes +1 iff its uniform
    is below 1 / (1 + exp(-2 beta h)), read from a table over h = -2n .. 2n;
    clamped sites keep their value."""
    neigh = [tuple(row) for row in torus.neighbour_table().tolist()]
    n2 = 2 * torus.n
    beta = 1.0 / torus.T
    p_up = [1.0 / (1.0 + _exp(-2.0 * beta * h)) for h in range(-n2, n2 + 1)]
    clamped = {int(np.ravel_multi_index(s, (torus.L,) * torus.n)) for s in torus.clamp_sites}

    def update(state, sites, uniforms):
        for k, u in zip(sites, uniforms):
            if k in clamped:
                continue
            h = n2  # offset into p_up
            for j in neigh[k]:
                h += state[j]
            state[k] = 1 if u < p_up[h] else -1

    return update


def ising_mcmc_samples(torus: IsingTorus, sweeps: int, thin: int, seed,
                       burn: int = 200) -> np.ndarray:
    """Thinned heat-bath samples of the torus, shape (n_kept, n_sites); each sweep updates
    every site once in a fresh random order.  ``seed`` may be a Generator, read in place."""
    rng = np.random.default_rng(seed)
    nsite = torus.L**torus.n
    update = _heat_bath_updater(torus)
    state = rng.choice((-1, 1), size=nsite).tolist()
    for s, v in zip(torus.clamp_sites, torus.clamp_values):
        state[np.ravel_multi_index(s, (torus.L,) * torus.n)] = v
    kept = []
    for sweep in range(burn + sweeps):
        order = rng.permutation(nsite)
        us = rng.uniform(size=nsite)
        update(state, order.tolist(), us.tolist())
        if sweep >= burn and (sweep - burn) % thin == 0:
            kept.append(state.copy())
    return np.array(kept, dtype=float)


def sample_ising_ring(L: int, T: float, size: int, window: int, seed: int = 0) -> np.ndarray:
    """Exact samples of spins 0 .. window - 1 of the L-site cycle, shape (size, window).

    Conditional transfer sampling draws the spins in ring order, each given
    the previous spin and the anchor spin 0.  Spin k + 1 depends only on spins
    0 and k, so drawing stops after the window: the result is, bit for bit,
    the first ``window`` columns of the full-ring draw (window = L).
    """
    if not 1 <= window <= L:
        raise ValidationError(f"sample_ising_ring: window {window} must lie in [1, {L}]")
    rng = np.random.default_rng(seed)
    th = math.tanh(1.0 / T)
    powers = th ** np.arange(L + 1)
    spins = np.empty((size, window))
    s0 = rng.choice((-1.0, 1.0), size=size)
    spins[:, 0] = s0
    cur = s0.copy()
    for i in range(window - 1):
        k = L - i - 1  # bonds remaining back to the anchor spin
        # P(next = s | cur, s0) ~ (1 + th * cur * s)(1 + th^k * s * s0)
        up = (1 + th * cur) * (1 + powers[k] * s0)
        dn = (1 - th * cur) * (1 - powers[k] * s0)
        p_up = up / (up + dn)
        cur = np.where(rng.uniform(size=size) < p_up, 1.0, -1.0)
        spins[:, i + 1] = cur
    return spins


# ---------------------------------------------------------------------------
# central limit experiment


@dataclass(frozen=True)
class CLTReport:
    block_sizes: tuple
    cf_distances: tuple
    sigma_hat2: float          # at the largest block size
    sigma_hat2_by_block: tuple
    sigma2_limit: float

    def __post_init__(self):
        if self.sigma_hat2 < 0:
            raise ValidationError("CLTReport: sigma_hat2 must be >= 0")


def _cf_distance(values: np.ndarray, sigma2: float, lam_grid: np.ndarray) -> float:
    """max over lam_grid of |empirical cf of values - exp(-sigma2 lam^2 / 2)|.

    The empirical cf is the count-weighted sum of exp(i lam v) over the
    distinct values v, divided by the number of values: block sums of +-1
    spins take at most ell + 1 of them.  The distinct values are taken in
    blocks of at most CF_BLOCK (lam, v) terms, so continuous values need no
    more work space than that.
    """
    distinct, counts = np.unique(values, return_counts=True)
    step = max(1, CF_BLOCK // len(lam_grid))
    phi = np.zeros(len(lam_grid), dtype=complex)
    for lo in range(0, len(distinct), step):
        phi += np.exp(1j * np.outer(lam_grid, distinct[lo:lo + step])) @ counts[lo:lo + step]
    phi /= len(values)
    target = np.exp(-sigma2 * lam_grid**2 / 2.0)
    return float(np.abs(phi - target).max())


def _ring_length(model, ell: int) -> int:
    """Sites of the ring a chain model is sampled on for blocks of ell sites; the
    buffer makes the window indistinguishable from the infinite chain."""
    if isinstance(model, IsingTorus):
        return ell + 64
    return max(4 * ell, 4 * (model.gamma.R + 1))


def _check_clt(model, ells, replicas: int, shape: str = "cube") -> tuple:
    """The block sizes of a clt_experiment as ints, once its sizes are checked:
    ell >= 1, replicas >= 2 and at most CLT_SAMPLE_CAP sampled values."""
    ells = tuple(int(l) for l in ells)
    if min(ells, default=0) < 1 or replicas < 2:
        raise ValidationError("clt: --ells must be integers >= 1 and --replicas must be >= 2")
    if isinstance(model, IsingTorus) and math.tanh(1.0 / model.T) == 1.0:
        raise ValidationError(f"clt: the Ising limit variance needs tanh(1/T) < 1, "
                              f"but it rounds to 1 at T = {model.T!r}")
    ell = max(ells)
    if isinstance(model, (IsingTorus, QuadraticModel)):
        width = _ring_length(model, ell)
    else:
        width = 2 * ell + 1 if shape == "disk" else ell
    if replicas * width > CLT_SAMPLE_CAP:
        raise CapExceededError(f"clt: {replicas} replicas x {width} sampled sites above cap {CLT_SAMPLE_CAP}")
    return ells


def clt_experiment(model, ells, replicas: int, seed: int = 0, shape: str = "cube") -> CLTReport:
    """Block sums F(l) = sum X_i / sqrt(#block) against their Gaussian limit.

    model: IsingTorus with n = 1 (exact ring sampling), QuadraticModel with
    n = 1 (exact circulant Gaussian sampling), or the string "independent"
    (i.i.d. +-1 spins on the line; a cube block is ell sites and a disk block
    the 2 (ell // 2) + 1 sites within ell / 2 of its centre; for the chain
    models both shapes are ell consecutive sites).  The empirical
    characteristic function is compared to exp(-sigma_hat^2 lam^2 / 2) on
    lam in [-3, 3].
    """
    if shape not in ("cube", "disk"):
        raise ValidationError("clt_experiment: shape must be 'cube' or 'disk'")
    ells = _check_clt(model, ells, replicas, shape)
    rng = np.random.default_rng(seed)
    lam_grid = np.linspace(-3.0, 3.0, 61)
    dists = []
    sig2s = []
    for ell in ells:
        if isinstance(model, IsingTorus):
            if model.n != 1:
                raise ValidationError("clt_experiment: only 1-d Ising tori are supported")
            Lbig = _ring_length(model, ell)
            spins = sample_ising_ring(Lbig, model.T, replicas, ell, seed=int(rng.integers(2**63)))
            block = spins.sum(axis=1) / math.sqrt(ell)
        elif isinstance(model, QuadraticModel):
            if model.n != 1:
                raise ValidationError("clt_experiment: only 1-d quadratic models are supported")
            Lbig = _ring_length(model, ell)
            cov_kernel = quadratic_covariance(model).a_inv
            # periodized covariance: circulant embedding of a_inv / beta
            col = np.zeros(Lbig)
            for z in range(-cov_kernel.R, cov_kernel.R + 1):
                col[z % Lbig] += cov_kernel.value_at((z,)) / model.beta
            lam_eig = np.fft.fft(col).real
            lam_eig = np.maximum(lam_eig, 0.0)
            noise = rng.standard_normal((replicas, Lbig)) + 0j
            field = np.fft.ifft(np.fft.fft(noise, axis=1) * np.sqrt(lam_eig), axis=1).real
            block = field[:, :ell].sum(axis=1) / math.sqrt(ell)
        elif model == "independent":
            count = 2 * (ell // 2) + 1 if shape == "disk" else ell
            spins = rng.choice((-1.0, 1.0), size=(replicas, count))
            block = spins.sum(axis=1) / math.sqrt(count)
        else:
            raise ValidationError("clt_experiment: unsupported model")
        s2 = float(block.var())
        sig2s.append(s2)
        dists.append(_cf_distance(block, s2, lam_grid))
    if isinstance(model, IsingTorus):
        th = math.tanh(1.0 / model.T)
        sigma2_limit = (1.0 + th) / (1.0 - th)
    elif isinstance(model, QuadraticModel):
        sigma2_limit = 1.0 / model.beta  # sum_z a_inv(z) = 1
    else:
        sigma2_limit = 1.0
    return CLTReport(ells, tuple(dists), sig2s[-1], tuple(sig2s), sigma2_limit)
