"""Exact maximal and subjective correlations for centered Gaussian systems.

For a Gaussian vector split into blocks I and J the maximal correlation is
the largest singular value of Sigma_II^{-1/2} Sigma_IJ Sigma_JJ^{-1/2}, so
everything here reduces to dense linear algebra: Schur-complement
conditioning and whitened cross-covariances.  The periodic damped chain is
circulant in its sites, so it splits into one 2 x 2 problem per real Fourier
mode, each with a closed-form flow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, IntegratorError, ValidationError

OU_CHAIN_K_CAP = 512  # ou_chain_joint holds the 2K x 2K ceq and four K x K corr blocks, and multiplies 2K x 2K matrices

RANK_RTOL = 1e-10  # relative eigenvalue cutoff for dropping deterministic directions


@dataclass(frozen=True)
class GaussianSystem:
    """Labeled symmetric PSD covariance matrix."""

    labels: tuple
    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValidationError("GaussianSystem: covariance must be square")
        if cov.shape[0] != len(self.labels):
            raise ValidationError("GaussianSystem: label count does not match covariance")
        if not np.isfinite(cov).all():
            raise ValidationError("GaussianSystem: covariance entries must be finite numbers")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise ValidationError("GaussianSystem: covariance must be symmetric within 1e-12")
        cov = 0.5 * (cov + cov.T)
        w = np.linalg.eigvalsh(cov)
        norm = max(float(np.abs(w).max()), 1e-300)
        if w.min() < -1e-10 * norm:
            raise ValidationError("GaussianSystem: covariance is not PSD within tolerance")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "cov", cov)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"GaussianSystem: unknown label {label!r}") from None

    def indices(self, labels) -> list:
        return [self.index(l) for l in labels]


def _whitener(S: np.ndarray) -> np.ndarray:
    """W with W^T S W = I on the non-deterministic directions of S."""
    w, U = np.linalg.eigh(S)
    cut = RANK_RTOL * max(float(w.max()), 0.0) if w.size else 0.0
    keep = w > max(cut, 0.0)
    if not keep.any():
        return np.zeros((S.shape[0], 0))
    return U[:, keep] / np.sqrt(w[keep])


def maxcorr_gaussian(sys: GaussianSystem, block_i, block_j) -> float:
    """Maximal correlation between two disjoint blocks of a Gaussian system."""
    idx_i = sys.indices(block_i)
    idx_j = sys.indices(block_j)
    if set(idx_i) & set(idx_j):
        raise ValidationError("maxcorr_gaussian: blocks overlap")
    S = sys.cov
    Wi = _whitener(S[np.ix_(idx_i, idx_i)])
    Wj = _whitener(S[np.ix_(idx_j, idx_j)])
    if Wi.shape[1] == 0 or Wj.shape[1] == 0:
        return 0.0
    C = Wi.T @ S[np.ix_(idx_i, idx_j)] @ Wj
    if C.size == 0:
        return 0.0
    s = float(np.linalg.svd(C, compute_uv=False)[0])
    return min(max(s, 0.0), 1.0)


def condition(sys: GaussianSystem, on_labels) -> GaussianSystem:
    """Conditional covariance given the listed coordinates (Schur complement).

    The result does not depend on the conditioning values, which is what makes
    Gaussian subjective correlation a single number.  Singular conditioning
    blocks are handled by a pseudo-inverse with relative rank cutoff 1e-10.
    """
    K = sys.indices(on_labels)
    A = [i for i in range(len(sys.labels)) if i not in K]
    S = sys.cov
    Skk = S[np.ix_(K, K)]
    w, U = np.linalg.eigh(Skk)
    cut = RANK_RTOL * max(float(w.max()), 0.0) if w.size else 0.0
    inv = np.where(w > max(cut, 0.0), 1.0 / np.where(w > 0, w, 1.0), 0.0)
    pinv = (U * inv) @ U.T
    Sak = S[np.ix_(A, K)]
    Sc = S[np.ix_(A, A)] - Sak @ pinv @ Sak.T
    return GaussianSystem(tuple(sys.labels[i] for i in A), Sc)


def build_optimal_simple(epsilons) -> GaussianSystem:
    """Gaussian system X_i = sqrt(1-a_i) z_i + sqrt(a_i) xi, Y = xi whose
    conditional correlations e_i equal the requested epsilons.

    Given X_1..X_{i-1}, Y has variance v_i = 1/(1 + sum_{t<i} a_t/(1-a_t))
    = prod_{t<i} (1 - e_t^2), and corr(X_i; Y | X_{<i})^2 = e_i^2 solves to
    a_i = e_i^2 / (e_i^2 + v_i (1 - e_i^2)).  The resulting system attains
    the N-against-1 bound with equality.
    """
    eps = np.atleast_1d(np.asarray(epsilons, dtype=float))
    if eps.size and (eps.min() < 0 or eps.max() >= 1):
        raise ValidationError("build_optimal_simple: requires 0 <= eps_i < 1")
    e2 = eps * eps
    v = np.cumprod(np.r_[1.0, 1.0 - e2[:-1]])
    r = np.sqrt(e2 / (e2 + v * (1.0 - e2)))
    k = r.size
    cov = np.empty((k + 1, k + 1))
    cov[:k, :k] = np.outer(r, r)
    np.fill_diagonal(cov[:k, :k], 1.0)
    cov[:k, k] = r
    cov[k, :k] = r
    cov[k, k] = 1.0
    labels = tuple(f"X{t + 1}" for t in range(k)) + ("Y",)
    return GaussianSystem(labels, cov)


@dataclass(frozen=True)
class BandedZZReport:
    e_half: float
    maxcorr: float


def build_banded_zz(alpha: float, k: int) -> BandedZZReport:
    """Banded translation-invariant Gaussian pair on a truncated window.

    X_i (integer i, |i| <= k) and Y_j (half-integer j) share hidden noise with
    their two nearest opposite-type neighbours: Var = 1 + 2 alpha on both
    sides, Cov(X_i, Y_j) = alpha iff |i - j| = 1/2.  Reports the conditional
    correlation e_{1/2} measured on the window and the block correlation.
    """
    if alpha < 0:
        raise ValidationError("build_banded_zz: alpha must be >= 0")
    if k < 2:
        raise ValidationError("build_banded_zz: window k must be >= 2")
    xs = [("x", i) for i in range(-k, k + 1)]
    ys = [("y", i + 0.5) for i in range(-k, k)]
    labels = xs + ys
    npts = len(labels)
    cov = np.zeros((npts, npts))
    for a, (ta, pa) in enumerate(labels):
        cov[a, a] = 1.0 + 2.0 * alpha
        for b, (tb, pb) in enumerate(labels):
            if ta != tb and abs(pa - pb) == 0.5:
                cov[a, b] = alpha
    sys = GaussianSystem(tuple(f"{t}{p}" for t, p in labels), cov)
    if alpha == 0:
        e_half = 0.0
    else:
        past = [f"x{i}" for i in range(-k, 0)] + [f"y{j + 0.5}" for j in range(-k, 0)]
        reduced = condition(sys, past)
        e_half = maxcorr_gaussian(reduced, ["x0"], ["y0.5"])
    rho = maxcorr_gaussian(sys, [f"x{i}" for i in range(-k, k + 1)], [f"y{i + 0.5}" for i in range(-k, k)])
    return BandedZZReport(float(e_half), float(rho))


# ---------------------------------------------------------------------------
# damped harmonic chain (kinetic Fokker-Planck toy model)


@dataclass(frozen=True)
class OUChainParams:
    m: float = 1.0       # particle mass
    omega: float = 1.0   # pinning frequency
    c: float = 1.0       # coupling frequency
    T: float = 1.0       # temperature
    lam: float = 1.0     # friction rate
    t: float = 1.0       # time horizon
    K: int = 16          # number of particles (periodic chain)

    def __post_init__(self):
        for name in ("m", "omega", "c", "T", "lam", "t"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"OUChainParams: {name} must be finite and strictly positive")
        if self.K < 3:
            raise ValidationError("OUChainParams: K must be >= 3")
        if self.K > OU_CHAIN_K_CAP:
            raise CapExceededError(f"OUChainParams: K above cap {OU_CHAIN_K_CAP}")


@dataclass(frozen=True)
class OUChainReport:
    maxcorr: float                    # {eta : eta'} under the joint law of (eta, eta')
    corr_pp: np.ndarray               # |corr(p_i, p'_j)| matrices, etc.
    corr_pq: np.ndarray
    corr_qp: np.ndarray
    corr_qq: np.ndarray
    ceq: np.ndarray                   # equilibrium covariance of eta
    qbar_range: tuple                 # (r, R) for the rescaled joint precision
    stationarity_residual: float


def _ou_drift(params: OUChainParams) -> np.ndarray:
    K = params.K
    eye = np.eye(K)
    lap = 2 * eye - np.roll(eye, 1, axis=0) - np.roll(eye, -1, axis=0)
    A = np.zeros((2 * K, 2 * K))
    A[:K, :K] = -params.lam * eye
    A[:K, K:] = -params.m * (params.omega**2 * eye + params.c**2 * lap)
    A[K:, :K] = eye / params.m
    return A


def _ou_modes(params: OUChainParams) -> tuple:
    """(ceq, phi, chat) of the real Fourier modes k = 0..K//2 of the chain.

    The drift, the noise and the Gibbs law are circulant in the sites, so the
    real DFT splits the chain into independent (p_k, q_k) oscillators of
    frequency om2_k = omega^2 + 4 c^2 sin^2(pi k / K); modes k and K - k
    coincide.  Each of ceq, phi and chat is a (K//2 + 1, 2, 2) stack: the
    Gibbs covariance diag(T m, T / (m om2)), the flow e^{t A_k} in closed form
    (A_k has trace -lam and determinant om2), and the noise covariance
    chat = ceq - phi ceq phi^T.  That difference cancels at short horizons,
    where chat_qq ~ (2/3) T lam t^3 / m: it keeps about 16 - log10(ceq_qq /
    chat_qq) digits.
    """
    K, m, lam, t = params.K, params.m, params.lam, params.t
    half = 0.5 * lam
    with np.errstate(all="ignore"):  # extreme parameters overflow; checked below
        # products, not powers: a float power that overflows raises, a product gives inf
        om2 = params.omega * params.omega + 4.0 * params.c * params.c * np.sin(np.pi * np.arange(K // 2 + 1) / K) ** 2
        d2 = half * half - om2  # e^{tA} = e^{-half t} (cosh(d t) I + sinh(d t) / d (A + half I)), d^2 = d2
        nu = np.sqrt(np.abs(d2))
        over = d2 > 0
        # overdamped: the envelope decays at the slow rate half - nu = om2 / (half + nu)
        env = np.exp(-np.where(over, om2 / (half + nu), half) * t)
        cosh = np.where(over, env * (1.0 + np.exp(-2.0 * nu * t)) / 2.0, env * np.cos(nu * t))
        sinh = np.where(over, env * -np.expm1(-2.0 * nu * t) / (2.0 * nu), env * np.sin(nu * t) / nu)
        sinh = np.where(nu > 0, sinh, t * env)
        cosh, sinh = np.where(env > 0, cosh, 0.0), np.where(env > 0, sinh, 0.0)  # fully mixed
        phi = np.stack([np.stack([cosh - half * sinh, -m * om2 * sinh], -1),
                        np.stack([sinh / m, cosh + half * sinh], -1)], -2)
        ceq = np.zeros_like(phi)
        ceq[:, 0, 0] = params.T * m
        ceq[:, 1, 1] = params.T / (m * om2)
        chat = ceq - phi @ ceq @ phi.transpose(0, 2, 1)
    if not (np.isfinite(chat).all() and np.isfinite(phi).all() and (ceq.diagonal(axis1=1, axis2=2) > 0).all()):
        raise IntegratorError("ou_noise_covariance: the per-mode flow, Gibbs law or noise covariance "
                              "has non-finite or zero values")
    return ceq, phi, 0.5 * (chat + chat.transpose(0, 2, 1))


def _assemble(stack: np.ndarray, K: int) -> np.ndarray:
    """The 2K x 2K (p, q) block matrix whose blocks are the symmetric circulants with
    eigenvalue stack[k, a, b] on real Fourier mode k, for a (K//2 + 1, 2, 2) stack."""
    rows = np.fft.irfft(stack, K, axis=0)  # first row of each block
    d = np.abs(np.arange(K)[:, None] - np.arange(K))
    return rows[np.minimum(d, K - d)].transpose(2, 0, 3, 1).reshape(2 * K, 2 * K)  # exactly symmetric blocks


def ou_noise_covariance(params: OUChainParams) -> tuple:
    """(Chat, phi): the Lyapunov integral int_0^t e^{sA} B e^{sA^T} ds with
    B = 2 T lam m I_p, and the flow phi = e^{tA}, assembled from the per-mode
    blocks of _ou_modes."""
    _, phi, chat = _ou_modes(params)
    return _assemble(chat, params.K), _assemble(phi, params.K)


def ou_chain_joint(params: OUChainParams) -> OUChainReport:
    """Joint law of eta = (p, q) and eta' = e^{tA} eta + noise under the Gibbs law, one
    real Fourier mode at a time (_ou_modes).

    maxcorr is the largest canonical correlation over the modes, the top singular
    value of ceq_k^{-1/2} phi_k ceq_k^{1/2}; qbar_range is the spectral range of
    the per-mode 4 x 4 joint precisions, momenta rescaled by chi = m omega;
    ceq and the corr_* blocks are assembled from the modes.
    stationarity_residual is max |A ceq + ceq A^T + B| on the assembled ceq and
    the site-space drift A: the Lyapunov equation of the Gibbs law, which no
    step above uses.
    """
    K, T = params.K, params.T
    ceq_k, phi, chat = _ou_modes(params)
    phit = phi.transpose(0, 2, 1)
    sd = np.sqrt(np.diagonal(ceq_k, axis1=1, axis2=2))
    rho = float(np.linalg.svd(phi * sd[:, None, :] / sd[:, :, None], compute_uv=False)[:, 0].max())
    ceq = _assemble(ceq_k, K)
    with np.errstate(all="ignore"):  # checked below
        lyap = _ou_drift(params) @ ceq
        lyap = lyap + lyap.T
        lyap[:K, :K] += 2 * T * params.lam * params.m * np.eye(K)
    residual = float(np.abs(lyap).max())
    if not math.isfinite(residual):
        raise IntegratorError("ou_chain_joint: the Lyapunov residual is not finite at these parameters")
    sd_sites = np.sqrt(np.diag(ceq))
    corr = np.abs(_assemble(ceq_k @ phit, K)) / np.outer(sd_sites, sd_sites)  # |Cov(eta, eta')|
    # joint precision of (eta, eta') per mode, momentum coordinates rescaled by chi = m*omega
    try:
        qhat = T * np.linalg.inv(chat)
    except np.linalg.LinAlgError:
        raise IntegratorError("ou_chain_joint: noise covariance is singular at this horizon") from None
    qcheck = T * np.linalg.inv(ceq_k)
    scale = np.array([params.m * params.omega, 1.0] * 2)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        qbar = np.block([[qcheck + phit @ qhat @ phi, -phit @ qhat], [-qhat @ phi, qhat]])
        qbar_scaled = qbar * np.outer(scale, scale)
    if not np.all(np.isfinite(qbar_scaled)):
        raise IntegratorError("ou_chain_joint: joint precision is not finite at this horizon")
    wq = np.linalg.eigvalsh(0.5 * (qbar_scaled + qbar_scaled.transpose(0, 2, 1)))
    if wq.min() <= 0:  # positive definite in exact arithmetic: rounding has swamped chat
        raise IntegratorError("ou_chain_joint: joint precision is not positive definite at this horizon")
    return OUChainReport(
        maxcorr=min(max(rho, 0.0), 1.0),
        corr_pp=corr[:K, :K],
        corr_pq=corr[:K, K:],
        corr_qp=corr[K:, :K],
        corr_qq=corr[K:, K:],
        ceq=ceq,
        qbar_range=(float(wq.min()), float(wq.max())),
        stationarity_residual=residual,
    )


def ou_smallt_coefficients(params: OUChainParams, t: float) -> dict:
    """Richardson-extrapolated leading coefficients of the noise covariance.

    Chat_pp ~ 2 T lam m t, Chat_pq ~ T lam t^2, Chat_qq ~ (2/3) T lam t^3 / m.
    The friction factor e^{-lam s} of the flow makes the relative correction
    linear in t, so the first-order step 2 g(t/2) - g(t) cancels it, leaving
    O(t^2).  Also returns log2 decay slopes of |Chat_{p0 pj}| in t.
    """
    K = params.K

    def chat_at(tt):
        p = OUChainParams(params.m, params.omega, params.c, params.T, params.lam, tt, K)
        return ou_noise_covariance(p)[0]

    c1 = chat_at(t)
    c2 = chat_at(t / 2)

    def rich(g1, g2):
        return 2.0 * g2 - g1

    out = {
        "pp": rich(c1[0, 0] / t, c2[0, 0] / (t / 2)),
        "pq": rich(c1[0, K] / t**2, c2[0, K] / (t / 2) ** 2),
        "qq": rich(c1[K, K] / t**3, c2[K, K] / (t / 2) ** 3),
        "pp_expected": 2 * params.T * params.lam * params.m,
        "pq_expected": params.T * params.lam,
        "qq_expected": 2.0 / 3.0 * params.T * params.lam / params.m,
    }
    for j in (1, 2):
        out[f"slope_pp_{j}"] = float(np.log2(abs(c1[0, j]) / abs(c2[0, j])))
        out[f"slope_pp_{j}_expected"] = 2 * j + 1
    return out


# ---------------------------------------------------------------------------
# three concurrent lines in R^3


@dataclass(frozen=True)
class ThreeLinesReport:
    geometric: tuple   # angles (A, B, Om) between (L2,L3), (L3,L1), (L1,L2)
    apparent: tuple    # apparent angles (A', B', Om') seen from L1, L2, L3
    sine_ratios: tuple
    order: str         # "apparent<geometric" | "equal" | "apparent>geometric"


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise ValidationError("three_lines: each direction must be a finite 3-vector")
    scale = np.abs(v).max()
    if scale == 0:
        raise ValidationError("three_lines: zero vector does not define a line")
    # largest entry scaled into [0.5, 1) by a power of two, which rounds nothing: the norm
    # neither overflows nor underflows, and a vector it did not do so for keeps its bits
    v = np.ldexp(v, -np.frexp(scale)[1])
    return v / np.linalg.norm(v)


def _line_sines(U: np.ndarray) -> tuple:
    """(sin_geometric, sin_apparent), each (k, 3), of k triples of unit directions U (k, 3, 3).

    Column c is the angle seen from line c between the other two lines a, b:
    the pairs (1, 2), (2, 0), (0, 1).  The geometric sine is |a x b|; the
    apparent sine is |p_a x p_b| / (|p_a| |p_b|) for the projections p_a, p_b
    of a, b onto the plane normal to line c.  Sines are taken from cross
    products (stable near zero angle).  A collinear pair gives a zero
    geometric sine, and its apparent sines may be nan.  Row dot products go
    through matmul, which rounds like a 1-d ``x @ y`` and so like
    ``np.linalg.norm`` of one vector.
    """
    dot = lambda x, y: (x[..., None, :] @ y[..., :, None])[..., 0, 0]
    norm = lambda v: np.sqrt(dot(v, v))
    a, b = U[:, [1, 2, 0]], U[:, [2, 0, 1]]
    pa = a - dot(a, U)[..., None] * U
    pb = b - dot(b, U)[..., None] * U
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_a = norm(np.cross(pa, pb)) / (norm(pa) * norm(pb))
    return norm(np.cross(a, b)), sin_a


def three_lines(u1, u2, u3) -> ThreeLinesReport:
    """Geometric vs apparent angles of three distinct lines through the origin.

    The three ratios sin(apparent)/sin(geometric) agree to 1e-10 and
    therefore so do the relative orders, which is asserted.
    """
    sin_g, sin_a = _line_sines(np.array([[_unit(u1), _unit(u2), _unit(u3)]]))
    if sin_g.min() < 1e-12:
        raise ValidationError("three_lines: lines must be pairwise non-collinear")
    sins_g, sins_a = sin_g[0].tolist(), sin_a[0].tolist()
    ratios = tuple(sa / sg for sa, sg in zip(sins_a, sins_g))
    if max(ratios) - min(ratios) > 1e-10:
        raise ValidationError("three_lines: sine-ratio identity violated beyond 1e-10")
    geo = tuple(math.asin(min(s, 1.0)) for s in sins_g)
    app = tuple(math.asin(min(s, 1.0)) for s in sins_a)
    r = ratios[0]
    order = "equal" if abs(r - 1.0) <= 1e-12 else ("apparent<geometric" if r < 1 else "apparent>geometric")
    return ThreeLinesReport(geo, app, ratios, order)


# ---------------------------------------------------------------------------
# variance decomposition table for a linear functional of a mixed system


def vtable(mixing: np.ndarray) -> np.ndarray:
    """V[j][i] table for f = sum_i X_i under the mixing-matrix model.

    ``mixing`` has one row of independent-noise coefficients per X variable
    and a final row for Y.  V[j][i] is the variance of the increment of the
    projection of f onto span(Y-rows up to j, X-rows up to i).
    """
    Mx = np.asarray(mixing, dtype=float)
    n = Mx.shape[0] - 1
    a_rows = Mx[:n]
    w = Mx[n]
    f = np.ones(n) @ a_rows

    def proj(rows, v):
        if not rows:
            return np.zeros_like(v)
        Q, _ = np.linalg.qr(np.array(rows).T)
        return Q @ (Q.T @ v)

    out = np.zeros((2, n))
    for j in (0, 1):
        base = [w] if j == 1 else []
        for i in range(1, n + 1):
            hi = proj(base + [a_rows[t] for t in range(i)], f)
            lo = proj(base + [a_rows[t] for t in range(i - 1)], f)
            out[j, i - 1] = float((hi - lo) @ (hi - lo))
    return out


def par411_report() -> dict:
    """The worked 3x3 mixing example: its correlations, l2 sum bound and V table."""
    from .tensor_bounds import l2_sum_bound

    M = np.array([[4.0, 1, 1], [1, 4, 1], [1, 1, 4]])
    sys = GaussianSystem(("X1", "X2", "Y"), M @ M.T)
    x1y = maxcorr_gaussian(sys, ["X1"], ["Y"])
    x2y = maxcorr_gaussian(sys, ["X2"], ["Y"])
    return {
        "x1_y": x1y,
        "x2_y": x2y,
        "x1_y_given_x2": maxcorr_gaussian(condition(sys, ["X2"]), ["X1"], ["Y"]),
        "vec_y": maxcorr_gaussian(sys, ["X1", "X2"], ["Y"]),
        "l2_sum_bound": l2_sum_bound([x1y, x2y]),
        "vtable": vtable(M),
    }
