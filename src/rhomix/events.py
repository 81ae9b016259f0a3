"""Event sufficient conditions for maximal-correlation bounds.

The strong criterion: if P[A∩B] - P[A]P[B] <= eps sqrt(P[A]P[Ā]P[B]P[B̄]) for
all events then the maximal correlation is at most
Lambda(eps) = eps (1 + |ln eps|).  The sharp constant is the operator norm of
the transfer operator of the Chogosov law, the measure on (0,1)^2 with CDF
Z(p,q) = (pq + eps sqrt(p(1-p)q(1-q))) ∧ p ∧ q; this module computes that
measure, its conditional quantile, a sampler, the discretized transfer
operator, and the near-optimal measure nu that shows Lambda cannot be improved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError

OPNORM_MIN_GRID = 256
OPNORM_MAX_GRID = 1 << 22
SAMPLE_CAP = 1 << 22  # chogosov_sample peaks at about 13 floats per sample
NU_UNION_SAMPLES = 2000  # seeded random unions scanned by nu_event_ratio
# where the floor cuts no stride-8 event, nu_event_ratio scans (m^2/128)^2 of its interval pairs at m/8
# multiply-adds each: time grows like m^5
NU_GRID_CAP = 768


def lambda_fn(eps: float) -> float:
    """Lambda(eps) = eps (1 + |ln eps|), the strong event-criterion constant."""
    if not 0 <= eps <= 1:
        raise ValidationError("lambda_fn: eps must be a finite number in [0, 1]")
    if eps == 0:
        return 0.0
    return float(eps * (1.0 + abs(math.log(eps))))


# ---------------------------------------------------------------------------
# the Chogosov law


@dataclass(frozen=True)
class ChogosovModel:
    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValidationError("ChogosovModel: eps must lie in (0, 1)")

    def q_lower(self, p):
        """Lower zone border q_D(p): on it q(1-p) = eps^2 p(1-q)."""
        e2 = self.eps**2
        p = np.asarray(p, dtype=float)
        return e2 * p / ((1.0 - p) + e2 * p)

    def q_upper(self, p):
        """Upper zone border q_U(p): on it p(1-q) = eps^2 q(1-p)."""
        e2 = self.eps**2
        p = np.asarray(p, dtype=float)
        return p / (p + e2 * (1.0 - p))


def chogosov_cdf(model: ChogosovModel, p, q):
    """Z(p,q) = (pq + eps sqrt(p(1-p)q(1-q))) ∧ p ∧ q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    core = p * q + model.eps * np.sqrt(np.maximum(p * (1 - p) * q * (1 - q), 0.0))
    return np.minimum(np.minimum(p, q), core)


def chogosov_zone(model: ChogosovModel, p: float, q: float) -> str:
    """Zone of (p,q): '1' (Z=p), '2' (interior), '3' (Z=q), or border 'U'/'D'."""
    if not (0 < p < 1 and 0 < q < 1):
        raise ValidationError("chogosov_zone: p, q must lie in (0, 1)")
    e2 = model.eps**2
    # eps^2 (for eps below about 1.6e-162) and q (1 - p) may underflow to 0
    inv_e2 = 1.0 / e2 if e2 > 0 else math.inf
    den = q * (1 - p)
    r = p * (1 - q) / den if den > 0 else math.inf
    if abs(r - e2) < 1e-12:
        return "U"
    if abs(r - inv_e2) < 1e-12:
        return "D"
    if r < e2:
        return "1"
    if r > inv_e2:
        return "3"
    return "2"


def _interior_root(model: ChogosovModel, p, w):
    """Root q of q - c sqrt(q(1-q)) = w, c = eps (p-1/2)/sqrt(p(1-p)), for 0 < w < 1.

    The equation squares to (1+c^2) q^2 - (2w+c^2) q + w^2 = 0.  For c >= 0
    the root is the large one; for c < 0 it is the small one, computed as the
    product of the roots w^2/(1+c^2) over the large one, so that it loses no
    digits to cancellation.
    """
    c = model.eps * (p - 0.5) / np.sqrt(p * (1.0 - p))
    c2 = c * c
    big = 2.0 * w + c2 + np.abs(c) * np.sqrt(c2 + 4.0 * w * (1.0 - w))
    return np.where(c >= 0, big / (2.0 * (1.0 + c2)), 2.0 * w * w / big)


def _quantile(model: ChogosovModel, p, w) -> tuple:
    """Q(p, w) elementwise and its branch: -1 lower curve, 0 interior, +1 upper curve."""
    p, w = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(w, dtype=float))
    qD = model.q_lower(p)
    qU = model.q_upper(p)
    w_lo = qD / (2.0 * p)
    w_hi = 1.0 - (1.0 - qU) / (2.0 * (1.0 - p))
    branch = np.where(w <= w_lo, -1.0, np.where(w >= w_hi, 1.0, 0.0))
    q = np.where(branch < 0, qD, qU)
    inner = branch == 0
    q[inner] = _interior_root(model, p[inner], w[inner])
    return q, branch


def chogosov_quantile(model: ChogosovModel, p: float, w: float) -> float:
    """Conditional quantile Q(p, w) of the second coordinate given the first.

    Piecewise: the lower-curve atom for w below q_D/(2p), the upper-curve atom
    for w above 1 - (1-q_U)/(2(1-p)), and otherwise the root of
    q - c sqrt(q(1-q)) = w with c = eps (p-1/2)/sqrt(p(1-p)): with
    r = sqrt(c^2 + 4w(1-w)), q = (2w + c^2 + c r)/(2(1+c^2)) for c >= 0 and
    q = 2w^2/(2w + c^2 + |c| r) for c < 0.
    """
    if not (0 < p < 1):
        raise ValidationError("chogosov_quantile: p must lie in (0, 1)")
    if not (0 <= w <= 1):
        raise ValidationError("chogosov_quantile: omega must lie in [0, 1]")
    return float(_quantile(model, p, w)[0])


def _check_sample_count(n: int) -> None:
    """Raise ValidationError if n < 1 and CapExceededError if n > SAMPLE_CAP."""
    if not 1 <= n <= SAMPLE_CAP:
        raise (ValidationError if n < 1 else CapExceededError)(
            f"chogosov sample: --n must be >= 1 and <= cap {SAMPLE_CAP}, got {n}")


def chogosov_sample(model: ChogosovModel, n: int, seed: int = 0) -> np.ndarray:
    """n exact samples of the law by inverse transform; columns (p, q, branch).

    branch is -1 on the lower curve, 0 in the interior, +1 on the upper curve;
    the cloud is deterministic per seed.
    """
    _check_sample_count(n)
    rng = np.random.default_rng(seed)
    ps = rng.uniform(size=n)
    ws = rng.uniform(size=n)
    q, branch = _quantile(model, ps, ws)
    return np.column_stack((ps, q, branch))


# ---------------------------------------------------------------------------
# discretized transfer operator


def transfer_matvec(model: ChogosovModel, m: int):
    """The cell transfer operator T[i,j] = m mass(C_i x C_j) as an O(m) matvec.

    With q_k = k/m and d_k = v_{k-1} - v_k (v_{-1} = v_m = 0), (Tv)_i =
    m (y_{i+1} - y_i) for y_i = sum_k Z(q_i, q_k) d_k.  Along a row the CDF is
    q below the border index a_i (q_k <= q_lower), p from b_i on (q_k >=
    q_upper) and pq + eps s(p) s(q) between, s = sqrt(q(1-q)); so y needs the
    prefix sums C of q d and S of s d, while that of d telescopes to -v.

    ``apply(v)`` returns (Tv, beta), beta >= |fl(Tv) - Tv|_inf to first order
    in the unit roundoff u.  Each term of C and S is formed with relative
    error <= 5u and each step of a recursive prefix sum adds <= u |C_j|, so
    every C_j is within u (|C|_1 + 5 |d|_1), and likewise S_j.  y_i weighs
    them with coefficients of modulus <= 1 (eps s <= 1/2) and rounds a few
    more times, within 10u (2|C|_inf + |S|_inf + 2|v|_inf); that also covers
    a grid point within a few ulps of a zone border put on its wrong side,
    where the two formulas for Z differ by O(u).  Hence beta = 2m e_y +
    2u |Tv|_inf, e_y = u (|C|_1 + |S|_1 + 10 |d|_1 + 10 (2|C|_inf + |S|_inf + 2|v|_inf)).
    """
    q = np.linspace(0.0, 1.0, m + 1)
    s = np.sqrt(q * (1.0 - q))
    a = np.searchsorted(q, model.q_lower(q), side="right")
    b = np.searchsorted(q, model.q_upper(q), side="left")
    unit = np.finfo(float).eps / 2

    def apply(v):
        vp = np.concatenate(([0.0], v, [0.0]))
        d = vp[:-1] - vp[1:]
        C, S = (np.concatenate(([0.0], np.cumsum(c * d))) for c in (q, s))
        y = (1.0 - q) * C[a] + q * C[b] + model.eps * s * (S[b] - S[a]) + q * vp[b]
        w = m * np.diff(y)
        e_y = unit * (np.abs(C).sum() + np.abs(S).sum() + 10.0 * np.abs(d).sum()
                      + 10.0 * (2.0 * np.abs(C).max() + np.abs(S).max() + 2.0 * np.abs(v).max()))
        return w, float(2.0 * m * e_y + 2.0 * unit * np.abs(w).max())

    return apply


def truncated_quasi_eigenvector(m: int, eta: float) -> np.ndarray:
    """Cell-midpoint samples of p -> int_{1/2}^p (s(1-s))^{-3/2} ds, zeroed
    within eta of the endpoints.  Closed form: 2(2p-1)/sqrt(p(1-p))."""
    mid = (np.arange(m) + 0.5) / m
    f = 2.0 * (2.0 * mid - 1.0) / np.sqrt(mid * (1.0 - mid))
    f[(mid < eta) | (mid > 1.0 - eta)] = 0.0
    return f - f.mean()


@dataclass(frozen=True)
class OpnormReport:
    rho_hat: float
    rayleigh_quotient: float  # of the truncated quasi-eigenvector
    m: int
    iterations: int  # matvecs


def _check_grid(m: int) -> None:
    """Raise ValidationError if m < OPNORM_MIN_GRID and CapExceededError if m > OPNORM_MAX_GRID."""
    if not OPNORM_MIN_GRID <= m <= OPNORM_MAX_GRID:
        raise (ValidationError if m < OPNORM_MIN_GRID else CapExceededError)(
            f"chogosov opnorm: --m must be >= {OPNORM_MIN_GRID} and <= cap {OPNORM_MAX_GRID}, got {m}")


def chogosov_opnorm(model: ChogosovModel, m: int) -> OpnormReport:
    """Norm of the grid transfer operator on mean-zero functions, from below.

    Implicitly restarted Lanczos (``eigsh``, largest magnitude) runs on the
    O(m) matvec of ``transfer_matvec`` with the mean projected out before
    and after each product, warm-started at the truncated quasi-eigenvector.
    rho_hat is the Rayleigh quotient of the unit, mean-zero Ritz vector x less
    its rounding bound |x|_1 beta + 4mu |Tx|_2 (the matvec's bound, then the
    dot product's and the normalization's), so it is a certified lower bound
    on the grid norm at any Lanczos tolerance; the grid norm in turn never
    exceeds Lambda(eps).  rho_hat is at least |rayleigh_quotient|, that of
    the quasi-eigenvector.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    m = int(m)
    _check_grid(m)
    apply = transfer_matvec(model, m)
    f = truncated_quasi_eigenvector(m, 4.0 / m)
    rq0 = float(f @ apply(f)[0] / (f @ f))
    calls = 2  # the quasi-eigenvector's product and the Ritz vector's

    def matvec(v):
        nonlocal calls
        calls += 1
        w = apply(np.ravel(v) - np.mean(v))[0]
        return w - w.mean()

    _, vecs = eigsh(LinearOperator((m, m), matvec=matvec, dtype=float), k=1, which="LM", v0=f, tol=1e-12)
    x = vecs[:, 0] - vecs[:, 0].mean()
    x /= np.linalg.norm(x)
    w, beta = apply(x)
    rq = float(x @ w)
    bound = np.abs(x).sum() * beta + 2.0 * m * np.finfo(float).eps * np.linalg.norm(w)
    return OpnormReport(float(max(abs(rq) - bound, abs(rq0))), rq0, m, calls)


# ---------------------------------------------------------------------------
# closed-form identities for the local operator and the lambda integral


def lstar_identity(model: ChogosovModel, ps) -> float:
    """Max residual of L* f = Lambda f for f(p) = p^{-1/2} (closed forms).

    The local operator acts by (L*f)(p) = int_{e^2 p}^{p/e^2} f(q) eps/(4 sqrt(pq)) dq
    + (eps^2/2) f(eps^2 p) + (1/2) f(p/eps^2); with f = p^{-1/2} the integral
    is eps |ln eps| / sqrt(p) and each atom contributes eps / (2 sqrt(p)).
    """
    eps = model.eps
    lam = lambda_fn(eps)
    worst = 0.0
    for p in np.atleast_1d(np.asarray(ps, dtype=float)):
        if not 0 < p < math.inf:
            raise ValidationError("lstar_identity: p must be finite and > 0")
        integral = eps * abs(math.log(eps)) / math.sqrt(p)
        atom_lower = (eps**2 / 2.0) * (eps**2 * p) ** -0.5
        atom_upper = 0.5 * (p / eps**2) ** -0.5
        lhs = integral + atom_lower + atom_upper
        rhs = lam / math.sqrt(p)
        worst = max(worst, abs(lhs - rhs))
    return float(worst)


@dataclass(frozen=True)
class LambdaIntegral:
    value: float
    atom_lower: float
    atom_upper: float
    interior: float


def lambda_integral_identity(model: ChogosovModel, p: float) -> LambdaIntegral:
    """lambda(p) = int_0^1 (p p̄ / (Q Q̄))^{3/2} Q'(p, w) dw, in three pieces.

    The two curve atoms are closed-form; the interior piece is adaptive
    quadrature in w of the closed-form quantile Q.  The result is Lambda(eps)
    independently of p (asserted by the caller to 1e-8).
    """
    from scipy.integrate import quad

    if not (0 < p < 1):
        raise ValidationError("lambda_integral_identity: p must lie in (0, 1)")
    eps = model.eps
    pb, pt = 1.0 - p, p - 0.5
    qD = float(model.q_lower(p))
    qU = float(model.q_upper(p))
    w_lo = qD / (2.0 * p)
    w_hi = 1.0 - (1.0 - qU) / (2.0 * pb)

    def weight(q):
        return (p * pb / (q * (1.0 - q))) ** 1.5

    # the curve atoms move with slope dq/dp = q q̄ / (p p̄)
    atom_lower = w_lo * weight(qD) * (qD * (1 - qD)) / (p * pb)
    atom_upper = (1.0 - w_hi) * weight(qU) * (qU * (1 - qU)) / (p * pb)

    def integrand(w):  # quad samples only the interior, w_lo < w < w_hi
        q = float(_interior_root(model, p, w))
        qb, qt = 1.0 - q, q - 0.5
        dens = 1.0 + eps * pt * qt / math.sqrt(p * pb * q * qb)
        qprime = eps * math.sqrt(q * qb) / (4.0 * math.sqrt(p * pb) ** 3 * dens)
        return weight(q) * qprime

    interior, _ = quad(integrand, w_lo, w_hi, limit=300, epsabs=1e-12, epsrel=1e-12)
    return LambdaIntegral(atom_lower + interior + atom_upper, atom_lower, atom_upper, interior)


# ---------------------------------------------------------------------------
# the near-optimal measure nu


@dataclass(frozen=True)
class NuModel:
    """The near-optimal measure nu on an m x m grid, for 0 < x <= eps < 1 and factor < 1.

    The range is read off nu_cell_masses' construction and factor.  The corner
    measure and the mixed density 1 - (eps/2) sqrt(x/p) >= 1/2 are nonnegative for
    any eps and x, and the uniform weight 1 - (2 - eps) x on (x, 1)^2 is nonnegative
    for x <= 1 / (2 - eps), so nu is a probability measure there.  factor's second
    term x (eps - x) / (eps (1 - x)^2) is nonnegative for x <= eps, and it goes
    negative beyond: (0.5, 0.65) has factor -0.163 and scans a worst ratio of 0.650
    at m = 512.  eps (2 - eps) <= 1 for every eps, so x <= eps gives both.  factor < 1
    keeps the bound below the trivial one.
    """

    eps: float
    x: float
    m: int = 512

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0) or not (0.0 < self.x < 1.0):
            raise ValidationError("NuModel: eps and x must lie in (0, 1)")
        if self.m < 8:
            raise ValidationError("NuModel: grid resolution must be >= 8")
        if self.m > NU_GRID_CAP:
            raise CapExceededError(f"NuModel: grid resolution above cap {NU_GRID_CAP}")
        if self.x > self.eps:
            raise ValidationError(f"NuModel: x must lie in (0, eps] = (0, {self.eps!r}]; beyond it nu can have "
                                  f"negative cells and factor does not bound its event ratio; got x = {self.x!r}")
        if self.factor >= 1.0:
            raise ValidationError("NuModel: factor >= 1, choose a smaller x")

    @property
    def factor(self) -> float:
        """eps/(1-x) + (eps x - x^2)/(eps (1-x)^2), the event-ratio bound for nu."""
        e, x = self.eps, self.x
        return e / (1 - x) + (e * x - x * x) / (e * (1 - x) ** 2)


def mu_star_cdf(eps: float, p, q):
    """CDF of the scale-invariant corner measure: eps sqrt(pq) ∧ p ∧ q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.minimum(np.minimum(p, q), eps * np.sqrt(p * q))


def nu_cell_masses(model: NuModel) -> np.ndarray:
    """Exact cell masses of nu on the m x m grid.

    nu agrees with the corner measure on (0,x]^2, is zero on
    (0, eps^2 x] x (x,1) and its mirror, has the mixed density
    (1 - (eps/2) sqrt(x/p)) dp x dq/(1-x) on (eps^2 x, x] x (x,1), and is
    uniform with total weight 1-(2-eps)x on (x,1)^2.  The antiderivative of
    the mixed density is p - eps sqrt(x p).
    """
    e, x, m = model.eps, model.x, model.m
    g = np.linspace(0.0, 1.0, m + 1)
    M = np.zeros((m, m))
    # corner: clip each cell to (0,x]^2 and take CDF differences
    pc = np.clip(g, 0.0, x)
    P1, Q1 = np.meshgrid(pc[:-1], pc[:-1], indexing="ij")
    P2, Q2 = np.meshgrid(pc[1:], pc[1:], indexing="ij")
    Zf = lambda a, b: mu_star_cdf(e, a, b)
    M += Zf(P2, Q2) - Zf(P1, Q2) - Zf(P2, Q1) + Zf(P1, Q1)

    def strip_F(a, b):
        """integral of (1 - (eps/2) sqrt(x/p)) over (a, b) clipped to (eps^2 x, x]."""
        a = np.clip(a, e * e * x, x)
        b = np.clip(b, e * e * x, x)
        F = lambda t: t - e * np.sqrt(x * t)
        return np.maximum(F(b) - F(a), 0.0)

    len_hi = np.maximum(np.clip(g[1:], x, 1.0) - np.clip(g[:-1], x, 1.0), 0.0)
    fp = strip_F(g[:-1], g[1:])
    M += np.outer(fp, len_hi) / (1.0 - x)
    M += np.outer(len_hi, fp) / (1.0 - x)
    M += (1.0 - (2.0 - e) * x) * np.outer(len_hi, len_hi) / (1.0 - x) ** 2
    return M


@dataclass(frozen=True)
class NuEventReport:
    worst_ratio: float
    factor: float
    witness_correlation: float


def _nu_event_families(cells: np.ndarray, seed: int) -> dict:
    """nu_event_ratio's three event families as {name: (table, A, B)}, A and B 0/1 indicators
    over the rows and columns of the table.

    The anchored intervals and the random unions index the m x m cells.  Every
    stride-8 interval is a union of whole 8-cell blocks, so that family
    indexes the table of 8 x 8 block sums, zero-padded to ceil(m/8) blocks a
    side: the same events, with masks 8 times narrower and 8 times fewer
    multiply-adds per pair.
    """
    m = len(cells)
    idx = np.arange(m)
    anchored = (idx < np.arange(1, m)[:, None]).astype(float)  # [0, k), k = 1..m-1
    nb = -(-m // 8)
    padded = np.zeros((8 * nb, 8 * nb))
    padded[:m, :m] = cells
    blocks = padded.reshape(nb, 8, nb, 8).sum(axis=(1, 3))
    marks = np.arange(m // 8 + 1)  # block boundaries 0, 8, ..., 8 floor(m/8) of the cells
    lo, hi = np.meshgrid(marks, marks, indexing="ij")
    keep = lo < hi
    bidx = np.arange(nb)
    stride8 = ((bidx >= lo[keep][:, None]) & (bidx < hi[keep][:, None])).astype(float)
    rng = np.random.default_rng(seed)
    ends = np.full((NU_UNION_SAMPLES, 8), m)  # up to 4 intervals a row; the padding pairs into empty ones
    for row in ends:
        k = int(rng.integers(1, 5))
        row[:2 * k] = rng.integers(0, m + 1, size=2 * k)
    ends.sort(axis=1)
    # +1 at each start, -1 at each end: a cell lies in the union iff its running count is
    # positive; counted, summed and marked in one array, as exact small floats
    unions = np.zeros((NU_UNION_SAMPLES, m + 1))
    np.add.at(unions, (np.arange(NU_UNION_SAMPLES)[:, None], ends), np.tile([1.0, -1.0], 4))
    unions = np.greater(np.cumsum(unions, axis=1, out=unions), 0, out=unions)[:, :m]
    size = unions.sum(axis=1)
    unions = unions[(size > 0) & (size < m)]
    half = len(unions) // 2
    return {"anchored": (cells, anchored, anchored), "stride8": (blocks, stride8, stride8),
            "unions": (cells, unions[:half], unions[half:])}


def nu_event_ratio(model: NuModel, seed: int = 0) -> NuEventReport:
    """Worst normalized event deviation of nu over a scanned event family.

    The scan covers every anchored-interval pair (the extremizers), every
    single-interval pair on a stride-8 subgrid, and the first half of the
    nontrivial ones among NU_UNION_SAMPLES seeded random unions of up to 4
    intervals against the second half; the stride-8 family is scanned on the
    table of 8 x 8 block sums (_nu_event_families).  Each family is one
    _event_max, in the order anchored, stride-8, unions, with the running
    maximum as its floor: an event whose bound u falls below it is not scanned,
    so a family that cannot beat the anchored maximum costs its bound alone.
    The cells are scanned as assembled, not renormalized.
    The worst ratio is asserted by the caller to stay below the model factor plus grid slack.
    """
    from .discrete import _event_max

    m = model.m
    cells = nu_cell_masses(model)
    marg_err = float(
        max(np.abs(cells.sum(axis=1) - 1.0 / m).max(), np.abs(cells.sum(axis=0) - 1.0 / m).max())
    )
    if marg_err > 1e-9:
        raise ValidationError("nu_event_ratio: assembled marginals are not uniform")
    worst = -math.inf
    for table, A, B in _nu_event_families(cells, seed).values():
        worst = max(worst, _event_max(table, A, B, worst)[0])

    # correlation lower-bound witness: truncated 1/sqrt(p) test function
    mid = (np.arange(m) + 0.5) / m
    f = np.where((mid > model.eps**2 * model.x) & (mid <= model.x), 1.0 / np.sqrt(mid), 0.0)
    f = f - f.mean()
    var = float(f @ f) / m
    witness = float(f @ cells @ f) / var if var > 0 else 0.0
    return NuEventReport(worst, model.factor, witness)
