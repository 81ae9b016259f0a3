"""Convolution-algebra kernel: Neumann-series inverses and decay preservation.

B[a] = a + a*a + a*a*a + ... is the l1 convolution inverse remainder, i.e.
(delta_0 - a) * (delta_0 + B[a]) = delta_0.  Exponential decay of a gives
exponential decay of B[a] (with a possibly smaller rate), polynomial decay
O(|z|^-alpha) is preserved with the same exponent; decay classes are
estimated by shell regressions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError

SERIES_TOL = 1e-12
NEUMANN_WORK_CAP = 1 << 30  # multiply-adds of conv_inverse's direct convolutions


@dataclass(frozen=True)
class ToeplitzKernel:
    """Summable function a(z) on the window |z|_inf <= R of Z^n."""

    n: int
    R: int
    values: np.ndarray
    decay_class: str = "none"  # "none" | "exponential" | "polynomial"

    def __post_init__(self):
        if self.n < 1 or self.R < 0:
            raise ValidationError("ToeplitzKernel: need n >= 1 and R >= 0")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (2 * self.R + 1,) * self.n:
            raise ValidationError("ToeplitzKernel: values shape must be (2R+1)^n")
        if not np.all(np.isfinite(values)):
            raise ValidationError("ToeplitzKernel: values must be finite")
        if self.decay_class not in ("none", "exponential", "polynomial"):
            raise ValidationError(f"ToeplitzKernel: unknown decay class {self.decay_class!r}")
        object.__setattr__(self, "values", values)
        if self.decay_class != "none" and self.R >= 14:
            fit = decay_fit(self)
            if fit.classification not in (self.decay_class, "inconclusive"):
                raise ValidationError(
                    f"ToeplitzKernel: declared decay {self.decay_class!r} contradicts the "
                    f"fit ({fit.classification!r})"
                )

    @staticmethod
    def from_dict(n: int, R: int, entries: dict, decay_class: str = "none") -> "ToeplitzKernel":
        values = np.zeros((2 * R + 1,) * n)
        for z, v in entries.items():
            z = (z,) if isinstance(z, (int, np.integer)) else tuple(z)
            values[tuple(c + R for c in z)] = v
        return ToeplitzKernel(n, R, values, decay_class)

    def l1_norm(self) -> float:
        return float(np.abs(self.values).sum())

    def value_at(self, z) -> float:
        z = (z,) if isinstance(z, (int, np.integer)) else tuple(z)
        if any(abs(c) > self.R for c in z):
            return 0.0  # kernels vanish outside their window
        return float(self.values[tuple(c + self.R for c in z)])


def _embed(values: np.ndarray, R_from: int, R_to: int, n: int) -> np.ndarray:
    out = np.zeros((2 * R_to + 1,) * n)
    sl = tuple(slice(R_to - R_from, R_to + R_from + 1) for _ in range(n))
    out[sl] = values
    return out


def _check_neumann(a: ToeplitzKernel) -> tuple:
    """(||a||_1, K, R_out) of conv_inverse: ||a||_1 must be below 1, and its K Neumann terms,
    each a direct convolution with a on the window of radius R_out, must take at most
    NEUMANN_WORK_CAP multiply-adds K (2 R_out + 1)^n (2R + 1)^n."""
    s = a.l1_norm()
    if not s < 1.0:  # nan too
        raise ValidationError(f"conv_inverse: ||a||_1 = {s!r} must be < 1")
    if s == 0.0:
        return s, 0, a.R
    n_terms = _neumann_terms(s)
    R_out = max(a.R, 1) << (n_terms - 1).bit_length()  # doubled until it holds n_terms * max(R, 1)
    if n_terms * (2 * R_out + 1) ** a.n * (2 * a.R + 1) ** a.n > NEUMANN_WORK_CAP:
        raise CapExceededError(f"conv_inverse: {n_terms} Neumann terms on a window of radius {R_out} "
                               f"(n = {a.n}) above the work cap {NEUMANN_WORK_CAP}")
    return s, n_terms, R_out


def _neumann_terms(s: float) -> int:
    """Neumann terms K kept for ||a||_1 = s in (0, 1): the least K >= 1 with
    s^K / (1 - s) <= SERIES_TOL, so the l1 remainder s^(K+1) / (1 - s) is below it."""
    return max(1, int(math.ceil(math.log(SERIES_TOL * (1.0 - s)) / math.log(s))))


def conv_inverse(a: ToeplitzKernel) -> ToeplitzKernel:
    """Neumann series B[a] on an auto-enlarged window.

    Requires ||a||_1 < 1 and at most NEUMANN_WORK_CAP multiply-adds.  The
    window doubles from the support radius until it holds the K terms whose
    geometric tail ||a||_1^{K+1} / (1 - ||a||_1) is below SERIES_TOL; the
    defining identity is then verified on the window.
    """
    from scipy.signal import convolve

    s, n_terms, R_out = _check_neumann(a)
    if s == 0.0:
        return ToeplitzKernel(a.n, a.R, np.zeros_like(a.values))
    base = _embed(a.values, a.R, R_out, a.n)
    total = np.zeros_like(base)
    power = base.copy()
    for _ in range(n_terms):
        total += power
        power = convolve(power, a.values, mode="same", method="direct")
    b = ToeplitzKernel(a.n, R_out, total)
    # verify (delta_0 - a) * (delta_0 + b) = delta_0 on the window: exactly, the
    # residual is -a^(K+1), below SERIES_TOL; the factor 100 leaves room for rounding
    conv_ab = convolve(total, a.values, mode="same", method="direct")
    residual = total - base - conv_ab
    if np.abs(residual).max() > 100 * SERIES_TOL:
        raise ValidationError(f"conv_inverse: defining identity failed beyond {100 * SERIES_TOL:g}")
    return b


@dataclass(frozen=True)
class DecayFitReport:
    classification: str  # "exponential" | "polynomial" | "inconclusive"
    rate: float          # exponential rate (if exponential)
    exponent: float      # polynomial exponent (if polynomial)


def _shell_maxima(values: np.ndarray, n: int, R: int) -> np.ndarray:
    rng = np.arange(-R, R + 1)
    grids = np.meshgrid(*([rng] * n), indexing="ij")
    d = np.max(np.abs(np.stack(grids)), axis=0)
    out = np.zeros(R + 1)
    np.maximum.at(out, d.ravel(), np.abs(values).ravel())
    return out


def _r2(x: np.ndarray, y: np.ndarray) -> tuple:
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), (1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0)


def decay_fit(kernel: ToeplitzKernel, max_shell: int | None = None) -> DecayFitReport:
    """Classify the decay of a kernel by shell regressions.

    log-linear fit (exponential) and log-log fit (polynomial) over the shell
    maxima, discarding the innermost two shells; the better R^2 wins if it
    clears 0.98, otherwise the fit is inconclusive.  ``max_shell`` restricts
    the fit window (useful when the kernel carries far-field truncation dust).
    """
    shells = _shell_maxima(kernel.values, kernel.n, kernel.R)
    if max_shell is not None:
        shells = shells[: max_shell + 1]
    d = np.arange(len(shells))
    keep = (d >= 3) & (shells > 0)  # discard shells 0..2: preasymptotic + log(0) guards
    if keep.sum() < 10:
        raise ValidationError("decay_fit: need at least 12 shells of data")
    d = d[keep].astype(float)
    v = np.log(shells[keep])
    slope_exp, r2_exp = _r2(d, v)
    slope_pol, r2_pol = _r2(np.log(d), v)
    if r2_exp >= 0.98 and r2_exp >= r2_pol:
        cls = "exponential"
    elif r2_pol >= 0.98:
        cls = "polynomial"
    else:
        cls = "inconclusive"
    return DecayFitReport(cls, -slope_exp, -slope_pol)


@dataclass(frozen=True)
class BandedInverseConstants:
    A_out: float
    gamma_out: float


def banded_inverse_constants(r: float, R: float, A: float, gamma: float) -> BandedInverseConstants:
    """Entrywise decay constants of the inverse of a nearly diagonal matrix.

    If r I <= M <= R I and |M_ij| <= A e^{-gamma |i-j|}, then
    |(M^-1)_ij| <= A' e^{-gamma' |i-j|} with constants independent of the
    matrix size: after rescaling to R = 1, split the Neumann series of
    (I - H)^-1 at the crossover between the entrywise bound A_1^k e^{-gamma_1 |z|}
    (gamma_1 = gamma/2) and the norm bound (1-r)^k.
    """
    if not (0 < r <= R) or not math.isfinite(R):
        raise ValidationError("banded_inverse_constants: need 0 < r <= R < inf")
    if A <= 0 or gamma <= 0:
        raise ValidationError("banded_inverse_constants: need A, gamma > 0")
    r1 = r / R
    A_h = max(A / R, 1.0)  # entry bound for H = I - M/R (diagonal entries |1 - m_ii| <= 1)
    if r1 >= 1.0 - 1e-15:
        return BandedInverseConstants(1.0 / r, gamma)  # essentially scalar: inverse is diagonal-dominated
    g1 = gamma / 2.0
    # A1 = sum_z A_h e^{-gamma |z| + g1 z}, always > 1
    A1 = (1.0 - math.exp(-2.0 * gamma)) * A_h / (
        (1.0 - math.exp(-(gamma - g1))) * (1.0 - math.exp(-(gamma + g1)))
    )
    g_out = abs(math.log(1.0 - r1)) * g1 / (abs(math.log(1.0 - r1)) + math.log(A1))
    A_out = (A1 / (A1 - 1.0) + 1.0 / r1) / R
    return BandedInverseConstants(A_out, g_out)
