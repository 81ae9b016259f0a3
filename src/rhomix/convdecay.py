"""Convolution-algebra kernel: Neumann-series inverses and decay preservation.

B[a] = a + a*a + a*a*a + ... is the l1 convolution inverse remainder, i.e.
(delta_0 - a) * (delta_0 + B[a]) = delta_0, and B^ = a^ / (1 - a^) in Fourier
space.  Exponential decay of a gives exponential decay of B[a] (with a possibly
smaller rate), polynomial decay O(|z|^-alpha) is preserved with the same
exponent; decay classes are estimated by shell regressions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError

SERIES_TOL = 1e-12
CONV_WINDOW_CAP = 1 << 20  # points (2 R_out + 1)^n of conv_inverse's periodic window
FIT_FLOOR = 64  # decay_fit's rounding floor, in units of u ||values||_1


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
        if self.decay_class != "none":
            fit = _decay_fit(self)
            if fit is not None and fit.classification not in (self.decay_class, "inconclusive"):
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


def _check_neumann(a: ToeplitzKernel) -> tuple:
    """(||a||_1, K, R_out) of conv_inverse: ||a||_1 must be below 1, and the window of radius
    R_out that holds its first K Neumann terms at most CONV_WINDOW_CAP points (2 R_out + 1)^n."""
    s = a.l1_norm()
    if not s < 1.0:  # nan too
        raise ValidationError(f"conv_inverse: ||a||_1 = {s!r} must be < 1")
    if s == 0.0:
        return s, 0, a.R
    n_terms = _neumann_terms(s)
    R_out = max(a.R, 1) << (n_terms - 1).bit_length()  # doubled until it holds n_terms * max(R, 1)
    if (2 * R_out + 1) ** a.n > CONV_WINDOW_CAP:
        raise CapExceededError(f"conv_inverse: {n_terms} Neumann terms need a window of radius {R_out} "
                               f"(n = {a.n}) of more than the cap {CONV_WINDOW_CAP} points")
    return s, n_terms, R_out


def _neumann_terms(s: float) -> int:
    """Neumann terms K kept for ||a||_1 = s in (0, 1): the least K >= 1 with
    s^K / (1 - s) <= SERIES_TOL, so the l1 remainder s^(K+1) / (1 - s) is below it."""
    return max(1, int(math.ceil(math.log(SERIES_TOL * (1.0 - s)) / math.log(s))))


def _tail_bound(a: ToeplitzKernel, R_out: int) -> float:
    """2 s^(k+1) / (1 - s), s = ||a||_1 and k = R_out // R: conv_inverse's l1 error on its window of
    radius R_out plus the l1 mass of B[a] outside it.  The terms a^(*j), j <= k, fit in the window; each
    later one folds its mass outside back in, counted once as error and once as mass missing outside."""
    s = a.l1_norm()
    return 2.0 * s ** (R_out // a.R + 1) / (1.0 - s) if s > 0 and a.R > 0 else 0.0


def conv_inverse(a: ToeplitzKernel) -> ToeplitzKernel:
    """B[a] = a^ / (1 - a^) by FFT on an auto-enlarged periodic window.

    Requires ||a||_1 < 1 and at most CONV_WINDOW_CAP window points.  The
    window doubles from the support radius until it holds the K terms whose
    geometric tail ||a||_1^{K+1} / (1 - ||a||_1) is below SERIES_TOL; the later
    terms fold into the window within _tail_bound.  The defining identity is
    then verified as a linear convolution, which the folding would break.
    """
    s, _, R_out = _check_neumann(a)
    if s == 0.0:
        return ToeplitzKernel(a.n, a.R, np.zeros_like(a.values))
    axes = tuple(range(a.n))
    a_hat = np.fft.rfftn(np.fft.ifftshift(np.pad(a.values, R_out - a.R)), axes=axes)
    total = np.fft.fftshift(np.fft.irfftn(a_hat / (1.0 - a_hat), s=(2 * R_out + 1,) * a.n, axes=axes))
    # (delta_0 - a) * (delta_0 + B) - delta_0 = B - a - a * B zero-padded, where the cyclic product would
    # vanish by construction: it is at most 2 _tail_bound <= 4 SERIES_TOL; 100 leaves room for rounding
    full = (2 * (R_out + a.R) + 1,) * a.n
    conv_ab = np.fft.irfftn(np.fft.rfftn(a.values, full, axes) * np.fft.rfftn(total, full, axes), full, axes)
    residual = np.pad(total, a.R) - np.pad(a.values, R_out) - conv_ab
    if np.abs(residual).max() > 100 * SERIES_TOL:
        raise ValidationError(f"conv_inverse: defining identity failed beyond {100 * SERIES_TOL:g}")
    return ToeplitzKernel(a.n, R_out, total)


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


def _decay_fit(kernel: ToeplitzKernel, max_shell: int | None = None) -> DecayFitReport | None:
    """decay_fit's report, or None when fewer than 10 shells are left to fit."""
    shells = _shell_maxima(kernel.values, kernel.n, kernel.R)[3 : None if max_shell is None else max_shell + 1]
    floor = FIT_FLOOR * np.finfo(float).eps * kernel.l1_norm()
    shells = shells[: np.logical_and.accumulate(shells > floor).sum()]
    if len(shells) < 10:
        return None
    d = np.arange(3.0, 3.0 + len(shells))
    v = np.log(shells)
    slope_exp, r2_exp = _r2(d, v)
    slope_pol, r2_pol = _r2(np.log(d), v)
    if r2_exp >= 0.98 and r2_exp >= r2_pol:
        cls = "exponential"
    elif r2_pol >= 0.98:
        cls = "polynomial"
    else:
        cls = "inconclusive"
    return DecayFitReport(cls, -slope_exp, -slope_pol)


def decay_fit(kernel: ToeplitzKernel, max_shell: int | None = None) -> DecayFitReport:
    """Classify the decay of a kernel by shell regressions.

    log-linear fit (exponential) and log-log fit (polynomial) over the shell
    maxima from shell 3 (0..2 are preasymptotic) up to ``max_shell`` and
    before the first one at or below c u ||values||_1, c = FIT_FLOOR = 64 and
    u = 2^-52: conv_inverse is accurate to about u ||B||_1 in each entry, not
    relative to it.  The better R^2 wins if it clears 0.98, otherwise the fit
    is inconclusive.  Fewer than 10 shells to fit is a ValidationError.
    """
    fit = _decay_fit(kernel, max_shell)
    if fit is None:
        raise ValidationError("decay_fit: need at least 10 shells from shell 3 on above the rounding floor")
    return fit


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
