"""Tensorization bound calculators and the nonnegative-matrix utilities under them.

Three bounds for the correlation between blocks, given pairwise subjective
correlation bounds eps:

* simple_bound: N against 1, sqrt(1 - prod(1 - eps_i^2))
* nm_bound:     N against M, operator norm of the eps matrix, clamped at 1
* zz_bound:     Z against Z, sin(min(sum arcsin eps(z), pi/2))

Lattice kernels carry a certified tail model so every truncated sum stays a
rigorous upper bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, ValidationError

SUBLATTICE_SEARCH_CAP = 64
SUBLATTICE_CLASS_CAP = 1 << 20  # congruence classes ell^n of one spacing sublattice_k tries
SHELL_SUM_REL_TOL = 1e-15  # the geometric remainder that ends a tail sum, relative to the total


def _check_unit_interval(arr, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what}: entries must be finite numbers in [0, 1]")
    if arr.size and (arr.min() < -1e-15 or arr.max() > 1 + 1e-12):
        raise ValidationError(f"{what}: entries must lie in [0, 1]")
    return np.clip(arr, 0.0, 1.0)


def operator_norm(eps) -> float:
    """Raw (unclamped) largest singular value of the eps matrix; empty input gives 0."""
    e = _check_unit_interval(np.atleast_2d(eps), "operator_norm")
    if e.size == 0:
        return 0.0
    return float(np.linalg.svd(e, compute_uv=False)[0])


def simple_bound(eps) -> float:
    """sqrt(1 - prod_i (1 - eps_i^2)); empty input gives 0."""
    e = _check_unit_interval(np.atleast_1d(eps), "simple_bound")
    if e.size == 0:
        return 0.0
    return float(np.sqrt(max(0.0, 1.0 - np.prod(1.0 - e**2))))


def l2_sum_bound(eps) -> float:
    """Weaker N-against-1 form min(sqrt(sum eps_i^2), 1)."""
    e = _check_unit_interval(np.atleast_1d(eps), "l2_sum_bound")
    return float(min(np.sqrt(np.sum(e**2)), 1.0))


def nm_bound(eps) -> float:
    """min(operator norm of the eps matrix, 1)."""
    return float(min(operator_norm(eps), 1.0))


def zz_bound(values) -> float:
    """sin(min(sum_z arcsin eps(z), pi/2)); input is any iterable of values in [0,1]."""
    e = _check_unit_interval(np.atleast_1d(np.asarray(list(values), dtype=float)), "zz_bound")
    s = math.fsum(math.asin(v) for v in e)
    return float(math.sin(min(s, math.pi / 2)))


# ---------------------------------------------------------------------------
# lattice kernels with certified tails


@dataclass(frozen=True)
class TailModel:
    """Behaviour of a kernel outside its window.

    kinds: "none" (identically zero), "exponential" (C e^{-psi |z|}),
    "polynomial" (C / |z|^alpha), "mass" (certified bound on the total l1 mass
    outside the window), "unknown" (operations needing tails will refuse).
    """

    kind: str = "none"
    C: float = 0.0
    psi: float = 0.0
    alpha: float = 0.0
    total: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "exponential", "polynomial", "mass", "unknown"):
            raise ValidationError(f"TailModel: unknown kind {self.kind!r}")
        for name in ("C", "psi", "alpha", "total"):
            v = getattr(self, name)
            if not v >= 0:  # NaN fails too; inf is allowed and gives the trivial bound 1
                raise ValidationError(f"TailModel: {name} must be a nonnegative number, got {v!r}")


_NORM_TO_LINF_RATIO = {"l1": lambda n: float(n), "l2": lambda n: math.sqrt(n), "linf": lambda n: 1.0}


@dataclass(frozen=True)
class LatticeKernel:
    """Symmetric values eps(z) on the window |z|_inf <= R of Z^n, plus a tail model.

    ``values`` is a dense array of shape (2R+1,)*n; index z maps to
    values[z + R].  ``norm`` selects the norm used by distance computations
    and by the tail formulas ("l1", "l2" or "linf").
    """

    n: int
    R: int
    values: np.ndarray
    norm: str = "l1"
    tail: TailModel = field(default_factory=TailModel)

    def __post_init__(self):
        if self.n < 1 or self.R < 0:
            raise ValidationError("LatticeKernel: need n >= 1 and R >= 0")
        if not isinstance(self.norm, str) or self.norm not in _NORM_TO_LINF_RATIO:
            raise ValidationError(f"LatticeKernel: unknown norm {self.norm!r}")
        values = _check_unit_interval(self.values, "LatticeKernel.values")
        if values.shape != (2 * self.R + 1,) * self.n:
            raise ValidationError("LatticeKernel: values shape must be (2R+1,)^n")
        flipped = values[(slice(None, None, -1),) * self.n]
        if np.abs(values - flipped).max() > 1e-12:
            raise ValidationError("LatticeKernel: values must satisfy eps(z) = eps(-z)")
        object.__setattr__(self, "values", values)

    @staticmethod
    def from_dict(n: int, R: int, entries: dict, norm: str = "l1", tail: TailModel | None = None) -> "LatticeKernel":
        values = np.zeros((2 * R + 1,) * n)
        for z, v in entries.items():
            z = (z,) if isinstance(z, (int, np.integer)) else tuple(z)
            idx = tuple(c + R for c in z)
            values[idx] = v
            values[tuple(R - c for c in z)] = v
        return LatticeKernel(n, R, values, norm, tail or TailModel())

    def offsets(self) -> np.ndarray:
        """(count, n) integer array of all window offsets."""
        rng = np.arange(-self.R, self.R + 1)
        grids = np.meshgrid(*([rng] * self.n), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def norm_of(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        if self.norm == "l1":
            return np.abs(z).sum(axis=1).astype(float)
        if self.norm == "l2":
            return np.sqrt((z.astype(float) ** 2).sum(axis=1))
        return np.abs(z).max(axis=1).astype(float)

    def flat_values(self) -> np.ndarray:
        return self.values.ravel()

    def value_at(self, z) -> float:
        z = (z,) if isinstance(z, (int, np.integer)) else tuple(z)
        if any(abs(c) > self.R for c in z):
            return 0.0  # window values only; the tail model covers the rest
        return float(self.values[tuple(c + self.R for c in z)])


def _shell_count(n: int, d: int) -> int:
    """Number of z in Z^n with |z|_inf = d (exact)."""
    if d == 0:
        return 1
    return (2 * d + 1) ** n - (2 * d - 1) ** n


def _sum_decreasing_shells(term, d0: int, ratio_bound) -> float:
    """Upper bound on sum_{d >= d0} term(d) for terms with eventually geometric decay.

    ``ratio_bound(d)`` must bound term(d+1)/term(d) from above; once it drops
    below 1 the remainder is closed by the geometric series.
    """
    total = 0.0
    d = d0
    for _ in range(10_000_000):
        t = term(d)
        r = ratio_bound(d)
        if r < 1.0 and t / (1.0 - r) <= SHELL_SUM_REL_TOL * max(total, 1e-300):
            total += t / (1.0 - r)
            return total
        total += t
        d += 1
    raise ValidationError("tail summation did not certify convergence")


def tail_mass_bound(kernel: LatticeKernel, start_linf: int | None = None) -> float:
    """Certified upper bound on sum of eps(z) outside the window (|z|_inf >= start)."""
    t = kernel.tail
    d0 = kernel.R + 1 if start_linf is None else max(start_linf, kernel.R + 1)
    if t.kind == "none":
        return 0.0
    if t.kind == "unknown":
        raise ValidationError("kernel tail model missing: window declared incomplete")
    if t.kind == "mass":
        return float(t.total)
    n = kernel.n
    if t.kind == "exponential":
        x = math.exp(-t.psi)
        if x == 1.0:  # psi = 0, or so small that every shell ratio rounds to >= 1
            raise ValidationError(f"exponential tail needs exp(-psi) < 1, got psi = {t.psi!r}")
        if t.C == math.inf:
            return math.inf  # inf * x**d would be nan once x**d underflows

        def term(d):
            return _shell_count(n, d) * t.C * x**d

        def ratio(d):
            return x * _shell_count(n, d + 1) / _shell_count(n, d)

        return _sum_decreasing_shells(term, d0, ratio)
    # polynomial: C / |z|^alpha with |z| >= |z|_inf
    if t.alpha <= n:
        raise ValidationError("polynomial tail needs alpha > n for a finite mass")
    # sum_{d >= d0} count(d) C d^-alpha  <=  2n 3^{n-1} C sum d^{n-1-alpha}
    c_n = 2 * n * 3 ** (n - 1)
    total = 0.0
    D = d0 + 200
    for d in range(d0, D):
        total += _shell_count(n, d) * t.C * d ** (-t.alpha)
    total += c_n * t.C * (D - 1) ** (n - t.alpha) / (t.alpha - n)  # integral comparison
    return total


def _tail_max_value(kernel: LatticeKernel) -> float:
    """Upper bound on any single eps(z) outside the window."""
    t = kernel.tail
    d0 = kernel.R + 1
    if t.kind == "none":
        return 0.0
    if t.kind == "unknown":
        raise ValidationError("kernel tail model missing: window declared incomplete")
    if t.kind == "mass":
        return min(1.0, float(t.total))
    if t.kind == "exponential":
        return min(1.0, t.C * math.exp(-t.psi * d0))
    return min(1.0, t.C * d0 ** (-t.alpha))


@dataclass(frozen=True)
class ZnBound:
    value: float
    window_arcsin: float
    tail_arcsin: float


def zn_bound(kernel: LatticeKernel) -> ZnBound:
    """Z^n-against-Z^n bound: arcsin sum over the window plus a certified tail."""
    window = math.fsum(math.asin(v) for v in kernel.flat_values())
    mass = tail_mass_bound(kernel)
    xmax = _tail_max_value(kernel)
    if mass == 0.0:
        tail = 0.0
    elif xmax >= 1.0 or xmax == 0.0:
        tail = (math.pi / 2) * mass  # arcsin(x) <= (pi/2) x on [0,1]
    else:
        tail = (math.asin(xmax) / xmax) * mass  # arcsin(x)/x is increasing
    s = min(window + tail, math.pi / 2)
    return ZnBound(float(math.sin(s)), window, tail)


def distance_bound(kernel: LatticeKernel, d: float) -> float:
    """min(sum_{|z| >= d} eps(z), 1) with certified tail handling."""
    if not 0 <= d < math.inf:
        raise ValidationError("distance_bound: d must be finite and >= 0")
    offs = kernel.offsets()
    far = kernel.norm_of(offs) >= d
    window_sum = float(kernel.flat_values()[far].sum())
    ratio = _NORM_TO_LINF_RATIO[kernel.norm](kernel.n)
    start = max(kernel.R + 1, math.ceil(d / ratio))
    return float(min(window_sum + tail_mass_bound(kernel, start), 1.0))


@dataclass(frozen=True)
class SublatticeK:
    k: float
    ell: int
    class_sums: np.ndarray


def _class_sums(kernel: LatticeKernel, ell: int) -> np.ndarray:
    """sum_{z = w mod ell, z != 0} eps(z) for every class w, plus the tail mass."""
    offs = kernel.offsets()
    vals = kernel.flat_values().copy()
    origin = np.all(offs == 0, axis=1)
    vals[origin] = 0.0
    classes = np.zeros((ell,) * kernel.n)
    np.add.at(classes, tuple((offs % ell).T), vals)
    classes += tail_mass_bound(kernel)  # conservative: full tail in every class
    return classes


def sublattice_k(kernel: LatticeKernel) -> SublatticeK:
    """Uniform bound k < 1 for disjoint blocks via sublattice splitting.

    Searches spacings ell in increasing order; the first ell whose congruence
    class sums are all < 1 certifies the bound via two nested simple-bound
    passes over the ell^n sublattices.  The search stops at SUBLATTICE_SEARCH_CAP
    spacings, or before a class grid of more than SUBLATTICE_CLASS_CAP classes.
    """
    offs = kernel.offsets()
    nonzero = ~np.all(offs == 0, axis=1)
    if kernel.flat_values()[nonzero].size and kernel.flat_values()[nonzero].max() >= 1.0:
        raise ValidationError("sublattice_k: requires eps(z) < 1 for z != 0")
    if _tail_max_value(kernel) >= 1.0:
        raise ValidationError("sublattice_k: tail values not certified < 1")
    for ell in range(1, SUBLATTICE_SEARCH_CAP + 1):
        if ell ** kernel.n > SUBLATTICE_CLASS_CAP:
            raise CapExceededError(f"sublattice_k: spacing {ell} has {ell}^{kernel.n} congruence classes, "
                                   f"above cap {SUBLATTICE_CLASS_CAP}, and no smaller spacing has all class sums < 1")
        sums = _class_sums(kernel, ell)
        if sums.max() < 1.0:
            per_sublattice = simple_bound(sums.ravel())
            n_cls = sums.size
            k = simple_bound(np.full(n_cls, per_sublattice))
            return SublatticeK(float(k), ell, sums)
    raise ValidationError(f"sublattice_k: no spacing ell <= {SUBLATTICE_SEARCH_CAP} has all class sums < 1")
