"""Exact maximal-correlation and mixing-coefficient computations on finite systems.

Everything here is brute force on explicit probability tables; these routines
are the trusted oracles against which every tensorization and event bound in
the rest of the package is checked.

The maximal correlation of a finite pair is the largest singular value of the
matrix Pi with entries (p_ab - p_a p^b) / sqrt(p_a p^b), built over the states
of positive marginal probability.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError

PROB_TOL = 1e-12
STATE_CAP = 1 << 20
EVENT_SCAN_CAP = 20
EVENT_BLOCK = 1 << 17  # entries in one row block of _event_ratio_scan and _event_bounds (1 MiB of floats)
EVENT_SEED = 64  # events per side in _event_max's seed scan
POOL_CAP = 12


def _check_prob_table(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.size == 0:
        raise ValidationError(f"{what}: empty probability table")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what}: entries must be finite numbers")
    if arr.min() < -1e-15:
        raise ValidationError(f"{what}: negative entry {arr.min()!r} (entries must be >= 0)")
    arr = np.where(arr < 0, 0.0, arr)
    total = arr.sum()
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(f"{what}: entries sum to {total!r}, not 1 within {PROB_TOL}")
    return arr


@dataclass(frozen=True)
class FinitePair:
    """Joint probability table of a pair of finite-alphabet variables."""

    labels_x: tuple
    labels_y: tuple
    joint: np.ndarray

    def __post_init__(self):
        joint = _check_prob_table(self.joint, "FinitePair.joint")
        if joint.ndim != 2:
            raise ValidationError("FinitePair.joint must be a 2-d table")
        if joint.shape != (len(self.labels_x), len(self.labels_y)):
            raise ValidationError("FinitePair: label counts do not match the joint shape")
        object.__setattr__(self, "labels_x", tuple(self.labels_x))
        object.__setattr__(self, "labels_y", tuple(self.labels_y))
        object.__setattr__(self, "joint", joint)

    @property
    def marginal_x(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    @property
    def marginal_y(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    @staticmethod
    def from_joint(joint, labels_x=None, labels_y=None) -> "FinitePair":
        joint = np.asarray(joint, dtype=float)
        lx = tuple(labels_x) if labels_x is not None else tuple(range(joint.shape[0]))
        ly = tuple(labels_y) if labels_y is not None else tuple(range(joint.shape[1]))
        return FinitePair(lx, ly, joint)


@dataclass(frozen=True)
class FiniteSystem:
    """Dense joint table over a product of named finite alphabets."""

    variables: tuple  # tuple of (name, size)
    joint: np.ndarray

    def __post_init__(self):
        sizes = tuple([int(s) for _, s in self.variables])
        if any(s < 1 for s in sizes):
            raise ValidationError("FiniteSystem: alphabet sizes must be >= 1")
        if int(np.prod(sizes, dtype=np.int64)) > STATE_CAP:
            raise CapExceededError(f"FiniteSystem: product space larger than cap {STATE_CAP}")
        joint = _check_prob_table(self.joint, "FiniteSystem.joint")
        if joint.shape != sizes:
            raise ValidationError("FiniteSystem: joint shape does not match variable sizes")
        object.__setattr__(self, "variables", tuple([(str(n), int(s)) for n, s in self.variables]))
        object.__setattr__(self, "joint", joint)

    @property
    def names(self) -> tuple:
        # tuple(generator) allocates ten slots and then shrinks the tuple, and every call would
        # park one more tuple on the interpreter's free list (up to 2000) until a full collection
        return tuple([n for n, _ in self.variables])

    def index(self, var) -> int:
        if isinstance(var, (int, np.integer)):
            return int(var)
        try:
            return self.names.index(var)
        except ValueError:
            raise ValidationError(f"FiniteSystem: unknown variable {var!r}") from None

    def indices(self, vars) -> list:
        return [self.index(v) for v in vars]

    def marginal(self, vars) -> np.ndarray:
        """Marginal table with axes ordered as in ``vars``."""
        keep = self.indices(vars)
        drop = tuple([i for i in range(len(self.variables)) if i not in keep])
        marg = self.joint.sum(axis=drop) if drop else self.joint
        kept_order = [i for i in range(len(self.variables)) if i in keep]
        perm = [kept_order.index(i) for i in keep]
        return np.transpose(marg, perm)

    def pair(self, block_x, block_y) -> FinitePair:
        """Flatten two disjoint variable blocks into a FinitePair."""
        bx = self.indices(block_x if isinstance(block_x, (list, tuple)) else [block_x])
        by = self.indices(block_y if isinstance(block_y, (list, tuple)) else [block_y])
        if set(bx) & set(by):
            raise ValidationError("blocks overlap: I and J must be disjoint")
        if not bx or not by:
            raise ValidationError("blocks must be nonempty")
        marg = self.marginal(bx + by)
        nx = int(np.prod([self.variables[i][1] for i in bx]))
        ny = int(np.prod([self.variables[i][1] for i in by]))
        labels_x = list(itertools.product(*[range(self.variables[i][1]) for i in bx]))
        labels_y = list(itertools.product(*[range(self.variables[i][1]) for i in by]))
        return FinitePair(tuple(labels_x), tuple(labels_y), marg.reshape(nx, ny))


@dataclass(frozen=True)
class PairCorrelationReport:
    """Maximal correlation of a pair plus the witnesses achieving it."""

    rho: float
    pi_matrix: np.ndarray
    optimal_f: np.ndarray
    optimal_g: np.ndarray


def maxcorr_pair(pair: FinitePair) -> PairCorrelationReport:
    """Maximal correlation and optimal witness functions of a finite pair.

    States with zero marginal probability carry no L2 mass and are dropped
    before building Pi; the returned Pi and witnesses are zero there.  When
    either trimmed alphabet is a single state the supremum is empty and rho
    is 0 by convention.
    """
    joint = pair.joint
    px, py = pair.marginal_x, pair.marginal_y
    ix = np.flatnonzero(px > 0)
    iy = np.flatnonzero(py > 0)
    n, m = len(pair.labels_x), len(pair.labels_y)
    pi_full = np.zeros((n, m))
    f_full = np.zeros(n)
    g_full = np.zeros(m)
    if len(ix) < 2 or len(iy) < 2:
        return PairCorrelationReport(0.0, pi_full, f_full, g_full)
    a = px[ix]
    b = py[iy]
    core = joint[np.ix_(ix, iy)]
    outer = np.outer(a, b)
    pi = (core - outer) / np.sqrt(outer)
    u, s, vt = np.linalg.svd(pi)
    rho = float(min(s[0], 1.0))
    f = u[:, 0] / np.sqrt(a)
    g = vt[0] / np.sqrt(b)
    # deterministic witness sign: first nonzero coordinate of f positive
    nz = np.flatnonzero(np.abs(f) > 1e-14)
    if nz.size and f[nz[0]] < 0:
        f, g = -f, -g
    pi_full[np.ix_(ix, iy)] = pi
    f_full[ix] = f
    g_full[iy] = g
    return PairCorrelationReport(rho, pi_full, f_full, g_full)


def _two_state_rho2(t: np.ndarray) -> np.ndarray:
    """Squared maximal correlation of each table of a (K, 2, m) stack of unnormalized tables.

    Pi sqrt(b) = 0 and sqrt(a)^T Pi = 0 for the marginals a, b (Renyi 1959), so Pi has rank
    at most min(n, m) - 1: a table with a two-state side has rank-one Pi, and its largest
    singular value is the Frobenius norm.  With row masses A_1, A_2, column masses B_j and
    total M of a table T, that is

        rho^2 = sum_j C_j^2 / B_j / (A_1 A_2 M),   C_j = A_2 T_1j - A_1 T_2j,

    and for a 2x2 table, where C_1 = -C_2 = det T, det(T)^2 / (A_1 A_2 B_1 B_2).  Both are
    evaluated with the row fractions f_i = A_i / M in place of A_i, one divide per table
    and none per entry: then c_j = C_j / M scales like the table's mass and not its
    square, so a table of mass 1e-170 does not underflow to 0.  No table is normalized.
    A zero-mass column (c_j = 0) is skipped, and a zero-mass row or table gives 0.
    Rounding: c_j cancels where rho is small, so the computed rho carries an absolute
    error of about 2 (m + 4) u to first order (u = 2^-53), in either direction.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only where the answer is 0
        if t.shape[2] == 2:
            (t11, t12), (t21, t22) = t[:, 0].T, t[:, 1].T
            a1, a2 = t11 + t12, t21 + t22
            mass = a1 + a2
            f1, f2 = a1 / mass, a2 / mass
            b1, b2 = t11 + t21, t12 + t22
            c = f2 * t11 - f1 * t21
            rho2 = np.where(np.minimum(b1, b2) > 0, (c / b1) * (c / b2) / (f1 * f2), 0.0)
        else:
            a, b = t.sum(axis=2), t.sum(axis=1)
            mass = a[:, 0] + a[:, 1]
            f1, f2 = a[:, 0] / mass, a[:, 1] / mass
            c = f2[:, None] * t[:, 0] - f1[:, None] * t[:, 1]
            num = np.sum(np.divide(c, b, out=np.zeros_like(c), where=b > 0) * c, axis=1)
            rho2 = num / (f1 * f2 * mass)
    return np.fmax(rho2, 0.0)


def _batch_maxcorr(tables: np.ndarray) -> np.ndarray:
    """Maximal correlation of each table of a (K, n, m) stack of unnormalized tables, as a (K,) array.

    A state of zero mass gets a zero row or column of Pi, which leaves its singular values
    unchanged, and a table of zero mass gives 0.  A one-state side gives 0, a two-state
    side the closed form of _two_state_rho2; only tables with both sides of at least three
    states take the batched SVD of Pi.  Every sum and the SVD run per table, so a table's
    value does not depend on the rest of its stack.
    """
    k, n, m = tables.shape
    if min(n, m) == 1:
        return np.zeros(k)
    if min(n, m) == 2:
        rho2 = _two_state_rho2(tables if n == 2 else tables.transpose(0, 2, 1))
        return np.minimum(np.sqrt(rho2), 1.0)
    mass = tables.sum(axis=(1, 2))
    keep = mass > 0
    t = tables[keep] / mass[keep, None, None]
    outer = t.sum(axis=2)[:, :, None] * t.sum(axis=1)[:, None, :]
    pi = np.divide(t - outer, np.sqrt(outer), out=np.zeros_like(t), where=outer > 0)
    rho = np.zeros(k)
    rho[keep] = np.minimum(np.linalg.svd(pi, compute_uv=False)[:, 0], 1.0)
    return rho


def maxcorr_blocks(sys: FiniteSystem, block_x, block_y) -> float:
    """Maximal correlation between two disjoint blocks of variables."""
    return maxcorr_pair(sys.pair(block_x, block_y)).rho


def subjective_pool(sys: FiniteSystem, i, j, conditioning_pool=None) -> tuple:
    """Checked indices (i, j, pool) for subjective_maxcorr; the pool defaults to every other variable."""
    i = sys.index(i)
    j = sys.index(j)
    if i == j:
        raise ValidationError("subjective_maxcorr: i and j must differ")
    pool = [k for k in range(len(sys.variables)) if k not in (i, j)] \
        if conditioning_pool is None else sys.indices(conditioning_pool)
    if i in pool or j in pool:
        raise ValidationError("subjective_maxcorr: i, j must not be in the conditioning pool")
    if len(pool) > POOL_CAP:
        raise CapExceededError(f"subjective_maxcorr: pool larger than cap {POOL_CAP}")
    return i, j, pool


def subjective_maxcorr(sys: FiniteSystem, i, j, conditioning_pool=None) -> float:
    """Supremum of conditional maximal correlations over the pool's metalgebra.

    The supremum runs over every subset K of the pool (the empty subset, i.e.
    the unconditioned correlation, included) and every assignment of values to
    K with positive probability.  Zero-probability conditionings are skipped.
    """
    i, j, pool = subjective_pool(sys, i, j, conditioning_pool)
    return _metalgebra_maxcorr(sys.marginal(pool + [i, j]))


def _metalgebra_maxcorr(marg: np.ndarray) -> float:
    """Sup of maxcorr over _metalgebra_stack(marg); above STATE_CAP entries the leading axis is split."""
    *pool_shape, ni, nj = marg.shape
    if pool_shape and math.prod(s + 1 for s in pool_shape) * ni * nj > STATE_CAP:
        return max(_metalgebra_maxcorr(t) for t in [*marg, marg.sum(axis=0)])
    return float(_batch_maxcorr(_metalgebra_stack(marg)).max())


def _metalgebra_stack(marg: np.ndarray) -> np.ndarray:
    """Each pool axis k of ``marg`` (pool axes, then X_i, X_j) gains a slot s_k holding the axis
    summed out, so the (prod(s_k + 1), ni, nj) stack holds one table per (subset, assignment).

    The stack is allocated once and filled in place, last pool axis first: slot s_k of axis
    k is the sum of its slices 0..s_k-1 in order, over the plain entries of the earlier
    axes and every entry, slots included, of the later ones, which are contiguous.
    """
    *pool_shape, ni, nj = marg.shape
    stack = np.empty([s + 1 for s in pool_shape] + [ni, nj])
    stack[tuple([slice(s) for s in pool_shape])] = marg
    for k in reversed(range(len(pool_shape))):
        head = tuple([slice(s) for s in pool_shape[:k]])
        slot = stack[(*head, pool_shape[k])]
        slot[...] = stack[(*head, 0)]
        for v in range(1, pool_shape[k]):
            slot += stack[(*head, v)]
    return stack.reshape(-1, ni, nj)


def conditional_maxcorr(sys: FiniteSystem, i, j, conditioning) -> float:
    """Sup over values v of maxcorr(X_i, X_j) under P[. | X_K = v], K fixed.

    Unlike subjective_maxcorr this does NOT include the unconditioned pair,
    so it can be smaller than the plain maximal correlation.
    """
    i = sys.index(i)
    j = sys.index(j)
    subset = sys.indices(conditioning)
    if i in subset or j in subset:
        raise ValidationError("conditional_maxcorr: i, j must not be conditioned on")
    marg = sys.marginal(subset + [i, j])
    return float(_batch_maxcorr(marg.reshape(-1, *marg.shape[-2:])).max())


# ---------------------------------------------------------------------------
# event scans


def _masks(n: int, count: int | None = None) -> np.ndarray:
    """(count, n) 0/1 matrix, 2^n rows by default; row k is the binary expansion of k."""
    ks = np.arange(1 << n if count is None else count, dtype=np.uint32)
    return ((ks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(float)


def _half_masks(n: int) -> np.ndarray:
    """The 2^(n-1) rows of _masks(n) with the last state clear: one event of each
    complement pair {E, Ē}, the empty event included."""
    return _masks(n, 1 << (n - 1))


@dataclass(frozen=True)
class EventExtremes:
    max_ratio: float
    witness_a: tuple
    witness_b: tuple


def _check_event_scan(*alphabets: int) -> None:
    """Raise CapExceededError if an event scan would enumerate more than EVENT_SCAN_CAP states on a side."""
    if max(alphabets) > EVENT_SCAN_CAP:
        raise CapExceededError(f"event scan: alphabet of {max(alphabets)} states above cap {EVENT_SCAN_CAP}")


def _event_ratio_scan(joint: np.ndarray, A: np.ndarray, B: np.ndarray) -> tuple:
    """Max of |P[A∩B] - P[A]P[B]| / sqrt(P[A]P[Ā]P[B]P[B̄]) over rows of A and B, for one
    (n, m) table or for each table of a (K, n, m) stack.

    A and B are 0/1 state indicators of the two sides, one event per row.  An
    event and its complement are each summed over their own states, so both
    round alike.  Only nontrivial events count: both the event and its
    complement must hold a state of positive probability, which is where the
    denominator is positive.  A is scanned in row blocks of at most EVENT_BLOCK
    ratios across the stack, and of one row at the least.  Returns (ratio, row,
    col) of the first maximizer in row-major order, with ratio -inf when no pair
    is valid: a float and two ints for one table, three (K,) arrays for a stack.
    One table gives the bits of a stack of one.  Within a larger stack a table's
    rows fall into other blocks, which BLAS may round differently in the last bit.
    """
    stack = joint if joint.ndim == 3 else joint[None]
    px, py = stack.sum(axis=2), stack.sum(axis=1)
    # A @ px[k] and B @ py[k], one matrix-vector product per table
    pa, qb = (A @ px[:, :, None])[:, :, 0], (B @ py[:, :, None])[:, :, 0]
    wa = pa * ((1 - A) @ px[:, :, None])[:, :, 0]
    wb = qb * ((1 - B) @ py[:, :, None])[:, :, 0]
    inner = stack @ B.T
    count, nb = len(stack), len(B)
    best, row, col = np.full(count, -np.inf), np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    step = max(1, EVENT_BLOCK // (count * nb))
    for lo in range(0, len(A), step):
        rows = slice(lo, lo + step)
        # at most two block-sized float arrays and two bool masks are live at once
        ratio = A[rows] @ inner
        ratio -= pa[:, rows, None] * qb[:, None, :]
        np.abs(ratio, out=ratio)
        den = wa[:, rows, None] * wb[:, None, :]
        np.sqrt(den, out=den)
        valid = den > 0
        np.divide(ratio, den, out=ratio, where=valid)
        np.copyto(ratio, -np.inf, where=~valid)
        ratio = ratio.reshape(count, -1)
        at = ratio.argmax(axis=1)
        top = ratio[np.arange(count), at]
        gain = top > best
        best[gain], row[gain], col[gain] = top[gain], lo + at[gain] // nb, at[gain] % nb
        del ratio, den, valid  # before the next block is built
    if joint.ndim == 3:
        return best, row, col
    return float(best[0]), int(row[0]), int(col[0])


def _event_bounds(joint: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """u(E) = maxcorr(1_E, Y) for each row E of ``masks``, a 0/1 indicator over the rows of ``joint``.

    (1_E, Y) has a two-state side, so u(E) has the closed form of _two_state_rho2:
    on a table of total M, u(E)^2 = M sum_j c_j^2 / b_j / (P[E] P[Ē]), where c_j =
    P[E, y_j] - P[E] b_j / M is the sum over E of the rows of joint - P_X P_Y / M,
    and nothing is normalized.  P[E] and P[Ē] are each summed over their own
    states.  Every event ratio of E is the correlation of 1_E with an indicator of
    Y, so it is at most u(E) (the paper's chain ratio <= rho, one event at a time).
    A trivial E gives 0.  ``masks`` is read in row blocks whose complement and c
    together hold at most EVENT_BLOCK entries, so nothing mask-sized is allocated
    beyond u itself.
    """
    px, b = joint.sum(axis=1), joint.sum(axis=0)
    total = px.sum()
    dev = joint - np.outer(px, b / total)
    inv_b = np.divide(total, b, out=np.zeros_like(b), where=b > 0)  # a zero-mass column has c_j = 0
    u = np.empty(len(masks))
    step = max(1, EVENT_BLOCK // sum(joint.shape))
    for lo in range(0, len(masks), step):
        block = masks[lo:lo + step]
        w = (block @ px) * ((1 - block) @ px)
        c = block @ dev
        c *= c
        s = c @ inv_b
        u[lo:lo + step] = np.sqrt(np.divide(s, w, out=np.zeros_like(s), where=w > 0))
    return u


def _largest(u: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The EVENT_SEED indices of ``keep`` (ascending) of largest u, lower index first among ties:
    the set of a stable argsort of -u[keep], by one partition."""
    v = u[keep]
    if len(v) <= EVENT_SEED:
        return keep
    cut = np.partition(v, len(v) - EVENT_SEED)[len(v) - EVENT_SEED]
    top = v > cut
    top[np.flatnonzero(v == cut)[:EVENT_SEED - np.count_nonzero(top)]] = True
    return keep[top]


def _event_max(joint: np.ndarray, A: np.ndarray, B: np.ndarray, floor: float = -math.inf) -> tuple:
    """(ratio, row, col) of _event_ratio_scan(joint, A, B), by bound and prune, or (-inf, 0, 0)
    when no pair's ratio reaches ``floor``.

    With more than EVENT_SEED events on a side, each side's events are bounded by
    u (_event_bounds); an event whose u falls below the floor less a margin is
    cut, and when no row survives the column bound is not computed.  A seed scan
    of the EVENT_SEED surviving events of largest u per side then gives a first
    maximum, and the final scan visits only the events whose u reaches the larger
    of it and the floor, less the margin, plus the seed scan's maximizers.  No maximizer is cut, so (row, col) is the first
    maximizer in mask order, as for the whole scan.  Where every u is about 0
    (an independent table) nothing is cut, so the worst case stays the whole scan.

    The margin is (16 (n + m) u + 2 |M - 1|) / sqrt(p_min q_min), u = 2^-53, with
    M the table's total and p_min, q_min the smallest positive row and column
    masses of the normalized table; a nontrivial event's complement holds a state
    of positive mass, so sqrt(P[Ā] P[B̄]) >= sqrt(p_min q_min).  To first order
    the computed ratio and u each err by at most 8 (n + m) u / sqrt(P[Ā] P[B̄]).
    The table is scanned as given, not renormalized: on masses t of total M the
    normalized ratio is |M t_AB - t_A t_B| / sqrt(t_A t_Ā t_B t_B̄), and the scan's
    |t_AB - t_A t_B| differs from that numerator by at most |M - 1| t_AB <=
    |M - 1| sqrt(t_A t_B), so the scanned ratio is within |M - 1| / sqrt(t_Ā t_B̄)
    of the ratio that u bounds; t = M p, and 2 |M - 1| covers the factor 1 / M.
    """
    rows, cols = np.arange(len(A)), np.arange(len(B))
    if max(len(A), len(B)) > EVENT_SEED:
        px, py = joint.sum(axis=1), joint.sum(axis=0)
        total = px.sum()
        margin = (16 * sum(joint.shape) * 2.0**-53 + 2 * abs(total - 1)) * total / math.sqrt(
            px[px > 0].min() * py[py > 0].min())
        ua = _event_bounds(joint, A)
        rows = np.flatnonzero(ua >= floor - margin)
        if not len(rows):
            return -math.inf, 0, 0
        ub = _event_bounds(joint.T, B)
        cols = np.flatnonzero(ub >= floor - margin)
        if not len(cols):
            return -math.inf, 0, 0
        if max(len(rows), len(cols)) > EVENT_SEED:
            seed_a, seed_b = _largest(ua, rows), _largest(ub, cols)
            best, i, j = _event_ratio_scan(joint, A[seed_a], B[seed_b])
            cut = max(best, floor) - margin
            rows = np.union1d(np.flatnonzero(ua >= cut), seed_a[i])
            cols = np.union1d(np.flatnonzero(ub >= cut), seed_b[j])
    best, i, j = _event_ratio_scan(joint, A[rows], B[cols])
    if best < floor:
        return -math.inf, 0, 0
    return best, int(rows[i]), int(cols[j])


def event_extremes(pair: FinitePair) -> EventExtremes:
    """Exact max of |P[A∩B] - P[A]P[B]| / sqrt(P[A]P[Ā]P[B]P[B̄]), by bound and prune.

    The maximum runs over nontrivial events A, B.  The ratio is the same for
    A and Ā, and for B and B̄, so only events without the last state of their
    side are scanned, by _event_max: the witness is the first maximizer in mask
    order, as for the whole scan, and neither witness holds the last state of
    its side; in exact arithmetic it is also the first maximizer over all
    events.  Alphabets are capped at EVENT_SCAN_CAP states per side.
    """
    n, m = pair.joint.shape
    _check_event_scan(n, m)
    best, a, b = _event_max(pair.joint / pair.joint.sum(), _half_masks(n), _half_masks(m))
    if best < 0:
        return EventExtremes(0.0, (), ())
    wa = tuple(pair.labels_x[t] for t in range(n) if (a >> t) & 1)
    wb = tuple(pair.labels_y[t] for t in range(m) if (b >> t) & 1)
    return EventExtremes(best, wa, wb)


@dataclass(frozen=True)
class MixingReport:
    alpha: float
    beta: float
    mutual_information: float


def mixing_coefficients(pair: FinitePair) -> MixingReport:
    """alpha (exact event scan), beta = total variation / 2, and mutual information."""
    joint = pair.joint
    px, py = pair.marginal_x, pair.marginal_y
    dev = joint - np.outer(px, py)
    beta = 0.5 * float(np.abs(dev).sum())
    pos = joint > 0
    denom = np.outer(px, py)
    mi = float(np.sum(joint[pos] * np.log(joint[pos] / denom[pos])))
    # alpha: for a fixed event A the optimal B collects the atoms where the
    # signed deviation is positive, so only the A side needs enumeration.
    n = joint.shape[0]
    _check_event_scan(n)
    nu = _half_masks(n) @ dev  # (masks, m) signed deviation measures; the empty event gives 0
    alpha = float(np.max(np.where(nu > 0, nu, 0.0).sum(axis=1)))
    return MixingReport(alpha, beta, max(mi, 0.0))


def density_bound(pair: FinitePair) -> float:
    """L2 bound sqrt(sum (h-1)^2 dP_X dP_Y) with h the joint density.

    Equals the Frobenius norm of Pi, hence always dominates the maximal
    correlation (asserted).  Requires strictly positive marginals.
    """
    px, py = pair.marginal_x, pair.marginal_y
    if px.min() <= 0 or py.min() <= 0:
        raise ValidationError("density_bound: marginals must be strictly positive")
    outer = np.outer(px, py)
    h = pair.joint / outer
    value = float(np.sqrt(np.sum((h - 1.0) ** 2 * outer)))
    rho = maxcorr_pair(pair).rho
    if rho > value + 1e-12:
        raise ValidationError("density_bound: internal check maxcorr <= bound failed")
    return value


# ---------------------------------------------------------------------------
# helpers used across the test-suite and the acceptance harness


def random_system(rng, n_vars_x: int, n_vars_y: int, max_alpha: int = 3) -> tuple:
    """Random dense FiniteSystem split into X-variables and Y-variables."""
    sizes = [int(rng.integers(2, max_alpha + 1)) for _ in range(n_vars_x + n_vars_y)]
    names = [f"X{i}" for i in range(n_vars_x)] + [f"Y{j}" for j in range(n_vars_y)]
    joint = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    sys = FiniteSystem(tuple(zip(names, sizes)), joint)
    return sys, names[:n_vars_x], names[n_vars_x:]


def product_pair_system(rng, n_pairs: int, max_alpha: int = 3) -> tuple:
    """System of independent pairs (X_i, Y_i); used by the tensorization tests."""
    tables = []
    sizes = []
    for _ in range(n_pairs):
        nx = int(rng.integers(2, max_alpha + 1))
        ny = int(rng.integers(2, max_alpha + 1))
        tables.append(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        sizes.append((nx, ny))
    joint = tables[0]
    for t in tables[1:]:
        joint = np.multiply.outer(joint, t)
    # axes currently (x1,y1,x2,y2,...) -> reorder to (x1..xn, y1..yn)
    perm = [2 * i for i in range(n_pairs)] + [2 * i + 1 for i in range(n_pairs)]
    joint = np.transpose(joint, perm)
    names = [(f"X{i}", sizes[i][0]) for i in range(n_pairs)] + [
        (f"Y{i}", sizes[i][1]) for i in range(n_pairs)
    ]
    sys = FiniteSystem(tuple(names), joint)
    per_pair = [float(_batch_maxcorr(t[None])[0]) for t in tables]
    return sys, per_pair
