import math

import numpy as np
import pytest
from scipy.signal import convolve

from rhomix import convdecay
from rhomix.convdecay import (
    ToeplitzKernel,
    _check_neumann,
    _tail_bound,
    banded_inverse_constants,
    conv_inverse,
    decay_fit,
)
from rhomix.errors import CapExceededError, ValidationError


class TestConvInverse:
    def test_shifted_delta_geometric(self):
        a = ToeplitzKernel.from_dict(1, 1, {1: math.exp(-1.0)})
        b = conv_inverse(a)
        for z in range(-40, 41):
            expect = math.exp(-z) if z > 0 else 0.0
            assert abs(b.value_at((z,)) - expect) < 1e-12

    def test_zero_kernel(self):
        b = conv_inverse(ToeplitzKernel.from_dict(1, 2, {1: 0.0}))
        assert b.l1_norm() == 0.0

    def test_norm_cap(self):
        with pytest.raises(ValidationError):
            conv_inverse(ToeplitzKernel.from_dict(1, 1, {1: 0.6, -1: 0.6}))

    def test_defining_identity_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            vals = rng.uniform(-1, 1, size=5)
            vals *= 0.7 / np.abs(vals).sum()
            a = ToeplitzKernel(1, 2, vals)
            b = conv_inverse(a)
            # independent oracle: numpy full convolution of the embedded arrays
            big = np.zeros(2 * b.R + 1)
            big[b.R - 2 : b.R + 3] = vals
            ab = convolve(b.values, big, mode="same")
            resid = b.values - big - ab
            assert np.abs(resid).max() < 1e-10

    def test_absolute_kernel_dominates(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            vals = rng.uniform(-1, 1, size=7)
            vals *= 0.6 / np.abs(vals).sum()
            a = ToeplitzKernel(1, 3, vals)
            b = conv_inverse(a)
            b_abs = conv_inverse(ToeplitzKernel(1, 3, np.abs(vals)))
            assert (np.abs(b.values) <= b_abs.values + 1e-14).all()

    def test_two_dimensional(self):
        vals = np.zeros((3, 3))
        vals[1, 2] = vals[1, 0] = vals[0, 1] = vals[2, 1] = 0.1
        a = ToeplitzKernel(2, 1, vals)
        b = conv_inverse(a)
        assert b.l1_norm() == pytest.approx(0.4 / (1 - 0.4), abs=1e-10)


def neumann_reference(a: ToeplitzKernel) -> np.ndarray:
    """The K Neumann terms of a summed by direct convolution on conv_inverse's window."""
    _, n_terms, R_out = _check_neumann(a)
    power = np.zeros((2 * R_out + 1,) * a.n)
    power[(slice(R_out - a.R, R_out + a.R + 1),) * a.n] = a.values
    total = np.zeros_like(power)
    for _ in range(n_terms):
        total += power
        power = convolve(power, a.values, mode="same", method="direct")
    return total


def random_kernel(n, R, s, signed, seed=0):
    vals = np.random.default_rng(seed).uniform(-1.0 if signed else 0.0, 1.0, size=(2 * R + 1,) * n)
    return ToeplitzKernel(n, R, vals * (s / np.abs(vals).sum()))


class TestAgainstDirectSum:
    @pytest.mark.parametrize("n, R, s, signed", [
        (1, 1, 0.3, False), (1, 3, 0.7, True), (1, 1, 0.9, False), (1, 2, 0.95, True), (1, 1, 0.95, False),
        (2, 1, 0.3, False), (2, 2, 0.5, True), (3, 1, 0.1, False), (3, 1, 0.15, True),
    ])
    def test_matches_the_neumann_sum(self, n, R, s, signed):
        a = random_kernel(n, R, s, signed)
        got, want = conv_inverse(a).values, neumann_reference(a)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13
        assert np.abs(got - want).sum() <= 1e-11

    def test_identity_check_sees_the_fold(self, monkeypatch):
        # a window of one term: the cyclic product still holds, the linear one does not
        monkeypatch.setattr(convdecay, "_neumann_terms", lambda s: 1)
        with pytest.raises(ValidationError, match="defining identity failed"):
            conv_inverse(ToeplitzKernel.from_dict(1, 1, {1: 0.45, -1: 0.45}))

    def test_tail_bound_is_reached_by_a_shift(self, monkeypatch):
        # a = q delta_1 puts every term at the far edge: B = q^z for z >= 1, so the folded
        # mass and the mass outside the window are each sum_{z > R_out} q^z
        monkeypatch.setattr(convdecay, "SERIES_TOL", 1e-3)
        q = 0.5
        a = ToeplitzKernel.from_dict(1, 1, {1: q})
        b = conv_inverse(a)
        z = np.arange(-b.R, b.R + 1)
        exact = np.where(z > 0, q ** z.astype(float), 0.0)
        error = np.abs(b.values - exact).sum() + q ** (b.R + 1) / (1 - q)
        assert error == pytest.approx(_tail_bound(a, b.R), rel=1e-9)
        assert error > 1e-5  # the window of radius 16 really cuts the series


class TestDecayFit:
    def test_exponential(self):
        zs = np.arange(-40, 41)
        fit = decay_fit(ToeplitzKernel(1, 40, np.exp(-np.abs(zs), dtype=float)))
        assert fit.classification == "exponential"
        assert fit.rate == pytest.approx(1.0, abs=0.02)

    def test_polynomial(self):
        zs = np.arange(-60, 61)
        fit = decay_fit(ToeplitzKernel(1, 60, 1.0 / (1.0 + np.abs(zs)) ** 3))
        assert fit.classification == "polynomial"
        assert fit.exponent == pytest.approx(3.0, abs=0.3)

    def test_rate_of_inverse_never_exceeds_input_rate(self):
        for rate in (0.5, 1.0, 1.6):
            zs = np.arange(-30, 31)
            vals = 0.3 * np.exp(-rate * np.abs(zs))
            vals[30] = 0.0
            a = ToeplitzKernel(1, 30, vals)
            b = conv_inverse(a)
            fit = decay_fit(b, max_shell=30)
            assert fit.classification == "exponential"
            assert fit.rate <= rate + 0.02

    def test_polynomial_class_preserved_by_inverse(self):
        zs = np.arange(-46, 47)
        vals = 1.0 / (1.0 + np.abs(zs)) ** 3
        vals *= 0.5 / vals.sum()
        a = ToeplitzKernel(1, 46, vals)
        fit = decay_fit(conv_inverse(a), max_shell=46)
        assert fit.classification == "polynomial"
        assert fit.exponent == pytest.approx(3.0, abs=0.3)

    def test_inconclusive_on_noise(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.3, 1.0, size=41)
        vals = 0.5 * (vals + vals[::-1])
        fit = decay_fit(ToeplitzKernel(1, 20, vals))
        assert fit.classification == "inconclusive"

    @pytest.mark.parametrize("s", [0.2, 0.6, 0.9, 0.95])
    def test_nearest_neighbour_rate_is_analytic(self, s):
        # B(z) is proportional to lam^|z| with lam + 1/lam = 2/s, a rate of arccosh(1/s)
        fit = decay_fit(conv_inverse(ToeplitzKernel.from_dict(1, 1, {1: s / 2, -1: s / 2})))
        assert fit.classification == "exponential"
        assert fit.rate == pytest.approx(math.acosh(1 / s), abs=1e-3)

    def test_needs_enough_shells(self):
        with pytest.raises(ValidationError):
            decay_fit(ToeplitzKernel.from_dict(1, 4, {1: 0.5}))

    def test_declared_class_checked(self):
        zs = np.arange(-40, 41)
        with pytest.raises(ValidationError):
            ToeplitzKernel(1, 40, np.exp(-np.abs(zs), dtype=float), decay_class="polynomial")


    @pytest.mark.parametrize("n, R", [(1, 0), (1, 12), (1, 1 << 12), (2, 9), (3, 4)])
    def test_shell_maxima_match_the_mask_loop(self, n, R):
        values = np.random.default_rng(R + n).standard_normal((2 * R + 1,) * n)
        d = np.max(np.abs(np.indices(values.shape) - R), axis=0)
        want = [np.abs(values[d == k]).max() for k in range(R + 1)]
        assert convdecay._shell_maxima(values, n, R).tolist() == want


class TestSubInvariantEnvelope:
    def test_polynomial_envelope_is_contracted(self):
        # for a summable kernel with ||a||_1 < 1 there are rho < 1 and d with
        # (phi_d * a) <= rho phi_d pointwise, phi_d(z) = 1/(max(|z|,d))^alpha
        alpha = 3.0
        zs = np.arange(-46, 47)
        vals = 1.0 / (1.0 + np.abs(zs)) ** alpha
        vals *= 0.5 / vals.sum()
        a = ToeplitzKernel(1, 46, vals)
        W = 400
        grid = np.arange(-W, W + 1)
        found = None
        for d in (5, 10, 20, 40):
            phi = 1.0 / np.maximum(np.abs(grid), d) ** alpha
            conv = convolve(phi, a.values, mode="same")
            ratio = float((conv / phi).max())
            if ratio < 1.0:
                found = (d, ratio)
                break
        assert found is not None
        assert found[1] < 1.0


class TestBandedInverse:
    def test_scalar_case(self):
        c = banded_inverse_constants(2.0, 2.0, 2.0, 1.0)
        assert c.A_out == pytest.approx(0.5, abs=1e-12)

    def test_random_matrices(self):
        rng = np.random.default_rng(7)
        idx = np.arange(50)
        dist = np.abs(idx[:, None] - idx[None, :])
        for _ in range(25):
            gamma = rng.uniform(0.4, 1.2)
            H = rng.uniform(-1, 1, size=(50, 50)) * 0.3 * np.exp(-gamma * dist)
            H = 0.5 * (H + H.T)
            w = np.linalg.eigvalsh(H)
            H *= min(1.0, 0.85 / max(abs(w[0]), abs(w[-1]), 1e-12))
            M = np.eye(50) - H
            w = np.linalg.eigvalsh(M)
            A = float(np.max(np.abs(M) * np.exp(gamma * dist)))
            c = banded_inverse_constants(float(w[0]), float(w[-1]), A, gamma)
            env = c.A_out * np.exp(-c.gamma_out * dist)
            assert (np.abs(np.linalg.inv(M)) <= env * (1 + 1e-9)).all()

    def test_tridiagonal_toeplitz(self):
        n = 40
        M = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        M = 0.2 * np.eye(n) + 0.8 * M / 4.0  # scale into a safe (r, R) band
        w = np.linalg.eigvalsh(M)
        idx = np.arange(n)
        dist = np.abs(idx[:, None] - idx[None, :])
        A = float(np.max(np.abs(M) * np.exp(1.0 * dist)))
        c = banded_inverse_constants(float(w[0]), float(w[-1]), A, 1.0)
        env = c.A_out * np.exp(-c.gamma_out * dist)
        assert (np.abs(np.linalg.inv(M)) <= env * (1 + 1e-9)).all()

    def test_validation(self):
        with pytest.raises(ValidationError):
            banded_inverse_constants(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            banded_inverse_constants(0.5, 1.0, 1.0, -2.0)


def nearest_neighbour_2d(s):
    """The 2-d kernel with s / 4 at each of the four nearest neighbours."""
    return ToeplitzKernel.from_dict(2, 1, {(1, 0): s / 4, (-1, 0): s / 4, (0, 1): s / 4, (0, -1): s / 4})


class TestNeumannCap:
    def test_window_at_the_cap_passes_and_one_above_refuses(self, monkeypatch):
        a = ToeplitzKernel.from_dict(1, 1, {1: 0.3, -1: 0.3})
        points = 2 * _check_neumann(a)[2] + 1
        monkeypatch.setattr(convdecay, "CONV_WINDOW_CAP", points)
        expect = conv_inverse(a).values
        monkeypatch.setattr(convdecay, "CONV_WINDOW_CAP", points - 1)
        with pytest.raises(CapExceededError, match=f"more than the cap {points - 1} points"):
            conv_inverse(a)
        monkeypatch.undo()
        assert np.array_equal(conv_inverse(a).values, expect)

    @pytest.mark.parametrize("R", [1, 2, 5])
    @pytest.mark.parametrize("mass", [0.05, 0.5, 0.95])
    def test_window_is_the_least_doubling_that_holds_every_term(self, R, mass):
        a = ToeplitzKernel(1, R, np.full(2 * R + 1, mass / (2 * R + 1)))
        s, n_terms, R_out = _check_neumann(a)
        assert s == a.l1_norm() and n_terms >= 1
        doublings = round(math.log2(R_out / R))
        assert R_out == R << doublings and R_out >= n_terms * R
        assert doublings == 0 or R_out // 2 < n_terms * R

    @pytest.mark.parametrize("s, n_terms, R_out, passes", [
        (0.8899, 256, 256, True),    # 513^2 points
        (0.89, 257, 512, False),     # 1025^2 = 1050625 points
        (0.9, 285, 512, False),
    ])
    def test_two_dimensional_cap_boundary(self, s, n_terms, R_out, passes):
        a = nearest_neighbour_2d(s)
        if passes:
            assert _check_neumann(a)[1:] == (n_terms, R_out)
        else:
            with pytest.raises(CapExceededError, match=f"{n_terms} Neumann terms need a window of radius {R_out} \\(n = 2\\)"):
                _check_neumann(a)

    def test_sixteen_dimensions_refused_before_allocation(self):
        # R = 0 doubles to a window of radius 1: 3^16 points, refused before any array exists
        a = ToeplitzKernel(16, 0, np.full((1,) * 16, 1e-13))
        with pytest.raises(CapExceededError, match="1 Neumann terms need a window of radius 1 \\(n = 16\\)"):
            _check_neumann(a)
