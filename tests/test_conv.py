import math

import numpy as np
import pytest
from scipy.signal import convolve

from rhomix import convdecay
from rhomix.convdecay import (
    ToeplitzKernel,
    _check_neumann,
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
    def test_work_at_the_cap_passes_and_one_above_refuses(self, monkeypatch):
        a = ToeplitzKernel.from_dict(1, 1, {1: 0.3, -1: 0.3})
        s, n_terms, R_out = _check_neumann(a)
        work = n_terms * (2 * R_out + 1) * 3
        monkeypatch.setattr(convdecay, "NEUMANN_WORK_CAP", work)
        expect = conv_inverse(a).values
        monkeypatch.setattr(convdecay, "NEUMANN_WORK_CAP", work - 1)
        with pytest.raises(CapExceededError, match=f"above the work cap {work - 1}"):
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
        (0.8899, 256, 256, True),    # 256 * 513^2 * 9 = 6.1e8 multiply-adds
        (0.89, 257, 512, False),     # 257 * 1025^2 * 9 = 2.4e9
        (0.9, 285, 512, False),
    ])
    def test_two_dimensional_cap_boundary(self, s, n_terms, R_out, passes):
        a = nearest_neighbour_2d(s)
        if passes:
            assert _check_neumann(a)[1:] == (n_terms, R_out)
        else:
            with pytest.raises(CapExceededError, match=f"{n_terms} Neumann terms on a window of radius {R_out} "):
                _check_neumann(a)
