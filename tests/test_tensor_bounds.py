import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhomix import discrete, tensor_bounds as tb
from rhomix.errors import CapExceededError, ValidationError
from rhomix.tensor_bounds import LatticeKernel, TailModel

unit = st.floats(0.0, 1.0, allow_nan=False)


class TestSimpleBound:
    def test_half_half(self):
        assert tb.simple_bound([0.5, 0.5]) == pytest.approx(math.sqrt(7) / 4, abs=1e-15)

    def test_empty_and_one(self):
        assert tb.simple_bound([]) == 0.0
        assert tb.simple_bound([0.2, 1.0, 0.1]) == 1.0

    @given(st.lists(unit, min_size=1, max_size=6), st.integers(0, 5), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_each_entry(self, eps, idx, bump):
        eps = list(eps)
        k = idx % len(eps)
        raised = list(eps)
        raised[k] = min(1.0, eps[k] + bump)
        assert tb.simple_bound(raised) >= tb.simple_bound(eps) - 1e-12

    def test_dominated_by_l2_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            eps = rng.uniform(0, 1, size=rng.integers(1, 6))
            assert tb.simple_bound(eps) <= tb.l2_sum_bound(eps) + 1e-12


class TestNmBound:
    def test_row_matrix_is_l2_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            eps = rng.uniform(0, 1, size=5)
            got = tb.nm_bound(eps[None, :])
            assert got == pytest.approx(min(1.0, math.sqrt(float(eps @ eps))), abs=1e-12)

    def test_rank_one_constant_matrix(self):
        for eps, n, m in ((0.2, 3, 4), (0.8, 2, 2)):
            got = tb.nm_bound(np.full((n, m), eps))
            assert got == pytest.approx(min(1.0, eps * math.sqrt(n * m)), abs=1e-12)

    def test_zero(self):
        assert tb.nm_bound(np.zeros((3, 3))) == 0.0

    @given(st.integers(0, 10_000), st.integers(0, 8), st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_each_entry(self, seed, cell, bump):
        rng = np.random.default_rng(seed)
        eps = rng.uniform(0, 1, size=(3, 3))
        i, j = divmod(cell % 9, 3)
        raised = eps.copy()
        raised[i, j] = min(1.0, eps[i, j] + bump)
        assert tb.nm_bound(raised) >= tb.nm_bound(eps) - 1e-12

    def test_raw_norm_exposed_beyond_one(self):
        mat = np.full((3, 3), 0.9)
        assert tb.nm_bound(mat) == 1.0
        assert tb.operator_norm(mat) == pytest.approx(2.7, abs=1e-12)


class TestZzBound:
    def test_single_entry(self):
        assert tb.zz_bound([0.37]) == pytest.approx(0.37, abs=1e-15)

    def test_double_angle(self):
        for alpha in (0.2, 1.0, 3.0):
            e = (math.sqrt(1 + 4 * alpha) - 1) / (2 * math.sqrt(1 + 2 * alpha))
            assert tb.zz_bound([e, e]) == pytest.approx(2 * alpha / (1 + 2 * alpha), abs=1e-12)
            assert tb.zz_bound([e, e]) == pytest.approx(2 * e * math.sqrt(1 - e * e), abs=1e-12)

    def test_saturation(self):
        assert tb.zz_bound([0.9, 0.9, 0.9]) == 1.0

    @given(st.lists(unit, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_dominated_by_mass(self, values):
        # the arcsine sum is strictly sharper than the operator-norm route,
        # whose translation-invariant norm is the plain sum
        zz = tb.zz_bound(values)
        mass = min(1.0, float(np.sum(values)))
        assert zz <= mass + 1e-12
        if 1e-6 < zz < 1 - 1e-6 and len([v for v in values if v > 1e-9]) > 1:
            assert zz < mass

    @given(st.lists(unit, min_size=1, max_size=6), st.integers(0, 5), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, values, idx, bump):
        k = idx % len(values)
        raised = list(values)
        raised[k] = min(1.0, values[k] + bump)
        assert tb.zz_bound(raised) >= tb.zz_bound(values) - 1e-12


def no_shell_walk(*args):
    raise AssertionError("the tail sum walked its shells")


def kernel_1d(entries, R=None, tail=None, norm="l1"):
    R = R if R is not None else max(abs(z) for z in entries)
    return LatticeKernel.from_dict(1, R, entries, norm=norm, tail=tail)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_bound_rejects_non_finite_entries(self, bad):
        # nan < x is False for every x, so NaN must not slip past the range test
        eps = [bad, 0.5]
        for bound in (tb.simple_bound, tb.zz_bound, tb.l2_sum_bound, tb.nm_bound):
            with pytest.raises(ValidationError, match="finite"):
                bound(eps)
        with pytest.raises(ValidationError, match="finite"):
            tb.operator_norm([[0.1, bad], [0.2, 0.3]])


class TestLatticeKernel:
    def test_symmetry_enforced(self):
        values = np.zeros(5)
        values[3] = 0.5  # z = +1 only
        with pytest.raises(ValidationError):
            LatticeKernel(1, 2, values)

    def test_json_like_roundtrip_values(self):
        k = kernel_1d({1: 0.25, 2: 0.1})
        assert k.value_at(1) == 0.25 and k.value_at(-1) == 0.25
        assert k.value_at(5) == 0.0

    def test_unknown_tail_refuses(self):
        k = kernel_1d({1: 0.25}, tail=TailModel(kind="unknown"))
        with pytest.raises(ValidationError):
            tb.zn_bound(k)

    @pytest.mark.parametrize("name", ["C", "psi", "alpha", "total"])
    @pytest.mark.parametrize("bad", [math.nan, -0.5])
    def test_tail_rejects_nan_and_negative_parameters(self, name, bad):
        # NaN >= 0 is False, so NaN must not slip past the sign test
        with pytest.raises(ValidationError, match=f"{name} must be a nonnegative number"):
            TailModel("exponential", **{name: bad})

    @pytest.mark.parametrize("tail", [TailModel("exponential", C=math.inf, psi=1.0),
                                      TailModel("polynomial", C=math.inf, alpha=3.0),
                                      TailModel("mass", total=math.inf)])
    def test_infinite_tail_gives_the_trivial_bound(self, tail):
        k = kernel_1d({1: 0.25}, tail=tail)
        assert tb.zn_bound(k).value == 1.0 and tb.distance_bound(k, 0.5) == 1.0

    @pytest.mark.parametrize("psi", [0.5, 1000.0])
    def test_infinite_exponential_tail_sums_to_inf_at_once(self, psi, monkeypatch):
        # at psi = 1000 x^d underflows to 0 and inf * 0 is nan, which no shell walk can close
        monkeypatch.setattr(tb, "_sum_decreasing_shells", no_shell_walk)
        k = kernel_1d({1: 0.25}, tail=TailModel("exponential", C=math.inf, psi=psi))
        assert tb.tail_mass_bound(k) == math.inf

    @pytest.mark.parametrize("C", [math.inf, 1e-300])
    def test_exponential_tail_refuses_psi_whose_exponential_rounds_to_one(self, C, monkeypatch):
        # exp(-1e-300) == 1.0, so no shell ratio ever drops below 1
        monkeypatch.setattr(tb, "_sum_decreasing_shells", no_shell_walk)
        k = kernel_1d({1: 0.25}, tail=TailModel("exponential", C=C, psi=1e-300))
        with pytest.raises(ValidationError, match=r"needs exp\(-psi\) < 1, got psi = 1e-300"):
            tb.tail_mass_bound(k)

    @pytest.mark.parametrize("norm", [[1], {"l1": 1}, 1])
    def test_non_string_norm_is_rejected(self, norm):
        # a kernel file may hold any JSON value there; a list or an object is unhashable
        with pytest.raises(ValidationError, match="unknown norm"):
            kernel_1d({1: 0.25}, norm=norm)


class TestZnBound:
    def test_matches_zz_in_one_dimension(self):
        k = kernel_1d({1: 0.3, 2: 0.05})
        zb = tb.zn_bound(k)
        assert zb.value == pytest.approx(tb.zz_bound([0.3, 0.3, 0.05, 0.05]), abs=1e-12)
        assert zb.tail_arcsin == 0.0

    def test_zero_kernel(self):
        assert tb.zn_bound(kernel_1d({1: 0.0})).value == 0.0

    def test_exponential_tail_certifies_window_doubling(self):
        C, psi = 0.4, 0.9

        def build(R):
            zs = np.arange(-R, R + 1)
            g1, g2 = np.meshgrid(zs, zs, indexing="ij")
            vals = C * np.exp(-psi * (np.abs(g1) + np.abs(g2)))
            vals[R, R] = 0.0
            return LatticeKernel(2, R, np.clip(vals, 0, 1), norm="l1",
                                 tail=TailModel("exponential", C=C, psi=psi))

        small = tb.zn_bound(build(4))
        big = tb.zn_bound(build(8))
        direct = tb.zn_bound(LatticeKernel(2, 8, build(8).values, norm="l1"))
        # certified values are upper bounds that tighten as the window grows
        assert small.value >= big.value - 1e-12 >= direct.value - 1e-12
        assert small.tail_arcsin > big.tail_arcsin > 0


class TestDistanceBound:
    def test_saturates_at_one(self):
        k = kernel_1d({1: 0.8, 2: 0.7})
        assert tb.distance_bound(k, 0) == 1.0

    def test_single_shell_exact(self):
        k = kernel_1d({3: 0.21})
        assert tb.distance_bound(k, 3) == pytest.approx(0.42, abs=1e-15)
        assert tb.distance_bound(k, 4) == 0.0

    def test_ising_style_log_slope(self):
        psi = 0.8
        C = 1.4
        R = 40
        zs = np.arange(-R, R + 1)[:, None]
        ws = np.arange(-R, R + 1)[None, :]
        vals = np.clip(C * np.exp(-psi * (np.abs(zs) + np.abs(ws))), 0, 1)
        vals[R, R] = 0.0
        k = LatticeKernel(2, R, vals, norm="l1", tail=TailModel("exponential", C=C, psi=psi))
        ds = np.arange(8, 20)
        vals_d = np.array([tb.distance_bound(k, float(d)) for d in ds])
        slopes = np.diff(np.log(vals_d))
        assert np.abs(slopes.mean() + psi) < 0.12

    def test_polynomial_tail_rigorous(self):
        k = kernel_1d({1: 0.2, 2: 0.05}, R=2, tail=TailModel("polynomial", C=0.4, alpha=2.5))
        v8 = tb.distance_bound(k, 8.0)
        direct = sum(0.4 / z**2.5 for z in range(8, 100000)) * 2
        assert v8 >= direct - 1e-6


class TestSublattice:
    def test_zero_kernel(self):
        rep = tb.sublattice_k(kernel_1d({1: 0.0}))
        assert rep.k == 0.0 and rep.ell == 1

    def test_subcritical_mass_equals_sum(self):
        k = kernel_1d({1: 0.2, 2: 0.1})
        rep = tb.sublattice_k(k)
        assert rep.ell == 1
        assert rep.k == pytest.approx(0.6, abs=1e-12)
        assert rep.k < 1.0

    @pytest.mark.parametrize("n, last", [(4, 32), (5, 16)])
    def test_class_cap_stops_the_search(self, n, last, monkeypatch):
        # class sums stay >= 1 at every spacing: the search stops before the
        # first class grid above the cap, and never builds it
        values = np.full((3,) * n, 0.5)
        values[(1,) * n] = 0.0
        kernel = LatticeKernel(n, 1, values, "l1", TailModel("mass", total=0.6))
        built = []
        class_sums = tb._class_sums
        monkeypatch.setattr(tb, "_class_sums", lambda k, ell: built.append(ell) or class_sums(k, ell))
        with pytest.raises(CapExceededError, match=f"spacing {last + 1} has {last + 1}\\^{n} congruence classes, "
                                                   f"above cap {tb.SUBLATTICE_CLASS_CAP}"):
            tb.sublattice_k(kernel)
        assert built == list(range(1, last + 1)) and last**n <= tb.SUBLATTICE_CLASS_CAP

    def test_nearest_neighbor_above_critical_mass(self):
        rep = tb.sublattice_k(kernel_1d({1: 0.6}))
        assert rep.ell == 3
        assert rep.k < 1.0
        per = tb.simple_bound([0.0, 0.6, 0.6])
        assert rep.k == pytest.approx(tb.simple_bound([per, per, per]), abs=1e-12)

    def test_brute_force_six_site_system(self):
        # ferromagnetic chain measured kernel, then every disjoint split obeys k
        from rhomix.lattice import IsingTorus, ising_exact

        torus = IsingTorus(1, 6, 4.0)
        sys = ising_exact(torus)
        n = 6
        eps_by_dist = {}
        for i in range(n):
            for j in range(i + 1, n):
                d = min(j - i, n - (j - i))
                v = discrete.subjective_maxcorr(sys, i, j)
                eps_by_dist[d] = max(eps_by_dist.get(d, 0.0), v)
        kern = kernel_1d({d: v for d, v in eps_by_dist.items()}, R=3)
        rep = tb.sublattice_k(kern)
        assert rep.k < 1.0
        worst = 0.0
        for assign in range(3**n):
            blocks = [[], []]
            a = assign
            for site in range(n):
                c = a % 3
                a //= 3
                if c:
                    blocks[c - 1].append(site)
            if blocks[0] and blocks[1]:
                worst = max(worst, discrete.maxcorr_blocks(sys, blocks[0], blocks[1]))
        assert worst <= rep.k + 1e-9

    def test_no_valid_spacing_error(self):
        # dense strong kernel: every spacing <= 64 leaves >= 2 entries of 0.7
        # in some congruence class, so no class sum drops below 1
        vals = np.full(2 * 130 + 1, 0.7)
        vals[130] = 0.0
        with pytest.raises(ValidationError):
            tb.sublattice_k(LatticeKernel(1, 130, vals))


class TestSoundness:
    def test_measured_bounds_dominate_block_correlation(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            nx = int(rng.integers(1, 4))
            ny = int(rng.integers(1, 4))
            sys, xs, ys = discrete.random_system(rng, nx, ny)
            rho = discrete.maxcorr_blocks(sys, xs, ys)
            eps = np.array(
                [[discrete.subjective_maxcorr(sys, x, y) for y in ys] for x in xs]
            )
            assert rho <= tb.nm_bound(eps) + 1e-9
            if ny == 1:
                assert rho <= tb.simple_bound(eps[:, 0]) + 1e-9
