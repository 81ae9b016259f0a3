import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rhomix import discrete, events
from rhomix.discrete import FinitePair, FiniteSystem
from rhomix.errors import CapExceededError, ValidationError
from rhomix.events import NuModel, lambda_fn


def pair(joint):
    return FinitePair.from_joint(np.asarray(joint, dtype=float))


def random_joint(rng, n, m):
    return rng.dirichlet(np.ones(n * m)).reshape(n, m)


class TestMaxcorrPair:
    def test_2x2_closed_form_example(self):
        rep = discrete.maxcorr_pair(pair([[0.4, 0.1], [0.1, 0.4]]))
        assert rep.rho == pytest.approx(0.6, abs=1e-12)

    def test_three_state_family(self):
        # 3x3 family with an eigenvalue crossing at alpha = 0: rho = 1/2 + 6 max(alpha, 0)
        for alpha in (-0.1, -0.02, 0.0, 0.01, 1 / 18):
            joint = np.array(
                [
                    [2 / 9, 1 / 18, 1 / 18],
                    [1 / 18, 2 / 9 + alpha, 1 / 18 - alpha],
                    [1 / 18, 1 / 18 - alpha, 2 / 9 + alpha],
                ]
            )
            rep = discrete.maxcorr_pair(pair(joint))
            assert rep.rho == pytest.approx(0.5 + 6 * max(alpha, 0.0), abs=1e-12)

    def test_product_joint_is_zero(self):
        px = np.array([0.2, 0.3, 0.5])
        py = np.array([0.6, 0.4])
        rep = discrete.maxcorr_pair(pair(np.outer(px, py)))
        assert rep.rho == pytest.approx(0.0, abs=1e-12)

    def test_membership_example(self):
        n, p = 5, 2
        xs = list(itertools.combinations(range(n), p))
        joint = np.zeros((len(xs), n))
        for a, x in enumerate(xs):
            for y in x:
                joint[a, y] = 1.0
        rep = discrete.maxcorr_pair(pair(joint / joint.sum()))
        assert rep.rho == pytest.approx(math.sqrt((n - p) / (p * (n - 1))), abs=1e-12)

    def test_witnesses_achieve_the_supremum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = pair(random_joint(rng, 4, 3))
            rep = discrete.maxcorr_pair(p)
            px, py = p.marginal_x, p.marginal_y
            f, g = rep.optimal_f, rep.optimal_g
            assert abs(f @ px) < 1e-10 and abs(g @ py) < 1e-10
            assert f**2 @ px == pytest.approx(1.0, abs=1e-10)
            assert g**2 @ py == pytest.approx(1.0, abs=1e-10)
            assert f @ p.joint @ g == pytest.approx(rep.rho, abs=1e-10)
            # pi matrix invariant
            s = np.linalg.svd(rep.pi_matrix, compute_uv=False)[0]
            assert abs(s - rep.rho) < 1e-12

    def test_degenerate_marginal_gives_zero(self):
        rep = discrete.maxcorr_pair(pair([[0.5, 0.5], [0.0, 0.0]]))
        assert rep.rho == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            FinitePair((0, 1), (0, 1), np.array([[0.9, 0.2], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            FinitePair((0,), (0, 1), np.array([[0.5, 0.5], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="finite"):
            FinitePair((0, 1), (0, 1), np.array([[np.nan, 0.5], [0.25, 0.25]]))

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_range_and_independence_characterization(self, n, m, seed):
        rng = np.random.default_rng(seed)
        joint = random_joint(rng, n, m)
        rep = discrete.maxcorr_pair(pair(joint))
        assert 0.0 <= rep.rho <= 1.0
        dev = np.abs(joint - np.outer(joint.sum(1), joint.sum(0))).max()
        if rep.rho < 1e-13:
            assert dev < 1e-9
        if dev < 1e-15:
            assert rep.rho < 1e-10

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_coarsening_never_increases(self, n, m, k, seed):
        # merging states is the Markov step by a 0/1 kernel
        assert_markov_step_never_increases(n, m, k, seed, merge=True)

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_markov_step_never_increases(self, n, m, k, seed):
        assert_markov_step_never_increases(n, m, k, seed, merge=False)

    @pytest.mark.parametrize("a, b", [(0.3, 0.6), (0.1, 0.1), (0.9, 0.2)])
    def test_reversible_chain_power_law(self, a, b):
        # every 2-state chain is reversible, and {X_0 : X_k} = |1 - a - b|^k
        P = np.array([[1 - a, a], [b, 1 - b]])
        pi = np.array([b, a]) / (a + b)
        for k in range(1, 9):
            joint = pi[:, None] * np.linalg.matrix_power(P, k)
            assert discrete.maxcorr_pair(pair(joint)).rho == pytest.approx(abs(1 - a - b) ** k, abs=1e-12)


def random_kernel(rng, rows, k, merge):
    """A row-stochastic kernel onto k states: a 0/1 merge of states, or Dirichlet rows."""
    if merge:
        return np.eye(k)[rng.integers(k, size=rows)]
    return rng.dirichlet(np.full(k, 0.5), size=rows)


def assert_markov_step_never_increases(n, m, k, seed, merge):
    """Data processing: a Markov step on either side, {X : Y K} or {K^T X : Y},
    is at most {X : Y}."""
    rng = np.random.default_rng(seed)
    joint = random_joint(rng, n, m)
    rho = discrete.maxcorr_pair(pair(joint)).rho
    for stepped in (joint @ random_kernel(rng, m, k, merge), random_kernel(rng, n, k, merge).T @ joint):
        assert discrete.maxcorr_pair(pair(stepped)).rho <= rho + 1e-10


class TestBlocks:
    def test_independent_pairs_take_the_max(self):
        rng = np.random.default_rng(5)
        sys, per_pair = discrete.product_pair_system(rng, 3)
        xs = [n for n, _ in sys.variables if n.startswith("X")]
        ys = [n for n, _ in sys.variables if n.startswith("Y")]
        assert discrete.maxcorr_blocks(sys, xs, ys) == pytest.approx(max(per_pair), abs=1e-9)

    def test_overlap_is_an_error(self):
        rng = np.random.default_rng(0)
        sys, xs, ys = discrete.random_system(rng, 2, 1)
        with pytest.raises(ValidationError):
            discrete.maxcorr_blocks(sys, ["X0"], ["X0"])

    def test_constant_block_gives_zero(self):
        joint = np.zeros((2, 2, 1))
        joint[:, :, 0] = 0.25
        sys = FiniteSystem((("a", 2), ("b", 2), ("c", 1)), joint)
        assert discrete.maxcorr_blocks(sys, ["a"], ["c"]) == 0.0

    def test_chain_membership_lower_bound(self):
        # markov chain X <- Y -> Z built from the membership law with n=4, p=2
        n, p = 4, 2
        xs = list(itertools.combinations(range(n), p))
        cond = np.zeros((n, len(xs)))  # P(x | y)
        for a, x in enumerate(xs):
            for y in x:
                cond[y, a] = 1.0
        cond /= cond.sum(axis=1, keepdims=True)
        joint = np.einsum("y,ya,yb->yab", np.full(n, 1.0 / n), cond, cond)
        sys = FiniteSystem((("Y", n), ("X", len(xs)), ("Z", len(xs))), joint)
        got = discrete.maxcorr_blocks(sys, ["Y"], ["X", "Z"])
        bound = math.sqrt(((n - 1) ** 2 - (p - 1) ** 2) / ((n - 1) ** 2 + (n - 1) * (p - 1) ** 2))
        assert bound - 1e-12 <= got <= 1.0

    def test_markov_contraction_on_random_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            nx, ny, nz = rng.integers(2, 4, size=3)
            px = rng.dirichlet(np.ones(nx))
            pyx = rng.dirichlet(np.ones(ny), size=nx)
            pzy = rng.dirichlet(np.ones(nz), size=ny)
            joint = np.einsum("x,xy,yz->xyz", px, pyx, pzy)
            sys = FiniteSystem((("X", nx), ("Y", ny), ("Z", nz)), joint)
            xz = discrete.maxcorr_blocks(sys, ["X"], ["Z"])
            xy = discrete.maxcorr_blocks(sys, ["X"], ["Y"])
            yz = discrete.maxcorr_blocks(sys, ["Y"], ["Z"])
            assert xz <= xy * yz + 1e-10


def _subset_loop(sys, i, j, pool):
    """Reference: the subset loop subjective_maxcorr used to run, one stacked call per
    conditioning subset with an early exit at 1, on the current _batch_maxcorr."""
    ni, nj = sys.variables[i][1], sys.variables[j][1]
    best = 0.0
    for r in range(len(pool) + 1):
        for subset in itertools.combinations(pool, r):
            best = max(best, discrete._batch_maxcorr(sys.marginal(list(subset) + [i, j]).reshape(-1, ni, nj)).max())
            if best >= 1.0 - 1e-15:
                return min(best, 1.0)
    return best


def _subjective_cases(count=200, seed=29):
    """Seeded random systems with states of zero mass, size-1 alphabets and, for
    half of them, explicit pools in shuffled order; one case per ordered pair."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        sizes = [int(s) for s in rng.integers(1, 4, size=int(rng.integers(2, 6)))]
        joint = rng.dirichlet(np.full(math.prod(sizes), 0.5))
        joint[rng.random(joint.size) < rng.choice([0.0, 0.3, 0.7])] = 0.0
        joint[int(rng.integers(joint.size))] += 1e-3
        sys = FiniteSystem(tuple((f"v{k}", s) for k, s in enumerate(sizes)), (joint / joint.sum()).reshape(sizes))
        order = [int(k) for k in rng.permutation(len(sizes))]
        explicit = rng.random() < 0.5
        for i, j in itertools.permutations(range(len(sizes)), 2):
            others = [k for k in order if k not in (i, j)]
            pool = others[: int(rng.integers(len(others) + 1))] if explicit else None
            cases.append((sys, i, j, pool))
    return cases


class TestBatchMaxcorr:
    @given(st.sampled_from(["1xm", "2xm", "nx2"]), st.integers(1, 6), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_two_state_closed_form_is_the_largest_singular_value(self, shape, size, count, seed):
        # a stack of unnormalized tables (masses from 1e-150 to 1e150) with a
        # side of at most two states, with zero-mass tables, rows and columns:
        # the normalization-free closed form must be the SVD's sigma_1 of each
        # table, alone and within the stack
        rng = np.random.default_rng(seed)
        n, m = {"1xm": (1, size), "2xm": (2, size), "nx2": (size, 2)}[shape]
        tables = rng.dirichlet(np.ones(n * m), size=count).reshape(count, n, m)
        tables *= rng.uniform(size=tables.shape) > 0.3
        tables *= (rng.uniform(size=(count, n)) > 0.2)[:, :, None]
        tables *= (rng.uniform(size=(count, m)) > 0.2)[:, None, :]
        tables *= 10.0 ** rng.uniform(-150, 150, size=(count, 1, 1))
        want = [discrete.maxcorr_pair(pair(t / t.sum())).rho if t.sum() > 0 else 0.0 for t in tables]
        for t, rho in zip(tables, want):
            assert abs(discrete._batch_maxcorr(t[None])[0] - rho) <= 1e-14
        assert np.abs(discrete._batch_maxcorr(tables) - want).max(initial=0.0) <= 1e-14


class TestSubjective:
    def _encoded_common_bit_system(self):
        # X = (g, a), Y = (g, b), Z = g for three independent fair bits
        joint = np.zeros((4, 4, 2))
        for g in (0, 1):
            for a in (0, 1):
                for b in (0, 1):
                    joint[2 * g + a, 2 * g + b, g] += 1.0 / 8.0
        return FiniteSystem((("X", 4), ("Y", 4), ("Z", 2)), joint)

    def test_fixed_conditioning_can_kill_correlation(self):
        sys = self._encoded_common_bit_system()
        assert discrete.maxcorr_blocks(sys, ["X"], ["Y"]) == pytest.approx(1.0, abs=1e-12)
        assert discrete.conditional_maxcorr(sys, "X", "Y", ["Z"]) == pytest.approx(0.0, abs=1e-12)

    def test_fixed_conditioning_can_create_correlation(self):
        # X = (x1, x2), Y = (y1, y2) independent, Z' = 1{x1 = y1}
        joint = np.zeros((4, 4, 2))
        for x1 in (0, 1):
            for x2 in (0, 1):
                for y1 in (0, 1):
                    for y2 in (0, 1):
                        joint[2 * x1 + x2, 2 * y1 + y2, int(x1 == y1)] += 1.0 / 16.0
        sys = FiniteSystem((("X", 4), ("Y", 4), ("Zp", 2)), joint)
        assert discrete.maxcorr_blocks(sys, ["X"], ["Y"]) == pytest.approx(0.0, abs=1e-12)
        assert discrete.conditional_maxcorr(sys, "X", "Y", ["Zp"]) == pytest.approx(1.0, abs=1e-12)

    def test_metalgebra_supremum_dominates_unconditioned(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            sys, xs, ys = discrete.random_system(rng, 2, 2)
            sub = discrete.subjective_maxcorr(sys, xs[0], ys[0])
            assert sub >= discrete.maxcorr_blocks(sys, [xs[0]], [ys[0]]) - 1e-12

    def test_independent_system_is_zero_for_every_pool(self):
        marginals = [np.array([0.3, 0.7]), np.array([0.5, 0.5]), np.array([0.2, 0.8])]
        joint = np.einsum("a,b,c->abc", *marginals)
        sys = FiniteSystem((("a", 2), ("b", 2), ("c", 2)), joint)
        assert discrete.subjective_maxcorr(sys, "a", "b") == pytest.approx(0.0, abs=1e-12)
        assert discrete.conditional_maxcorr(sys, "a", "b", ["c"]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("cap", [None, 8])
    def test_stack_matches_the_subset_loop(self, cap, monkeypatch):
        cases = _subjective_cases()
        if cap is not None:  # after the systems are built: every stack above 8 entries is split
            monkeypatch.setattr(discrete, "STATE_CAP", cap)
        worst = 0.0
        for sys, i, j, pool in cases:
            _, _, checked = discrete.subjective_pool(sys, i, j, pool)
            ref = _subset_loop(sys, i, j, checked)
            conditional = max(discrete.conditional_maxcorr(sys, i, j, list(sub))
                              for r in range(len(checked) + 1) for sub in itertools.combinations(checked, r))
            worst = max(worst, abs(discrete.subjective_maxcorr(sys, i, j, pool) - ref), abs(conditional - ref))
        assert worst <= 2e-15
        assert any(sys.joint.min() == 0 for sys, *_ in cases)
        assert any(1 in sys.joint.shape for sys, *_ in cases)
        assert sum(pool is not None for *_, pool in cases) >= 200

    def test_in_place_stack_is_the_concatenation_stack(self):
        # mixed 2-, 3- and 4-state pools, size-1 pool axes and zero masses: the
        # stack filled in place equals, bit for bit, the stack that appends each
        # summed-out axis by concatenation in the same order (last pool axis first)
        def concatenated(marg):
            *pool_shape, ni, nj = marg.shape
            for k in reversed(range(len(pool_shape))):
                marg = np.concatenate([marg, marg.sum(axis=k, keepdims=True)], axis=k)
            return marg.reshape(-1, ni, nj)

        rng = np.random.default_rng(47)
        for sizes in [(2, 3, 4, 2, 3), (4, 3, 2), (3, 1, 4, 2, 2), (2,) * 9, (4, 4, 3, 3), (3, 2)]:
            marg = rng.dirichlet(np.full(math.prod(sizes), 0.5)).reshape(sizes)
            marg[rng.uniform(size=sizes) < 0.2] = 0.0
            got = discrete._metalgebra_stack(marg)
            assert got.shape == (math.prod(s + 1 for s in sizes[:-2]), *sizes[-2:])
            assert np.array_equal(got, concatenated(marg))

    def test_pool_validation(self):
        sys = self._encoded_common_bit_system()
        with pytest.raises(ValidationError):
            discrete.subjective_maxcorr(sys, "X", "Y", ["X"])


class TestMixing:
    def test_two_block_coarsening(self):
        for eps in (0.1, 0.25, 0.5):
            rep = discrete.mixing_coefficients(pair([[eps, 0.0], [0.0, 1.0 - eps]]))
            assert rep.alpha == pytest.approx(eps - eps**2, abs=1e-12)
            expected_mi = eps * math.log(1 / eps) + (1 - eps) * math.log(1 / (1 - eps))
            assert rep.mutual_information == pytest.approx(expected_mi, abs=1e-12)
            assert discrete.maxcorr_pair(pair([[eps, 0.0], [0.0, 1.0 - eps]])).rho == pytest.approx(1.0)

    def test_product_gives_zeros(self):
        rep = discrete.mixing_coefficients(pair(np.outer([0.4, 0.6], [0.3, 0.7])))
        assert rep.alpha == pytest.approx(0.0, abs=1e-12)
        assert rep.beta == pytest.approx(0.0, abs=1e-12)
        assert rep.mutual_information == pytest.approx(0.0, abs=1e-12)

    def test_identity_coupling(self):
        for k in (2, 3, 5):
            rep = discrete.mixing_coefficients(pair(np.eye(k) / k))
            assert rep.beta == pytest.approx(1.0 - 1.0 / k, abs=1e-12)
            assert rep.mutual_information == pytest.approx(math.log(k), abs=1e-12)

    def test_alpha_matches_exhaustive_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            joint = random_joint(rng, 3, 4)
            rep = discrete.mixing_coefficients(pair(joint))
            # brute force over all event pairs
            best = 0.0
            px, py = joint.sum(1), joint.sum(0)
            for am in range(1, 2**3 - 1):
                sel_a = [(am >> t) & 1 for t in range(3)]
                for bm in range(1, 2**4 - 1):
                    sel_b = [(bm >> t) & 1 for t in range(4)]
                    pab = float(np.array(sel_a) @ joint @ np.array(sel_b))
                    best = max(best, abs(pab - float(np.array(sel_a) @ px) * float(np.array(sel_b) @ py)))
            assert rep.alpha == pytest.approx(best, abs=1e-12)


class TestEventExtremes:
    def test_product_gives_zero(self):
        rep = discrete.event_extremes(pair(np.outer([0.4, 0.6], [0.3, 0.7])))
        assert rep.max_ratio == pytest.approx(0.0, abs=1e-12)

    def test_two_state_ratio_equals_maxcorr(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            joint = random_joint(rng, 2, 2)
            p = pair(joint)
            assert discrete.event_extremes(p).max_ratio == pytest.approx(
                discrete.maxcorr_pair(p).rho, abs=1e-12
            )

    def test_event_chain_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = pair(random_joint(rng, 4, 4))
            ratio = discrete.event_extremes(p).max_ratio
            rho = discrete.maxcorr_pair(p).rho
            assert ratio <= rho + 1e-12
            assert rho <= lambda_fn(min(ratio, 1.0)) + 1e-9

    def test_scan_cap(self):
        joint = np.full((21, 2), 1.0 / 42)
        with pytest.raises(CapExceededError):
            discrete.event_extremes(pair(joint))

    def test_shared_scan_matches_the_block_loop(self):
        # random pairs with zero-mass states and size-1 alphabets; the value
        # and both witnesses must equal the block loop's exactly
        rng = np.random.default_rng(31)
        for _ in range(300):
            n, m = (int(v) for v in rng.integers(1, 7, size=2))
            joint = random_joint(rng, n, m) * (rng.uniform(size=(n, m)) > 0.3)
            joint[rng.uniform(size=n) < 0.2] = 0.0
            joint[:, rng.uniform(size=m) < 0.2] = 0.0
            if joint.sum() == 0:
                joint[0, 0] = 1.0
            p = pair(joint / joint.sum())
            assert discrete.event_extremes(p) == block_loop_event_extremes(p)

    def test_half_scan_is_the_full_scans_first_maximizer_on_dyadic_tables(self):
        # masses on multiples of 2^-20 make every sum, product and difference
        # in the scan exact up to the denominator, which is the same for E and
        # its complement: the four members of a complement class tie bit for
        # bit, and the full scan's first maximizer has both last states clear.
        # Sides of 8 to 10 states run the bound and prune, whose candidate
        # pairs get the full scan's ratios: an independent table (every u is 0
        # and nothing is cut), a near-independent one, zero-mass states and
        # 1-state sides
        def dyadic(joint):
            q = np.round(joint / joint.sum() * 2.0**20) / 2.0**20
            q.flat[np.argmax(q)] += 1.0 - q.sum()  # exact: the total is 1 to the bit
            return pair(q)

        def weights(k):  # k integers summing to 2^10
            w = np.round(rng.dirichlet(np.ones(k)) * 2**10)
            w[np.argmax(w)] += 2**10 - w.sum()
            return w

        rng = np.random.default_rng(41)
        zero_mass = random_joint(rng, 5, 6)
        zero_mass[1], zero_mass[:, 3] = 0.0, 0.0
        cases = [np.diag(np.full(4, 0.25)), zero_mass, random_joint(rng, 7, 5)]
        cases += [random_joint(rng, *(int(v) for v in rng.integers(1, 8, size=2))) for _ in range(40)]
        product = np.outer(weights(9), weights(8))
        wide_zero_mass = random_joint(rng, 9, 9)
        wide_zero_mass[2], wide_zero_mass[:, [0, 5]] = 0.0, 0.0
        cases += [product, product + rng.integers(0, 3, size=product.shape), wide_zero_mass,
                  random_joint(rng, 10, 1), random_joint(rng, 1, 9), random_joint(rng, 8, 10)]
        cases += [random_joint(rng, int(rng.integers(8, 10)), int(rng.integers(2, 10))) for _ in range(12)]
        for joint in cases:
            p = dyadic(joint)
            got = discrete.event_extremes(p)
            assert got == full_scan_event_extremes(p)
            assert p.labels_x[-1] not in got.witness_a and p.labels_y[-1] not in got.witness_b
        assert discrete.event_extremes(dyadic(cases[0])) == discrete.EventExtremes(1.0, (0,), (0,))
        assert discrete.event_extremes(dyadic(product)).max_ratio == 0.0

    def test_half_scan_matches_the_full_scan_on_random_tables(self):
        # random pairs with zero-mass states and size-1 alphabets.  E and its
        # complement round differently, by up to about 1e-12 relative where
        # P[A∩B] - P[A]P[B] cancels, so each side may be off by the rounding
        # bound of the class it picked.  40 more pairs with a side of 8 or 9
        # states run the bound and prune, a quarter of them near-independent
        def check(joint):
            if joint.sum() == 0:
                joint[0, 0] = 1.0
            p = pair(joint / joint.sum())
            got, want = discrete.event_extremes(p), full_scan_event_extremes(p)
            bound = 2 * max(ratio_rounding_bound(p, got), ratio_rounding_bound(p, want))
            assert abs(got.max_ratio - want.max_ratio) <= bound, (got, want, bound)
            assert p.labels_x[-1] not in got.witness_a and p.labels_y[-1] not in got.witness_b

        def sparse_joint(rng, n, m):
            joint = random_joint(rng, n, m) * (rng.uniform(size=(n, m)) > 0.3)
            joint[rng.uniform(size=n) < 0.2] = 0.0
            joint[:, rng.uniform(size=m) < 0.2] = 0.0
            return joint

        rng = np.random.default_rng(43)
        for _ in range(300):
            check(sparse_joint(rng, *(int(v) for v in rng.integers(1, 8, size=2))))
        rng = np.random.default_rng(59)
        for k in range(40):
            joint = sparse_joint(rng, int(rng.integers(8, 10)), int(rng.integers(1, 10)))
            if k % 4 == 0:
                joint = np.outer(joint.sum(axis=1), joint.sum(axis=0)) + 10.0 ** -(1 + k % 9) * joint
            check(joint)

    def test_event_bound_dominates_every_ratio_and_is_tight_on_a_two_state_side(self):
        # u(A) >= ratio(A, B) for every B; with two states of Y, u(A) is the
        # ratio of A against the one nontrivial event of Y (ratio <= rho is an
        # equality for a 2x2 table)
        rng = np.random.default_rng(61)
        for _ in range(30):
            n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            joint = random_joint(rng, n, m) * (rng.uniform(size=(n, m)) > 0.2)
            joint /= joint.sum()
            A, B = discrete._half_masks(n), discrete._masks(m)
            u = discrete._event_bounds(joint, A)
            for a in range(len(A)):
                ratio = discrete._event_ratio_scan(joint, A[a:a + 1], B)[0]
                assert ratio <= u[a] + 1e-14 or ratio == -np.inf
                if m == 2 and ratio > -np.inf:
                    assert abs(u[a] - ratio) <= 1e-14
        # and u(A) is maxcorr(1_A, Y), the SVD of the 2 x m table of A and its complement
        joint = random_joint(rng, 9, 5)
        u = discrete._event_bounds(joint, discrete._half_masks(9))
        want = [discrete.maxcorr_pair(pair(np.array([mask @ joint, (1 - mask) @ joint]))).rho
                for mask in discrete._half_masks(9)]
        assert u[0] == 0.0 and np.abs(u - want).max() <= 1e-14

    @pytest.mark.parametrize("block", [1, 7, 1 << 10])
    def test_scan_matches_one_block_at_every_block_size(self, block, monkeypatch):
        # ratio and (row, col) must not depend on where the blocks end: ties
        # (a diagonal pair, many pairs at ratio 1), a zero-mass row and column,
        # a plain random pair and nu's three families at m = 64.  BLAS rounds
        # A[rows] @ inner differently for different row counts (gemv for one
        # row, other kernels for small products), so the masses are rounded to
        # multiples of 2^-40: then every sum is exact in any order and only the
        # block bookkeeping is under test.
        def dyadic(joint):
            return np.round(joint / joint.sum() * 2.0**40) / 2.0**40

        rng = np.random.default_rng(12)
        zero_mass = random_joint(rng, 5, 6)
        zero_mass[1], zero_mass[:, 3] = 0.0, 0.0
        cases = [(dyadic(j), discrete._masks(j.shape[0]), discrete._masks(j.shape[1]))
                 for j in (np.diag(np.full(4, 0.25)), zero_mass, random_joint(rng, 7, 5))]
        cells = dyadic(events.nu_cell_masses(NuModel(0.5, 0.02, 64)))
        cases += list(events._nu_event_families(cells, 0).values())
        expected = [one_block_event_scan(*case) for case in cases]
        assert expected[0][0] == 1.0 and expected[1][0] > 0
        monkeypatch.setattr(discrete, "EVENT_BLOCK", block)
        for case, want in zip(cases, expected):
            assert discrete._event_ratio_scan(*case) == want

    @pytest.mark.parametrize("block", [1, 7, 1 << 10, discrete.EVENT_BLOCK])
    def test_stacked_scan_matches_one_table_at_a_time(self, block, monkeypatch):
        # value, row and col of each table of a stack must be those of the table alone,
        # whatever the block: ties, a zero-mass row and column, and a table with no valid
        # pair.  The blocks of a stack end at other rows than those of one table, so the
        # masses are dyadic (see above); 3x3 tables, whose 4 x 8 ratios fit one block in
        # either call, must match with any masses
        def dyadic(joint):
            return np.round(joint / joint.sum() * 2.0**40) / 2.0**40

        rng = np.random.default_rng(14)
        cases = []
        for n, m, count in ((3, 3, 30), (5, 6, 9), (7, 4, 4)):
            tables = np.stack([dyadic(random_joint(rng, n, m)) for _ in range(count)])
            tables[1, 0], tables[2, :, 1] = 0.0, 0.0
            tables[[0, 3]] = 0.0
            tables[0, :3, :3], tables[3, 0, 0] = np.diag(np.full(3, 1.0 / 3.0)), 1.0
            cases.append((tables, discrete._half_masks(n), discrete._masks(m)))
        cases.append((rng.dirichlet(np.ones(9), size=40).reshape(40, 3, 3), discrete._half_masks(3), discrete._masks(3)))
        expected = [[discrete._event_ratio_scan(t, A, B) for t in tables] for tables, A, B in cases]
        assert expected[0][0][0] == 1.0 and expected[0][3][0] == -np.inf
        monkeypatch.setattr(discrete, "EVENT_BLOCK", block)
        for (tables, A, B), want in zip(cases[:3] if block < 1 << 10 else cases, expected):
            ratio, row, col = discrete._event_ratio_scan(tables, A, B)
            assert list(zip(ratio.tolist(), row.tolist(), col.tolist())) == want

    def test_scan_memory_is_bounded_by_the_block(self):
        # 2^23 ratios in 64 blocks, and a stack of four tables with 2^21 ratios in 16
        # blocks: the block work stays within two and a half block-sized float arrays on
        # top of the inputs (measured: 2.0 at 2^17, 3.0 when a block's arrays outlive it;
        # the one-expression block of 2^22 ratios took 5.1)
        one = random_joint(np.random.default_rng(3), 12, 11)
        stack = np.stack([random_joint(np.random.default_rng(4 + k), 10, 9) for k in range(4)])
        for joint in (one, stack):
            A, B = discrete._masks(joint.shape[-2]), discrete._masks(joint.shape[-1])
            peak = traced_peak(lambda: discrete._event_ratio_scan(joint, A, B))
            assert peak <= 2.5 * 8 * discrete.EVENT_BLOCK + joint.nbytes + A.nbytes + B.nbytes

    def test_seed_is_the_stable_argsorts_top(self):
        # the seed scan's events: the EVENT_SEED largest u of the kept events, lower index
        # first among ties, as a stable argsort of -u picks them, on values with many ties
        rng = np.random.default_rng(9)
        for size in (1, 64, 65, 300):
            u = rng.integers(0, 5, size=size) / 4.0
            for keep in (np.arange(size), np.flatnonzero(rng.uniform(size=size) < 0.7)):
                want = np.sort(keep[np.argsort(-u[keep], kind="stable")[:discrete.EVENT_SEED]])
                assert np.array_equal(discrete._largest(u, keep), want)

    def test_bound_memory_is_bounded_by_the_block(self):
        # 2^15 half masks of 16 states, bounded against both sides of a 16 x 16 table: u is
        # built in row blocks whose complement and c together hold EVENT_BLOCK entries, so
        # beyond u itself the bound stays within two block-sized float arrays (measured:
        # 1.13; the whole-mask form took 4.75, a complement and a c of 4 MiB each)
        joint = random_joint(np.random.default_rng(5), 16, 16)
        masks = discrete._half_masks(16)
        for table in (joint, joint.T):
            peak = traced_peak(lambda: discrete._event_bounds(table, masks))
            assert peak <= 2 * 8 * discrete.EVENT_BLOCK + 8 * len(masks) + 8 * joint.size

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), m=st.integers(1, 9),
           rows=st.integers(1, 200), cols=st.integers(1, 200),
           mass=st.sampled_from([1.0, 1.0 + 2.0**-48, 1.0 - 2.0**-48]),
           floor=st.one_of(st.just(-math.inf), st.sampled_from([1 - 1e-12, 1.0, 1 + 1e-12]), st.floats(0, 1.2)),
           relative=st.booleans())
    @example(seed=0, n=6, m=2, rows=150, cols=3, mass=1.0, floor=1 - 1e-12, relative=True)
    @example(seed=1, n=2, m=7, rows=3, cols=150, mass=1.0 + 2.0**-48, floor=1 - 1e-12, relative=True)
    def test_pruned_scan_is_the_whole_scan_above_its_floor(self, seed, n, m, rows, cols, mass, floor, relative):
        # _event_max against the whole _event_ratio_scan it replaces: random tables with
        # zero-mass states and a total off 1 by a few ulps, random mask families (sides of
        # more than EVENT_SEED events run the bound and prune) and random floors, some of
        # them a multiple of the whole scan's maximum (a side of two states makes u tight,
        # so a floor just below the maximum cuts all but its row).  It must give that
        # maximum within 1e-13 relative, at a pair that attains it, when the maximum reaches
        # the floor, and -inf when it does not; within 1e-13 of the floor either is right
        rng = np.random.default_rng(seed)
        joint = random_joint(rng, n, m) * (rng.uniform(size=(n, m)) > 0.3)
        joint[rng.uniform(size=n) < 0.2] = 0.0
        joint[:, rng.uniform(size=m) < 0.2] = 0.0
        if joint.sum() == 0:
            joint[0, 0] = 1.0
        joint *= mass / joint.sum()
        A = (rng.uniform(size=(rows, n)) < rng.uniform()).astype(float)
        B = (rng.uniform(size=(cols, m)) < rng.uniform()).astype(float)
        want = discrete._event_ratio_scan(joint, A, B)[0]
        if relative and want > 0:
            floor *= want
        got, i, j = discrete._event_max(joint, A, B, floor)
        if want >= floor + 1e-13 * abs(floor) or floor == -math.inf:
            assert got == pytest.approx(want, rel=1e-13, abs=0), (got, want, floor)
            if got > -math.inf:
                assert discrete._event_ratio_scan(joint, A[i:i + 1], B[j:j + 1])[0] == pytest.approx(want, rel=1e-13)
        elif want < floor - 1e-13 * abs(floor):
            assert got == -math.inf, (got, want, floor)
        else:
            assert got == -math.inf or got == pytest.approx(want, rel=1e-13, abs=0)


def traced_peak(fn) -> int:
    """Bytes that fn() allocates on top of what is live when it starts, at its peak (tracemalloc)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def one_block_event_scan(joint, A, B):
    """The event-ratio scan as one expression over all of A (the scan's form
    before it was split into row blocks and computed in place): the reference
    for every block size."""
    px, py = joint.sum(axis=1), joint.sum(axis=0)
    pa, qb = A @ px, B @ py
    pos_x, pos_y = (px > 0).astype(float), (py > 0).astype(float)
    hit_a, hit_b = A @ pos_x, B @ pos_y
    valid_a = (hit_a > 0) & (hit_a < pos_x.sum())
    valid_b = (hit_b > 0) & (hit_b < pos_y.sum())
    num = np.abs(A @ (joint @ B.T) - np.outer(pa, qb))
    den = np.sqrt(np.outer(pa * ((1 - A) @ px), qb * ((1 - B) @ py)))
    valid = np.outer(valid_a, valid_b) & (den > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(valid, num / den, -np.inf)
    k = int(np.argmax(ratio))
    return float(ratio.flat[k]), k // len(B), k % len(B)


def ratio_rounding_bound(p, rep):
    """First-order bound on the rounding error of the scan's ratio at the events of ``rep``:
    P[A∩B] - P[A]P[B] carries at most 4 (n + m) u, and P[E] P[Ē], with both summed over
    their own states, a relative error of at most (n + m) u.  The bound is the same for an
    event and its complement."""
    if not rep.max_ratio:
        return 0.0
    u, (n, m) = 2.0**-53, p.joint.shape
    joint = p.joint / p.joint.sum()
    a, b = list(rep.witness_a), list(rep.witness_b)
    pa, qb = joint.sum(axis=1)[a].sum(), joint.sum(axis=0)[b].sum()
    num = abs(joint[np.ix_(a, b)].sum() - pa * qb)
    return rep.max_ratio * (4 * (n + m) * u / num + (n + m + 8) * u)


def full_scan_event_extremes(p):
    """event_extremes by one expression over every pair of events, both
    members of each complement pair included: the reference for the half scan."""
    n, m = p.joint.shape
    best, a, b = one_block_event_scan(p.joint / p.joint.sum(), discrete._masks(n), discrete._masks(m))
    if best < 0:
        return discrete.EventExtremes(0.0, (), ())
    return discrete.EventExtremes(best, tuple(p.labels_x[t] for t in range(n) if (a >> t) & 1),
                                  tuple(p.labels_y[t] for t in range(m) if (b >> t) & 1))


def block_loop_event_extremes(p):
    """The event scan as an inline row-block loop over the 0/1 masks without
    the last state of their side: the reference for the shared event-ratio scan."""
    n, m = p.joint.shape
    joint = p.joint / p.joint.sum()
    px, py = joint.sum(axis=1), joint.sum(axis=0)
    vb = discrete._masks(m)[: 1 << (m - 1)]
    qb = vb @ py
    wb = qb * ((1 - vb) @ py)
    pos_y = (py > 0).astype(float)
    hit_y = vb @ pos_y
    valid_b = (hit_y > 0) & (hit_y < pos_y.sum())
    best = -1.0
    best_ab = (0, 0)
    chunk = max(1, (1 << 22) // len(vb))
    ua_all = discrete._masks(n)[: 1 << (n - 1)]
    pa_all = ua_all @ px
    wa_all = pa_all * ((1 - ua_all) @ px)
    pos_x = (px > 0).astype(float)
    hit_x_all = ua_all @ pos_x
    valid_a_all = (hit_x_all > 0) & (hit_x_all < pos_x.sum())
    inner = joint @ vb.T
    for lo in range(0, len(ua_all), chunk):
        hi = min(lo + chunk, len(ua_all))
        pa = pa_all[lo:hi]
        num = np.abs(ua_all[lo:hi] @ inner - np.outer(pa, qb))
        den = np.sqrt(np.outer(wa_all[lo:hi], wb))
        valid = np.outer(valid_a_all[lo:hi], valid_b) & (den > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(valid, num / den, -np.inf)
        k = int(np.argmax(ratio))
        v = float(ratio.flat[k])
        if v > best:
            best = v
            best_ab = (lo + k // len(vb), k % len(vb))
    if best < 0:
        return discrete.EventExtremes(0.0, (), ())
    wa = tuple(p.labels_x[t] for t in range(n) if (best_ab[0] >> t) & 1)
    wbl = tuple(p.labels_y[t] for t in range(m) if (best_ab[1] >> t) & 1)
    return discrete.EventExtremes(float(best), wa, wbl)


class TestDensityBound:
    def test_product_is_zero(self):
        assert discrete.density_bound(pair(np.outer([0.4, 0.6], [0.3, 0.7]))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_2x2_equals_maxcorr(self):
        p = pair([[0.3, 0.2], [0.2, 0.3]])
        assert discrete.density_bound(p) == pytest.approx(0.2, abs=1e-12)
        assert discrete.maxcorr_pair(p).rho == pytest.approx(0.2, abs=1e-12)

    def test_uniform_diagonal_exceeds_one(self):
        value = discrete.density_bound(pair(np.eye(3) / 3))
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert value > 1.0

    def test_dominates_maxcorr(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = pair(random_joint(rng, 3, 5))
            assert discrete.density_bound(p) >= discrete.maxcorr_pair(p).rho - 1e-12

    def test_zero_marginal_error(self):
        with pytest.raises(ValidationError):
            discrete.density_bound(pair([[0.5, 0.5], [0.0, 0.0]]))
