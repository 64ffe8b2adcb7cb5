"""Tests for metrics and statistics, pinned against independent references."""

import numpy as np
import pytest

from emoreg import objective as ob
from emoreg.errors import (
    ContractError,
    DegenerateTestError,
    InsufficientDataError,
    ShapeError,
)
from emoreg.tensor import Rng, Tape, Tensor, finite_difference_check

# Reference group comparison and its Welch statistics, frozen from
# scipy.stats.ttest_ind(a, b, equal_var=False).
WELCH_A = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1,
           21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4]
WELCH_B = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0,
           24.8, 20.2, 21.9, 22.8, 23.0, 22.8, 22.5]
WELCH_T = -2.6171141788393313
WELCH_DOF = 23.74284506988018
WELCH_P_TWO_SIDED = 0.015182185496493307
WELCH_P_LESS = 0.007591092748246654
WELCH_P_GREATER = 0.9924089072517533


class TestCcc:
    def test_perfect_agreement(self):
        x = Rng(0).normal(0, 1, (500,))
        assert ob.ccc(x, x) == pytest.approx(1.0, abs=1e-6)

    def test_anti_correlated(self):
        x = Rng(1).normal(0, 1, (500,))
        x -= x.mean()  # a mean offset would add its own (penalized) error
        assert ob.ccc(-x, x) == pytest.approx(-1.0, abs=1e-6)

    def test_scale_offset_penalized(self):
        # Pearson is blind to affine distortion; CCC is not.
        x = Rng(2).normal(0, 1, (500,))
        assert np.corrcoef(2.0 * x + 3.0, x)[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert ob.ccc(2.0 * x + 3.0, x) < 0.5

    def test_agrees_with_correlation_form(self):
        # Same quantity through an independent algebraic route:
        # ccc = 2 r s_p s_t / (s_p^2 + s_t^2 + (m_p - m_t)^2).
        rng = Rng(3)
        for _ in range(200):
            p = rng.normal(rng.uniform(-2, 2, ()), rng.uniform(0.5, 2, ()), (64,))
            t = rng.normal(rng.uniform(-2, 2, ()), rng.uniform(0.5, 2, ()), (64,))
            r = np.corrcoef(p, t)[0, 1]
            sp, st = p.std(), t.std()
            want = 2 * r * sp * st / (sp**2 + st**2 + (p.mean() - t.mean()) ** 2 + 1e-8)
            assert ob.ccc(p, t) == pytest.approx(want, abs=1e-10)

    def test_shape_and_empty_errors(self):
        with pytest.raises(ShapeError):
            ob.ccc(np.ones(3), np.ones(4))
        with pytest.raises(InsufficientDataError):
            ob.ccc(np.ones(0), np.ones(0))


class TestRmsePearson:
    def test_rmse_known_value(self):
        assert ob.rmse([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) == pytest.approx(
            np.sqrt(4.0 / 3.0), abs=1e-12
        )

    def test_rmse_zero_on_match(self):
        x = Rng(4).normal(0, 1, (50,))
        assert ob.rmse(x, x) == 0.0


class TestCccLoss:
    def test_matches_metric(self):
        rng = Rng(6)
        pred = rng.normal(0, 1, (4, 30))
        truth = rng.normal(0, 1, (4, 30))
        loss = ob.ccc_loss(Tensor(pred), truth)
        want = 1.0 - np.mean([ob.ccc(pred[i], truth[i]) for i in range(4)])
        assert loss.item() == pytest.approx(want, abs=1e-12)

    def test_single_sequence(self):
        rng = Rng(7)
        pred, truth = rng.normal(0, 1, (25,)), rng.normal(0, 1, (25,))
        loss = ob.ccc_loss(Tensor(pred), truth)
        assert loss.item() == pytest.approx(1.0 - ob.ccc(pred, truth), abs=1e-12)

    def test_zero_at_perfect_prediction(self):
        truth = Rng(8).normal(0, 1, (2, 40))
        loss = ob.ccc_loss(Tensor(truth.copy()), truth)
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_gradient(self):
        rng = Rng(9)
        pred = Tensor(rng.normal(0, 1, (3, 12)), requires_grad=True)
        truth = rng.normal(0, 1, (3, 12))
        report = finite_difference_check(
            lambda: ob.ccc_loss(pred, truth), {"pred": pred}
        )
        assert report.max_rel_err < 1e-5, str(report)

    def test_gradient_descends(self):
        # A few steepest-descent steps on the loss must increase CCC.
        rng = Rng(10)
        truth = rng.normal(0, 1, (2, 50))
        pred = Tensor(rng.normal(0, 1, (2, 50)), requires_grad=True)
        before = ob.ccc_loss(pred, truth).item()
        for _ in range(50):
            pred.zero_grad()
            with Tape() as tape:
                loss = ob.ccc_loss(pred, truth)
            tape.backward(loss)
            pred.data -= 5.0 * pred.grad
        assert ob.ccc_loss(pred, truth).item() < before * 0.05

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ob.ccc_loss(Tensor(np.ones((2, 5))), np.ones((2, 6)))


class TestWelch:
    def test_reference_two_sided(self):
        r = ob.welch_t_test(WELCH_A, WELCH_B)
        assert r.statistic == pytest.approx(WELCH_T, abs=1e-10)
        assert r.dof == pytest.approx(WELCH_DOF, abs=1e-10)
        assert r.p_value == pytest.approx(WELCH_P_TWO_SIDED, abs=1e-10)

    def test_reference_one_sided(self):
        assert ob.welch_t_test(WELCH_A, WELCH_B, "less").p_value == pytest.approx(
            WELCH_P_LESS, abs=1e-10
        )
        assert ob.welch_t_test(WELCH_A, WELCH_B, "greater").p_value == pytest.approx(
            WELCH_P_GREATER, abs=1e-10
        )

    def test_second_reference_pair(self):
        # Frozen from scipy on an unrelated pair (seed-7 normals, n=12 vs 9).
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 1.0, 12)
        y = rng.normal(0.6, 1.5, 9)
        r = ob.welch_t_test(x, y)
        assert r.statistic == pytest.approx(0.9479389386546405, abs=1e-10)
        assert r.p_value == pytest.approx(0.3638240715923714, abs=1e-10)
        assert r.dof == pytest.approx(10.834780108016659, abs=1e-10)

    def test_symmetry(self):
        r_ab = ob.welch_t_test(WELCH_A, WELCH_B)
        r_ba = ob.welch_t_test(WELCH_B, WELCH_A)
        assert r_ab.statistic == pytest.approx(-r_ba.statistic, abs=1e-12)
        assert r_ab.p_value == pytest.approx(r_ba.p_value, abs=1e-12)

    def test_identical_groups_give_p_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        r = ob.welch_t_test(x, x)
        assert r.statistic == pytest.approx(0.0, abs=1e-15)
        assert r.p_value == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_constant_groups(self):
        with pytest.raises(DegenerateTestError):
            ob.welch_t_test([2.0, 2.0, 2.0], [2.0, 2.0])
        r = ob.welch_t_test([3.0, 3.0], [2.0, 2.0, 2.0])
        assert r.statistic == np.inf
        assert r.p_value == 0.0
        assert r.dof == 3.0
        assert ob.welch_t_test([3.0, 3.0], [2.0, 2.0], "less").p_value == 1.0

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            ob.welch_t_test([1.0], [2.0, 3.0])

    def test_bad_alternative(self):
        with pytest.raises(ContractError):
            ob.welch_t_test([1.0, 2.0], [3.0, 4.0], "above")

    def test_one_sided_halves_two_sided(self):
        # With a negative statistic, "less" is half the two-sided p.
        r2 = ob.welch_t_test(WELCH_A, WELCH_B)
        r1 = ob.welch_t_test(WELCH_A, WELCH_B, "less")
        assert r1.p_value == pytest.approx(r2.p_value / 2.0, abs=1e-12)


class TestHolm:
    @staticmethod
    def brute_force(p, alpha):
        """Literal step-down definition, used as an independent oracle."""
        m = len(p)
        order = sorted(range(m), key=lambda i: p[i])
        reject = [False] * m
        for rank, i in enumerate(order):
            if p[i] <= alpha / (m - rank):
                reject[i] = True
            else:
                break
        return reject

    def test_textbook_example(self):
        p = [0.01, 0.04, 0.03, 0.005]
        reject, adjusted = ob.holm_bonferroni(p, alpha=0.05)
        assert list(reject) == [True, False, False, True]
        # Sorted raw steps: 0.005*4, 0.01*3, 0.03*2, 0.04*1 -> running max.
        np.testing.assert_allclose(adjusted, [0.03, 0.06, 0.06, 0.02], atol=1e-12)

    def test_single_hypothesis(self):
        reject, adjusted = ob.holm_bonferroni([0.04], alpha=0.05)
        assert list(reject) == [True]
        assert adjusted[0] == pytest.approx(0.04)

    def test_empty(self):
        reject, adjusted = ob.holm_bonferroni([], alpha=0.05)
        assert reject.size == 0 and adjusted.size == 0

    def test_matches_brute_force_random(self):
        rng = Rng(20)
        for _ in range(300):
            m = rng.integers(1, 7)
            p = np.round(rng.random((m,)), 3)
            reject, _ = ob.holm_bonferroni(p, alpha=0.05)
            assert list(reject) == self.brute_force(list(p), 0.05)

    def test_adjusted_monotone_and_clipped(self):
        p = [0.9, 0.8, 0.7, 0.001]
        _, adjusted = ob.holm_bonferroni(p)
        assert np.all(adjusted <= 1.0)
        order = np.argsort(p)
        assert np.all(np.diff(adjusted[order]) >= -1e-15)

    def test_rejects_iff_adjusted_below_alpha(self):
        rng = Rng(21)
        for _ in range(100):
            p = rng.random((5,))
            reject, adjusted = ob.holm_bonferroni(p, alpha=0.05)
            np.testing.assert_array_equal(reject, adjusted <= 0.05)

    def test_invalid_p_values(self):
        with pytest.raises(ContractError):
            ob.holm_bonferroni([0.5, 1.2])
        with pytest.raises(ContractError):
            ob.holm_bonferroni([-0.1])


class TestMetricValue:
    def test_format(self):
        mv = ob.MetricValue([0.3364, 0.41, 0.37])
        assert str(mv) == f"{mv.mean:.4f} ({mv.std:.4f})"

    def test_single_value_has_zero_spread(self):
        assert ob.MetricValue([0.5]).std == 0.0

    def test_mean_std_sample_convention(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        mv = ob.MetricValue(vals)
        assert mv.mean == pytest.approx(2.5)
        assert mv.std == pytest.approx(np.std(vals, ddof=1))
