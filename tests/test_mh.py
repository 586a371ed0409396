import math

import numpy as np
import pytest

from mhctc.ctc import ctc_loss
from mhctc.errors import InfeasibleAlignment, InvalidInput
from mhctc.mh import mh_ctc_loss

from helpers import (
    ctc_loss_bruteforce,
    ctc_loss_reference,
    product_form_check,
    random_instance,
    random_logp,
)


class TestTargetShape:
    def test_empty_rejected(self):
        logp = random_logp(np.random.default_rng(12), 3, 3)
        with pytest.raises(InvalidInput, match="non-empty tuple of transcriptions"):
            mh_ctc_loss(logp, ())

    def test_bare_transcription_rejected(self):
        # one transcription where a tuple of them is expected
        logp = random_logp(np.random.default_rng(13), 3, 3)
        with pytest.raises(InvalidInput, match="non-empty tuple of transcriptions"):
            mh_ctc_loss(logp, (1, 2))


class TestMhCtcLoss:
    def test_identical_hypotheses_double(self):
        rng = np.random.default_rng(0)
        logp, labels = random_instance(rng)
        single = ctc_loss(logp, labels).loss
        combined = mh_ctc_loss(logp, (labels, labels))
        assert combined.loss == pytest.approx(2 * single, rel=1e-12)
        np.testing.assert_allclose(
            combined.grad, 2 * ctc_loss(logp, labels).grad, rtol=0, atol=1e-15
        )

    def test_n1_degeneracy(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            logp, labels = random_instance(rng)
            a = ctc_loss(logp, labels)
            b = mh_ctc_loss(logp, (labels,))
            assert abs(a.loss - b.loss) <= 1e-15 * max(1.0, abs(a.loss))
            np.testing.assert_array_equal(a.grad, b.grad)

    def test_product_form_against_bruteforce(self):
        rng = np.random.default_rng(2)
        logp = random_logp(rng, 6, 4)
        c1, c2 = (1, 2), (3, 1, 2)
        combined = mh_ctc_loss(logp, (c1, c2))
        # exp(-loss) equals the product of the two brute-force path sums
        ref = ctc_loss_bruteforce(logp, c1) + ctc_loss_bruteforce(logp, c2)
        assert abs(combined.loss - ref) / max(1.0, abs(ref)) <= 1e-10

    def test_infeasible_carries_index(self):
        logp = random_logp(np.random.default_rng(3), 2, 3)
        with pytest.raises(InfeasibleAlignment, match=r"^hypothesis 1 infeasible: "):
            mh_ctc_loss(logp, ((1,), (1, 1, 2)))

    def test_additivity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            logp, c1 = random_instance(rng)
            _, c2 = random_instance(rng, max_T=logp.shape[0], max_syms=logp.shape[1] - 1)
            if len(c2) > 0 and max(c2) >= logp.shape[1]:
                continue
            try:
                combined = mh_ctc_loss(logp, (c1, c2))
            except InfeasibleAlignment:
                continue
            assert abs(combined.loss - sum(combined.per_hypothesis)) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        logp = random_logp(rng, 5, 3)
        a = mh_ctc_loss(logp, ((1,), (2, 1)))
        b = mh_ctc_loss(logp, ((2, 1), (1,)))
        assert abs(a.loss - b.loss) <= 1e-12
        np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-12)

    def test_empty_hypothesis_is_valid(self):
        logp = random_logp(np.random.default_rng(6), 4, 3)
        res = mh_ctc_loss(logp, ((), (1,)))
        assert math.isfinite(res.loss)


    def test_duplicate_hypotheses_exactly_double(self):
        # the duplicate is one lattice row counted twice; x + x == 2 * x exactly
        rng = np.random.default_rng(10)
        for _ in range(50):
            logp, labels = random_instance(rng, max_T=20, max_syms=4, max_L=6)
            single = ctc_loss(logp, labels)
            double = mh_ctc_loss(logp, (labels, labels))
            assert double.per_hypothesis == [single.loss, single.loss]
            assert double.loss == 2 * single.loss
            assert np.array_equal(double.grad, 2 * single.grad)

    def test_empty_hypothesis_rows_match_reference(self):
        logp = random_logp(np.random.default_rng(11), 6, 3)
        hyps = ((), (1, 2), (2, 2))
        res = mh_ctc_loss(logp, hyps)
        refs = [ctc_loss_reference(logp, h) for h in hyps]
        assert res.per_hypothesis == [r.loss for r in refs]
        assert np.array_equal(res.grad, (refs[0].grad + refs[1].grad) + refs[2].grad)


class TestProductFormCheck:
    def test_identical_is_double(self):
        logp = random_logp(np.random.default_rng(7), 5, 3)
        c = (1, 2)
        assert product_form_check(logp, c, c) == pytest.approx(
            2 * ctc_loss_bruteforce(logp, c), rel=1e-12
        )

    def test_matches_mh_loss(self):
        rng = np.random.default_rng(8)
        logp = random_logp(rng, 6, 4)
        c1, c2 = (2,), (1, 3)
        ref = product_form_check(logp, c1, c2)
        val = mh_ctc_loss(logp, (c1, c2)).loss
        assert abs(val - ref) / max(1.0, abs(ref)) <= 1e-10

    def test_infeasible_second_factor(self):
        logp = random_logp(np.random.default_rng(9), 2, 3)
        assert product_form_check(logp, (1,), (2, 2, 1)) == math.inf
