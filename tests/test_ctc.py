import math

import numpy as np
import pytest

from mhctc.alphabet import BLANK, LabelAlphabet
from mhctc.ctc import (
    check_logp,
    ctc_lattice,
    ctc_loss,
    expand_labels,
    logits_gradient,
    min_frames,
    target_labels,
)
from mhctc.errors import (
    InfeasibleAlignment,
    InvalidInput,
    InvalidLabel,
)
from mhctc.decode import greedy_decode
from mhctc.mh import mh_ctc_loss
from mhctc.model import ModelConfig, TrainConfig, init_model, sgd_train

from helpers import (
    OracleTooLarge,
    ctc_loss_bruteforce,
    ctc_loss_reference,
    random_instance,
    random_logp,
)


def norm_rows(u):
    return u - np.logaddexp.reduce(u, axis=1, keepdims=True)


class TestExpandLabels:
    def test_single_label(self):
        assert expand_labels([1]).tolist() == [BLANK, 1, BLANK]

    def test_empty(self):
        assert expand_labels([]).tolist() == [BLANK]

    def test_repeated_label(self):
        assert expand_labels([1, 1]).tolist() == [BLANK, 1, BLANK, 1, BLANK]

    def test_out_of_range(self):
        # labels are validated before expansion, against a T x K output's K - 1 symbols
        with pytest.raises(InvalidLabel):
            target_labels((4, 3), ([3],))


class TestMinFrames:
    @pytest.mark.parametrize(
        "labels,expected",
        [([1, 2, 3], 3), ([1, 1], 3), ([], 0), ([2, 2, 2], 5)],
    )
    def test_values(self, labels, expected):
        assert min_frames(labels) == expected


class TestLabels:
    # each is one label of a transcription; 2.0 and True would pass as 2 and 1 if truncated
    @pytest.mark.parametrize("label", [1.5, np.float64(2.0), True, "a", (1, 2), None], ids=repr)
    @pytest.mark.parametrize("entry", ["ctc_loss", "mh_ctc_loss", "sgd_train", "decode"])
    def test_malformed_label_is_invalid(self, entry, label):
        logp = norm_rows(np.zeros((4, 3)))
        model = init_model(ModelConfig(feat_dim=2, n_outputs=3, context=0, hidden=2))
        calls = {
            "ctc_loss": lambda: ctc_loss(logp, (label,)),
            "mh_ctc_loss": lambda: mh_ctc_loss(logp, ((label,),)),
            "sgd_train": lambda: sgd_train(model, [(np.zeros((4, 2)), ((label,),))],
                                           TrainConfig(epochs=0)),
            "decode": lambda: LabelAlphabet(("a", "b")).decode((label,)),
        }
        with pytest.raises(InvalidLabel) as exc:
            calls[entry]()
        assert repr(label) in str(exc.value)

    def test_numpy_integers_are_labels(self):
        # greedy_decode's labels are np.int64; they train exactly as Python ints do
        logp = norm_rows(np.random.default_rng(4).standard_normal((12, 4)) * 3)
        labels = greedy_decode(logp).labels
        assert labels and all(type(v) is np.int64 for v in labels)
        ints = tuple(int(v) for v in labels)
        assert ctc_loss(logp, labels).loss == ctc_loss(logp, ints).loss
        assert mh_ctc_loss(logp, (labels, ints)).loss == 2 * ctc_loss(logp, ints).loss


class TestCtcLoss:
    def test_single_frame_single_path(self):
        logp = np.log(np.array([[0.4, 0.6]]))
        res = ctc_loss(logp, [1])
        assert res.loss == pytest.approx(-math.log(0.6), rel=1e-12)

    def test_log_probs_below_old_floor_are_exact(self):
        # the only path emits label 1 at log-prob -100, far below log(1e-30)
        logp = np.array([[math.log1p(-math.exp(-100.0)), -100.0]])
        res = ctc_loss(logp, [1])
        assert res.loss == 100.0
        assert res.grad[0, 1] == -1.0

    def test_two_frame_uniform(self):
        # paths (a,a), (a,-), (-,a): 3 * 0.25
        logp = np.log(np.full((2, 2), 0.5))
        res = ctc_loss(logp, [1])
        assert res.loss == pytest.approx(-math.log(0.75), rel=1e-12)

    def test_empty_transcription(self):
        logp = norm_rows(np.random.default_rng(3).standard_normal((4, 3)))
        res = ctc_loss(logp, [])
        assert res.loss == pytest.approx(-float(logp[:, BLANK].sum()), rel=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        logp = random_logp(rng, 6, 4)
        labels = (1, 3, 2)
        res = ctc_loss(logp, labels)
        ref = ctc_loss_bruteforce(logp, labels)
        assert abs(res.loss - ref) / max(1.0, abs(ref)) <= 1e-10

    def test_infeasible_raises(self):
        logp = norm_rows(np.zeros((2, 3)))
        with pytest.raises(InfeasibleAlignment):
            ctc_loss(logp, [1, 1])

    def test_non_finite_rejected(self):
        logp = norm_rows(np.zeros((3, 3)))
        logp[1, 1] = np.nan
        with pytest.raises(InvalidInput):
            ctc_loss(logp, [1])

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidInput):
            ctc_loss(np.zeros((3, 3)), [1])

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            logp, labels = random_instance(rng)
            assert ctc_loss(logp, labels).loss >= -1e-12

    def test_grad_shape(self):
        rng = np.random.default_rng(1)
        logp, labels = random_instance(rng)
        assert ctc_loss(logp, labels).grad.shape == logp.shape


class TestOracle:
    def test_guard(self):
        logp = norm_rows(np.zeros((30, 10)))
        with pytest.raises(OracleTooLarge):
            ctc_loss_bruteforce(logp, [1])

    def test_infeasible_is_inf(self):
        logp = norm_rows(np.zeros((1, 3)))
        assert ctc_loss_bruteforce(logp, [1, 1]) == math.inf

    def test_single_frame_empty_target(self):
        logp = np.log(np.array([[0.3, 0.7]]))
        assert ctc_loss_bruteforce(logp, []) == pytest.approx(-math.log(0.3))


class TestProperties:
    def test_oracle_equivalence_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            logp, labels = random_instance(rng)
            loss = ctc_loss(logp, labels).loss
            ref = ctc_loss_bruteforce(logp, labels)
            assert abs(loss - ref) / max(1.0, abs(loss)) <= 1e-10

    def test_logits_gradient_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(10):
            logp, labels = random_instance(rng, max_T=6)
            res = ctc_loss(logp, labels)
            g = logits_gradient(logp, res.grad)
            u = logp.copy()  # logp is a valid set of scores for itself
            for t in range(u.shape[0]):
                for k in range(u.shape[1]):
                    up, dn = u.copy(), u.copy()
                    up[t, k] += h
                    dn[t, k] -= h
                    fd = (
                        ctc_loss(norm_rows(up), labels).loss
                        - ctc_loss(norm_rows(dn), labels).loss
                    ) / (2 * h)
                    assert abs(fd - g[t, k]) <= 1e-6 * max(1.0, abs(fd))

    def test_blank_frame_extension(self):
        rng = np.random.default_rng(9)
        logp, labels = random_instance(rng)
        base = ctc_loss(logp, labels).loss
        log_floor = math.log(1e-30)
        pure_blank = np.full(logp.shape[1], log_floor)
        pure_blank[BLANK] = math.log1p(-np.exp(log_floor) * (logp.shape[1] - 1))
        extended = np.vstack([logp, pure_blank])
        assert ctc_loss(extended, labels).loss == pytest.approx(base, abs=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        logp, labels = random_instance(rng, max_syms=3, max_L=3)
        K = logp.shape[1]
        perm = [0] + list(rng.permutation(np.arange(1, K)))
        inv = np.argsort(perm)
        logp_p = logp[:, perm]
        labels_p = tuple(int(inv[i]) for i in labels)
        a = ctc_loss(logp, labels).loss
        b = ctc_loss(logp_p, labels_p).loss
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_loss_zero_iff_certain(self):
        # concentrate all mass on the single path "a" for T=1
        eps = 1e-30
        logp = np.log(np.array([[eps, 1.0 - eps]]))
        assert ctc_loss(logp, [1]).loss == pytest.approx(0.0, abs=1e-12)


class TestLattice:
    def test_matches_reference_per_row(self):
        # mixed T, L and hypothesis counts in one batch; a narrow symbol range
        # makes repeated labels common, and a quarter of the utterances have
        # exactly min_frames frames
        rng = np.random.default_rng(20)
        for _ in range(500):
            K = int(rng.integers(2, 8))
            logps, targets = [], []
            for _ in range(int(rng.integers(1, 6))):
                hyps = []
                for _ in range(int(rng.integers(1, 4))):
                    n_syms = int(rng.integers(1, K))
                    L = int(rng.integers(0, 11))
                    hyps.append(tuple(int(i) for i in rng.integers(1, n_syms + 1, L)))
                need = max(1, *(min_frames(h) for h in hyps))
                T = need if rng.random() < 0.25 else int(rng.integers(need, 61))
                scale = float(rng.choice([0.3, 2.0, 30.0]))
                logp = check_logp(norm_rows(rng.standard_normal((T, K)) * scale))
                logps.append(logp)
                targets.append(target_labels(logp.shape, hyps))
            for logp, hyps, res in zip(logps, targets, ctc_lattice(logps, targets)):
                refs = [ctc_loss_reference(logp, h) for h in hyps]
                assert res.per_hypothesis == [r.loss for r in refs]
                grad = refs[0].grad
                for r in refs[1:]:
                    grad = grad + r.grad
                assert np.array_equal(res.grad, grad)

    def test_single_row_is_ctc_loss(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            logp, labels = random_instance(rng, max_T=30, max_syms=5, max_L=8)
            a, b = ctc_loss(logp, labels), ctc_loss_reference(logp, labels)
            assert a.loss == b.loss and a.per_hypothesis == [b.loss]
            assert np.array_equal(a.grad, b.grad)
