import numpy as np
import pytest

from mhctc.ctc import min_frames
from mhctc.decode import DecodeConfig, beam_decode, decode, greedy_decode
from mhctc.errors import ConfigError

from helpers import beam_decode_reference, exhaustive_best_labeling, random_logp


def assert_matches_reference(logp, width):
    """Labels and log_prob equal (``==``) to the dict search's."""
    cfg = DecodeConfig(beam_width=width)
    got, want = beam_decode(logp, cfg), beam_decode_reference(logp, cfg)
    assert (got.labels, got.log_prob) == (want.labels, want.log_prob)


def peaked_logp(path, K, eps=1e-6):
    T = len(path)
    p = np.full((T, K), eps / (K - 1))
    for t, k in enumerate(path):
        p[t, k] = 1.0 - eps
    return np.log(p)


class TestGreedy:
    def test_collapse_rule(self):
        logp = peaked_logp([1, 1, 0, 2], 3)
        assert greedy_decode(logp).labels == (1, 2)

    def test_all_blank(self):
        logp = peaked_logp([0, 0, 0], 3)
        assert greedy_decode(logp).labels == ()

    def test_matches_oneliner_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logp = random_logp(rng, 4, 3)
            am = np.argmax(logp, axis=1)
            collapsed = []
            prev = None
            for k in am:
                if k != prev and k != 0:
                    collapsed.append(int(k))
                prev = k
            assert greedy_decode(logp).labels == tuple(collapsed)

    def test_output_feasible(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            logp = random_logp(rng, 6, 4)
            hyp = greedy_decode(logp)
            assert min_frames(hyp.labels) <= logp.shape[0]
            assert hyp.log_prob <= 0.0
            # the best path's own log-probability, not the labeling's CTC score
            best = np.argmax(logp, axis=1)
            assert hyp.log_prob == logp[np.arange(logp.shape[0]), best].sum()


class TestBeam:
    def test_saturating_beam_matches_exhaustive(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            T = int(rng.integers(1, 5))
            logp = random_logp(rng, T, 3)
            cfg = DecodeConfig(beam_width=3**5)
            hyp = beam_decode(logp, cfg)
            labels, log_mass = exhaustive_best_labeling(logp)
            assert hyp.labels == labels
            assert hyp.log_prob == pytest.approx(log_mass, abs=1e-9)

    def test_single_frame(self):
        logp = np.log(np.array([[0.2, 0.5, 0.3]]))
        hyp = beam_decode(logp, DecodeConfig(beam_width=5))
        assert hyp.labels == (1,)
        assert hyp.log_prob == pytest.approx(np.log(0.5))

    def test_peaked_any_width(self):
        logp = peaked_logp([1, 0, 2, 2], 3)
        for width in (1, 2, 20):
            assert beam_decode(logp, DecodeConfig(beam_width=width)).labels == (1, 2)

    def test_score_monotone_in_width(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            logp = random_logp(rng, 6, 4)
            narrow = beam_decode(logp, DecodeConfig(beam_width=2)).log_prob
            wide = beam_decode(logp, DecodeConfig(beam_width=8)).log_prob
            assert wide >= narrow - 1e-12

    def test_matches_reference_search(self):
        # labels and log_prob equal to the dict search's, ties at the cut included
        rng = np.random.default_rng(6)
        for n in range(1000):
            T, K, W = int(rng.integers(1, 51)), int(rng.integers(2, 8)), int(rng.integers(1, 31))
            u = rng.standard_normal((T, K)) * rng.uniform(0.3, 30.0)
            if n % 3 == 0:
                u = np.round(u)  # rounded logits: many tied masses
            if n % 5 == 0:
                u[rng.random(T) < 0.3] = 0.0  # all-zero rows: every symbol equally likely
            logp = u - np.logaddexp.reduce(u, axis=1, keepdims=True)
            cfg = DecodeConfig(beam_width=W)
            got, want = beam_decode(logp, cfg), beam_decode_reference(logp, cfg)
            assert (got.labels, got.log_prob) == (want.labels, want.log_prob), (n, T, K, W)

    # T=0 and T=1 frames, the smallest alphabet and beam, and beams wider
    # than the number of distinct prefixes (at most 3 for T=3, K=2)
    @pytest.mark.parametrize("T,K,W", [(0, 3, 4), (1, 2, 1), (3, 2, 1), (3, 2, 30), (4, 3, 500)])
    @pytest.mark.parametrize("uniform", [False, True])
    def test_edge_cases_match_reference(self, T, K, W, uniform):
        rng = np.random.default_rng(T)
        logp = np.full((T, K), -np.log(K)) if uniform else random_logp(rng, T, K)
        cfg = DecodeConfig(beam_width=W)
        got, want = beam_decode(logp, cfg), beam_decode_reference(logp, cfg)
        assert (got.labels, got.log_prob) == (want.labels, want.log_prob)

    def test_minus_inf_entries_match_reference(self):
        # impossible symbols, frames where only blank is possible, and frames
        # where nothing is; W may exceed the live candidates, -inf masses included
        rng = np.random.default_rng(11)
        for _ in range(300):
            T, K, W = int(rng.integers(1, 31)), int(rng.integers(2, 8)), int(rng.integers(1, 41))
            logp = random_logp(rng, T, K)
            logp[rng.random((T, K)) < 0.3] = -np.inf
            logp[rng.random(T) < 0.2, 1:] = -np.inf
            logp[rng.random(T) < 0.05] = -np.inf
            assert_matches_reference(logp, W)

    @pytest.mark.parametrize("W", [1, 2, 4, 7, 100])
    def test_beam_wider_than_live_candidates(self, W):
        # two frames over {blank, 1, 2} give 7 prefixes; the -inf last row
        # ties them all, so the best is the smallest kept prefix
        logp = np.array([[-0.7, -1.2, -1.6], [-1.6, -0.5, -np.inf], [-np.inf] * 3])
        for T in (0, 2, 3):
            assert_matches_reference(logp[:T], W)
        hyp = beam_decode(logp[:0], DecodeConfig(beam_width=W))
        assert (hyp.labels, hyp.log_prob) == ((), 0.0)

    def test_decode_shaped_instances_match_reference(self):
        # the decode workload's shape: T 60-110, K=6, W=20, one dominant class
        # per frame, blank most often
        rng = np.random.default_rng(12)
        for _ in range(200):
            T = int(rng.integers(60, 111))
            peak = np.where(rng.random(T) < 0.6, 0, rng.integers(1, 6, T))
            u = rng.standard_normal((T, 6))
            u[np.arange(T), peak] += rng.uniform(1.0, 9.0, T)
            assert_matches_reference(u - np.logaddexp.reduce(u, axis=1, keepdims=True), 20)
        # a model's outputs: seven labels or fewer between long runs of confident
        # blanks, where the kept prefixes often stay the same from frame to frame
        rng = np.random.default_rng(13)
        for _ in range(100):
            T = int(rng.integers(60, 111))
            peak = np.zeros(T, dtype=int)
            n_labels = int(rng.integers(1, 8))
            peak[rng.choice(T, n_labels, replace=False)] = rng.integers(1, 6, n_labels)
            u = rng.standard_normal((T, 6))
            margin = np.where(peak == 0, rng.uniform(5.0, 14.0, T), rng.uniform(1.0, 9.0, T))
            u[np.arange(T), peak] += margin
            assert_matches_reference(u - np.logaddexp.reduce(u, axis=1, keepdims=True), 20)

    @pytest.mark.parametrize("rows", [
        # (1,) with (1, 2), then (1, 2) with (1, 2, 1), kept together at W=2
        [[0.1, 0.8, 0.1]] + [[0.3, 0.2, 0.5]] * 4,
        # (1,) with (1, 1): the parent's extension by its own last symbol
        [[0.1, 0.8, 0.1], [0.5, 0.4, 0.1], [0.4, 0.5, 0.1], [0.5, 0.4, 0.1], [0.4, 0.5, 0.1]],
    ], ids=["child-2", "child-repeat"])
    def test_kept_parent_and_child_merge(self, rows):
        # a prefix and its parent stay kept together from frame 1 on, so each
        # frame folds the parent's extension into the child's non-blank mass
        for W in (2, 3, 20):
            assert_matches_reference(np.log(np.array(rows)), W)

    @pytest.mark.parametrize("end", ["label", "minus-inf"])
    @pytest.mark.parametrize("W", [2, 3, 20])
    def test_kept_set_holds_through_blank_runs(self, W, end):
        # 30 blank-dominated frames keep the same prefixes, none extended, so only
        # their masses change; a label frame then changes the set, and a second
        # run holds the new one. The last frames give one more label, or give
        # every symbol -inf, which ties all kept prefixes at the cut
        blanks = [[0.96, 0.02, 0.01, 0.01]] * 30
        rows = [[0.1, 0.8, 0.05, 0.05]] + blanks + [[0.1, 0.05, 0.8, 0.05]] + blanks
        logp = np.log(np.array(rows))
        if end == "label":
            logp = np.vstack([logp, np.log([[0.1, 0.05, 0.05, 0.8]])])
        else:
            logp = np.vstack([logp, np.full((2, 4), -np.inf)])
        for T in (1, 31, 32, len(logp)):
            assert_matches_reference(logp[:T], W)

    def test_invalid_width(self):
        with pytest.raises(ConfigError):
            DecodeConfig(beam_width=0)

    def test_invalid_mode(self):
        with pytest.raises(ConfigError, match="mode must be 'greedy' or 'beam'"):
            DecodeConfig(mode="viterbi")

    def test_dispatch(self):
        logp = peaked_logp([1, 2], 3)
        assert decode(logp, DecodeConfig(mode="greedy")).labels == (1, 2)
        assert decode(logp, DecodeConfig(mode="beam")).labels == (1, 2)
