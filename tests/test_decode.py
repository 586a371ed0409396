import numpy as np
import pytest

from mhctc.ctc import min_frames
from mhctc.decode import DecodeConfig, beam_decode, decode, greedy_decode
from mhctc.errors import ConfigError

from helpers import beam_decode_reference, exhaustive_best_labeling, random_logp


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

    def test_invalid_width(self):
        with pytest.raises(ConfigError):
            DecodeConfig(beam_width=0)

    def test_dispatch(self):
        logp = peaked_logp([1, 2], 3)
        assert decode(logp, DecodeConfig(mode="greedy")).labels == (1, 2)
        assert decode(logp, DecodeConfig(mode="beam")).labels == (1, 2)
