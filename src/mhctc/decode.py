"""Greedy best-path and prefix beam-search CTC decoding.

The beam search keeps per-prefix blank / non-blank log masses and prunes
to ``beam_width`` prefixes per frame.  All tie-breaking is deterministic:
higher total mass first, then lexicographically smaller prefix.
"""

from dataclasses import dataclass

import numpy as np

from .alphabet import BLANK
from .ctc import collapse_path, ctc_loss  # noqa: F401 (perfbench/tracing.py rebinds ctc_loss here)
from .errors import ConfigError, check_ints

NEG_INF = -np.inf


@dataclass(frozen=True)
class DecodeConfig:
    beam_width: int = 20
    mode: str = "beam"

    def __post_init__(self):
        check_ints(1, beam_width=self.beam_width)
        if self.mode not in ("greedy", "beam"):
            raise ConfigError("mode must be 'greedy' or 'beam'")


@dataclass(frozen=True)
class DecodedHypothesis:
    labels: tuple
    log_prob: float


def greedy_decode(logp):
    """Per-frame argmax, collapse repeats, strip blanks.

    log_prob is the log-probability of the best path itself, not the CTC
    score of the collapsed labeling summed over all its paths.  np.argmax
    breaks ties toward the lowest class index.
    """
    logp = np.asarray(logp, dtype=np.float64)
    labels = collapse_path(np.argmax(logp, axis=1))
    return DecodedHypothesis(labels=labels, log_prob=float(logp.max(axis=1).sum()))


def beam_decode(logp, cfg=DecodeConfig()):
    """CTC prefix beam search (Hannun et al. 2014, Algorithm 1); returns the best final prefix.

    Each frame scores every kept prefix and its extension by every symbol
    as one array.  A slot of a new prefix sums at most two terms, its own
    repeat and its parent's extension, and ``np.logaddexp`` is exactly
    commutative, so no order of accumulation can change a mass.
    """
    logp = np.asarray(logp, dtype=np.float64)
    K, W = logp.shape[1], cfg.beam_width
    # kept prefixes, their log masses ending in blank / non-blank, and their last symbols
    prefixes, pb, pnb, last = [()], np.zeros(1), np.full(1, NEG_INF), np.zeros(1, dtype=int)
    for row in logp:
        total = np.logaddexp(pb, pnb)
        # candidate (i, 0) is kept prefix i itself and (i, k) is prefix i extended by
        # symbol k; extending by the last symbol needs a blank in between
        cand_pb = np.full((len(prefixes), K), NEG_INF)
        cand_pb[:, BLANK] = total + row[BLANK]
        cand_pnb = np.where(last[:, None] == np.arange(K), pb[:, None], total[:, None]) + row
        cand_pnb[:, BLANK] = pnb + row[last]  # -inf for the empty prefix
        # a kept prefix whose parent is kept also takes that parent's extension
        index = {p: i for i, p in enumerate(prefixes)}
        parent = np.array([index.get(p[:-1], -1) if p else -1 for p in prefixes])
        child = np.flatnonzero(parent >= 0)
        merged = (parent[child], last[child])
        cand_pnb[child, BLANK] = np.logaddexp(cand_pnb[child, BLANK], cand_pnb[merged])
        live = np.delete(np.arange(cand_pnb.size), parent[child] * K + last[child])
        neg = -np.logaddexp(cand_pb, cand_pnb).ravel()
        if live.size > W:  # keep all tied with the W-th largest mass; the sort breaks ties
            live = live[neg[live] <= np.partition(neg[live], W - 1)[W - 1]]
        ranked = sorted((m, prefixes[c // K] + (c % K,) if c % K else prefixes[c // K], c)
                        for c, m in zip(live.tolist(), neg[live].tolist()))[:W]
        _, prefixes, order = zip(*ranked)
        pb, pnb = np.take(cand_pb, order), np.take(cand_pnb, order)
        last = np.array([p[-1] if p else BLANK for p in prefixes])
    return DecodedHypothesis(labels=prefixes[0], log_prob=float(np.logaddexp(pb[0], pnb[0])))


def decode(logp, cfg=DecodeConfig()):
    return greedy_decode(logp) if cfg.mode == "greedy" else beam_decode(logp, cfg)
