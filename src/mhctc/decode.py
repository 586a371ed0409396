"""Greedy best-path and prefix beam-search CTC decoding.

The beam search keeps per-prefix blank / non-blank log masses and prunes
to ``beam_width`` prefixes per frame.  All tie-breaking is deterministic:
higher total mass first, then lexicographically smaller prefix.
"""

from dataclasses import dataclass

import numpy as np

from .alphabet import BLANK
from .ctc import collapse_path, ctc_loss  # noqa: F401 (perfbench/tracing.py rebinds ctc_loss here)
from .errors import ConfigError

NEG_INF = -np.inf


@dataclass(frozen=True)
class DecodeConfig:
    beam_width: int = 20
    mode: str = "beam"

    def __post_init__(self):
        if self.beam_width < 1:
            raise ConfigError("beam_width must be >= 1")
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


def _rank(beam):
    """Sort key of a (prefix, masses) beam: higher total mass, then smaller prefix."""
    return -np.logaddexp(*beam[1]), beam[0]


def beam_decode(logp, cfg=DecodeConfig()):
    """Standard CTC prefix beam search; returns the best final prefix."""
    logp = np.asarray(logp, dtype=np.float64)
    T, K = logp.shape
    # prefix -> [log mass ending in blank, log mass ending in non-blank]
    beams = {(): [0.0, NEG_INF]}
    for t in range(T):
        row = logp[t]
        nxt = {}

        def bump(prefix, slot, val):
            entry = nxt.setdefault(prefix, [NEG_INF, NEG_INF])
            entry[slot] = np.logaddexp(entry[slot], val)

        for prefix, (pb, pnb) in beams.items():
            total = np.logaddexp(pb, pnb)
            bump(prefix, 0, total + row[BLANK])
            if prefix:
                bump(prefix, 1, pnb + row[prefix[-1]])
            for k in range(1, K):
                if prefix and prefix[-1] == k:
                    bump(prefix + (k,), 1, pb + row[k])
                else:
                    bump(prefix + (k,), 1, total + row[k])
        beams = dict(sorted(nxt.items(), key=_rank)[: cfg.beam_width])
    best, (pb, pnb) = next(iter(beams.items()))  # beams are kept in rank order
    return DecodedHypothesis(labels=best, log_prob=float(np.logaddexp(pb, pnb)))


def decode(logp, cfg=DecodeConfig()):
    return greedy_decode(logp) if cfg.mode == "greedy" else beam_decode(logp, cfg)
