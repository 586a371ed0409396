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

    Kept prefixes are integer nodes of a trie.  Each frame scores kept
    prefix i as entry (i, 0) of one n x K table and its extension by symbol
    k as entry (i, k).  A slot of a new prefix sums at most two terms, its
    own repeat and its parent's extension, and ``np.logaddexp`` is exactly
    commutative, so no order of accumulation can change a mass.  An
    extension has no blank mass, and ``logaddexp(-inf, v) == v``, so its
    entry is already its total.
    """
    logp = np.asarray(logp, dtype=np.float64)
    K, W = logp.shape[1], cfg.beam_width
    # the trie: parent node * K + symbol -> child node, and each node's parent
    trie, up = {}, [-1]
    # kept nodes, prefixes and last symbols (BLANK for the empty prefix), and
    # the log masses of each in total and ending in blank / non-blank
    nodes, prefixes, lasts = [0], [()], [BLANK]
    total, pb, pnb, last = np.zeros(1), np.zeros(1), np.full(1, NEG_INF), np.zeros(1, dtype=int)
    # entry of each kept parent's extension that is a kept child, and that child
    src = dst = np.zeros(0, dtype=int)
    for row in logp:
        table = np.add.outer(total, row)
        # extending by the last symbol needs a blank in between; the empty
        # prefix's entry (i, BLANK) gets pb + row[BLANK], its own value, as pb == total
        r = row[last]
        table.put(np.arange(0, table.size, K) + last, pb + r)
        nb = pnb + r
        if dst.size:  # a kept child takes its parent's extension, which is then dead (NaN)
            nb[dst] = np.logaddexp(nb[dst], table.take(src))
            table.put(src, np.nan)
        col0 = table[:, BLANK]
        blanks, nbs = col0.tolist(), nb.tolist()
        np.logaddexp(col0, nb, out=col0)
        # keep all tied with the W-th largest live mass; the sort breaks ties.
        # NaN partitions to the end and compares False, so dead entries never rank
        mass = table.ravel()
        kth = max(mass.size - src.size - W, 0)
        live = (mass >= np.partition(mass, kth)[kth]).nonzero()[0]
        ranked = sorted((-m, prefixes[c // K] + (c % K,) if c % K else prefixes[c // K], c)
                        for c, m in zip(live.tolist(), mass[live].tolist()))[:W]
        old_nodes, old_lasts = nodes, lasts
        nodes, prefixes, lasts, masses, pbs, pnbs = [], [], [], [], [], []
        for m, p, c in ranked:
            i, k = divmod(c, K)
            node = old_nodes[i]
            if k:  # an extension: its node is made the first time it is kept
                node = trie.setdefault(node * K + k, len(up))
                if node == len(up):
                    up.append(old_nodes[i])
            nodes.append(node)
            prefixes.append(p)
            lasts.append(k or old_lasts[i])
            masses.append(-m)
            pbs.append(NEG_INF if k else blanks[i])
            pnbs.append(-m if k else nbs[i])
        pos = dict(zip(nodes, range(len(nodes))))
        src, dst = [], []
        for j, node in enumerate(nodes):
            jp = pos.get(up[node])
            if jp is not None:
                src.append(jp * K + lasts[j])
                dst.append(j)
        src, dst = np.array(src, dtype=int), np.array(dst, dtype=int)
        total, pb, pnb, last = np.array(masses), np.array(pbs), np.array(pnbs), np.array(lasts)
    return DecodedHypothesis(labels=prefixes[0], log_prob=float(total[0]))


def decode(logp, cfg=DecodeConfig()):
    return greedy_decode(logp) if cfg.mode == "greedy" else beam_decode(logp, cfg)
