"""Greedy best-path and prefix beam-search CTC decoding.

The beam search keeps per-prefix blank / non-blank log masses and prunes
to ``beam_width`` prefixes per frame.  All tie-breaking is deterministic:
higher total mass first, then lexicographically smaller prefix.
"""

from dataclasses import dataclass

import numpy as np

from .alphabet import BLANK
from .ctc import collapse_path, ctc_loss  # noqa: F401 (perfbench/tracing.py rebinds ctc_loss here)
from .errors import check_fields, choices, ints

NEG_INF = -np.inf
DECODE_MODES = ("greedy", "beam")
# the widest beam a config accepts: a width that is never reached cuts nothing, so the
# kept set would grow about K-fold per frame (README gives a decode's cost at the bound)
MAX_BEAM_WIDTH = 1000


@dataclass(frozen=True)
class DecodeConfig:
    beam_width: ints(1, MAX_BEAM_WIDTH) = 20
    mode: choices(DECODE_MODES) = "beam"

    def __post_init__(self):
        check_fields(self)


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


def _prefix(node, up, sym):
    """The labels of trie node ``node``, read by walking up to the root."""
    labels = []
    while node:
        labels.append(sym[node])
        node = up[node]
    return tuple(reversed(labels))


def beam_decode(logp, cfg=DecodeConfig()):
    """CTC prefix beam search (Hannun et al. 2014, Algorithm 1); returns the best final prefix.

    Kept prefixes are integer nodes of a trie, held as a set, not a ranking.
    Each frame scores kept prefix i as entry (i, 0) of one n x K table and
    its extension by symbol k as entry (i, k), then keeps the entries at or
    above the W-th largest mass.  A slot of a new prefix sums at most two
    terms, its own repeat and its parent's extension, and ``np.logaddexp``
    is exactly commutative, so neither the order of the kept set nor the
    order of accumulation can change a mass.  An extension has no blank
    mass, and ``logaddexp(-inf, v) == v``, so its entry is already its
    total.  Prefixes are compared only to break a tie at the cut and to
    pick the best prefix after the last frame.
    """
    logp = np.asarray(logp, dtype=np.float64)
    K, W = logp.shape[1], cfg.beam_width
    # the trie: parent node * K + symbol -> child node, and each node's parent and last symbol
    trie, up, sym = {}, [-1], [BLANK]
    # kept nodes, the flat table entries of the nodes themselves (column 0), and
    # the log masses of each in total and ending in blank / non-blank
    nodes, col0 = [0], [0]
    total, pb, pnb = np.zeros(1), np.zeros(1), np.full(1, NEG_INF)
    # each kept node's last symbol (BLANK for the empty prefix), the flat entry of
    # its extension by that symbol, the entry of each kept parent's extension that
    # is a kept child, and that child
    last = rep = np.zeros(1, dtype=int)
    src = dst = np.zeros(0, dtype=int)
    for row in logp:
        table = np.add.outer(total, row)
        # extending by the last symbol needs a blank in between; the empty
        # prefix's entry (i, BLANK) gets pb + row[BLANK], its own value, as pb == total
        r = row[last]
        table.put(rep, pb + r)
        nb = pnb + r
        if dst.size:  # a kept child takes its parent's extension, which is then dead (NaN)
            nb[dst] = np.logaddexp(nb[dst], table.take(src))
            table.put(src, np.nan)
        blank = table[:, BLANK].copy()
        np.logaddexp(blank, nb, out=table[:, BLANK])
        # keep every live entry at or above the W-th largest live mass. NaN
        # partitions to the end and compares False, so dead entries never count
        mass = table.ravel()
        kth = max(mass.size - src.size - W, 0)
        cut = np.partition(mass, kth)[kth]
        keep = (mass >= cut).nonzero()[0].tolist()
        if len(keep) > W:  # ties at the cut: the smallest prefixes among them
            above = (mass > cut).nonzero()[0].tolist()
            prefixes = [_prefix(node, up, sym) for node in nodes]
            tied = sorted((prefixes[c // K] + (c % K,) if c % K else prefixes[c // K], c)
                          for c in (mass == cut).nonzero()[0].tolist())
            keep = sorted(above + [c for _, c in tied[: W - len(above)]])
        if keep == col0:  # the same prefixes, none extended: only the masses change
            total, pb, pnb = table[:, BLANK], blank, nb
            continue
        blanks, nbs, masses = blank.tolist(), nb.tolist(), mass.take(keep)
        old, nodes, pbs, pnbs = nodes, [], [], []
        for c, m in zip(keep, masses.tolist()):
            i, k = divmod(c, K)
            node = old[i]
            if k:  # an extension: its node is made the first time it is kept
                node = trie.setdefault(node * K + k, len(up))
                if node == len(up):
                    up.append(old[i])
                    sym.append(k)
            nodes.append(node)
            pbs.append(NEG_INF if k else blanks[i])
            pnbs.append(m if k else nbs[i])
        pos = dict(zip(nodes, range(len(nodes))))
        src, dst = [], []
        for j, node in enumerate(nodes):
            jp = pos.get(up[node])
            if jp is not None:
                src.append(jp * K + sym[node])
                dst.append(j)
        col0 = list(range(0, len(nodes) * K, K))
        src, dst = np.array(src, dtype=int), np.array(dst, dtype=int)
        last = np.array([sym[node] for node in nodes])
        total, pb, pnb, rep = masses, np.array(pbs), np.array(pnbs), np.array(col0) + last
    totals = total.tolist()
    best = max(totals)
    labels, j = min((_prefix(nodes[j], up, sym), j) for j, m in enumerate(totals) if m == best)
    return DecodedHypothesis(labels=labels, log_prob=totals[j])


def decode(logp, cfg=DecodeConfig()):
    return greedy_decode(logp) if cfg.mode == "greedy" else beam_decode(logp, cfg)
