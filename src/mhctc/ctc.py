"""CTC loss via log-space forward-backward dynamic programming.

The loss of a transcription C given per-frame log-probabilities is
-log of the total probability of every frame-level path that collapses
to C (remove repeats, then blanks).  The DP runs over the extended label
sequence (blank, c_1, blank, ..., c_L, blank) with the usual
stay / advance-one / advance-two transition rule.

One recursion serves both passes and the whole batch: beta is alpha of
the time- and state-reversed lattice (Graves et al. 2006, sec. 4.1), and
every (utterance, transcription) pair and its reversal is one padded row
of a lattice that advances a frame at a time (warp-ctc's layout, Amodei
et al. 2016).

All arithmetic is in log space, double precision, with no floor on the
log-probabilities.  ``ctc_loss`` returns the exact gradient with respect
to the input log-probabilities; use ``logits_gradient`` to map it through
the log-softmax Jacobian when the rows were produced from unnormalized
scores.
"""

from dataclasses import dataclass

import numpy as np

from .alphabet import BLANK, validate_transcription
from .errors import InfeasibleAlignment, InvalidInput

NEG_INF = -np.inf


@dataclass(slots=True)
class LossResult:
    """Loss of one utterance and its gradient w.r.t. the input log-probabilities.

    ``loss`` (nats) is the sum of ``per_hypothesis``: one entry per
    transcription of the utterance's target.
    """

    loss: float
    grad: np.ndarray
    per_hypothesis: list


def expand_labels(labels):
    """Interleave blanks around a transcription: (b, c_1, b, ..., c_L, b)."""
    ext = np.full(2 * len(labels) + 1, BLANK, dtype=np.int64)
    ext[1::2] = labels
    return ext


def min_frames(labels):
    """Minimum T for which some CTC path collapses to ``labels``."""
    labels = list(labels)
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def check_logp(logp):
    """``logp`` as a float T x K matrix of finite, normalized log-probability rows."""
    logp = np.asarray(logp, dtype=np.float64)
    if logp.ndim != 2 or logp.shape[0] < 1:
        raise InvalidInput(f"logp must be a T x K matrix, got shape {logp.shape}")
    if not np.all(np.isfinite(logp)):
        raise InvalidInput("logp contains non-finite entries")
    rowsum = np.max(np.abs(np.logaddexp.reduce(logp, axis=1)))
    if rowsum > 1e-6:
        raise InvalidInput(f"logp rows are not normalized (max |logsumexp| = {rowsum:.3g})")
    return logp


def target_labels(shape, hypotheses):
    """Lattice rows of a target, a tuple of transcriptions, for a T x K output.

    Every label is an index into the K - 1 symbols (``validate_transcription``).
    A hypothesis needs max(min_frames, 1) frames, as the lattice has at least
    one; fewer raise InfeasibleAlignment, whose message names the hypothesis's
    index when there are two or more.
    """
    T, K = shape
    try:
        hyps = [validate_transcription(h, K - 1) for h in hypotheses]
    except TypeError:  # a hypothesis that is not a sequence, as in a bare transcription
        hyps = []
    if not hyps:
        raise InvalidInput(
            f"a target is a non-empty tuple of transcriptions, got {hypotheses!r:.60}")
    for i, labels in enumerate(hyps):
        need = max(min_frames(labels), 1)
        if T < need:
            prefix = f"hypothesis {i} infeasible: " if len(hyps) > 1 else ""
            raise InfeasibleAlignment(
                f"{prefix}transcription needs at least {need} frames, got {T}")
    return hyps


def ctc_lattice(logps, targets):
    """Exact CTC losses and gradients of a batch of utterances in one recursion.

    ``logps`` are T x K log-probability matrices of one K (``check_logp``,
    or the model's log-softmax output in ``sgd_train``);
    ``targets[u]`` lists utterance u's checked transcriptions
    (``target_labels``), one per hypothesis.  Returns one LossResult per
    utterance, whose gradient sums its hypotheses' gradients in order.

    A row is two -inf pad columns, then its states, padded with -inf
    emissions to T_max x S_max.  The rows lie end to end, so a frame is
    four ufunc calls over one flat array: the advance-one and advance-two
    shifts into a row's first states read its own pad columns, which stay
    -inf because their emissions are -inf.
    """
    rows = {}  # (utterance, labels) -> row; a repeated hypothesis is computed once
    for u, hyps in enumerate(targets):
        for labels in hyps:
            rows.setdefault((u, labels), len(rows))
    R = len(rows)
    T = np.array([logps[u].shape[0] for u, _ in rows])
    S = np.array([2 * len(labels) + 1 for _, labels in rows])
    T_max, W, K = T.max(), 2 + S.max(), logps[0].shape[1]
    em = np.full((T_max, 2 * R, W), NEG_INF)  # em[t, r, 2 + s]: emission of state s
    skip = np.full((2 * R, W), NEG_INF)  # 0 where state s may be entered from s - 2
    sym = np.zeros((R, W), dtype=np.int64)  # symbol of each column; pads get zero occupancy
    for r, (u, labels) in enumerate(rows):
        ext = expand_labels(labels)
        t, s = T[r], S[r]
        em[:t, r, 2 : 2 + s] = logps[u][:, ext]
        em[:t, R + r, 2 : 2 + s] = em[t - 1 :: -1, r, 1 + s : 1 : -1]
        # advance-two enters label states whose label differs across the
        # blank; blank states never qualify, as both ends are blanks
        ok = ext[2:] != ext[:-2]
        skip[r, 4 : 2 + s][ok] = 0.0
        skip[R + r, 4 : 2 + s][ok[::-1]] = 0.0
        sym[r, 2 : 2 + s] = ext

    # alpha[t, r, 2 + s]: log mass of every path prefix of row r that ends
    # in state s at frame t, frame t's emission included
    alpha = np.full((T_max, 2 * R, W), NEG_INF)
    alpha[0, :, 2:4] = em[0, :, 2:4]
    flat = alpha.reshape(T_max, -1)
    em_flat, skip_flat = em.reshape(T_max, -1)[:, 2:], skip.ravel()[2:]
    acc = np.empty(flat.shape[1] - 2)
    for t in range(1, T_max):
        prev = flat[t - 1]
        np.logaddexp(prev[2:], prev[1:-1], out=acc)
        np.logaddexp(acc, prev[:-2] + skip_flat, out=acc)
        np.add(acc, em_flat[t], out=flat[t, 2:])

    r = np.arange(R)
    last = alpha[T - 1, r]
    # states S - 1 and S - 2 are columns 1 + S and S; for S == 1 the latter is
    # a pad, and logaddexp(x, -inf) == x
    log_p = np.logaddexp(last[r, 1 + S], last[r, S])
    # beta[t, r, 2 + s] is the reversed row's alpha at (T - 1 - t, S - 1 - s);
    # state occupancies follow, as alpha and beta both include frame t's emission
    occ = np.full((T_max, R, W), NEG_INF)
    for i in range(R):
        occ[: T[i], i, 2 : 2 + S[i]] = alpha[T[i] - 1 :: -1, R + i, 1 + S[i] : 1 : -1]
    occ += alpha[:, :R]
    # padded cells have -inf emissions, and -inf - -inf would be NaN
    np.subtract(occ, em[:, :R], out=occ, where=occ > NEG_INF)
    occ -= log_p[:, None]
    occ = np.exp(occ)
    # d loss / d logp[t, k] is minus the occupancies of k's states, which
    # bincount adds up in state order
    cell = (r[:, None] * T_max + np.arange(T_max))[:, :, None] * K + sym[:, None, :]
    grads = np.bincount(cell.transpose(1, 0, 2).ravel(), -occ.ravel(), R * T_max * K)
    grads = grads.reshape(R, T_max, K)

    out = []
    for u, hyps in enumerate(targets):
        t = len(logps[u])
        rs = [rows[(u, labels)] for labels in hyps]
        per = [float(-log_p[i]) for i in rs]
        out.append(LossResult(float(sum(per)), sum(grads[i, :t] for i in rs), per))
    return out


def ctc_loss(logp, labels):
    """Exact CTC loss and its gradient w.r.t. ``logp``.

    logp: T x K matrix of normalized log-probabilities (column 0 = blank).
    labels: transcription as a sequence of indices in [1, K-1].
    Raises InfeasibleAlignment when T < min_frames(labels).
    """
    lp = check_logp(logp)
    return ctc_lattice([lp], [target_labels(lp.shape, (labels,))])[0]


def logits_gradient(logp, grad_logp):
    """Map a gradient w.r.t. normalized log-probs through the log-softmax.

    When logp = log_softmax(u), returns d(loss)/du given d(loss)/d(logp).
    """
    y = np.exp(logp)
    return grad_logp - y * np.sum(grad_logp, axis=1, keepdims=True)


def collapse_path(path):
    """Collapse a frame-level path: merge repeats, then drop blanks."""
    out = []
    prev = None
    for a in path:
        if a != prev and a != BLANK:
            out.append(a)
        prev = a
    return tuple(out)
