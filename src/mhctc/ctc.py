"""CTC loss via log-space forward-backward dynamic programming.

The loss of a transcription C given per-frame log-probabilities is
-log of the total probability of every frame-level path that collapses
to C (remove repeats, then blanks).  The DP runs over the extended label
sequence (blank, c_1, blank, ..., c_L, blank) with the usual
stay / advance-one / advance-two transition rule.

All arithmetic is in log space, double precision.  ``ctc_loss`` returns
the exact gradient with respect to the input log-probabilities; use
``logits_gradient`` to map it through the log-softmax Jacobian when the
rows were produced from unnormalized scores.
"""

from dataclasses import dataclass

import numpy as np

from .alphabet import BLANK, validate_transcription
from .errors import InfeasibleAlignment, InvalidInput

MIN_PROB = 1e-30
LOG_FLOOR = float(np.log(MIN_PROB))

NEG_INF = -np.inf


@dataclass(slots=True)
class LossResult:
    """Loss of one utterance and its gradient w.r.t. the input log-probabilities.

    ``loss`` (nats) is the sum of ``per_hypothesis``: one entry for a plain
    transcription, one per hypothesis for a multi-hypothesis set.
    """

    loss: float
    grad: np.ndarray
    per_hypothesis: list


def expand_labels(labels, n_symbols=None):
    """Interleave blanks around a transcription: (b, c_1, b, ..., c_L, b)."""
    if n_symbols is not None:
        labels = validate_transcription(labels, n_symbols)
    ext = np.full(2 * len(labels) + 1, BLANK, dtype=np.int64)
    ext[1::2] = labels
    return ext


def min_frames(labels):
    """Minimum T for which some CTC path collapses to ``labels``."""
    labels = list(labels)
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def _check_logp(logp):
    logp = np.asarray(logp, dtype=np.float64)
    if logp.ndim != 2 or logp.shape[0] < 1:
        raise InvalidInput(f"logp must be a T x K matrix, got shape {logp.shape}")
    if not np.all(np.isfinite(logp)):
        raise InvalidInput("logp contains non-finite entries")
    rowsum = np.max(np.abs(np.logaddexp.reduce(logp, axis=1)))
    if rowsum > 1e-6:
        raise InvalidInput(f"logp rows are not normalized (max |logsumexp| = {rowsum:.3g})")
    return np.maximum(logp, LOG_FLOOR)


def ctc_loss(logp, labels):
    """Exact CTC loss and its gradient w.r.t. ``logp``.

    logp: T x K matrix of normalized log-probabilities (column 0 = blank).
    labels: transcription as a sequence of indices in [1, K-1].
    Raises InfeasibleAlignment when T < min_frames(labels).
    """
    lp = _check_logp(logp)
    T, K = lp.shape
    labels = validate_transcription(labels, K - 1)
    need = min_frames(labels)
    if T < need:
        raise InfeasibleAlignment(
            f"transcription needs at least {need} frames, got {T}"
        )

    ext = expand_labels(labels)
    S = ext.size
    em = lp[:, ext]  # T x S per-state emissions

    # advance-two is allowed into odd states whose label differs across the blank
    allow2 = np.zeros(S, dtype=bool)
    if S > 2:
        allow2[2:] = ext[2:] != ext[:-2]
        allow2[2::2] = False  # never skip into a blank
    skip_to = np.nonzero(allow2)[0]
    skip_from = skip_to - 2

    alpha = np.full((T, S), NEG_INF)
    alpha[0, 0] = em[0, 0]
    if S > 1:
        alpha[0, 1] = em[0, 1]
    for t in range(1, T):
        prev = alpha[t - 1]
        acc = prev.copy()
        acc[1:] = np.logaddexp(acc[1:], prev[:-1])
        if skip_to.size:
            acc[skip_to] = np.logaddexp(acc[skip_to], prev[skip_from])
        alpha[t] = acc + em[t]

    log_p = alpha[-1, -1]
    if S > 1:
        log_p = np.logaddexp(log_p, alpha[-1, -2])

    beta = np.full((T, S), NEG_INF)
    beta[-1, -1] = em[-1, -1]
    if S > 1:
        beta[-1, -2] = em[-1, -2]
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1]
        acc = nxt.copy()
        acc[:-1] = np.logaddexp(acc[:-1], nxt[1:])
        if skip_to.size:
            acc[skip_from] = np.logaddexp(acc[skip_from], nxt[skip_to])
        beta[t] = acc + em[t]

    # state occupancies: alpha and beta both include frame t's emission
    occ = np.exp(alpha + beta - em - log_p)
    grad = np.zeros_like(lp)
    for s in range(S):
        grad[:, ext[s]] -= occ[:, s]

    loss = float(-log_p)
    return LossResult(loss, grad, [loss])


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
