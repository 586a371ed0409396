"""CTC loss via log-space forward-backward dynamic programming.

The loss of a transcription C given per-frame log-probabilities is
-log of the total probability of every frame-level path that collapses
to C (remove repeats, then blanks).  The DP runs over the extended label
sequence (blank, c_1, blank, ..., c_L, blank) with the usual
stay / advance-one / advance-two transition rule.

One recursion serves both passes: beta is alpha of the time- and
state-reversed lattice (Graves et al. 2006, sec. 4.1).

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
    return logp


def _forward(em, ext):
    """Log-space forward lattice over the extended labels ``ext``.

    alpha[t, s] is the log mass of every path prefix that ends in state s
    at frame t, frame t's emission included.
    """
    # advance-two is allowed into label states whose label differs across
    # the blank; blank states never qualify, as both ends are blanks
    skip_to = np.flatnonzero(ext[2:] != ext[:-2]) + 2
    skip_from = skip_to - 2
    alpha = np.full(em.shape, NEG_INF)
    alpha[0, :2] = em[0, :2]
    for t in range(1, em.shape[0]):
        prev = alpha[t - 1]
        acc = prev.copy()
        acc[1:] = np.logaddexp(acc[1:], prev[:-1])
        acc[skip_to] = np.logaddexp(acc[skip_to], prev[skip_from])
        alpha[t] = acc + em[t]
    return alpha


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
    em = lp[:, ext]  # T x S per-state emissions
    alpha = _forward(em, ext)
    beta = _forward(np.ascontiguousarray(em[::-1, ::-1]), ext[::-1])[::-1, ::-1]

    log_p = alpha[-1, -1]
    if ext.size > 1:
        log_p = np.logaddexp(log_p, alpha[-1, -2])

    # state occupancies: alpha and beta both include frame t's emission
    occ = np.exp(alpha + beta - em - log_p)
    grad = np.zeros_like(lp)
    np.subtract.at(grad, (slice(None), ext), occ)

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
