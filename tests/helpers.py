"""Shared test utilities: random instances and independent oracles."""

import itertools

import numpy as np
from scipy.signal import butter, filtfilt

from mhctc.alphabet import BLANK, LabelAlphabet, validate_transcription
from mhctc.ctc import NEG_INF, LossResult, check_logp, collapse_path, expand_labels, min_frames
from mhctc.decode import DecodeConfig, DecodedHypothesis
from mhctc.errors import InfeasibleAlignment, MhctcError, ShapeError
from mhctc.features import (
    ENV_CUTOFF_HZ,
    FRAME_MS,
    HOP_MS,
    LOG_FLOOR_VALUE,
    _append_deltas,
    mel_band_edges,
)
from mhctc.model import _backward_from, _check_features, _forward_activations
from mhctc.score import WerReport

ORACLE_GUARD = 10**7
DEFAULT_ALPHABET = LabelAlphabet(tuple("abcde"))


def mel_center_frequencies(n_bands, sample_rate):
    """The n_bands mel-spaced centers between the lowest band edge and Nyquist."""
    return mel_band_edges(n_bands, sample_rate)[1:-1]


class OracleTooLarge(MhctcError):
    """Brute-force enumeration would exceed the safety guard."""


def ctc_loss_bruteforce(logp, labels):
    """-log of the explicit sum over every length-T path collapsing to ``labels``.

    Test oracle only: exponential in T.  Returns +inf when the path set is
    empty (infeasible transcription).
    """
    lp = check_logp(logp)
    T, K = lp.shape
    labels = tuple(int(i) for i in labels)
    if K**T > ORACLE_GUARD:
        raise OracleTooLarge(f"{K}^{T} paths exceed the {ORACLE_GUARD} guard")
    total = NEG_INF
    for path in itertools.product(range(K), repeat=T):
        if collapse_path(path) == labels:
            total = np.logaddexp(total, sum(lp[t, k] for t, k in enumerate(path)))
    return float(-total)


def _forward_reference(em, ext):
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


def ctc_loss_reference(logp, labels):
    """Per-utterance CTC loss: one forward and one reversed recursion.

    Reference for the batched ``mhctc.ctc.ctc_lattice``, whose every row
    must give an equal loss and gradient.
    """
    lp = check_logp(logp)
    T, K = lp.shape
    labels = validate_transcription(labels, K - 1)
    need = min_frames(labels)
    if T < need:
        raise InfeasibleAlignment(
            f"transcription needs at least {need} frames, got {T}"
        )

    ext = expand_labels(labels)
    em = lp[:, ext]  # T x S per-state emissions
    alpha = _forward_reference(em, ext)
    beta = _forward_reference(np.ascontiguousarray(em[::-1, ::-1]), ext[::-1])[::-1, ::-1]

    log_p = alpha[-1, -1]
    if ext.size > 1:
        log_p = np.logaddexp(log_p, alpha[-1, -2])

    # state occupancies: alpha and beta both include frame t's emission
    occ = np.exp(alpha + beta - em - log_p)
    grad = np.zeros_like(lp)
    np.subtract.at(grad, (slice(None), ext), occ)

    loss = float(-log_p)
    return LossResult(loss, grad, [loss])


def product_form_check(logp, c1, c2):
    """-log of the product of the two brute-force path sums (N=2 oracle).

    Enumerates both path sets explicitly; +inf when either factor is empty.
    """
    return ctc_loss_bruteforce(logp, c1) + ctc_loss_bruteforce(logp, c2)


def random_logp(rng, T, K):
    """Normalized random log-probability rows."""
    u = rng.standard_normal((T, K)) * 2.0
    return u - np.logaddexp.reduce(u, axis=1, keepdims=True)


def random_instance(rng, max_T=8, max_syms=3, max_L=3, feasible=True):
    """Random (logp, labels) pair; resamples until feasible when asked."""
    while True:
        n_syms = int(rng.integers(1, max_syms + 1))
        T = int(rng.integers(1, max_T + 1))
        L = int(rng.integers(0, max_L + 1))
        labels = tuple(int(i) for i in rng.integers(1, n_syms + 1, L))
        if feasible and min_frames(labels) > T:
            continue
        return random_logp(rng, T, n_syms + 1), labels


def exhaustive_best_labeling(logp):
    """Most probable collapsed labeling by full path enumeration.

    Accumulates mass per labeling; ties break toward the lexicographically
    smaller labeling.  Oracle for beam search on tiny instances.
    """
    logp = np.asarray(logp)
    T, K = logp.shape
    mass = {}
    for path in itertools.product(range(K), repeat=T):
        lab = collapse_path(path)
        score = sum(logp[t, k] for t, k in enumerate(path))
        mass[lab] = np.logaddexp(mass.get(lab, -np.inf), score)
    best = min(mass.items(), key=lambda kv: (-kv[1], kv[0]))
    return best[0], float(best[1])


def _rank(beam):
    """Sort key of a (prefix, masses) beam: higher total mass, then smaller prefix."""
    return -np.logaddexp(*beam[1]), beam[0]


def beam_decode_reference(logp, cfg=DecodeConfig()):
    """Dict-based prefix beam search, one candidate at a time.

    Reference for the array-based ``mhctc.decode.beam_decode``, which must
    return equal labels and an equal ``log_prob``.
    """
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


def frame_index(n_samples, sample_rate):
    """One row of sample indices per 25 ms frame, 10 ms apart."""
    flen = int(round(FRAME_MS * sample_rate / 1000.0))
    hop = int(round(HOP_MS * sample_rate / 1000.0))
    n_frames = (n_samples - flen) // hop + 1
    return np.arange(flen)[None, :] + hop * np.arange(n_frames)[:, None]


def triangle_weights_reference(flen, sample_rate, n_bands):
    """One band at a time: the rising then the falling edge of each mel triangle."""
    freqs = np.fft.rfftfreq(flen, 1.0 / sample_rate)
    edges = mel_band_edges(n_bands, sample_rate)
    weights = np.zeros((n_bands, freqs.size))
    for k in range(n_bands):
        lo, ctr, hi = edges[k], edges[k + 1], edges[k + 2]
        up = (freqs >= lo) & (freqs < ctr)
        down = (freqs >= ctr) & (freqs < hi)
        weights[k, up] = (freqs[up] - lo) / max(ctr - lo, 1e-12)
        weights[k, down] = (hi - freqs[down]) / max(hi - ctr, 1e-12)
    return weights


def gaussian_weights_reference(freqs, edges):
    """One band at a time: a Gaussian at each band center, a quarter of its span wide."""
    n_bands = len(edges) - 2
    weights = np.zeros((n_bands, freqs.size))
    for k in range(n_bands):
        sigma = max((edges[k + 2] - edges[k]) / 4.0, 1e-6)
        weights[k] = np.exp(-0.5 * ((freqs - edges[k + 1]) / sigma) ** 2)
    return weights


def fbank_reference(utt, cfg):
    """FBANK from an index-matrix gather of the frames and a per-band filterbank.

    Reference for ``mhctc.features.fbank``, which must return
    byte-identical features.
    """
    x = np.asarray(utt.waveform, dtype=np.float64)
    sr = utt.sample_rate
    idx = frame_index(x.size, sr)
    flen = idx.shape[1]
    spec = np.abs(np.fft.rfft(x[idx] * np.hanning(flen), axis=1))
    fb = triangle_weights_reference(flen, sr, cfg.n_bands)
    return _append_deltas(np.log(np.maximum(spec @ fb.T, LOG_FLOOR_VALUE)))


def ste_reference(utt, cfg):
    """Per-band STE: one irfft, one filtfilt and one gathered framed mean per band.

    Reference for the batched ``mhctc.features.ste``, which must return
    byte-identical features.
    """
    x = np.asarray(utt.waveform, dtype=np.float64)
    sr = utt.sample_rate
    idx = frame_index(x.size, sr)
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, 1.0 / sr)
    masks = gaussian_weights_reference(freqs, mel_band_edges(cfg.n_bands, sr))
    b, a = butter(4, ENV_CUTOFF_HZ / (sr / 2.0))
    static = np.zeros((idx.shape[0], cfg.n_bands))
    for k in range(cfg.n_bands):
        band = np.fft.irfft(spec * masks[k], x.size)
        env = filtfilt(b, a, np.abs(band))
        static[:, k] = np.log(np.maximum(env[idx].mean(axis=1), LOG_FLOOR_VALUE))
    return _append_deltas(static)


def stack_context_reference(x, context):
    """Concatenated shifted slices of the zero-padded input.

    Reference for the strided ``mhctc.model.stack_context``, which must
    return the same values in the same C-contiguous layout.
    """
    T, d = x.shape
    w = context
    padded = np.zeros((T + 2 * w, d))
    padded[w : w + T] = x
    cols = [padded[i : i + T] for i in range(2 * w + 1)]
    return np.concatenate(cols, axis=1)


def backward(params, x, grad_logp):
    """Checked gradients of the loss w.r.t. every parameter of one utterance.

    ``grad_logp`` is d(loss)/d(logp) at the forward output. The features
    and ``grad_logp``'s shape are checked against the model, then the
    chain rule that ``sgd_train`` runs gives the gradients.
    """
    xc, h, logp = _forward_activations(params, _check_features(params, x))
    grad_logp = np.asarray(grad_logp, dtype=np.float64)
    if grad_logp.shape != logp.shape:
        raise ShapeError(
            f"grad_logp shape {grad_logp.shape} != output shape {logp.shape}"
        )
    return _backward_from(params, xc, h, logp, grad_logp)


def recursive_edit_distance(ref, hyp):
    """Plain memoized recursion; oracle for the DP edit distance total."""
    ref, hyp = tuple(ref), tuple(hyp)
    memo = {}

    def go(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        if i == 0:
            out = j
        elif j == 0:
            out = i
        else:
            out = min(
                go(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]),
                go(i - 1, j) + 1,
                go(i, j - 1) + 1,
            )
        memo[(i, j)] = out
        return out

    return go(len(ref), len(hyp))


def edit_distance_reference(ref, hyp):
    """Full Levenshtein table, then a backtrace that splits the errors into S/I/D.

    Reference for the one-pass ``mhctc.score.edit_distance``, which must
    return equal counts.
    """
    ref = list(ref)
    hyp = list(hyp)
    n, m = len(ref), len(hyp)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][0] = i
    for j in range(m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1])
            dele = dist[i - 1][j] + 1
            ins = dist[i][j - 1] + 1
            dist[i][j] = min(sub, dele, ins)
    # backtrace, preferring match/substitution over deletion over insertion
    s = d = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            s += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            d += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerReport(
        substitutions=s,
        insertions=ins,
        deletions=d,
        ref_words=n,
    )
