"""Shared test utilities: random instances and independent oracles."""

import itertools

import numpy as np

from mhctc.ctc import NEG_INF, _check_logp, collapse_path
from mhctc.errors import MhctcError

ORACLE_GUARD = 10**7


class OracleTooLarge(MhctcError):
    """Brute-force enumeration would exceed the safety guard."""


def ctc_loss_bruteforce(logp, labels):
    """-log of the explicit sum over every length-T path collapsing to ``labels``.

    Test oracle only: exponential in T.  Returns +inf when the path set is
    empty (infeasible transcription).
    """
    lp = _check_logp(logp)
    T, K = lp.shape
    labels = tuple(int(i) for i in labels)
    if K**T > ORACLE_GUARD:
        raise OracleTooLarge(f"{K}^{T} paths exceed the {ORACLE_GUARD} guard")
    total = NEG_INF
    for path in itertools.product(range(K), repeat=T):
        if collapse_path(path) == labels:
            total = np.logaddexp(total, sum(lp[t, k] for t, k in enumerate(path)))
    return float(-total)


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
    from mhctc.ctc import min_frames

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
