"""Multiple-hypothesis CTC loss: sum of CTC losses over N 1-best hypotheses.

A training target is a tuple of one or more transcriptions of one
utterance; a manual transcription is the case N=1.  Summing the
per-hypothesis losses is the same as taking -log of the product of the
per-hypothesis path sums, so identical hypotheses are kept as-is (a
duplicate doubles that utterance's gradient weight on purpose).
"""

# perfbench/tracing.py rebinds ctc_loss here
from .ctc import check_labels, check_logp, ctc_lattice, ctc_loss  # noqa: F401
from .errors import InvalidInput


def target_labels(shape, hypotheses):
    """Checked transcriptions of a target, a tuple of hypotheses, for a T x K output.

    An infeasible hypothesis raises InfeasibleAlignment; with two or more,
    the message names its index.
    """
    try:
        hyps = [tuple(h) for h in hypotheses]
    except TypeError:  # a hypothesis that is not a sequence, as in a bare transcription
        hyps = []
    if not hyps:
        raise InvalidInput(
            f"a target is a non-empty tuple of transcriptions, got {hypotheses!r:.60}")
    many = len(hyps) > 1
    return [check_labels(shape, h, f"hypothesis {i} infeasible: " if many else "")
            for i, h in enumerate(hyps)]


def mh_ctc_loss(logp, hypotheses):
    """Combined loss over a tuple of ``hypotheses`` (one lattice row each), summed gradient."""
    lp = check_logp(logp)
    return ctc_lattice([lp], [target_labels(lp.shape, hypotheses)])[0]
