"""Multiple-hypothesis CTC loss: sum of CTC losses over N 1-best hypotheses.

A training target is a tuple of one or more transcriptions of one
utterance; a manual transcription is the case N=1.  Summing the
per-hypothesis losses is the same as taking -log of the product of the
per-hypothesis path sums, so identical hypotheses are kept as-is (a
duplicate doubles that utterance's gradient weight on purpose).
"""

# perfbench/tracing.py rebinds ctc_loss here
from .ctc import check_logp, ctc_lattice, ctc_loss, target_labels  # noqa: F401


def mh_ctc_loss(logp, hypotheses):
    """Combined loss over a tuple of ``hypotheses`` (one lattice row each), summed gradient."""
    lp = check_logp(logp)
    return ctc_lattice([lp], [target_labels(lp.shape, hypotheses)])[0]
