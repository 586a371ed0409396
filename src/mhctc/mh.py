"""Multiple-hypothesis CTC loss: sum of CTC losses over N 1-best hypotheses.

Summing the per-hypothesis losses is the same as taking -log of the
product of the per-hypothesis path sums, so identical hypotheses are kept
as-is (a duplicate doubles that utterance's gradient weight on purpose).
"""

from dataclasses import dataclass

# perfbench/tracing.py rebinds ctc_loss here
from .ctc import check_labels, check_logp, ctc_lattice, ctc_loss  # noqa: F401
from .errors import InvalidInput


@dataclass(frozen=True)
class HypothesisSet:
    """N transcriptions of one utterance, tagged by producing system."""

    hypotheses: tuple
    source_tags: tuple

    def __post_init__(self):
        hyps = tuple(tuple(h) for h in self.hypotheses)
        tags = tuple(self.source_tags)
        object.__setattr__(self, "hypotheses", hyps)
        object.__setattr__(self, "source_tags", tags)
        if len(hyps) < 1:
            raise InvalidInput("a hypothesis set needs at least one hypothesis")
        if len(tags) != len(hyps):
            raise InvalidInput("one source tag per hypothesis required")
        if len(set(tags)) != len(tags):
            raise InvalidInput("source tags must be unique")

    def __len__(self):
        return len(self.hypotheses)


def target_labels(shape, target):
    """Checked transcriptions of a transcription or a HypothesisSet, for a T x K output.

    An infeasible hypothesis raises InfeasibleAlignment naming its index
    and source tag.
    """
    if not isinstance(target, HypothesisSet):
        return [check_labels(shape, target)]
    return [
        check_labels(shape, hyp, f"hypothesis {i} ({tag}) infeasible: ")
        for i, (hyp, tag) in enumerate(zip(target.hypotheses, target.source_tags))
    ]


def mh_ctc_loss(logp, hs):
    """Combined loss over all hypotheses in ``hs`` (one lattice row each), summed gradient."""
    lp = check_logp(logp)
    return ctc_lattice([lp], [target_labels(lp.shape, hs)])[0]
