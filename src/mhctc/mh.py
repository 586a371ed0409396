"""Multiple-hypothesis CTC loss: sum of CTC losses over N 1-best hypotheses.

Summing the per-hypothesis losses is the same as taking -log of the
product of the per-hypothesis path sums, so identical hypotheses are kept
as-is (a duplicate doubles that utterance's gradient weight on purpose).
"""

from dataclasses import dataclass

from .ctc import LossResult, ctc_loss
from .errors import InfeasibleAlignment, InvalidInput


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


def mh_ctc_loss(logp, hs):
    """Combined loss over all hypotheses in ``hs`` plus the summed gradient.

    An infeasible hypothesis raises InfeasibleAlignment with
    ``hypothesis_index`` set; the caller decides the skip policy.
    """
    per = []
    grad = None
    for i, hyp in enumerate(hs.hypotheses):
        try:
            res = ctc_loss(logp, hyp)
        except InfeasibleAlignment as exc:
            raise InfeasibleAlignment(
                f"hypothesis {i} ({hs.source_tags[i]}) infeasible: {exc}",
                hypothesis_index=i,
            ) from exc
        per.append(res.loss)
        grad = res.grad if grad is None else grad + res.grad
    return LossResult(loss=float(sum(per)), grad=grad, per_hypothesis=per)

