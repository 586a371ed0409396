"""Multiple-hypothesis CTC loss and a toy semi-supervised adaptation pipeline."""

from .alphabet import BLANK, LabelAlphabet
from .ctc import ctc_loss, expand_labels, min_frames
from .decode import DecodeConfig, beam_decode, greedy_decode
from .mh import mh_ctc_loss
from .score import WerReport, edit_distance

__all__ = [
    "BLANK",
    "LabelAlphabet",
    "ctc_loss",
    "expand_labels",
    "min_frames",
    "DecodeConfig",
    "beam_decode",
    "greedy_decode",
    "mh_ctc_loss",
    "WerReport",
    "edit_distance",
]

__version__ = "0.1.0"
