"""Label alphabet and transcription helpers.

The blank symbol always occupies index 0; real symbols occupy indices
1..n_symbols.  Transcriptions are tuples of symbol indices and never
contain the blank.
"""

from dataclasses import dataclass, field
from numbers import Integral

from .errors import InvalidLabel

BLANK = 0


@dataclass(frozen=True)
class LabelAlphabet:
    """Ordered set of one-character output symbols, blank excluded."""

    symbols: tuple = field(default_factory=tuple)

    def __post_init__(self):
        syms = tuple(self.symbols)
        object.__setattr__(self, "symbols", syms)
        if not all(isinstance(s, str) and len(s) == 1 for s in syms):
            raise InvalidLabel(f"alphabet symbols must be one-character strings, got {list(syms)}")
        if len(set(syms)) != len(syms):
            raise InvalidLabel("alphabet symbols must be unique")

    @property
    def n_symbols(self):
        return len(self.symbols)

    @property
    def n_outputs(self):
        """Output dimension of any model over this alphabet (symbols + blank)."""
        return len(self.symbols) + 1

    def encode(self, text):
        """Map a string of symbols to a transcription (tuple of indices)."""
        idx = {s: i + 1 for i, s in enumerate(self.symbols)}
        try:
            return tuple(idx[ch] for ch in text)
        except KeyError as exc:
            raise InvalidLabel(f"unknown symbol {exc.args[0]!r}") from None

    def decode(self, labels):
        """Map a transcription back to a string."""
        return "".join(self.symbols[i - 1] for i in validate_transcription(labels, self.n_symbols))


def validate_transcription(labels, n_symbols):
    """``labels`` as a tuple of ints, each an int or numpy integer in [1, n_symbols].

    Anything else, a bool, a float or the blank included, raises InvalidLabel.
    """
    out = []
    for i in labels:
        # an int or numpy integer; np.bool_ is no Integral, but bool is an int
        v = int(i) if isinstance(i, Integral) and type(i) is not bool else 0
        if not 1 <= v <= n_symbols:
            raise InvalidLabel(f"label {i!r} is not an index in [1, {n_symbols}] (0 is blank)")
        out.append(v)
    return tuple(out)
