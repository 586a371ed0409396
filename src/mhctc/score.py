"""Levenshtein alignment and WER/CER scoring.

The synthetic corpus has no lexical words, so "words" for WER are fixed
3-symbol chunks of the transcription; CER scores the raw symbols.
"""

from dataclasses import dataclass

WORD_LEN = 3


@dataclass
class WerReport:
    substitutions: int = 0
    insertions: int = 0
    deletions: int = 0
    ref_words: int = 0

    @property
    def errors(self):
        return self.substitutions + self.insertions + self.deletions

    @property
    def wer(self):
        if self.ref_words == 0:
            # empty reference: sentinel 100*I/1
            return 100.0 * self.insertions
        return 100.0 * self.errors / self.ref_words

    def __add__(self, other):
        return WerReport(
            substitutions=self.substitutions + other.substitutions,
            insertions=self.insertions + other.insertions,
            deletions=self.deletions + other.deletions,
            ref_words=self.ref_words + other.ref_words,
        )


def edit_distance(ref, hyp):
    """Minimal substitution/insertion/deletion alignment of two token lists.

    Among the minimal alignments, the S/I/D split is the one a backtrace
    from the last cell takes when it prefers match/substitution over
    deletion over insertion.  One forward pass keeps two rows of
    (cost, S, D, I) cells, each cell holding the counts of the alignment
    that backtrace would take from it.
    """
    ref, hyp = list(ref), list(hyp)
    prev = [(j, 0, 0, j) for j in range(len(hyp) + 1)]
    for i, r in enumerate(ref, 1):
        row = [(i, 0, i, 0)]
        for j, h in enumerate(hyp, 1):
            diag, up, left = prev[j - 1], prev[j], row[j - 1]
            c = r != h
            sub, dele, ins = diag[0] + c, up[0] + 1, left[0] + 1
            if sub <= dele and sub <= ins:
                row.append((sub, diag[1] + c, diag[2], diag[3]))
            elif dele <= ins:
                row.append((dele, up[1], up[2] + 1, up[3]))
            else:
                row.append((ins, left[1], left[2], left[3] + 1))
        prev = row
    _, s, d, ins = prev[-1]
    return WerReport(substitutions=s, insertions=ins, deletions=d, ref_words=len(ref))


def to_words(labels, word_len=WORD_LEN):
    """Chunk a transcription into fixed-length pseudo-words."""
    labels = tuple(labels)
    return tuple(labels[i : i + word_len] for i in range(0, len(labels), word_len))


def score_pair(ref_labels, hyp_labels):
    """(WER report over 3-symbol words, CER report over symbols)."""
    wer = edit_distance(to_words(ref_labels), to_words(hyp_labels))
    cer = edit_distance(tuple(ref_labels), tuple(hyp_labels))
    return wer, cer


def score_corpus(pairs):
    """Aggregate (ref, hyp) label pairs into corpus-level WER/CER reports."""
    wer_total = WerReport()
    cer_total = WerReport()
    for ref, hyp in pairs:
        wer, cer = score_pair(ref, hyp)
        wer_total = wer_total + wer
        cer_total = cer_total + cer
    return wer_total, cer_total
