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
    """Minimal substitution/insertion/deletion alignment of two token lists."""
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
