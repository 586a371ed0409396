import numpy as np
import pytest

from mhctc.score import WerReport, edit_distance, score_corpus, score_pair, to_words

from helpers import edit_distance_reference, recursive_edit_distance


class TestEditDistance:
    def test_identical(self):
        rep = edit_distance(["a", "b"], ["a", "b"])
        assert rep.errors == 0
        assert rep.wer == 0.0

    def test_one_deletion(self):
        rep = edit_distance(["a", "b"], ["a"])
        assert rep.deletions == 1
        assert rep.wer == pytest.approx(50.0)

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            ref = [int(x) for x in rng.integers(0, 3, rng.integers(0, 7))]
            hyp = [int(x) for x in rng.integers(0, 3, rng.integers(0, 7))]
            assert edit_distance(ref, hyp).errors == recursive_edit_distance(ref, hyp)

    def test_equals_backtrace_reference(self):
        # the one-pass counts match the table-and-backtrace S/I/D split,
        # including empty sides and 3-symbol word tuples
        rng = np.random.default_rng(7)
        for k in range(12_000):
            n_syms = int(rng.integers(1, 5))
            ref, hyp = (tuple(int(v) for v in rng.integers(0, n_syms, rng.integers(0, 10)))
                        for _ in range(2))
            if k % 2:
                ref, hyp = to_words(ref), to_words(hyp)
            assert edit_distance(ref, hyp) == edit_distance_reference(ref, hyp)  # all 4 fields

    def test_empty_ref_sentinel(self):
        rep = edit_distance([], ["x"])
        assert rep.wer == pytest.approx(100.0)

    def test_metric_axioms(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            seqs = [
                tuple(int(v) for v in rng.integers(0, 3, rng.integers(0, 6)))
                for _ in range(3)
            ]
            x, y, z = seqs
            assert edit_distance(x, x).errors == 0
            assert edit_distance(x, y).errors == edit_distance(y, x).errors
            assert (
                edit_distance(x, z).errors
                <= edit_distance(x, y).errors + edit_distance(y, z).errors
            )


class TestWords:
    def test_chunking(self):
        assert to_words((1, 2, 3, 4, 5)) == ((1, 2, 3), (4, 5))

    def test_score_pair_reports_both(self):
        wer, cer = score_pair((1, 2, 3, 4), (1, 2, 3, 4))
        assert wer.wer == 0.0 and cer.wer == 0.0
        assert wer.ref_words == 2 and cer.ref_words == 4

    def test_corpus_aggregation(self):
        pairs = [((1, 2, 3), (1, 2, 3)), ((1, 2, 3), (1, 2))]
        wer, cer = score_corpus(pairs)
        assert wer.ref_words == 2
        assert cer.deletions == 1

    def test_report_addition(self):
        a = WerReport(substitutions=1, ref_words=2)
        b = WerReport(insertions=1, ref_words=3)
        c = a + b
        assert c.errors == 2 and c.ref_words == 5
