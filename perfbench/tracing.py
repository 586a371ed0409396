"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: ``instrument`` rebinds
the ``mhctc`` module attributes that callers look up (``pipeline.sgd_train``,
``model.ctc_loss``, ...) to wrappers that open a span around the original
call, and restores the originals when the traced iteration ends.  Nothing
under ``src/`` is changed, so untraced iterations run the program as is.

A span is ``[name, start, end, parent index, run id]``; the run id is the
traced iteration.  Counters are collected at the same call boundaries.
"""

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from mhctc import decode, features, mh, model, pipeline, score
from mhctc.errors import InfeasibleAlignment

# bound before ``instrument`` rebinds it, so diagnostics add no spans
_score_corpus = score.score_corpus


class Tracer:
    """Spans and per-run counters of the traced iterations, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))  # run -> name -> value
        self._stack = []
        self.run = None

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value=1):
        self.counts[self.run][name] += value

    @contextmanager
    def iteration(self, run):
        """Root span of one traced iteration; yields its span index."""
        self.run = run
        idx = self.open("iteration")
        try:
            yield idx
        finally:
            self.close(idx)
            self.run = None


def _wrap(tracer, fn, name, on_return=None, on_error=None):
    def traced(*args, **kwargs):
        idx = tracer.open(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(idx)
            if on_error is not None:
                on_error(tracer, exc)
            raise
        tracer.close(idx)
        if on_return is not None:
            on_return(tracer, args, result)
        return result

    return traced


def _ctc_done(tr, args, res):
    tr.count("ctc.cells", np.shape(args[0])[0] * (2 * len(args[1]) + 1))


def _mh_done(tr, args, res):
    hs = args[1]
    tr.count("mh.hyps", len(hs))
    if len(hs) >= 2:
        tr.count("mh.multi")
        tr.count("mh.dup", len(set(hs.hypotheses)) == 1)


def _train_skip(tr, exc):
    if isinstance(exc, InfeasibleAlignment):
        tr.count("model.train.skipped")


def _sgd_done(tr, args, res):
    tr.count("model.train.utt_steps", len(args[1]) * args[2].epochs)


def _forward_done(tr, args, res):
    tr.count("model.forward.frames", np.shape(args[1])[0])


def _beam_done(tr, args, res):
    tr.count("decode.beam.frames", np.shape(args[0])[0])
    tr.count("decode.beam.empty", not res.labels)


def _synth_done(tr, args, res):
    tr.count("audio.synth.utts", len(res))


def _score_done(tr, args, res):
    tr.count("score.pairs", len(args[0]))


def pseudo_label_diagnostics(unlabeled, hyps_a, hyps_b):
    """Paper diagnostics of one pseudo-label stage.

    Returns counts: empty hypotheses, and word errors / reference words of
    system A's pseudo-labels on the utterances where A and B agree and
    where they disagree.
    """
    agree = [u for u in unlabeled if hyps_a[u.id] == hyps_b[u.id]]
    disagree = [u for u in unlabeled if hyps_a[u.id] != hyps_b[u.id]]
    out = {
        "pl.empty": sum(not h[u.id] for h in (hyps_a, hyps_b) for u in unlabeled),
    }
    for key, utts in (("agree", agree), ("disagree", disagree)):
        wer, _ = _score_corpus([(u.labels, hyps_a[u.id]) for u in utts])
        out[f"pl.{key}.errors"] = wer.errors
        out[f"pl.{key}.ref_words"] = wer.ref_words
    return out


def _pseudo_done(tr, args, res):
    for k, v in pseudo_label_diagnostics(args[2].unlabeled, *res).items():
        tr.count(k, v)


class _TracedPath(type(Path())):
    """Path whose text writes (report.json, report.txt, hypotheses.json) are spans."""

    tracer = None

    def write_text(self, *args, **kwargs):
        idx = self.tracer.open("pipeline.write")
        try:
            return super().write_text(*args, **kwargs)
        finally:
            self.tracer.close(idx)


def _bindings():
    """(module, attribute, span name, on_return, on_error) for every traced call."""
    return [
        (model, "ctc_loss", "ctc", _ctc_done, _train_skip),
        (mh, "ctc_loss", "ctc", _ctc_done, None),
        (decode, "ctc_loss", "ctc", _ctc_done, None),
        (model, "mh_ctc_loss", "mh", _mh_done, _train_skip),
        (pipeline, "sgd_train", "model.train", _sgd_done, None),
        (pipeline, "forward", "model.forward", _forward_done, None),
        (model, "forward", "model.forward", _forward_done, None),
        (pipeline, "beam_decode", "decode.beam", _beam_done, None),
        (decode, "beam_decode", "decode.beam", _beam_done, None),
        (pipeline, "greedy_decode", "decode.greedy", None, None),
        (decode, "greedy_decode", "decode.greedy", None, None),
        (pipeline, "extract", "features.extract", None, None),
        (features, "extract", "features.extract", None, None),
        (features, "fbank", "features.fbank", None, None),
        (features, "ste", "features.ste", None, None),
        (pipeline, "cmn", "features.cmn", None, None),
        (features, "cmn", "features.cmn", None, None),
        (pipeline, "synth_corpus", "audio.synth", _synth_done, None),
        (pipeline, "score_corpus", "score", _score_done, None),
        (score, "score_corpus", "score", _score_done, None),
        (pipeline, "run_experiment", "pipeline.experiment", None, None),
        (pipeline, "run_scenario_seed", "pipeline.cell", None, None),
        (pipeline, "run_supervised_stage", "pipeline.finetune", None, None),
        (pipeline, "run_pseudo_label_stage", "pipeline.pseudo_label", _pseudo_done, None),
        (pipeline, "run_adaptation_condition", lambda a: f"pipeline.adapt.{a[0]}", None, None),
        (pipeline, "evaluate", "pipeline.evaluate", None, None),
        (pipeline, "save_checkpoint", "pipeline.write", None, None),
    ]


@contextmanager
def instrument(tracer):
    """Rebind the traced module attributes for the duration of the block."""
    saved = []
    try:
        for module, attr, name, on_return, on_error in _bindings():
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, name, on_return, on_error))
        _TracedPath.tracer = tracer
        saved.append((pipeline, "Path", pipeline.Path))
        pipeline.Path = _TracedPath
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
        _TracedPath.tracer = None


def layer_metrics(tracer, root, diagnostics=None):
    """Per-layer metrics of the traced iteration whose root span is ``root``.

    Busy time sums a layer's spans; self time subtracts the part covered
    by their child spans.  ``diagnostics`` supplies pseudo-label counts
    made outside the traced iteration (in set-up).
    """
    spans = tracer.spans
    run = spans[root][4]
    ids = [i for i in range(root, len(spans)) if spans[i][4] == run]
    dur = {i: spans[i][2] - spans[i][1] for i in ids}
    child = defaultdict(float)
    for i in ids[1:]:
        child[spans[i][3]] += dur[i]
    calls, busy, self_t = defaultdict(int), defaultdict(float), defaultdict(float)
    train_initial = 0.0
    for i in ids[1:]:
        name = spans[i][0]
        calls[name] += 1
        busy[name] += dur[i]
        self_t[name] += dur[i] - child[i]
        if name == "model.train" and spans[spans[i][3]][0] == "pipeline.cell":
            train_initial += dur[i]
    counts = defaultdict(float, tracer.counts[run])
    counts.update(diagnostics or {})

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    n_feat = calls["features.fbank"] + calls["features.ste"]
    m = {
        "ctc.calls": calls["ctc"],
        "ctc.busy_s": busy["ctc"],
        "ctc.cells": counts["ctc.cells"],
        "ctc.ns_per_cell": ratio(busy["ctc"], counts["ctc.cells"], 1e9),
        "mh.calls": calls["mh"],
        "mh.busy_s": busy["mh"],
        "mh.self_s": self_t["mh"],
        "mh.hyps": counts["mh.hyps"],
        "mh.dup_frac": ratio(counts["mh.dup"], counts["mh.multi"]),
        "model.train.busy_s": busy["model.train"],
        "model.train.self_s": self_t["model.train"],
        "model.train.utt_steps": counts["model.train.utt_steps"],
        "model.train.skipped": counts["model.train.skipped"],
        "model.forward.calls": calls["model.forward"],
        "model.forward.busy_s": busy["model.forward"],
        "model.forward.frames": counts["model.forward.frames"],
        "decode.beam.calls": calls["decode.beam"],
        "decode.beam.busy_s": busy["decode.beam"],
        "decode.beam.us_per_frame": ratio(
            busy["decode.beam"], counts["decode.beam.frames"], 1e6
        ),
        "decode.beam.empty": counts["decode.beam.empty"],
        "decode.greedy.busy_s": busy["decode.greedy"],
        "decode.greedy.self_s": self_t["decode.greedy"],
        "features.fbank.busy_s": busy["features.fbank"],
        "features.ste.busy_s": busy["features.ste"],
        "features.ms_per_utt": ratio(
            busy["features.fbank"] + busy["features.ste"], n_feat, 1e3
        ),
        "audio.synth.utts": counts["audio.synth.utts"],
        "audio.synth.busy_s": busy["audio.synth"],
        "score.pairs": counts["score.pairs"],
        "score.busy_s": busy["score"],
        "pipeline.cell_s": ratio(busy["pipeline.cell"], calls["pipeline.cell"]),
        "pipeline.train_initial_s": train_initial,
        "pipeline.finetune_s": busy["pipeline.finetune"],
        "pipeline.pseudo_label_s": busy["pipeline.pseudo_label"],
        **{
            f"pipeline.adapt.{c}_s": busy[f"pipeline.adapt.{c}"]
            for c in pipeline.CONDITIONS
        },
        "pipeline.evaluate_s": busy["pipeline.evaluate"],
        "pipeline.write_s": busy["pipeline.write"],
        "pipeline.pl_wer_agree": ratio(
            counts["pl.agree.errors"], counts["pl.agree.ref_words"], 100.0
        ),
        "pipeline.pl_wer_disagree": ratio(
            counts["pl.disagree.errors"], counts["pl.disagree.ref_words"], 100.0
        ),
        "pipeline.pl_empty": counts["pl.empty"],
        "trace.coverage": ratio(child[root], dur[root]),
    }
    return {k: float(v) for k, v in m.items()}
