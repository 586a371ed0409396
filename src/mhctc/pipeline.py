"""End-to-end adaptation protocol on the synthetic corpus.

Protocol per scenario and seed:
  1. train system A (FBANK) and system B (STE) on a training corpus;
  2. fine-tune both on the small labeled adaptation subset;
  3. beam-decode the unlabeled subset with both fine-tuned systems to get
     two pseudo-label sets;
  4. adapt the INITIAL system-A model under each requested condition
     (plain CTC for single-label conditions, the multi-hypothesis loss
     for the two-hypothesis condition);
  5. decode and score the held-out test set.

Everything is keyed by seeds and a config hash; reruns with the same plan
produce byte-identical reports and checkpoints. The (scenario, seed) cells
are independent, and so are systems A and B up to their pseudo-labels and
the conditions given system A: ``parallel_map`` runs each such set in
forked workers, one per usable CPU, and never inside a worker.
"""

import ctypes
import hashlib
import json
import logging
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from .alphabet import LabelAlphabet
from .audio import NOISE_KINDS, SynthConfig, synth_corpus
from .blas import openblas, pin_one_thread
from .decode import MAX_BEAM_WIDTH, DecodeConfig, beam_decode, greedy_decode
from .errors import ConfigError, NonNegative, Positive, check_fields, choices, instance, ints, reals
from .features import FeatureConfig, cmn, extract
from .model import (
    ModelConfig,
    System,
    TrainConfig,
    forward,
    init_model,
    save_checkpoint,
    sgd_train,
)
from .score import score_corpus

log = logging.getLogger(__name__)

SCENARIOS = ("clean-train", "multi-condition-train")
# where each adaptation condition takes the unlabeled subset's targets from:
# "truth" (manual transcriptions), "sysA" / "sysB" (1-best); None: no adaptation
CONDITION_TARGETS = {
    "no-adapt": None,
    "supervised-labeled": (),
    "semi-sup-A": ("sysA",),
    "semi-sup-B": ("sysB",),
    "mh-ctc": ("sysA", "sysB"),
    "supervised-all": ("truth",),
}
CONDITIONS = tuple(CONDITION_TARGETS)
TRAIN_NOISE_KIND = "white"  # multi-condition training noise, mismatched to the adaptation's
ADAPT_LEARNING_RATE = 0.01  # the other stages train at TrainConfig's rate


@dataclass
class AdaptationSplit:
    labeled: list
    unlabeled: list
    test: list


@dataclass(frozen=True)
class ExperimentPlan:
    scenarios: choices(SCENARIOS, many=True) = SCENARIOS
    conditions: choices(CONDITIONS, many=True) = CONDITIONS
    seeds: ints(0, many=True) = (0, 1, 2, 3, 4)
    alphabet: instance(str, "a string of symbols") = "abcde"
    n_train: Positive = 80
    split_sizes: ints(0, many=True) = (30, 61, 140)
    len_range: ints(1, many=True) = (4, 10)
    noise_kind: choices(NOISE_KINDS) = "babble"
    snr_db: reals() = 6.0
    snr_spread_db: reals(0) = 5.0
    freq_jitter: reals(0) = 0.08
    amp_jitter: reals(0, 1) = 0.3
    hidden: Positive = ModelConfig.hidden
    train_epochs: NonNegative = 14
    finetune_epochs: NonNegative = 20
    adapt_epochs: NonNegative = 16
    beam_width: ints(1, MAX_BEAM_WIDTH) = DecodeConfig.beam_width

    def __post_init__(self):
        # a bad value fails here, before any synthesis, and not inside every grid cell
        check_fields(self)
        for name in ("scenarios", "conditions", "seeds"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ConfigError(f"{name} must be non-empty without repeats, got {values!r}")
        lengths_ok = len(self.split_sizes) == 3 and len(self.len_range) == 2
        if not lengths_ok or self.len_range[0] > self.len_range[1]:
            raise ConfigError("split_sizes must hold 3 sizes and len_range a (min, max) pair")
        if self.split_sizes[2] < 1:
            raise ConfigError(f"split_sizes must end in a test size of at least 1,"
                              f" got {self.split_sizes!r}")
        if self.split_sizes[1] < 1:  # else every pseudo-label condition is supervised-labeled
            raise ConfigError(f"split_sizes needs an unlabeled size of at least 1,"
                              f" got {self.split_sizes!r}")
        self.synth_cfg(self.noise_kind, seed=0)  # the SNR range and jitter rules of synthesis

    def train_cfg(self, stage, seed):
        """TrainConfig of one training stage: "train", "finetune" or "adapt"."""
        rate = ADAPT_LEARNING_RATE if stage == "adapt" else TrainConfig.learning_rate
        return TrainConfig(learning_rate=rate, epochs=getattr(self, f"{stage}_epochs"), seed=seed)

    def synth_cfg(self, noise_kind, seed):
        """SynthConfig of a corpus with the plan's SNR and jitter ("none": no noise)."""
        return SynthConfig(alphabet=LabelAlphabet(tuple(self.alphabet)), noise_kind=noise_kind,
                           snr_db=self.snr_db, snr_spread_db=self.snr_spread_db,
                           freq_jitter=self.freq_jitter, amp_jitter=self.amp_jitter, seed=seed)

    def config_hash(self):
        blob = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def make_splits(corpus, sizes, seed):
    """Seeded shuffle then partition into labeled / unlabeled / test.

    ``sizes`` must not sum past ``len(corpus)``; the callers synthesize exactly that many.
    """
    n_lab, n_unlab, n_test = sizes
    order = np.random.default_rng(seed).permutation(len(corpus))
    picked = [corpus[i] for i in order]
    return AdaptationSplit(
        labeled=picked[:n_lab],
        unlabeled=picked[n_lab : n_lab + n_unlab],
        test=picked[n_lab + n_unlab : n_lab + n_unlab + n_test],
    )


def _features_for(system, utts, cache):
    feats = []
    for u in utts:
        key = (system.feature_cfg, u)
        if key not in cache:
            cache[key] = cmn(extract(u, system.feature_cfg))
        feats.append(cache[key])
    return feats


def labeled_data(system, utts, cache):
    """(features, (manual transcription,)) pairs under ``system``'s front end."""
    return list(zip(_features_for(system, utts, cache), ((u.labels,) for u in utts)))


def init_system(name, feature_cfg, alphabet, context, hidden, seed):
    """A freshly initialized model reading ``feature_cfg`` and writing ``alphabet``."""
    mcfg = ModelConfig(feat_dim=feature_cfg.dim, n_outputs=alphabet.n_outputs, context=context,
                       hidden=hidden, seed=seed)
    return System(name=name, feature_cfg=feature_cfg, alphabet=alphabet,
                  params=init_model(mcfg), lineage=(f"init:seed={seed}",))


def train_system(system, data, train_cfg, step):
    """``system`` trained on (features, target) pairs, with ``step`` appended to its lineage."""
    params, curve = sgd_train(system.params, data, train_cfg)
    # the first and last epoch's loss
    loss = f"{curve[0]:.3f} -> {curve[-1]:.3f}" if curve else "no epochs run"
    log.info("%s: loss %s", step, loss)
    return replace(system, params=params, lineage=system.lineage + (step,))


def decode_set(system, utts, decoder, cache):
    """{utterance id: labels} of ``utts``; ``decoder`` maps log-probs to a hypothesis."""
    feats = _features_for(system, utts, cache)
    return {u.id: decoder(forward(system.params, x)).labels for x, u in zip(feats, utts)}


def run_supervised_stage(sys_a, sys_b, split, plan, seed, cache):
    """Fine-tune both systems on the labeled subset (plain CTC; ``parallel_map``)."""
    if not split.labeled:
        log.info("supervised stage skipped: labeled set empty")
        return sys_a, sys_b

    def finetune(system):
        return train_system(system, labeled_data(system, split.labeled, cache),
                            plan.train_cfg("finetune", seed),
                            f"supervised-stage:{system.name}:seed={seed}")
    return tuple(parallel_map(finetune, (sys_a, sys_b)))


def run_pseudo_label_stage(sys_a_hat, sys_b_hat, split, plan, cache):
    """Beam-decode the unlabeled subset with both fine-tuned systems (``parallel_map``)."""
    decode_cfg = DecodeConfig(beam_width=plan.beam_width, mode="beam")

    def pseudo_label(system):
        out = decode_set(system, split.unlabeled, lambda logp: beam_decode(logp, decode_cfg), cache)
        for uid, labels in out.items():
            if not labels:
                log.info("empty hypothesis from %s for %s", system.name, uid)
        return out
    return tuple(parallel_map(pseudo_label, (sys_a_hat, sys_b_hat)))


def condition_dataset(condition, split, hyps_a, hyps_b, system, cache):
    """Assemble (features, target) pairs for one adaptation condition.

    The labeled subset keeps its manual transcriptions; each unlabeled
    utterance's target holds one transcription per source in
    ``CONDITION_TARGETS[condition]``, in its order (``hyps_a`` /
    ``hyps_b``: id -> 1-best of A / B, each holding every unlabeled id
    its condition reads). Features come from ``system``'s front end.
    """
    sources = CONDITION_TARGETS[condition]
    data = labeled_data(system, split.labeled, cache)
    if not sources:
        return data
    hyps = {"truth": {u.id: u.labels for u in split.unlabeled}, "sysA": hyps_a, "sysB": hyps_b}
    targets = [tuple(hyps[s][u.id] for s in sources) for u in split.unlabeled]
    return data + list(zip(_features_for(system, split.unlabeled, cache), targets))


def run_adaptation_condition(condition, initial_a, split, hyps_a, hyps_b, plan, seed, cache):
    """Adapt the initial system-A model under one condition."""
    if CONDITION_TARGETS[condition] is None:
        return initial_a
    data = condition_dataset(condition, split, hyps_a, hyps_b, initial_a, cache)
    step = f"adapt:{condition}:seed={seed}"
    return train_system(initial_a, data, plan.train_cfg("adapt", seed), step)


def evaluate(system, utts, plan, cache):
    """Greedy-decode a set and score WER/CER against ground truth.

    Pseudo-labeling uses the beam decoder; test scoring uses best-path
    decoding, at a fraction of the cost. The two need not rank the
    conditions alike: on the default plan's multi-condition-train, seeds
    0-4, beam-scoring the test set put semi-sup-A (9.26) ahead of mh-ctc
    (9.48), which greedy scoring ranks the other way (9.64 against 8.88).
    """
    hyps = decode_set(system, utts, greedy_decode, cache)
    return score_corpus([(u.labels, hyps[u.id]) for u in utts])


def _build_systems(plan, scenario, seed, alphabet, cache):
    """Train the initial FBANK and STE systems for one scenario (``parallel_map``)."""
    base = plan.synth_cfg("none", seed * 1000 + 1)
    if scenario == "clean-train":
        train_corpus = synth_corpus(base, plan.n_train, plan.len_range, id_prefix="tr")
    else:
        half = plan.n_train // 2
        clean = synth_corpus(base, half, plan.len_range, id_prefix="trc")
        noisy = synth_corpus(plan.synth_cfg(TRAIN_NOISE_KIND, seed * 1000 + 2),
                             plan.n_train - half, plan.len_range, id_prefix="trn")
        train_corpus = clean + noisy

    def build(i):
        name, kind = (("sysA", "fbank"), ("sysB", "ste"))[i]
        system = init_system(name, FeatureConfig(kind), alphabet, ModelConfig.context,
                             plan.hidden, seed * 10 + i)
        data = labeled_data(system, train_corpus, cache)
        return train_system(system, data, plan.train_cfg("train", seed),
                            f"train:{scenario}:{name}:seed={seed}")
    return tuple(parallel_map(build, (0, 1)))


def run_scenario_seed(plan, scenario, seed, run_dir):
    """Full protocol for one scenario and seed; returns per-condition reports.

    Checkpoints and pseudo-labels go to ``run_dir/<scenario>/seed<seed>``.
    """
    alphabet = LabelAlphabet(tuple(plan.alphabet))
    cache = {}
    sys_a, sys_b = _build_systems(plan, scenario, seed, alphabet, cache)

    adapt_cfg = plan.synth_cfg(plan.noise_kind, seed * 1000 + 3)
    corpus = synth_corpus(adapt_cfg, sum(plan.split_sizes), plan.len_range, id_prefix="ad")
    split = make_splits(corpus, plan.split_sizes, seed)
    _features_for(sys_a, corpus, cache)  # every later stage uses them, forked workers too

    sys_a_hat, sys_b_hat = run_supervised_stage(sys_a, sys_b, split, plan, seed, cache)
    hyps_a, hyps_b = run_pseudo_label_stage(sys_a_hat, sys_b_hat, split, plan, cache)

    # diagnostic: pseudo-label quality against held ground truth
    diag = {}
    for name, hyps in (("sysA", hyps_a), ("sysB", hyps_b)):
        wer, _ = score_corpus([(u.labels, hyps[u.id]) for u in split.unlabeled])
        diag[name] = round(wer.wer, 3)

    cell_dir = Path(run_dir) / scenario / f"seed{seed}"
    cell_dir.mkdir(parents=True, exist_ok=True)

    def adapt_and_score(condition):
        adapted = run_adaptation_condition(
            condition, sys_a, split, hyps_a, hyps_b, plan, seed, cache)
        wer, cer = evaluate(adapted, split.test, plan, cache)
        save_checkpoint(adapted, cell_dir / f"{condition}.ckpt")
        return {
            "wer": round(wer.wer, 4),
            "cer": round(cer.wer, 4),
            "errors": wer.errors,
            "ref_words": wer.ref_words,
            "lineage": list(adapted.lineage),
        }
    results = dict(zip(plan.conditions, parallel_map(adapt_and_score, plan.conditions)))
    payload = {name: {k: [int(v) for v in vs] for k, vs in sorted(hyps.items())}
               for name, hyps in (("sysA", hyps_a), ("sysB", hyps_b))}
    (cell_dir / "hypotheses.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    return {"conditions": results, "pseudo_label_wer": diag}


_calls = []  # the running pool's calls: a forked worker shares them and runs one by index


def _start_worker(parent):
    """Pool initializer: die with ``parent`` and compute with one BLAS thread."""
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG: SIGKILL when the parent dies
    if os.getppid() != parent:  # it died first, so no signal will come
        os._exit(1)
    pin_one_thread()


def _run_call(i):
    return _calls[i]()


def _outcome(fn, item):
    """``fn(item)``, or the exception it raised."""
    try:
        return fn(item)
    except Exception as exc:
        return exc


def _parallel_outcomes(fn, items):
    """``fn`` of each item, in order, on the usable CPUs; a call's exception is its outcome.

    The workers are forked, so they import nothing again, share this
    process's memory (features already cached included) and stay its
    children (OpenBLAS stops its threads across a fork). Each call goes
    over as an index, so only outcomes are pickled, and each worker uses
    one BLAS thread, so that the workers do not oversubscribe the CPUs.
    With one item, one usable CPU (``taskset -c 0``), no BLAS that can
    be pinned, or inside a worker process (no nested pools), the calls run
    here, one after another. Either way every call runs, whichever fails.
    """
    blas = openblas()  # None off Linux, where os.sched_getaffinity is missing too
    workers = min(len(items), len(os.sched_getaffinity(0))) if blas else 1
    if workers < 2 or multiprocessing.parent_process():  # no pool inside a pool worker
        return [_outcome(fn, item) for item in items]
    _calls[:] = [partial(fn, item) for item in items]  # a fork pool forks at its first submit
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(os.getpid(),)) as pool:
        futures = [pool.submit(_run_call, i) for i in range(len(items))]
    _calls.clear()
    # a worker that died (BrokenProcessPool) takes every call not finished by then down
    return [future.exception() or future.result() for future in futures]


def parallel_map(fn, items):
    """``[fn(item) for item in items]`` on the usable CPUs; raises the first exception in order."""
    outcomes = _parallel_outcomes(fn, items)
    for failed in (outcome for outcome in outcomes if isinstance(outcome, Exception)):
        raise failed
    return outcomes


def _run_cells(plan, cells, run_dir):
    """``run_scenario_seed`` of each (scenario, seed), in order, on the usable CPUs.

    A cell that raised gives ``{"error": "<Class>: <message>"}``: one failed cell
    must not kill the grid.
    """
    outcomes = _parallel_outcomes(lambda cell: run_scenario_seed(plan, *cell, run_dir), cells)
    results = []
    for (scenario, seed), out in zip(cells, outcomes):
        if isinstance(out, Exception):
            log.debug("scenario %s seed %s raised", scenario, seed, exc_info=out)  # under -v
            out = {"error": f"{type(out).__name__}: {out}"}
        results.append(out)
    return results


def summarize(plan, results):
    """The grid's report dict from ``{(scenario, seed): _run_cells result}``; no I/O.

    Per scenario: every seed's cell result, each condition's mean WER over
    the cells that ran (None when none did) and, when both conditions are
    planned and the baseline's mean is non-zero, mh-ctc's relative WER
    reduction against supervised-labeled.
    """
    report = {"config_hash": plan.config_hash(), "plan": asdict(plan), "scenarios": {}}
    for scenario in plan.scenarios:
        # one entry per seed: the plan rejects repeated seeds
        per_seed = {str(seed): results[scenario, seed] for seed in plan.seeds}
        ran = [cell["conditions"] for cell in per_seed.values() if "conditions" in cell]
        summary = {}
        for condition in plan.conditions:
            wers = [conditions[condition]["wer"] for conditions in ran]
            summary[condition] = {"mean_wer": round(float(np.mean(wers)), 4) if wers else None,
                                  "per_seed_wer": wers}
        entry = report["scenarios"][scenario] = {"per_seed": per_seed, "summary": summary}
        base = summary.get("supervised-labeled", {}).get("mean_wer")
        if base and "mh-ctc" in summary:
            mh = summary["mh-ctc"]["mean_wer"]
            entry["relative_reduction_mh_vs_baseline"] = round(100.0 * (base - mh) / base, 4)
    return report


def run_experiment(plan, out_dir):
    """Run the full grid into ``out_dir/run-<config hash>``; returns (report dict, run directory).

    The report is ``summarize`` of the cell results, written as ``report.json`` and ``report.txt``.
    """
    run_dir = Path(out_dir) / f"run-{plan.config_hash()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    cells = [(scenario, seed) for scenario in plan.scenarios for seed in plan.seeds]
    report = summarize(plan, dict(zip(cells, _run_cells(plan, cells, run_dir))))
    for scenario, seed, error in failed_cells(report):  # one line per failed cell, in plan order
        log.error("scenario %s seed %s failed: %s", scenario, seed, error)
    (run_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    (run_dir / "report.txt").write_text(format_report(report))
    return report, run_dir


def format_report(report):
    """Aligned plain-text table mirroring the per-condition WER grid."""
    lines = [f"config hash: {report['config_hash']}", ""]
    for scenario, entry in report["scenarios"].items():
        lines.append(f"== {scenario} ==")
        header = f"{'condition':<22}{'mean WER':>10}  per-seed"
        lines.append(header)
        for condition, stats in entry["summary"].items():
            mean = stats["mean_wer"]
            mean_s = f"{mean:10.2f}" if mean is not None else f"{'n/a':>10}"
            seeds = " ".join(f"{w:6.2f}" for w in stats["per_seed_wer"])
            lines.append(f"{condition:<22}{mean_s}  {seeds}")
        rel = entry.get("relative_reduction_mh_vs_baseline")
        if rel is not None:
            lines.append(f"relative WER reduction, mh-ctc vs supervised-labeled: {rel:.2f}%")
        lines.append("")
    lines += [f"failed: {scenario} seed {seed}: {error}"
              for scenario, seed, error in failed_cells(report)]
    return "\n".join(lines) + "\n"


def failed_cells(report):
    """(scenario, seed, error) of every grid cell that raised."""
    return [(scenario, seed, cell["error"]) for scenario, entry in report["scenarios"].items()
            for seed, cell in entry["per_seed"].items() if "error" in cell]
