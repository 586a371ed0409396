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
from .audio import SynthConfig, synth_corpus
from .blas import openblas, pin_one_thread
from .decode import DecodeConfig, beam_decode, greedy_decode
from .errors import ConfigError, check_ints
from .features import FeatureConfig, cmn, extract
from .mh import HypothesisSet
from .model import (
    ModelConfig,
    TrainConfig,
    format_curve,
    forward,
    init_model,
    save_checkpoint,
    sgd_train,
    with_lineage,
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


@dataclass
class AdaptationSplit:
    labeled: list
    unlabeled: list
    test: list


@dataclass(frozen=True)
class ExperimentPlan:
    scenarios: tuple = SCENARIOS
    conditions: tuple = CONDITIONS
    seeds: tuple = (0, 1, 2, 3, 4)
    alphabet: str = "abcde"
    n_train: int = 80
    split_sizes: tuple = (30, 61, 140)
    len_range: tuple = (4, 10)
    noise_kind: str = "babble"
    train_noise_kind: str = "white"  # multi-condition training noise (mismatched)
    snr_db: float = 6.0
    snr_spread_db: float = 5.0
    freq_jitter: float = 0.08
    amp_jitter: float = 0.3
    n_bands_fbank: int = 16
    n_bands_ste: int = 12
    context: int = 4
    hidden: int = 128
    learning_rate: float = 0.02
    adapt_learning_rate: float = 0.01
    train_epochs: int = 14
    finetune_epochs: int = 20
    adapt_epochs: int = 16
    batch_size: int = 4
    grad_clip: float = 5.0
    beam_width: int = 20

    def __post_init__(self):
        for name in ("scenarios", "conditions", "seeds", "split_sizes", "len_range"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {value!r}")
            object.__setattr__(self, name, tuple(value))  # a JSON plan gives lists
        for name, known in (("scenario", SCENARIOS), ("condition", CONDITIONS)):
            for value in getattr(self, name + "s"):
                if value not in known:
                    raise ConfigError(f"unknown {name} {value!r}")
        # build every config the plan derives once, so that a bad value
        # fails here, before any synthesis, and not inside every grid cell
        check_ints(1, n_train=self.n_train, len_range=self.len_range)
        check_ints(0, split_sizes=self.split_sizes, seeds=self.seeds)
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
        for stage in ("train", "finetune", "adapt"):
            self.train_cfg(stage, seed=0)
        alphabet = LabelAlphabet(tuple(self.alphabet))
        DecodeConfig(beam_width=self.beam_width)
        for kind in ("fbank", "ste"):
            ModelConfig(feat_dim=self.feature_cfg(kind).dim, n_outputs=alphabet.n_outputs,
                        context=self.context, hidden=self.hidden)
        for noise_kind in (self.noise_kind, self.train_noise_kind):
            self.synth_cfg(noise_kind, seed=0)

    def train_cfg(self, stage, seed):
        """TrainConfig of one training stage: "train", "finetune" or "adapt"."""
        return TrainConfig(
            learning_rate=self.adapt_learning_rate if stage == "adapt" else self.learning_rate,
            epochs=getattr(self, f"{stage}_epochs"), batch_size=self.batch_size, seed=seed,
            grad_clip=self.grad_clip,
        )

    def synth_cfg(self, noise_kind, seed):
        """SynthConfig of a corpus with the plan's SNR and jitter ("none": no noise)."""
        return SynthConfig(alphabet=LabelAlphabet(tuple(self.alphabet)), noise_kind=noise_kind,
                           snr_db=self.snr_db, snr_spread_db=self.snr_spread_db,
                           freq_jitter=self.freq_jitter, amp_jitter=self.amp_jitter, seed=seed)

    def feature_cfg(self, kind):
        n_bands = self.n_bands_fbank if kind == "fbank" else self.n_bands_ste
        return FeatureConfig(kind=kind, n_bands=n_bands)

    def config_hash(self):
        blob = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class System:
    name: str
    feature_cfg: FeatureConfig
    params: object


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
    """(features, manual transcription) pairs under ``system``'s front end."""
    return list(zip(_features_for(system, utts, cache), (u.labels for u in utts)))


def init_system(name, feature_cfg, n_outputs, context, hidden, seed):
    """A freshly initialized model on the front end ``feature_cfg``."""
    mcfg = ModelConfig(feat_dim=feature_cfg.dim, n_outputs=n_outputs, context=context,
                       hidden=hidden, seed=seed)
    return System(name=name, feature_cfg=feature_cfg, params=init_model(mcfg))


def train_system(system, data, train_cfg, step):
    """``system`` trained on (features, target) pairs, with ``step`` appended to its lineage."""
    params, curve = sgd_train(system.params, data, train_cfg)
    log.info("%s: loss %s", step, format_curve(curve))
    return replace(system, params=with_lineage(params, step))


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
    utterance gets one target per source in ``CONDITION_TARGETS[condition]``
    (``hyps_a`` / ``hyps_b``: id -> 1-best of A / B), two as one HypothesisSet.
    Features come from ``system``'s front end.
    """
    sources = CONDITION_TARGETS[condition]
    data = labeled_data(system, split.labeled, cache)
    if not sources:
        return data
    hyps = {"truth": {u.id: u.labels for u in split.unlabeled}, "sysA": hyps_a, "sysB": hyps_b}
    columns = []
    for source in sources:
        missing = [u.id for u in split.unlabeled if u.id not in hyps[source]]
        if missing:
            raise ConfigError(f"no {source} hypothesis for unlabeled utterance {missing[0]!r}")
        columns.append([hyps[source][u.id] for u in split.unlabeled])
    targets = columns[0] if len(columns) == 1 else [
        HypothesisSet(hypotheses=hs, source_tags=sources) for hs in zip(*columns)]
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
    decoding, which ranks the adaptation conditions identically at a
    fraction of the cost.
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
        noisy = synth_corpus(plan.synth_cfg(plan.train_noise_kind, seed * 1000 + 2),
                             plan.n_train - half, plan.len_range, id_prefix="trn")
        train_corpus = clean + noisy

    def build(i):
        name, kind = (("sysA", "fbank"), ("sysB", "ste"))[i]
        system = init_system(name, plan.feature_cfg(kind), alphabet.n_outputs, plan.context,
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
        save_checkpoint(adapted.params, cell_dir / f"{condition}.ckpt", adapted.feature_cfg,
                        alphabet_symbols=alphabet.symbols)
        return {
            "wer": round(wer.wer, 4),
            "cer": round(cer.wer, 4),
            "errors": wer.errors,
            "ref_words": wer.ref_words,
            "lineage": list(adapted.params.lineage),
        }
    results = dict(zip(plan.conditions, parallel_map(adapt_and_score, plan.conditions)))
    payload = {name: {k: [int(v) for v in vs] for k, vs in sorted(hyps.items())}
               for name, hyps in (("sysA", hyps_a), ("sysB", hyps_b))}
    (cell_dir / "hypotheses.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    return {"conditions": results, "pseudo_label_wer": diag}


def run_cell(plan, scenario, seed, run_dir):
    """``run_scenario_seed``'s result, or {"error": ...} when the cell raised."""
    try:
        return run_scenario_seed(plan, scenario, seed, run_dir)
    except Exception as exc:  # one failed cell must not kill the grid
        # its traceback only under -v, from the process that ran the cell
        log.debug("scenario %s seed %s raised", scenario, seed, exc_info=True)
        return {"error": f"{type(exc).__name__}: {exc}"}


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


def _parallel_outcomes(fn, items):
    """``fn`` of each item, in order, on the usable CPUs; a forked call's exception is its outcome.

    The workers are forked, so they import nothing again, share this
    process's memory (features already cached included) and stay its
    children (OpenBLAS stops its threads across a fork). Each call goes
    over as an index, so only outcomes are pickled, and each worker uses
    one BLAS thread, so that the workers do not oversubscribe the CPUs.
    With one item, one usable CPU (``taskset -c 0``), no BLAS that can
    be pinned, or inside a worker process (no nested pools), the calls run
    here, one after another, and an exception is raised at once.
    """
    blas = openblas()  # None off Linux, where os.sched_getaffinity is missing too
    workers = min(len(items), len(os.sched_getaffinity(0))) if blas else 1
    if workers < 2 or multiprocessing.parent_process():  # no pool inside a pool worker
        return [fn(item) for item in items]
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
    """``run_cell`` of each (scenario, seed), in order, on the usable CPUs."""
    outcomes = _parallel_outcomes(lambda cell: run_cell(plan, *cell, run_dir), cells)
    # run_cell catches what a cell raises, so only a dead worker fails a call
    return [{"error": f"{type(out).__name__}: {out}"} if isinstance(out, Exception) else out
            for out in outcomes]


def run_experiment(plan, out_dir):
    """Run the full grid into ``out_dir/run-<config hash>``; returns (report dict, run directory)."""
    chash = plan.config_hash()
    run_dir = Path(out_dir) / f"run-{chash}"
    run_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "config_hash": chash,
        "plan": asdict(plan),
        "scenarios": {},
    }
    cells = [(scenario, seed) for scenario in plan.scenarios for seed in plan.seeds]
    results = dict(zip(cells, _run_cells(plan, cells, run_dir)))
    for scenario in plan.scenarios:
        per_seed = {str(seed): results[scenario, seed] for seed in plan.seeds}
        summary = {}
        for condition in plan.conditions:
            # one entry per seed: the plan rejects repeated seeds
            wers = [cell["conditions"][condition]["wer"] for cell in per_seed.values()
                    if "conditions" in cell]
            summary[condition] = {
                "mean_wer": round(float(np.mean(wers)), 4) if wers else None,
                "per_seed_wer": wers,
            }
        entry = {"per_seed": per_seed, "summary": summary}
        if (
            "mh-ctc" in summary
            and "supervised-labeled" in summary
            and summary["supervised-labeled"]["mean_wer"]
        ):
            base = summary["supervised-labeled"]["mean_wer"]
            mh = summary["mh-ctc"]["mean_wer"]
            entry["relative_reduction_mh_vs_baseline"] = round(
                100.0 * (base - mh) / base, 4
            )
        report["scenarios"][scenario] = entry
    for scenario, seed, error in failed_cells(report):  # one line per failed cell, in plan order
        log.error("scenario %s seed %s failed: %s", scenario, seed, error)
    (run_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True)
    )
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
