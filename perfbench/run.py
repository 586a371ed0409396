"""mhctc benchmark: the ``grid``, ``adapt`` and ``decode`` workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decode --seed 0 --seconds 45 --trace 0

The workload seed is the only input; it picks the corpora, splits and
model initialisations through the public ``mhctc`` API.  One run sets the
workload up, repeats it until ``--seconds`` have passed (at least twice),
checks every repeat's outputs and prints one JSON object as the last
line of standard output.  A repeat is split into units of work, each
timed on its own; see ``UnitClock``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics of ``perfbench/tracing.py``.  See ``perfbench/README.md``.
"""

import os

# one BLAS thread, set before numpy loads: the load is a single process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# The scaled grid keeps the default plan's structure (both scenarios, all six
# conditions, beam width 20, model shape) at about a sixth of its work, so
# that a run holds at least two repeats of both cells.
GRID_PLAN = dict(
    n_train=40,
    split_sizes=(8, 12, 20),
    train_epochs=10,
    finetune_epochs=10,
    adapt_epochs=6,
)
ADAPT_EPOCHS = 1  # per repeat, so that each condition is a short unit timed many times
# decode utterances of one fixed transcription length, so that the work of a
# repeat hardly depends on the seed
DECODE_UTTS = 12
DECODE_LABELS = 7
SCENARIO = "clean-train"
TRAINABLE = ("supervised-labeled", "semi-sup-A", "semi-sup-B", "mh-ctc", "supervised-all")


def _import_mhctc():
    """Import the package from this checkout's ``src``, or exit 1."""
    sys.path.insert(0, str(SRC))
    try:
        import mhctc  # noqa: F401
        from mhctc import decode, features, model, pipeline, score
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mhctc from {SRC}: {exc}")
    if Path(mhctc.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: mhctc resolved outside {SRC}: {mhctc.__file__}")
    return decode, features, model, pipeline, score


def fingerprint():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _params_digest(params):
    return _digest(*(t.tobytes() for t in params.tensors().values()))


@dataclass
class Outcome:
    """One repeat: units attempted and failed, utterance passes, output digest."""

    attempted: int
    failed: int
    utts: int
    digest: str


def _cpu():
    """CPU seconds of this process (ns resolution) and its waited-for children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


class UnitClock:
    """Wall and CPU time of each unit of work of one repeat.

    A unit is work that every repeat does identically (one adaptation
    condition, one utterance decoded by one system).  A workload's time
    is the sum over its units of ``unit_stat`` over the run's samples of
    each unit: the minimum when units are short and sampled many times,
    the median otherwise.
    """

    def __init__(self):
        self.samples = defaultdict(list)  # unit -> [(wall s, cpu s)]

    @contextmanager
    def unit(self, key):
        t, c = time.perf_counter(), _cpu()
        try:
            yield
        finally:
            self.samples[key].append((time.perf_counter() - t, _cpu() - c))


class Grid:
    """``run_experiment`` on the scaled default plan: two cells, six conditions."""

    plan_overrides = GRID_PLAN
    n_setups = 3  # a fresh import is cheap, so take the median of three
    # one unit of about 9 s: too long to run undisturbed, so its median
    unit_stat = staticmethod(statistics.median)

    def __init__(self, mods, seed, out_dir):
        self.pipeline = mods[3]
        self.plan = self.pipeline.ExperimentPlan(seeds=(seed,), **self.plan_overrides)
        self.out_dir = out_dir
        self.report = None

    def setup(self):
        """What a user of the grid pays before work starts: a fresh import."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import mhctc.pipeline"], env=env, check=True,
            timeout=120,
        )
        return time.perf_counter() - t

    def utts(self):
        p = self.plan
        n_lab, n_unlab, n_test = p.split_sizes
        train = 2 * (p.n_train * p.train_epochs + n_lab * p.finetune_epochs)
        adapt = (n_lab + 4 * (n_lab + n_unlab)) * p.adapt_epochs
        decodes = 2 * n_unlab + len(p.conditions) * n_test
        return len(p.scenarios) * (train + adapt + decodes)

    def run(self, clock):
        with clock.unit("experiment"):
            report, run_dir = self.pipeline.run_experiment(self.plan, self.out_dir)
        failed = 0
        for entry in report["scenarios"].values():
            cell = entry["per_seed"][str(self.plan.seeds[0])]
            if "error" in cell or set(cell["conditions"]) != set(self.plan.conditions):
                failed += 1
        self.report = report
        blob = (run_dir / "report.json").read_bytes()
        return Outcome(len(self.plan.scenarios), failed, self.utts(), _digest(blob))

    def quality(self):
        """Mean mh-ctc test WER and mean relative gain over supervised-labeled."""
        cells = self.report["scenarios"].values()
        return {
            "score.wer_pct": statistics.fmean(e["summary"]["mh-ctc"]["mean_wer"] for e in cells),
            "pipeline.mh_gain_pct": statistics.fmean(
                e.get("relative_reduction_mh_vs_baseline", 0.0) for e in cells
            ),
        }


class GridFull(Grid):
    """The default plan itself (one seed); about a minute per repeat, not in BENCHMARK.json."""

    plan_overrides = {}


def build_cell(pipeline, plan, seed):
    """Initial systems and split of one default-plan cell, as run_scenario_seed builds them.

    Returns system A, the fine-tuned systems A and B, the split, the
    feature cache and the cell's adaptation audio config.
    """
    from mhctc.alphabet import LabelAlphabet
    from mhctc.audio import SynthConfig

    alphabet = LabelAlphabet(tuple(plan.alphabet))
    cache = {}
    sys_a, sys_b = pipeline._build_systems(plan, SCENARIO, seed, alphabet, cache)
    adapt_cfg = SynthConfig(
        alphabet=alphabet, noise_kind=plan.noise_kind, snr_db=plan.snr_db,
        snr_spread_db=plan.snr_spread_db, freq_jitter=plan.freq_jitter,
        amp_jitter=plan.amp_jitter, seed=seed * 1000 + 3,
    )
    corpus = pipeline.synth_corpus(adapt_cfg, sum(plan.split_sizes), plan.len_range, id_prefix="ad")
    split = pipeline.make_splits(corpus, plan.split_sizes, seed)
    sys_a_hat, sys_b_hat = pipeline.run_supervised_stage(sys_a, sys_b, split, plan, seed, cache)
    return sys_a, (sys_a_hat, sys_b_hat), split, cache, adapt_cfg


class Adapt:
    """The five trainable conditions of the clean-train cell, from system A."""

    n_setups = 1  # trains and beam-decodes for about 11 s
    unit_stat = staticmethod(min)  # five units of 0.04-0.17 s

    def __init__(self, mods, seed, out_dir):
        self.pipeline = mods[3]
        self.seed = seed
        self.plan = self.pipeline.ExperimentPlan(seeds=(seed,))
        self.curves = []
        self.systems = {}

    def setup(self):
        from tracing import pseudo_label_diagnostics

        t = time.perf_counter()
        self.sys_a, hats, self.split, self.cache, _ = build_cell(self.pipeline, self.plan, self.seed)
        self.hyps = self.pipeline.run_pseudo_label_stage(*hats, self.split, self.plan, self.cache)
        elapsed = time.perf_counter() - t
        self.diagnostics = pseudo_label_diagnostics(self.split.unlabeled, *self.hyps)
        return elapsed

    def utts(self):
        n_lab, n_unlab, _ = self.plan.split_sizes
        return (n_lab + 4 * (n_lab + n_unlab)) * ADAPT_EPOCHS

    def run(self, clock):
        plan = replace(self.plan, adapt_epochs=ADAPT_EPOCHS)
        train = self.pipeline.sgd_train
        curves = []

        def capture(*args, **kwargs):
            params, curve = train(*args, **kwargs)
            curves.append(curve)
            return params, curve

        failed = 0
        self.pipeline.sgd_train = capture
        try:
            for c in TRAINABLE:
                try:
                    with clock.unit(c):
                        self.systems[c] = self.pipeline.run_adaptation_condition(
                            c, self.sys_a, self.split, *self.hyps, plan, self.seed, self.cache
                        )
                except Exception:  # a failed condition is counted, not fatal
                    traceback.print_exc()
                    failed += 1
        finally:
            self.pipeline.sgd_train = train
        failed += sum(
            len(curve) != ADAPT_EPOCHS or not all(math.isfinite(v) for v in curve)
            for curve in curves
        )
        self.curves = curves
        digest = _digest(curves, *(_params_digest(s.params) for s in self.systems.values()))
        return Outcome(len(TRAINABLE), failed, self.utts(), digest)

    def quality(self):
        """Mean last-epoch loss, and mean greedy test WER of the adapted systems.

        The test set is scored after the timed repeats, so adapt times no decoding.
        """
        return {
            "model.train.final_loss": statistics.fmean(curve[-1] for curve in self.curves),
            "score.wer_pct": statistics.fmean(
                self.pipeline.evaluate(s, self.split.test, self.plan, self.cache)[0].wer
                for s in self.systems.values()
            ),
        }


class Decode:
    """Inference with the two fine-tuned systems: features, forward, beam, greedy, score."""

    n_setups = 1  # trains two systems for about 9 s
    unit_stat = staticmethod(min)  # units of about 30 ms

    def __init__(self, mods, seed, out_dir):
        self.decode, self.features, self.model, self.pipeline, self.score = mods
        self.seed = seed
        self.plan = self.pipeline.ExperimentPlan(seeds=(seed,))
        self.beam_wer = None

    def setup(self):
        t = time.perf_counter()
        _, self.systems, _, _, adapt_cfg = build_cell(self.pipeline, self.plan, self.seed)
        self.utterances = self.pipeline.synth_corpus(
            replace(adapt_cfg, seed=adapt_cfg.seed + 2), DECODE_UTTS,
            (DECODE_LABELS, DECODE_LABELS), id_prefix="dec",
        )
        self.n_symbols = adapt_cfg.alphabet.n_symbols
        self.cfg = self.decode.DecodeConfig(beam_width=self.plan.beam_width, mode="beam")
        return time.perf_counter() - t

    def run(self, clock):
        dec, feat, mdl, score = self.decode, self.features, self.model, self.score
        beam_pairs, greedy_pairs, hyps = [], [], []
        for system in self.systems:
            for u in self.utterances:
                try:
                    with clock.unit((system.name, u.id)):
                        x = feat.cmn(feat.extract(u, system.feature_cfg))
                        logp = mdl.forward(system.params, x)
                        beam = dec.beam_decode(logp, self.cfg).labels
                        greedy = dec.greedy_decode(logp).labels
                except Exception:  # an utterance that fails is counted, not fatal
                    traceback.print_exc()
                    continue
                beam_pairs.append((u.labels, beam))
                greedy_pairs.append((u.labels, greedy))
                hyps.append((beam, greedy))
        with clock.unit("score"):
            beam_wer, _ = score.score_corpus(beam_pairs)
            score.score_corpus(greedy_pairs)
        n = len(self.systems) * len(self.utterances)
        failed = (n - len(hyps)) + sum(
            not all(1 <= k <= self.n_symbols for k in b + g) for b, g in hyps
        )
        self.beam_wer = beam_wer.wer
        return Outcome(n, failed, n, _digest(hyps))

    def quality(self):
        """Pooled beam WER of both systems."""
        return {"score.wer_pct": self.beam_wer}


# adapt and grid-full are not in BENCHMARK.json; see perfbench/README.md
WORKLOADS = {"grid": Grid, "adapt": Adapt, "decode": Decode, "grid-full": GridFull}
QUALITY = ("score.wer_pct", "pipeline.mh_gain_pct")


def measure(work, seconds, tracer=None):
    """Repeat ``work.run`` for ``seconds`` (at least twice per kind).

    With a tracer, repeats alternate untraced / traced.  Returns the list
    of (traced, wall s, cpu s, outcome, root span or None, unit samples).
    """
    from tracing import instrument

    samples = []
    deadline = time.perf_counter() + seconds
    kinds = (False, True) if tracer is not None else (False,)
    while True:
        traced = kinds[len(samples) % len(kinds)]
        root = None
        clock = UnitClock()
        t, c = time.perf_counter(), _cpu()
        if traced:
            with instrument(tracer), tracer.iteration(len(samples)) as root:
                outcome = work.run(clock)
        else:
            outcome = work.run(clock)
        samples.append(
            (traced, time.perf_counter() - t, _cpu() - c, outcome, root, clock.samples)
        )
        if time.perf_counter() >= deadline and len(samples) >= 2 * len(kinds):
            return samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = _import_mhctc()
    import tracing

    info = fingerprint()
    print("fingerprint:", json.dumps(info, sort_keys=True), flush=True)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        work = WORKLOADS[args.workload](mods, args.seed, run_dir)
        setups = [work.setup() for _ in range(work.n_setups)]
        samples = measure(work, args.seconds, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    outcomes = [s[3] for s in samples]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    # every repeat must reproduce the first one's outputs exactly
    failed += sum(o.attempted for o in outcomes[1:] if o.digest != outcomes[0].digest)
    failed = min(failed, attempted)

    plain = [s for s in samples if not s[0]]
    unit_times = defaultdict(list)
    for s in plain:
        for key, times in s[5].items():
            unit_times[key].extend(times)
    quality = {}
    if tracer is not None:
        traced = [s for s in samples if s[0]]
        per_run = [
            tracing.layer_metrics(tracer, s[4], getattr(work, "diagnostics", None))
            for s in traced
        ]
        values = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(s[1] for s in traced) / statistics.median(s[1] for s in plain)
            - 1.0
        )
        quality = work.quality()
        values.update({k: quality.get(k, 0.0) for k in QUALITY})
    else:
        wall = sum(work.unit_stat([w for w, _ in v]) for v in unit_times.values())
        values = {
            "wall_s": wall,
            "cpu_s": sum(work.unit_stat([c for _, c in v]) for v in unit_times.values()),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "utts_per_s": outcomes[0].utts / wall,
        }
        if isinstance(work, GridFull):
            quality = work.quality()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    correct = failed == 0
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(setups)} set-ups, "
        f"{len(plain)} untraced and {len(samples) - len(plain)} traced repeats "
        f"of {len(unit_times)} units, "
        f"{failed}/{attempted} failed {json.dumps(quality, sort_keys=True)}",
        flush=True,
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = dict(
        result, workload=args.workload, seed=args.seed, fingerprint=info,
        setups_s=setups, quality=quality,
        samples=[{"traced": s[0], "wall_s": s[1], "cpu_s": s[2]} for s in samples],
        unit_wall_s={str(k): [w for w, _ in v] for k, v in unit_times.items()},
        spans=tracer.spans if tracer is not None else [],
    )
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record)
    )
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
