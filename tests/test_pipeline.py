import importlib.util
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import pytest

from mhctc import pipeline
from mhctc.alphabet import LabelAlphabet
from mhctc.audio import SynthConfig, synth_corpus
from mhctc.blas import openblas
from mhctc.ctc import ctc_loss
from mhctc.decode import MAX_BEAM_WIDTH
from mhctc.errors import ConfigError
from mhctc.features import FeatureConfig, cmn, extract
from mhctc.mh import mh_ctc_loss
from mhctc.model import TrainConfig, forward, load_checkpoint, sgd_train
from mhctc.pipeline import (
    CONDITION_TARGETS,
    CONDITIONS,
    ExperimentPlan,
    System,
    condition_dataset,
    format_report,
    labeled_data,
    make_splits,
    run_adaptation_condition,
    run_experiment,
    run_pseudo_label_stage,
    run_scenario_seed,
    run_supervised_stage,
    summarize,
)

ALPHA = LabelAlphabet(tuple("abcde"))

# a small plan, sized for test speed rather than for a meaningful ordering
TINY = ExperimentPlan(
    seeds=(0,),
    n_train=10,
    split_sizes=(4, 6, 8),
    len_range=(3, 5),
    hidden=16,
    train_epochs=2,
    finetune_epochs=2,
    adapt_epochs=2,
    beam_width=4,
)


def tiny_corpus(n=20, seed=0):
    cfg = SynthConfig(alphabet=ALPHA, seed=seed)
    return synth_corpus(cfg, n, (3, 5))


class TestSplits:
    def test_disjoint_ids(self):
        split = make_splits(tiny_corpus(), (5, 7, 8), seed=3)
        ids = (
            [u.id for u in split.labeled]
            + [u.id for u in split.unlabeled]
            + [u.id for u in split.test]
        )
        assert len(ids) == len(set(ids)) == 20

    def test_same_seed_same_split(self):
        corpus = tiny_corpus()
        a = make_splits(corpus, (5, 7, 8), seed=9)
        b = make_splits(corpus, (5, 7, 8), seed=9)
        assert [u.id for u in a.labeled] == [u.id for u in b.labeled]
        assert [u.id for u in a.test] == [u.id for u in b.test]

    def test_different_seed_different_split(self):
        corpus = tiny_corpus()
        a = make_splits(corpus, (5, 7, 8), seed=0)
        b = make_splits(corpus, (5, 7, 8), seed=1)
        assert [u.id for u in a.labeled] != [u.id for u in b.labeled]

    def test_all_test(self):
        split = make_splits(tiny_corpus(), (0, 0, 20), seed=0)
        assert not split.labeled and not split.unlabeled
        assert len(split.test) == 20


class TestPlan:
    def test_unknown_condition_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(conditions=("no-adapt", "bogus"))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(scenarios=("clean-train", "dirty-train"))

    @pytest.mark.parametrize("field,value", [
        ("train_epochs", -1),
        ("finetune_epochs", 2.5),
        ("hidden", None),
        ("adapt_epochs", -1),
        ("n_train", 0),
        ("split_sizes", (1, 2)),
        ("seeds", (0, -1)),
        ("len_range", (5, 3)),
        ("len_range", (0, 3)),
        ("hidden", 0),
        ("beam_width", 0),
        ("beam_width", 2.5),
        ("beam_width", "3"),
        ("snr_db", float("nan")),
        ("snr_db", "x"),
        ("snr_spread_db", -1.0),
        ("freq_jitter", "x"),
        ("freq_jitter", -0.1),
        ("amp_jitter", float("inf")),
        ("noise_kind", "pink"),
        ("alphabet", "abcdefghijklmnop"),
        ("alphabet", ""),
        ("seeds", ()),
        ("seeds", (0, 0)),
        ("scenarios", ()),
        ("scenarios", ("clean-train", "clean-train")),
        ("conditions", ()),
        ("conditions", ("mh-ctc", "no-adapt", "mh-ctc")),
        ("split_sizes", (1, 1, 0)),
        ("seeds", 3),
        ("split_sizes", 5),
        ("scenarios", "clean-train"),
        ("split_sizes", (1, 0, 1)),
        ("alphabet", 5),
        # a list where one integer is expected
        ("hidden", []),
        ("hidden", [1]),
        ("beam_width", [1]),
        ("n_train", []),
        # values synthesis cannot render
        ("snr_db", 1e300),
        ("snr_db", -1e300),
        ("snr_spread_db", 1e300),
        ("amp_jitter", 1e300),
        ("amp_jitter", 1.01),
        ("freq_jitter", 1.0),
        ("freq_jitter", 0.33),  # 3020 Hz * 1.33 passes Nyquist
        ("snr_db", 10**400),  # an int beyond the float range
        # a width never reached cuts nothing, so the kept set grows about K-fold per frame
        ("beam_width", MAX_BEAM_WIDTH + 1),
        ("beam_width", 10**20),
        ("seeds", [True]),
    ])
    def test_bad_value_rejected_at_construction(self, field, value):
        # every field is checked when the plan is built, not inside a grid cell,
        # and the message names the plan's field, not a derived config's
        with pytest.raises(ConfigError, match=field):
            ExperimentPlan(**{field: value})

    def test_list_fields_become_tuples(self):
        plan = ExperimentPlan(seeds=[0, 1], split_sizes=[30, 61, 140], len_range=[4, 10])
        assert plan == ExperimentPlan(seeds=(0, 1))
        assert plan.config_hash() == ExperimentPlan(seeds=(0, 1)).config_hash()

    def test_config_hash_stable_and_sensitive(self):
        a = ExperimentPlan()
        b = ExperimentPlan()
        c = ExperimentPlan(snr_db=7.0)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestStages:
    def test_supervised_stage_reduces_labeled_loss(self):
        cache = {}
        scen = run_scenario_seed  # noqa: F841  (documentation of entry point)
        from mhctc.pipeline import _build_systems, _features_for

        sys_a, sys_b = _build_systems(TINY, "clean-train", 0, ALPHA, cache)
        corpus = synth_corpus(
            SynthConfig(alphabet=ALPHA, noise_kind="babble", snr_db=6.0, seed=3),
            sum(TINY.split_sizes),
            TINY.len_range,
        )
        split = make_splits(corpus, TINY.split_sizes, seed=0)
        a_hat, _ = run_supervised_stage(sys_a, sys_b, split, TINY, 0, cache)

        def labeled_loss(system):
            feats = _features_for(system, split.labeled, cache)
            return sum(
                ctc_loss(forward(system.params, x), u.labels).loss
                for x, u in zip(feats, split.labeled)
            )

        assert labeled_loss(a_hat) < labeled_loss(sys_a)
        assert "supervised-stage:sysA:seed=0" in a_hat.lineage

    def test_empty_labeled_set_skips_stage(self):
        cache = {}
        from mhctc.pipeline import _build_systems

        sys_a, sys_b = _build_systems(TINY, "clean-train", 0, ALPHA, cache)
        corpus = tiny_corpus()
        split = make_splits(corpus, (0, 10, 10), seed=0)
        a_hat, b_hat = run_supervised_stage(sys_a, sys_b, split, TINY, 0, cache)
        assert a_hat is sys_a and b_hat is sys_b

    def test_pseudo_label_stage_covers_unlabeled(self):
        cache = {}
        from mhctc.pipeline import _build_systems

        sys_a, sys_b = _build_systems(TINY, "clean-train", 0, ALPHA, cache)
        corpus = tiny_corpus()
        split = make_splits(corpus, (4, 6, 8), seed=0)
        hyps_a, hyps_b = run_pseudo_label_stage(sys_a, sys_b, split, TINY, cache)
        ids = {u.id for u in split.unlabeled}
        assert set(hyps_a) == ids == set(hyps_b)


class TestConditionDatasets:
    def _setup(self):
        cache = {}
        from mhctc.pipeline import _build_systems

        sys_a, _ = _build_systems(TINY, "clean-train", 0, ALPHA, cache)
        corpus = tiny_corpus()
        split = make_splits(corpus, (4, 6, 8), seed=0)
        hyps = {u.id: (1, 2) for u in split.unlabeled}
        return cache, sys_a, split, hyps

    def test_supervised_labeled_size(self):
        cache, sys_a, split, hyps = self._setup()
        data = condition_dataset("supervised-labeled", split, hyps, hyps, sys_a, cache)
        assert len(data) == 4

    def test_supervised_all_uses_ground_truth(self):
        cache, sys_a, split, hyps = self._setup()
        data = condition_dataset("supervised-all", split, hyps, hyps, sys_a, cache)
        assert len(data) == 10
        truths = [(u.labels,) for u in split.unlabeled]
        assert [t for _, t in data[4:]] == truths

    def test_mh_targets_are_hypothesis_sets(self):
        cache, sys_a, split, hyps = self._setup()
        data = condition_dataset("mh-ctc", split, hyps, hyps, sys_a, cache)
        manual, pseudo = data[:4], data[4:]
        assert [t for _, t in manual] == [(u.labels,) for u in split.labeled]
        assert [t for _, t in pseudo] == [((1, 2), (1, 2))] * len(pseudo)

    def test_condition_order(self):
        # the report lists conditions in this order
        assert CONDITIONS == ("no-adapt", "supervised-labeled", "semi-sup-A", "semi-sup-B",
                              "mh-ctc", "supervised-all")

    @pytest.mark.parametrize("condition", CONDITIONS[1:])
    def test_unlabeled_targets_of_each_condition(self, condition):
        cache, sys_a, split, _ = self._setup()
        hyps_a = {u.id: (1,) for u in split.unlabeled}
        hyps_b = {u.id: (2, 2) for u in split.unlabeled}
        want = {
            "supervised-labeled": [],
            "supervised-all": [(u.labels,) for u in split.unlabeled],
            "semi-sup-A": [((1,),)] * 6,
            "semi-sup-B": [((2, 2),)] * 6,
            "mh-ctc": [((1,), (2, 2))] * 6,
        }[condition]
        data = condition_dataset(condition, split, hyps_a, hyps_b, sys_a, cache)
        assert [t for _, t in data] == [(u.labels,) for u in split.labeled] + want

    def test_feature_cache_keys_on_the_front_end(self):
        # two front ends of one kind share a cache; each must get its own features
        split = make_splits(tiny_corpus(), (4, 6, 8), seed=0)
        cache = {}
        for n_bands in (16, 12):
            system = System(name="a", feature_cfg=FeatureConfig(n_bands=n_bands), alphabet=ALPHA,
                            params=None)
            data = condition_dataset("supervised-labeled", split, {}, {}, system, cache)
            assert {x.shape[1] for x, _ in data} == {3 * n_bands}

    def test_feature_cache_keys_on_the_utterance(self):
        # corpora synthesized apart, as a labeled and an unlabeled manifest are, reuse ids
        a, b = tiny_corpus(n=1, seed=0) + tiny_corpus(n=1, seed=1)
        assert a.id == b.id
        system = System(name="a", feature_cfg=FeatureConfig(), alphabet=ALPHA, params=None)
        data = labeled_data(system, [a, b], {})
        for (x, target), u in zip(data, (a, b)):
            assert x.tobytes() == cmn(extract(u, system.feature_cfg)).tobytes()
            assert target == (u.labels,)

    def test_identical_hypotheses_double_the_loss(self):
        # with H_A == H_B the combined loss on every unlabeled utterance is
        # exactly twice the single-hypothesis loss
        cache, sys_a, split, hyps = self._setup()
        mh = condition_dataset("mh-ctc", split, hyps, hyps, sys_a, cache)
        single = condition_dataset("semi-sup-A", split, hyps, hyps, sys_a, cache)
        for (x, hs), (_, (labels,)) in zip(mh[4:], single[4:]):
            logp = forward(sys_a.params, x)
            combined = mh_ctc_loss(logp, hs).loss
            assert combined == pytest.approx(2.0 * ctc_loss(logp, labels).loss, rel=1e-12)

    def test_a_condition_may_repeat_a_source(self, monkeypatch):
        # a repeated source is one hypothesis counted twice, with no code of its own
        monkeypatch.setitem(CONDITION_TARGETS, "mh-AA", ("sysA", "sysA"))
        cache, sys_a, split, hyps_a = self._setup()
        hyps_b = {u.id: (2, 2) for u in split.unlabeled}
        data = condition_dataset("mh-AA", split, hyps_a, hyps_b, sys_a, cache)
        assert [t for _, t in data[4:]] == [(hyps_a[u.id], hyps_a[u.id]) for u in split.unlabeled]
        for x, target in data[4:]:
            logp = forward(sys_a.params, x)
            doubled = mh_ctc_loss(logp, target).loss
            assert doubled == pytest.approx(2.0 * ctc_loss(logp, target[0]).loss, rel=1e-12)
        _, curve = sgd_train(sys_a.params, data, TrainConfig(epochs=1))
        assert len(curve) == 1 and math.isfinite(curve[0])


class TestAdaptationConditions:
    def test_no_adapt_returns_initial(self):
        cache = {}
        from mhctc.pipeline import _build_systems

        sys_a, _ = _build_systems(TINY, "clean-train", 0, ALPHA, cache)
        split = make_splits(tiny_corpus(), (4, 6, 8), seed=0)
        out = run_adaptation_condition("no-adapt", sys_a, split, {}, {}, TINY, 0, cache)
        assert out is sys_a

    def test_adaptation_starts_from_initial_model(self):
        # every adapted lineage begins with the initial training step, never
        # with the supervised-stage fine-tune
        cache = {}
        from mhctc.pipeline import _build_systems

        sys_a, _ = _build_systems(TINY, "clean-train", 0, ALPHA, cache)
        split = make_splits(tiny_corpus(), (4, 6, 8), seed=0)
        hyps = {u.id: (1,) for u in split.unlabeled}
        out = run_adaptation_condition("mh-ctc", sys_a, split, hyps, hyps, TINY, 0, cache)
        assert any(step.startswith("train:clean-train:sysA") for step in out.lineage)
        assert not any("supervised-stage" in step for step in out.lineage)
        assert out.lineage[-1] == "adapt:mh-ctc:seed=0"


class TestScenarioAndReport:
    def test_scenario_seed_reports_all_conditions(self, tmp_path):
        out = run_scenario_seed(TINY, "clean-train", 0, run_dir=tmp_path)
        assert set(out["conditions"]) == set(CONDITIONS)
        assert set(out["pseudo_label_wer"]) == {"sysA", "sysB"}
        ckpts = sorted(p.name for p in (tmp_path / "clean-train" / "seed0").glob("*.ckpt"))
        assert ckpts == sorted(f"{c}.ckpt" for c in CONDITIONS)
        system = load_checkpoint(tmp_path / "clean-train" / "seed0" / "mh-ctc.ckpt")
        assert system.alphabet.symbols == ALPHA.symbols
        assert system.feature_cfg == FeatureConfig(kind="fbank", n_bands=16)
        assert system.lineage[-1] == "adapt:mh-ctc:seed=0"

    def test_hypotheses_persisted(self, tmp_path):
        run_scenario_seed(TINY, "clean-train", 0, run_dir=tmp_path)
        payload = json.loads((tmp_path / "clean-train" / "seed0" / "hypotheses.json").read_text())
        assert set(payload) == {"sysA", "sysB"}
        assert len(payload["sysA"]) == TINY.split_sizes[1]

    def test_rerun_is_deterministic(self, tmp_path):
        a = run_scenario_seed(TINY, "multi-condition-train", 1, tmp_path / "a")
        b = run_scenario_seed(TINY, "multi-condition-train", 1, tmp_path / "b")
        assert a == b

    def test_report_structure_and_relative_reduction(self):
        plan = replace(TINY, seeds=(0, 1))
        results = synthetic_results(plan)
        report = summarize(plan, results)
        assert report["config_hash"] == plan.config_hash() and report["plan"]["seeds"] == (0, 1)
        assert list(report["scenarios"]) == list(plan.scenarios)
        for scenario in plan.scenarios:
            entry = report["scenarios"][scenario]
            assert entry["per_seed"] == {str(s): results[scenario, s] for s in plan.seeds}
            assert set(entry["summary"]) == set(CONDITIONS)
            assert list(entry["summary"]) == list(plan.conditions)
            base = entry["summary"]["supervised-labeled"]["mean_wer"]
            mh = entry["summary"]["mh-ctc"]["mean_wer"]
            want = 100.0 * (base - mh) / base
            assert entry["relative_reduction_mh_vs_baseline"] == pytest.approx(want, abs=1e-3)

    def test_run_experiment_reports_summarize_of_its_cells(self, tmp_path, monkeypatch):
        cells = []

        def run_cells_noted(plan, grid, run_dir):
            outcomes = run_cells(plan, grid, run_dir)
            cells.append(dict(zip(grid, outcomes)))
            return outcomes

        run_cells = pipeline._run_cells
        monkeypatch.setattr(pipeline, "_run_cells", run_cells_noted)
        report, run_dir = run_experiment(TINY, out_dir=tmp_path)
        assert run_dir.name == f"run-{TINY.config_hash()}"
        assert len(cells) == 1 and report == summarize(TINY, cells[0])
        assert json.loads((run_dir / "report.json").read_text()) == json.loads(json.dumps(report))
        assert (run_dir / "report.txt").read_text() == format_report(report)

    def test_report_files_byte_identical_across_reruns(self, tmp_path):
        _, dir_a = run_experiment(TINY, out_dir=tmp_path / "a")
        _, dir_b = run_experiment(TINY, out_dir=tmp_path / "b")
        assert (dir_a / "report.json").read_bytes() == (dir_b / "report.json").read_bytes()
        for ckpt in sorted(dir_a.rglob("*.ckpt")):
            twin = dir_b / ckpt.relative_to(dir_a)
            assert ckpt.read_bytes() == twin.read_bytes()

    def test_parallel_run_directory_equals_serial(self, tmp_path, monkeypatch):
        # one usable CPU runs the cells in this process, two in forked workers
        blas = openblas()
        if blas is None:
            pytest.skip("no bundled OpenBLAS to pin: the grid always runs serially")
        run, train = pipeline.run_scenario_seed, pipeline.train_system

        def run_noting_process(plan, scenario, seed, run_dir):
            note = [os.getpid(), blas.scipy_openblas_get_num_threads64_()]
            (tmp_path / f"{run_dir.parent.name}-{scenario}.json").write_text(json.dumps(note))
            return run(plan, scenario, seed, run_dir)

        def train_noting_process(system, data, train_cfg, step):
            with (tmp_path / "train-pids.txt").open("a") as f:
                f.write(f"{os.getpid()}\n")
            return train(system, data, train_cfg, step)

        monkeypatch.setattr(pipeline, "run_scenario_seed", run_noting_process)
        monkeypatch.setattr(pipeline, "train_system", train_noting_process)
        default_threads = blas.scipy_openblas_get_num_threads64_()
        dirs = {}
        try:
            # the serial cells compute here with one BLAS thread, as each worker must
            for cpus, threads in (({0}, 1), ({0, 1}, 2)):
                blas.scipy_openblas_set_num_threads64_(threads)
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
                (tmp_path / "train-pids.txt").unlink(missing_ok=True)
                _, dirs[len(cpus)] = run_experiment(TINY, tmp_path / f"cpus{len(cpus)}")
        finally:
            blas.scipy_openblas_set_num_threads64_(default_threads)
        notes = {p.stem: tuple(json.loads(p.read_text())) for p in tmp_path.glob("*.json")}
        assert [notes[f"cpus1-{s}"] for s in TINY.scenarios] == [(os.getpid(), 1)] * 2
        workers = [notes[f"cpus2-{s}"] for s in TINY.scenarios]
        assert [threads for _, threads in workers] == [1, 1]
        assert len({os.getpid(), *(pid for pid, _ in workers)}) == 3
        # no nested pools: a cell worker trains its two builds, two fine-tunes and five adaptations
        train_pids = (tmp_path / "train-pids.txt").read_text().split()
        assert sorted(train_pids) == sorted([str(pid) for pid, _ in workers] * 9)
        # per cell one checkpoint per condition and hypotheses.json, then the two reports
        assert same_files(dirs[1], dirs[2]) == 2 * (len(CONDITIONS) + 1) + 2

    def test_one_cell_forks_its_stages_with_the_serial_bytes(self, tmp_path, monkeypatch):
        # a one-cell plan leaves a CPU idle, so the cell's independent stages fork
        blas = openblas()
        if blas is None:
            pytest.skip("no bundled OpenBLAS to pin: the stages always run serially")
        train, decode_set = pipeline.train_system, pipeline.decode_set

        def note(call):
            with (tmp_path / "calls.txt").open("a") as f:
                f.write(json.dumps([call, os.getpid(), blas.scipy_openblas_get_num_threads64_()])
                        + "\n")

        def train_noting(system, data, train_cfg, step):
            note(step)
            return train(system, data, train_cfg, step)

        def decode_noting(system, utts, decoder, cache):
            note(f"decode:{system.name}:{len(utts)}")
            return decode_set(system, utts, decoder, cache)

        monkeypatch.setattr(pipeline, "train_system", train_noting)
        monkeypatch.setattr(pipeline, "decode_set", decode_noting)
        plan = replace(TINY, scenarios=("clean-train",))
        default_threads = blas.scipy_openblas_get_num_threads64_()
        dirs, calls = {}, {}
        try:
            for cpus, threads in (({0}, 1), ({0, 1}, 2)):
                blas.scipy_openblas_set_num_threads64_(threads)
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
                _, dirs[len(cpus)] = run_experiment(plan, tmp_path / f"cpus{len(cpus)}")
                lines = (tmp_path / "calls.txt").read_text().splitlines()
                calls[len(cpus)] = [json.loads(line) for line in lines]
                (tmp_path / "calls.txt").unlink()
        finally:
            blas.scipy_openblas_set_num_threads64_(default_threads)
        # two builds, two fine-tunes, two pseudo-labellings, five adaptations, six evaluations
        assert len(calls[1]) == 2 + 2 + 2 + 5 + 6
        assert sorted(call for call, _, _ in calls[1]) == sorted(call for call, _, _ in calls[2])
        assert {(pid, threads) for _, pid, threads in calls[1]} == {(os.getpid(), 1)}
        assert all(pid != os.getpid() and threads == 1 for _, pid, threads in calls[2])
        assert same_files(dirs[1], dirs[2]) == len(CONDITIONS) + 1 + 2

    def test_failed_condition_leaves_the_same_files_serial_or_forked(self, tmp_path, monkeypatch):
        # every condition runs, whichever fails, so the others keep their checkpoints
        blas = openblas()
        if blas is None:
            pytest.skip("no bundled OpenBLAS to pin: the stages always run serially")
        adapt = pipeline.run_adaptation_condition

        def adapt_or_fail(condition, *args):
            if condition == "semi-sup-A":
                raise RuntimeError("no semi-sup-A today")
            return adapt(condition, *args)

        monkeypatch.setattr(pipeline, "run_adaptation_condition", adapt_or_fail)
        plan = replace(TINY, scenarios=("clean-train",))
        default_threads = blas.scipy_openblas_get_num_threads64_()
        dirs = {}
        try:
            for cpus, threads in (({0}, 1), ({0, 1}, 2)):
                blas.scipy_openblas_set_num_threads64_(threads)
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
                report, dirs[len(cpus)] = run_experiment(plan, tmp_path / f"cpus{len(cpus)}")
                cell = report["scenarios"]["clean-train"]["per_seed"]["0"]
                assert cell == {"error": "RuntimeError: no semi-sup-A today"}
        finally:
            blas.scipy_openblas_set_num_threads64_(default_threads)
        kept = sorted(ckpt.stem for ckpt in dirs[1].rglob("*.ckpt"))
        assert kept == sorted(set(CONDITIONS) - {"semi-sup-A"})
        assert same_files(dirs[1], dirs[2]) == len(kept) + 2


def synthetic_results(plan, wer=lambda seed, c: 10.0 + 3 * seed + CONDITIONS.index(c), fail=()):
    """``{(scenario, seed): cell result}`` shaped as ``_run_cells`` returns them.

    Each condition's WER is ``wer(seed, condition)``; the cells in ``fail``
    hold an error instead.
    """
    return {
        (scenario, seed): {"error": "InvalidInput: no systems"} if (scenario, seed) in fail else {
            "conditions": {c: {"wer": wer(seed, c), "cer": 1.0, "errors": 1, "ref_words": 10,
                               "lineage": []} for c in plan.conditions},
            "pseudo_label_wer": {"sysA": 20.0, "sysB": 25.0}}
        for scenario in plan.scenarios for seed in plan.seeds}


class TestSummarize:
    """The report as a pure function of synthetic cell results: no grid runs."""

    plan = replace(TINY, seeds=(0, 1, 2))

    def test_tie_between_two_conditions(self):
        # mh-ctc and supervised-labeled tie at every seed: a reduction of exactly 0
        tied = {"supervised-labeled": 12.5, "mh-ctc": 12.5}
        report = summarize(self.plan, synthetic_results(
            self.plan, lambda seed, condition: tied.get(condition, 30.0)))
        for entry in report["scenarios"].values():
            summary = entry["summary"]
            assert summary["mh-ctc"] == summary["supervised-labeled"] == {
                "mean_wer": 12.5, "per_seed_wer": [12.5] * 3}
            assert entry["relative_reduction_mh_vs_baseline"] == 0.0
        assert "relative WER reduction, mh-ctc vs supervised-labeled: 0.00%" in (
            format_report(report))

    def test_failed_cell_is_left_out_of_the_means(self):
        results = synthetic_results(self.plan, fail={("clean-train", 1)})
        report = summarize(self.plan, results)
        entry = report["scenarios"]["clean-train"]
        assert entry["per_seed"]["1"] == {"error": "InvalidInput: no systems"}
        assert entry["summary"]["mh-ctc"] == {"mean_wer": 17.0, "per_seed_wer": [14.0, 20.0]}
        other = report["scenarios"]["multi-condition-train"]["summary"]["mh-ctc"]
        assert other["per_seed_wer"] == [14.0, 17.0, 20.0]
        assert pipeline.failed_cells(report) == [
            ("clean-train", "1", "InvalidInput: no systems")]
        assert format_report(report).endswith(
            "failed: clean-train seed 1: InvalidInput: no systems\n")

    def test_every_seed_failed_reads_n_a(self):
        fail = {("clean-train", seed) for seed in self.plan.seeds}
        report = summarize(self.plan, synthetic_results(self.plan, fail=fail))
        entry = report["scenarios"]["clean-train"]
        assert all(stats == {"mean_wer": None, "per_seed_wer": []}
                   for stats in entry["summary"].values())
        assert "relative_reduction_mh_vs_baseline" not in entry
        assert "relative_reduction_mh_vs_baseline" in report["scenarios"]["multi-condition-train"]
        text = format_report(report)
        assert f"{'mh-ctc':<22}{'n/a':>10}  \n" in text
        assert text.count("relative WER reduction") == 1

    @pytest.mark.parametrize("missing", ["mh-ctc", "supervised-labeled"])
    def test_plan_without_a_compared_condition_has_no_reduction(self, missing):
        plan = replace(self.plan, conditions=tuple(c for c in CONDITIONS if c != missing))
        report = summarize(plan, synthetic_results(plan))
        for entry in report["scenarios"].values():
            assert missing not in entry["summary"]
            assert "relative_reduction_mh_vs_baseline" not in entry
        assert "relative WER reduction" not in format_report(report)

    def test_zero_baseline_has_no_reduction(self):
        report = summarize(self.plan, synthetic_results(
            self.plan, lambda seed, condition: 0.0 if condition == "supervised-labeled" else 5.0))
        for entry in report["scenarios"].values():
            assert entry["summary"]["supervised-labeled"]["mean_wer"] == 0.0
            assert "relative_reduction_mh_vs_baseline" not in entry


def same_files(dir_a, dir_b):
    """The number of files in two run directories, after asserting them byte-identical."""
    files = [sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file()) for d in (dir_a, dir_b)]
    assert files[0] == files[1]
    for rel in files[0]:
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel
    return len(files[0])


def test_traced_attributes_exist():
    # the benchmark's traced run rebinds these module attributes by name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{m.__name__}.{a}" for m, a, *_ in tracing._bindings() if not hasattr(m, a)]
    assert missing == [] and hasattr(pipeline, "Path")
