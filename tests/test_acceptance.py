"""Acceptance gate: one test per shipping criterion.

Each test is self-contained, uses independent oracles where one exists,
and enforces its own runtime budget.  The experiment-grid test (criterion
6) is the slow one; everything else finishes in seconds.
"""

import time

import numpy as np

from mhctc.audio import (
    SAMPLE_RATE,
    SynthConfig,
    Utterance,
    render_signal,
    symbol_band_centers,
    synth_utterance,
)
from mhctc.ctc import ctc_loss, logits_gradient
from mhctc.decode import DecodeConfig, beam_decode
from mhctc.features import FeatureConfig, fbank, ste
from mhctc.mh import mh_ctc_loss
from mhctc.model import ModelConfig, forward, init_model
from mhctc.pipeline import ExperimentPlan, run_experiment
from mhctc.score import edit_distance

from helpers import (
    DEFAULT_ALPHABET,
    backward,
    ctc_loss_bruteforce,
    exhaustive_best_labeling,
    mel_center_frequencies,
    product_form_check,
    random_instance,
    random_logp,
    recursive_edit_distance,
)


def norm_rows(u):
    return u - np.logaddexp.reduce(u, axis=1, keepdims=True)


def test_criterion_1_ctc_oracle_equivalence():
    """1,000 random instances agree with brute-force path enumeration."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        logp, labels = random_instance(rng, max_T=8, max_syms=3, max_L=3)
        loss = ctc_loss(logp, labels).loss
        ref = ctc_loss_bruteforce(logp, labels)
        rel = abs(loss - ref) / max(1.0, abs(ref))
        worst = max(worst, rel)
        assert rel <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 1: 1000 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_checks():
    """Logits and parameter gradients match central finite differences."""
    rng = np.random.default_rng(102)
    start = time.monotonic()
    h = 1e-5

    # per-frame logits gradient of the sequence loss
    for _ in range(100):
        logp, labels = random_instance(rng, max_T=6)
        g = logits_gradient(logp, ctc_loss(logp, labels).grad)
        for t in range(logp.shape[0]):
            for k in range(logp.shape[1]):
                up, dn = logp.copy(), logp.copy()
                up[t, k] += h
                dn[t, k] -= h
                fd = (
                    ctc_loss(norm_rows(up), labels).loss
                    - ctc_loss(norm_rows(dn), labels).loss
                ) / (2 * h)
                assert abs(fd - g[t, k]) <= 1e-6 * max(1.0, abs(fd))

    # model parameter gradient through the log-softmax output
    m = init_model(ModelConfig(feat_dim=3, n_outputs=3, context=1, hidden=4, seed=0))
    for _ in range(100):
        T = int(rng.integers(3, 7))
        x = rng.standard_normal((T, 3))
        labels = tuple(int(i) for i in rng.integers(1, 3, size=rng.integers(1, 3)))
        grads = backward(m, x, ctc_loss(forward(m, x), labels).grad)
        for name in ("w1", "b1", "w2", "b2"):
            tensor = getattr(m, name)
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + h
                up = ctc_loss(forward(m, x), labels).loss
                tensor[idx] = orig - h
                dn = ctc_loss(forward(m, x), labels).loss
                tensor[idx] = orig
                fd = (up - dn) / (2 * h)
                assert abs(fd - grads[name][idx]) <= 1e-5 * max(1.0, abs(fd))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 2: 100+100 gradient checks, {elapsed:.1f}s")


def test_criterion_3_mh_loss_identities():
    """Additivity, product form, N=1 degeneracy, hypothesis-order symmetry."""
    rng = np.random.default_rng(103)
    start = time.monotonic()

    for _ in range(500):  # additivity: combined loss equals the sum of parts
        logp, c1 = random_instance(rng, max_T=6)
        c2 = _feasible_labels(rng, logp)
        hs = (c1, c2)
        res = mh_ctc_loss(logp, hs)
        parts = [ctc_loss(logp, c).loss for c in (c1, c2)]
        assert abs(res.loss - sum(parts)) <= 1e-12 * max(1.0, abs(res.loss))
        assert abs(res.loss - sum(res.per_hypothesis)) <= 1e-12

    for _ in range(500):  # product form against double brute-force enumeration
        logp, c1 = random_instance(rng, max_T=6)
        c2 = _feasible_labels(rng, logp)
        hs = (c1, c2)
        loss = mh_ctc_loss(logp, hs).loss
        oracle = product_form_check(logp, c1, c2)
        assert abs(loss - oracle) <= 1e-10 * max(1.0, abs(oracle))

    for _ in range(500):  # N=1 degenerates to the plain loss
        logp, c1 = random_instance(rng, max_T=6)
        single = mh_ctc_loss(logp, (c1,))
        assert abs(single.loss - ctc_loss(logp, c1).loss) <= 1e-15

    for _ in range(500):  # hypothesis order never matters
        logp, c1 = random_instance(rng, max_T=6)
        c2 = _feasible_labels(rng, logp)
        ab = mh_ctc_loss(logp, (c1, c2))
        ba = mh_ctc_loss(logp, (c2, c1))
        assert abs(ab.loss - ba.loss) <= 1e-12
        np.testing.assert_allclose(ab.grad, ba.grad, atol=1e-12)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 3: 4x500 identities, {elapsed:.1f}s")


def _feasible_labels(rng, logp):
    from mhctc.ctc import min_frames

    T, K = logp.shape
    while True:
        L = int(rng.integers(0, 4))
        labels = tuple(int(i) for i in rng.integers(1, K, size=L))
        if min_frames(labels) <= T:
            return labels


def test_criterion_4_decoder_oracle():
    """Saturating-beam search equals exhaustive most-probable labeling."""
    rng = np.random.default_rng(104)
    for _ in range(200):
        T = int(rng.integers(1, 6))
        n_syms = int(rng.integers(1, 3))
        logp = random_logp(rng, T, n_syms + 1)
        cfg = DecodeConfig(beam_width=(n_syms + 1) ** T)
        hyp = beam_decode(logp, cfg)
        labels, log_mass = exhaustive_best_labeling(logp)
        assert hyp.labels == labels
        assert abs(hyp.log_prob - log_mass) <= 1e-9
    print("criterion 4: 200 beam-oracle instances")


def test_criterion_5_edit_distance_oracle_and_axioms():
    """DP edit distance matches the recursive oracle; metric axioms hold."""
    rng = np.random.default_rng(105)

    def rand_seq():
        return tuple(int(i) for i in rng.integers(0, 4, size=rng.integers(0, 9)))

    for _ in range(500):
        ref, hyp = rand_seq(), rand_seq()
        got = edit_distance(ref, hyp).errors
        assert got == recursive_edit_distance(ref, hyp)

    for _ in range(200):  # metric axioms on random triples
        a, b, c = rand_seq(), rand_seq(), rand_seq()
        dab = edit_distance(a, b).errors
        assert edit_distance(a, a).errors == 0
        assert dab >= 0
        assert dab == edit_distance(b, a).errors
        assert (dab == 0) == (a == b)
        assert edit_distance(a, c).errors <= dab + edit_distance(b, c).errors
    print("criterion 5: 500 oracle pairs + 200 axiom triples")


def test_criterion_6_condition_ordering(tmp_path):
    """Default-plan grid reproduces the qualitative condition ordering.

    Over 5 seeds and both scenarios: supervised-all has the lowest mean
    WER; mh-ctc lies strictly below the supervised-labeled baseline; and
    neither single-hypothesis semi-supervised condition beats mh-ctc.
    """
    plan = ExperimentPlan()
    start = time.monotonic()
    report, _ = run_experiment(plan, tmp_path)
    elapsed = time.monotonic() - start
    assert elapsed < 900.0, f"grid took {elapsed:.0f}s"

    for scenario in plan.scenarios:
        summary = report["scenarios"][scenario]["summary"]
        mean = {c: summary[c]["mean_wer"] for c in plan.conditions}
        assert mean["supervised-all"] == min(mean.values()), (scenario, mean)
        assert mean["mh-ctc"] < mean["supervised-labeled"], (scenario, mean)
        assert mean["mh-ctc"] <= mean["semi-sup-A"], (scenario, mean)
        assert mean["mh-ctc"] <= mean["semi-sup-B"], (scenario, mean)
        assert mean["supervised-labeled"] <= mean["no-adapt"], (scenario, mean)
        rel = report["scenarios"][scenario]["relative_reduction_mh_vs_baseline"]
        assert rel > 0.0
        print(
            f"criterion 6 [{scenario}]: "
            + "  ".join(f"{c}={v:.2f}" for c, v in mean.items())
            + f"  rel-reduction={rel:.1f}%"
        )
    print(f"criterion 6: grid in {elapsed:.0f}s")


def test_criterion_7_experiment_determinism(tmp_path):
    """Identical configs produce byte-identical reports and checkpoints."""
    plan = ExperimentPlan(
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
    _, dir_a = run_experiment(plan, out_dir=tmp_path / "a")
    _, dir_b = run_experiment(plan, out_dir=tmp_path / "b")
    assert (dir_a / "report.json").read_bytes() == (dir_b / "report.json").read_bytes()
    assert (dir_a / "report.txt").read_bytes() == (dir_b / "report.txt").read_bytes()
    ckpts_a = sorted(dir_a.rglob("*.ckpt"))
    assert ckpts_a
    for ckpt in ckpts_a:
        twin = dir_b / ckpt.relative_to(dir_a)
        assert ckpt.read_bytes() == twin.read_bytes()
    print(f"criterion 7: {len(ckpts_a)} checkpoints byte-identical")


def test_criterion_8_feature_sanity():
    """Tone-to-band argmax for both front-ends; exact SNR mixing."""
    cfg = SynthConfig(alphabet=DEFAULT_ALPHABET, noise_kind="none", seed=0)
    pairs = symbol_band_centers(DEFAULT_ALPHABET)
    rng = np.random.default_rng(108)
    for kind, fn, nb in (("fbank", fbank, 16), ("ste", ste, 12)):
        fcfg = FeatureConfig(kind=kind, n_bands=nb)
        centers = mel_center_frequencies(nb, SAMPLE_RATE)
        for sym in range(1, len(DEFAULT_ALPHABET.symbols) + 1):
            labels = (sym,) * 3
            u = Utterance(
                id=f"{kind}-{sym}",
                waveform=render_signal(cfg, labels, rng),
                labels=labels,
                sample_rate=SAMPLE_RATE,
                condition="clean",
            )
            band = int(np.argmax(fn(u, fcfg)[:, :nb].mean(axis=0)))
            f1, f2 = pairs[sym - 1]
            nearest = {int(np.argmin(np.abs(centers - f))) for f in (f1, f2)}
            assert band in nearest, (kind, sym, band, nearest)

    for noise_kind in ("white", "babble", "bandlimited"):
        for target in (0.0, 10.0):
            noisy_cfg = SynthConfig(
                alphabet=DEFAULT_ALPHABET,
                noise_kind=noise_kind,
                snr_db=target,
                seed=42,
            )
            u = synth_utterance(noisy_cfg, "snr", 5, np.random.SeedSequence(7))
            realized = 10.0 * np.log10(u.signal_power / u.noise_power)
            assert abs(realized - target) <= 0.1, (noise_kind, target, realized)
    print("criterion 8: band argmax (10 cases) + SNR within 0.1 dB (6 cases)")
