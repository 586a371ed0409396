import numpy as np
import pytest
from helpers import (
    fbank_reference,
    mel_center_frequencies,
    ste_reference,
    triangle_weights_reference,
)

from mhctc.alphabet import LabelAlphabet
from mhctc.audio import (
    NOISE_KINDS,
    SAMPLE_RATE,
    SynthConfig,
    Utterance,
    load_corpus,
    make_noise,
    mix_at_snr,
    save_corpus,
    symbol_band_centers,
    synth_corpus,
)
from mhctc.errors import ConfigError, TooShort
from mhctc.features import (
    FeatureConfig,
    _triangle_weights,
    compute_deltas,
    extract,
    fbank,
    ste,
)

ALPHABET = LabelAlphabet(tuple("abcde"))


def tone(freq, seconds=0.5):
    t = np.arange(int(SAMPLE_RATE * seconds)) / SAMPLE_RATE
    return Utterance(id="tone", waveform=0.8 * np.sin(2 * np.pi * freq * t), labels=())


def silence(seconds=0.3):
    return Utterance(id="sil", waveform=np.zeros(int(SAMPLE_RATE * seconds)), labels=())


class TestSynth:
    def test_empty_corpus(self):
        assert synth_corpus(SynthConfig(alphabet=ALPHABET), 0, (4, 10)) == []

    def test_snr_realized(self):
        cfg = SynthConfig(alphabet=ALPHABET, noise_kind="babble", snr_db=10.0, seed=1)
        for u in synth_corpus(cfg, 5, (4, 10)):
            realized = 10 * np.log10(u.signal_power / u.noise_power)
            assert realized == pytest.approx(10.0, abs=0.1)

    def test_determinism(self):
        cfg = SynthConfig(alphabet=ALPHABET, noise_kind="bandlimited", seed=4)
        a = synth_corpus(cfg, 4, (4, 10))
        b = synth_corpus(cfg, 4, (4, 10))
        for ua, ub in zip(a, b):
            assert ua.labels == ub.labels
            np.testing.assert_array_equal(ua.waveform, ub.waveform)

    def test_peak_bounded(self):
        cfg = SynthConfig(alphabet=ALPHABET, noise_kind="babble", snr_db=0.0, seed=2)
        for u in synth_corpus(cfg, 5, (4, 10)):
            assert np.max(np.abs(u.waveform)) <= 1.0

    def test_band_centers_separated(self):
        centers = symbol_band_centers(ALPHABET)
        flat = sorted(f for pair in centers for f in pair)
        assert min(b - a for a, b in zip(flat, flat[1:])) >= 200.0

    def test_mix_at_snr_exact(self):
        rng = np.random.default_rng(0)
        sig = rng.standard_normal(1000)
        noise = make_noise("babble", 1000, rng)
        _, ps, pn = mix_at_snr(sig, noise, 7.0)
        assert 10 * np.log10(ps / pn) == pytest.approx(7.0, abs=1e-9)

    def test_corpus_roundtrip(self, tmp_path):
        cfg = SynthConfig(alphabet=ALPHABET, noise_kind="babble", seed=3)
        corpus = synth_corpus(cfg, 3, (4, 10))
        manifest = save_corpus(corpus, ALPHABET, tmp_path)
        loaded, alphabet = load_corpus(manifest)
        assert alphabet.symbols == ALPHABET.symbols
        assert [u.id for u in loaded] == [u.id for u in corpus]
        assert [u.labels for u in loaded] == [u.labels for u in corpus]
        for a, b in zip(loaded, corpus):
            np.testing.assert_allclose(a.waveform, b.waveform, atol=1e-4)


class TestFbank:
    def test_tone_band_argmax(self):
        cfg = FeatureConfig(kind="fbank")
        centers = mel_center_frequencies(cfg.n_bands)
        feats = fbank(tone(1000.0), cfg)[:, :cfg.n_bands]
        expected = int(np.argmin(np.abs(centers - 1000.0)))
        assert int(np.argmax(feats.mean(axis=0))) == expected

    def test_silence_is_floor(self):
        cfg = FeatureConfig(kind="fbank")
        feats = fbank(silence(), cfg)[:, :cfg.n_bands]
        np.testing.assert_allclose(feats, np.log(1e-10), atol=1e-12)

    def test_deltas_of_constant_are_zero(self):
        static = np.tile([1.0, -2.0, 0.5], (20, 1))
        np.testing.assert_allclose(compute_deltas(static), 0.0, atol=1e-9)

    def test_too_short(self):
        with pytest.raises(TooShort):
            fbank(silence(seconds=0.01), FeatureConfig(kind="fbank"))

    def test_dimension_contract(self):
        u = tone(800.0)
        assert fbank(u, FeatureConfig(kind="fbank")).shape[1] == 48
        assert FeatureConfig(kind="fbank").dim == 48


class TestSte:
    def test_tone_band_argmax(self):
        cfg = FeatureConfig(kind="ste")
        centers = mel_center_frequencies(cfg.n_bands)
        for k in (2, 5, 8):
            feats = ste(tone(float(centers[k])), cfg)[:, :cfg.n_bands]
            assert int(np.argmax(feats.mean(axis=0))) == k

    def test_silence_is_floor(self):
        feats = ste(silence(), FeatureConfig(kind="ste"))[:, :12]
        np.testing.assert_allclose(feats, np.log(1e-10), atol=1e-12)

    def test_differs_from_fbank(self):
        u = tone(1200.0)
        a = fbank(u, FeatureConfig(kind="fbank", n_bands=12))
        b = ste(u, FeatureConfig(kind="ste"))
        assert a.shape == b.shape
        assert not np.allclose(a, b)

    def test_frame_count_agreement(self):
        cfg_f = FeatureConfig(kind="fbank")
        cfg_s = FeatureConfig(kind="ste")
        corpus = synth_corpus(SynthConfig(alphabet=ALPHABET, seed=5), 3, (4, 10))
        for u in corpus:
            assert fbank(u, cfg_f).shape[0] == ste(u, cfg_s).shape[0]


@pytest.fixture(scope="module")
def reference_cases():
    """Seeded utterances for the front ends' identity tests.

    Every noise kind, plus white-noise waveforms whose lengths take
    pocketfft's slow paths (the primes 4,099 and 6,337, which it transforms
    by Bluestein's algorithm, and 8,716 = 4 * 2,179) and one of exactly
    one 25 ms frame (200 samples).
    """
    utts = [u for kind in NOISE_KINDS
            for u in synth_corpus(SynthConfig(alphabet=ALPHABET, noise_kind=kind, seed=7), 2,
                                  (4, 10))]
    rng = np.random.default_rng(9)
    for n in (4099, 8716, 200, 6337):
        utts.append(Utterance(id=f"n{n}", waveform=0.3 * rng.standard_normal(n), labels=()))
    return utts


BAND_COUNTS = pytest.mark.parametrize("n_bands", [12, 1, 5, 16, 24],
                                      ids=lambda n: f"{n}-band" + "s" * (n > 1))


@BAND_COUNTS
def test_ste_matches_per_band_reference(reference_cases, n_bands):
    cfg = FeatureConfig(kind="ste", n_bands=n_bands)
    for u in reference_cases:
        assert ste(u, cfg).tobytes() == ste_reference(u, cfg).tobytes(), u.id


@BAND_COUNTS
def test_fbank_matches_gathered_reference(reference_cases, n_bands):
    cfg = FeatureConfig(kind="fbank", n_bands=n_bands)
    for u in reference_cases:
        assert fbank(u, cfg).tobytes() == fbank_reference(u, cfg).tobytes(), u.id


def test_fbank_filterbank_is_built_once_per_front_end():
    cfg = FeatureConfig(kind="fbank", n_bands=16)
    u = tone(1000.0)
    first = fbank(u, cfg)
    # one 25 ms frame at 8 kHz is 200 samples
    fb = _triangle_weights(16)
    assert fb.shape == (16, 101) and not fb.flags.writeable
    assert fb.tobytes() == triangle_weights_reference(200, 16).tobytes()
    assert _triangle_weights(16) is fb
    assert fbank(u, cfg).tobytes() == first.tobytes()


class TestFeatureCache:
    def test_each_front_end_owns_its_band_count(self):
        # systems A and B of the grid: FBANK at 16 bands, STE at 12
        assert [FeatureConfig(kind=k).n_bands for k in ("fbank", "ste")] == [16, 12]
        assert FeatureConfig() == FeatureConfig(kind="fbank", n_bands=16)
        assert FeatureConfig(kind="ste", n_bands=8).n_bands == 8
        with pytest.raises(ConfigError, match="n_bands must be a positive integer"):
            FeatureConfig(kind="ste", n_bands=0)

    def test_unknown_kind_rejected(self):
        # extract dispatches on the kind, so the config is where it is checked
        with pytest.raises(ConfigError, match="kind must be 'fbank' or 'ste', got 'mfcc'"):
            FeatureConfig(kind="mfcc")

    def test_extract_dispatch(self):
        u = tone(700.0)
        np.testing.assert_array_equal(
            extract(u, FeatureConfig(kind="ste")), ste(u, FeatureConfig(kind="ste"))
        )
