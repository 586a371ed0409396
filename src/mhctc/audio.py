"""Synthetic waveform corpus with controllable additive-noise mismatch.

Each alphabet symbol is rendered as a pair of sinusoids at symbol-specific
band centers under a Hann amplitude envelope; utterances concatenate the
symbols of a random transcription.  Noise (wideband babble-like or
band-limited) is mixed at an exact target SNR.
"""

import json
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alphabet import LabelAlphabet
from .errors import (
    ConfigError, InvalidInput, NonNegative, check_fields, check_value, choices, instance, ints,
    read_json, reals, source,
)

NOISE_KINDS = ("none", "white", "babble", "bandlimited")
RECORD_TYPES = dict(id=str, path=str, transcription=str)  # other keys are ignored
SAMPLE_RATE = 8000  # the one rate of every corpus, in Hz
SYMBOL_MS = (80, 140)  # range of one symbol's duration


@dataclass(frozen=True)
class SynthConfig:
    alphabet: instance(LabelAlphabet, "a LabelAlphabet")
    noise_kind: choices(NOISE_KINDS) = "none"
    snr_db: reals() = 10.0
    snr_spread_db: reals(0) = 0.0  # per-utterance SNR = snr_db +/- spread
    freq_jitter: reals(0) = 0.0  # relative band-center jitter per symbol instance
    amp_jitter: reals(0, 1) = 0.0  # relative amplitude jitter per symbol instance
    seed: NonNegative = 0

    def __post_init__(self):
        check_fields(self)
        # 10 ** (snr / 10) within 1e+/-300 leaves mix_at_snr's products room to stay
        # finite and non-zero: at -3083 dB its noise power overflows, at -3230 dB it divides by 0
        if abs(self.snr_db) + self.snr_spread_db > 3000:
            raise ConfigError(f"snr_db +/- snr_spread_db must lie within +/-3000 dB,"
                              f" got {self.snr_db!r} +/- {self.snr_spread_db!r}")
        top = symbol_band_centers(self.alphabet)[-1][1]  # raises if the alphabet does not fit
        if self.freq_jitter >= 1 or top * (1 + self.freq_jitter) >= SAMPLE_RATE / 2:
            raise ConfigError(f"freq_jitter must be below 1 and keep the highest tone ({top:g} Hz)"
                              f" below {SAMPLE_RATE // 2} Hz, got {self.freq_jitter!r}")


@dataclass(eq=False)  # hashed by identity: the feature cache keys on the utterance
class Utterance:
    id: str
    waveform: np.ndarray
    labels: tuple
    signal_power: float = 0.0
    noise_power: float = 0.0


def symbol_band_centers(alphabet):
    """(low, high) formant-like center pair per symbol, >=200 Hz apart."""
    n = alphabet.n_symbols
    if n == 0:
        raise ConfigError("alphabet must hold at least one symbol")
    lo0, hi0 = 500.0, 1900.0
    step = max(250.0, 1400.0 / n)
    centers = []
    for i in range(n):
        f1 = lo0 + i * step
        f2 = hi0 + i * step
        if f2 >= SAMPLE_RATE / 2:
            raise ConfigError("alphabet too large for the sample rate")
        centers.append((f1, f2))
    return centers


def _render_symbol(f1, f2, n_samples):
    t = np.arange(n_samples) / SAMPLE_RATE
    env = np.hanning(n_samples)
    return env * 0.45 * (np.sin(2 * np.pi * f1 * t) + np.sin(2 * np.pi * f2 * t))


def render_signal(cfg, labels, rng):
    """Concatenated symbol tones for one transcription."""
    centers = symbol_band_centers(cfg.alphabet)
    lo, hi = SYMBOL_MS
    pieces = []
    for lab in labels:
        ms = rng.uniform(lo, hi)
        n = max(8, int(round(ms * SAMPLE_RATE / 1000.0)))
        f1, f2 = centers[lab - 1]
        if cfg.freq_jitter > 0.0:
            f1 *= rng.uniform(1.0 - cfg.freq_jitter, 1.0 + cfg.freq_jitter)
            f2 *= rng.uniform(1.0 - cfg.freq_jitter, 1.0 + cfg.freq_jitter)
        piece = _render_symbol(f1, f2, n)
        if cfg.amp_jitter > 0.0:
            piece = piece * rng.uniform(1.0 - cfg.amp_jitter, 1.0)
        pieces.append(piece)
    return np.concatenate(pieces)


def make_noise(kind, n_samples, rng):
    """Unit-scale noise of the requested kind at SAMPLE_RATE."""
    white = rng.standard_normal(n_samples)
    if kind == "white":
        return white
    if kind == "babble":
        # wideband, low-frequency weighted and slowly amplitude-modulated,
        # crudely speech-shaped
        spec = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n_samples, 1.0 / SAMPLE_RATE)
        spec *= 1.0 / np.sqrt(1.0 + (freqs / 800.0) ** 2)
        shaped = np.fft.irfft(spec, n_samples)
        t = np.arange(n_samples) / SAMPLE_RATE
        rate = rng.uniform(2.0, 6.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        envelope = 0.3 + 0.7 * 0.5 * (1.0 + np.sin(2 * np.pi * rate * t + phase))
        return shaped * envelope
    if kind == "bandlimited":
        spec = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n_samples, 1.0 / SAMPLE_RATE)
        spec[(freqs < 700.0) | (freqs > 2600.0)] = 0.0
        return np.fft.irfft(spec, n_samples)
    raise ConfigError(f"unknown noise kind {kind!r}")


def mix_at_snr(signal, noise, snr_db):
    """Scale ``noise`` so that 10*log10(Ps/Pn) equals ``snr_db`` exactly."""
    ps = float(np.mean(signal**2))
    pn = float(np.mean(noise**2))
    if pn <= 0.0:
        raise InvalidInput("noise has zero power")
    scale = np.sqrt(ps / (pn * 10.0 ** (snr_db / 10.0)))
    scaled = noise * scale
    return signal + scaled, ps, float(np.mean(scaled**2))


def synth_utterance(cfg, uid, length, seed_seq):
    rng = np.random.default_rng(seed_seq)
    labels = tuple(int(i) for i in rng.integers(1, cfg.alphabet.n_symbols + 1, length))
    signal = render_signal(cfg, labels, rng)
    if cfg.noise_kind == "none":
        wavef = signal
        ps, pn = float(np.mean(signal**2)), 0.0
    else:
        noise = make_noise(cfg.noise_kind, signal.size, rng)
        snr = cfg.snr_db
        if cfg.snr_spread_db > 0.0:
            snr += rng.uniform(-cfg.snr_spread_db, cfg.snr_spread_db)
        wavef, ps, pn = mix_at_snr(signal, noise, snr)
    peak = float(np.max(np.abs(wavef)))
    if peak > 1.0:
        wavef = wavef / peak  # scales signal and noise equally; SNR preserved
    return Utterance(
        id=uid,
        waveform=wavef,
        labels=labels,
        signal_power=ps,
        noise_power=pn,
    )


def synth_corpus(cfg, n_utts, len_range, id_prefix="utt"):
    """Deterministic corpus: per-utterance seeds spawned from cfg.seed."""
    lmin, lmax = len_range
    check_value("n_utts", n_utts, ints(0))
    if not 1 <= lmin <= lmax:
        raise ConfigError(f"transcription lengths need 1 <= min <= max, got {lmin}..{lmax}")
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(n_utts)
    # lengths drawn from a dedicated stream so they do not perturb rendering
    lengths = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xC0))).integers(
        lmin, lmax + 1, size=n_utts
    )
    return [
        synth_utterance(cfg, f"{id_prefix}{i:04d}", int(lengths[i]), children[i])
        for i in range(n_utts)
    ]


def save_corpus(corpus, alphabet, out_dir):
    """Write mono 16-bit PCM WAVs at SAMPLE_RATE plus a JSON manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for u in corpus:
        wav_path = out / f"{u.id}.wav"
        pcm = np.clip(u.waveform, -1.0, 1.0)
        pcm = (pcm * 32767.0).astype("<i2")
        with wave.open(str(wav_path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(SAMPLE_RATE)
            w.writeframes(pcm.tobytes())
        records.append({"id": u.id, "transcription": alphabet.decode(u.labels),
                        "path": wav_path.name})
    manifest = {"alphabet": list(alphabet.symbols), "utterances": records}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out / "manifest.json"


def _read_pcm(wav):
    """Samples of a mono 16-bit WAV at SAMPLE_RATE; ConfigError otherwise."""
    try:
        with wave.open(str(wav), "rb") as w:
            shape = (w.getnchannels(), 8 * w.getsampwidth(), w.getframerate())
            data = w.readframes(w.getnframes())
    # the wave module raises a bare RuntimeError when a chunk size points past the file
    except (OSError, EOFError, RuntimeError, wave.Error) as exc:
        reason = str(exc) or "a chunk size points past the file"
        raise ConfigError(f"cannot read WAV file {wav}: {reason}") from exc
    if shape != (1, 16, SAMPLE_RATE):
        raise ConfigError(f"{wav} has {shape[0]} channel(s) of {shape[1]}-bit samples at"
                          f" {shape[2]} Hz; expected mono 16-bit at {SAMPLE_RATE} Hz")
    if len(data) % 2:
        raise ConfigError(f"{wav} ends in half a 16-bit sample ({len(data)} data bytes)")
    return np.frombuffer(data, dtype="<i2")


def load_corpus(manifest_path):
    """Read a manifest written by save_corpus; utterance ids must be unique.

    An error names the manifest, then the utterance record it is in.
    """
    manifest_path = Path(manifest_path)
    with source(manifest_path):
        manifest = read_json(manifest_path)
        if not (isinstance(manifest, dict)
                and all(isinstance(manifest.get(key), list) for key in ("utterances", "alphabet"))):
            raise ConfigError('a manifest is a JSON object with lists "utterances" and "alphabet"')
        alphabet = LabelAlphabet(tuple(manifest["alphabet"]))
        corpus, ids = [], set()
        for i, rec in enumerate(manifest["utterances"]):
            kinds = ({key: type(rec.get(key)) for key in RECORD_TYPES}
                     if isinstance(rec, dict) else {})
            if kinds != RECORD_TYPES:
                spec = ", ".join(f"{key} ({kind.__name__})" for key, kind in RECORD_TYPES.items())
                raise ConfigError(f"utterance record {i} needs {spec}")
            if rec["id"] in ids:
                raise ConfigError(f"duplicate utterance id {rec['id']!r}")
            ids.add(rec["id"])
            with source(f"utterance record {i} ({rec['id']!r})"):
                pcm = _read_pcm(manifest_path.parent / rec["path"])
                labels = alphabet.encode(rec["transcription"])
            corpus.append(Utterance(id=rec["id"], waveform=pcm.astype(np.float64) / 32767.0,
                                    labels=labels))
    return corpus, alphabet
