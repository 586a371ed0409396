"""FBANK and STE feature front-ends with delta/acceleration appending.

FBANK: Hann window -> magnitude STFT -> mel triangular filterbank -> log.
STE:   mel-spaced Gaussian band weights applied to the full spectrum ->
       per-band time-domain envelope (full-wave rectify + 30 Hz low-pass)
       -> frame average -> log.
Both use the same framing, so frame counts always agree.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import butter, filtfilt

from .errors import ConfigError, TooShort, check_ints, check_reals

LOG_FLOOR_VALUE = 1e-10


@dataclass(frozen=True)
class FeatureConfig:
    kind: str = "fbank"
    n_bands: int = 12
    frame_ms: float = 25.0
    hop_ms: float = 10.0
    add_deltas: bool = True
    fmin: float = 100.0
    env_cutoff_hz: float = 30.0

    def __post_init__(self):
        if self.kind not in ("fbank", "ste"):
            raise ConfigError("feature kind must be 'fbank' or 'ste'")
        check_ints(1, n_bands=self.n_bands)
        check_reals(0, strict=True, frame_ms=self.frame_ms, hop_ms=self.hop_ms,
                    env_cutoff_hz=self.env_cutoff_hz)
        check_reals(0, fmin=self.fmin)
        if type(self.add_deltas) is not bool:
            raise ConfigError(f"add_deltas must be a bool, got {self.add_deltas!r}")

    @property
    def dim(self):
        return self.n_bands * 3 if self.add_deltas else self.n_bands


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_band_edges(n_bands, sample_rate, fmin):
    """n_bands + 2 mel-spaced edge frequencies from fmin to Nyquist."""
    fmax = sample_rate / 2.0
    mels = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_bands + 2)
    return mel_to_hz(mels)


def mel_center_frequencies(n_bands, sample_rate, fmin=100.0):
    return mel_band_edges(n_bands, sample_rate, fmin)[1:-1]


@lru_cache(maxsize=8)
def _triangle_weights(flen, sample_rate, n_bands, fmin):
    """Read-only n_bands x (flen // 2 + 1) triangular filterbank over one frame's rfft bins."""
    freqs = np.fft.rfftfreq(flen, 1.0 / sample_rate)
    edges = mel_band_edges(n_bands, sample_rate, fmin)
    weights = np.zeros((n_bands, freqs.size))
    for k in range(n_bands):
        lo, ctr, hi = edges[k], edges[k + 1], edges[k + 2]
        up = (freqs >= lo) & (freqs < ctr)
        down = (freqs >= ctr) & (freqs < hi)
        weights[k, up] = (freqs[up] - lo) / max(ctr - lo, 1e-12)
        weights[k, down] = (hi - freqs[down]) / max(hi - ctr, 1e-12)
    weights.flags.writeable = False
    return weights


def _check_below_nyquist(sample_rate, **freqs):
    for name, hz in freqs.items():
        if hz >= sample_rate / 2.0:
            raise ConfigError(
                f"{name} {hz:g} Hz is not below the {sample_rate / 2.0:g} Hz Nyquist frequency"
            )


def _framing(n_samples, sample_rate, cfg):
    flen = int(round(cfg.frame_ms * sample_rate / 1000.0))
    hop = int(round(cfg.hop_ms * sample_rate / 1000.0))
    if min(flen, hop) < 1:
        raise ConfigError(
            f"frame_ms {cfg.frame_ms:g} and hop_ms {cfg.hop_ms:g} must each span"
            f" at least one sample at {sample_rate} Hz"
        )
    if n_samples < flen:
        raise TooShort(f"waveform of {n_samples} samples < one {flen}-sample frame")
    n_frames = (n_samples - flen) // hop + 1
    return flen, hop, n_frames


def compute_deltas(static, window=2):
    """Regression deltas over +/- ``window`` frames, edge-replicated."""
    T = static.shape[0]
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    padded = np.concatenate(
        [np.repeat(static[:1], window, axis=0), static, np.repeat(static[-1:], window, axis=0)]
    )
    out = np.zeros_like(static)
    for n in range(1, window + 1):
        out += n * (padded[window + n : window + n + T] - padded[window - n : window - n + T])
    return out / denom


def _append_deltas(static):
    d1 = compute_deltas(static)
    d2 = compute_deltas(d1)
    return np.concatenate([static, d1, d2], axis=1)


def fbank(utt, cfg):
    """Log-mel filterbank features for one utterance."""
    if cfg.kind != "fbank":
        raise ConfigError("fbank() requires cfg.kind == 'fbank'")
    x = np.asarray(utt.waveform, dtype=np.float64)
    sr = utt.sample_rate
    _check_below_nyquist(sr, fmin=cfg.fmin)
    flen, hop, n_frames = _framing(x.size, sr, cfg)
    idx = np.arange(flen)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = x[idx] * np.hanning(flen)
    spec = np.abs(np.fft.rfft(frames, axis=1))
    fb = _triangle_weights(flen, sr, cfg.n_bands, cfg.fmin)
    static = np.log(np.maximum(spec @ fb.T, LOG_FLOOR_VALUE))
    return _append_deltas(static) if cfg.add_deltas else static


def _gaussian_weights(freqs, edges):
    """Smooth overlapping band filters: unit gain at each band center.

    Gaussian response avoids the dead zones of hard-edged masks, so band
    outputs vary smoothly as a tone moves in frequency.
    """
    n_bands = len(edges) - 2
    weights = np.zeros((n_bands, freqs.size))
    for k in range(n_bands):
        ctr = edges[k + 1]
        sigma = max((edges[k + 2] - edges[k]) / 4.0, 1e-6)
        weights[k] = np.exp(-0.5 * ((freqs - ctr) / sigma) ** 2)
    return weights


@lru_cache(maxsize=8)
def _envelope_filter(cutoff_hz, sample_rate):
    """(b, a) of the 4th-order Butterworth low-pass that smooths each band envelope."""
    return butter(4, cutoff_hz / (sample_rate / 2.0))


def ste(utt, cfg):
    """Subband temporal envelope features for one utterance.

    Each row of the batched irfft and filtfilt runs the same 1-D
    computation as a call on that band alone, so the result is
    bit-identical to a per-band loop.  The framed mean stays per band:
    a 3-D mean sums in another order and changes the last bits.
    """
    if cfg.kind != "ste":
        raise ConfigError("ste() requires cfg.kind == 'ste'")
    x = np.asarray(utt.waveform, dtype=np.float64)
    sr = utt.sample_rate
    _check_below_nyquist(sr, fmin=cfg.fmin, env_cutoff_hz=cfg.env_cutoff_hz)
    flen, hop, n_frames = _framing(x.size, sr, cfg)
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, 1.0 / sr)
    edges = mel_band_edges(cfg.n_bands, sr, cfg.fmin)
    # masks and the complex bands stay unnamed, so they are freed before
    # filtfilt makes its three n_bands x n_samples copies
    bands = np.abs(np.fft.irfft(spec * _gaussian_weights(freqs, edges), x.size, axis=1))
    env = filtfilt(*_envelope_filter(cfg.env_cutoff_hz, sr), bands, axis=1)
    static = np.zeros((n_frames, cfg.n_bands))
    idx = np.arange(flen)[None, :] + hop * np.arange(n_frames)[:, None]
    for k in range(cfg.n_bands):
        static[:, k] = np.log(np.maximum(env[k][idx].mean(axis=1), LOG_FLOOR_VALUE))
    return _append_deltas(static) if cfg.add_deltas else static


def extract(utt, cfg):
    return fbank(utt, cfg) if cfg.kind == "fbank" else ste(utt, cfg)


def cmn(feats):
    """Per-utterance mean subtraction, dimension-wise.

    Removes stationary gain and spectral tilt from log-domain features,
    which narrows the train/test mismatch under additive noise. Variance
    is left untouched: scaling it away also removes the energy contrast
    the models rely on.
    """
    return feats - feats.mean(axis=0, keepdims=True)

