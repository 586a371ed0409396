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
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import butter, filtfilt

from .audio import SAMPLE_RATE
from .errors import Positive, TooShort, check_fields, choices

LOG_FLOOR_VALUE = 1e-10
FRAME_MS = 25.0
HOP_MS = 10.0
FRAME_LEN = int(round(FRAME_MS * SAMPLE_RATE / 1000.0))  # 200 samples
HOP_LEN = int(round(HOP_MS * SAMPLE_RATE / 1000.0))  # 80 samples
FMIN_HZ = 100.0  # lowest mel band edge
ENV_CUTOFF_HZ = 30.0  # STE envelope low-pass
BANDS = {"fbank": 16, "ste": 12}  # each front end's band count: systems A and B of the grid


@dataclass(frozen=True)
class FeatureConfig:
    kind: choices(tuple(BANDS)) = "fbank"
    n_bands: Positive = None  # None: the front end's own count, BANDS[kind]

    def __post_init__(self):
        if self.n_bands is None and self.kind in tuple(BANDS):  # else check_fields names kind
            object.__setattr__(self, "n_bands", BANDS[self.kind])
        check_fields(self)

    @property
    def dim(self):
        return 3 * self.n_bands


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_band_edges(n_bands):
    """n_bands + 2 mel-spaced edge frequencies from FMIN_HZ to Nyquist."""
    mels = np.linspace(hz_to_mel(FMIN_HZ), hz_to_mel(SAMPLE_RATE / 2.0), n_bands + 2)
    return mel_to_hz(mels)


@lru_cache(maxsize=8)
def _triangle_weights(n_bands):
    """Read-only n_bands x (FRAME_LEN // 2 + 1) triangular filterbank over one frame's rfft bins."""
    freqs = np.fft.rfftfreq(FRAME_LEN, 1.0 / SAMPLE_RATE)
    edges = mel_band_edges(n_bands)[:, None]
    lo, ctr, hi = edges[:-2], edges[1:-1], edges[2:]
    rise = (freqs - lo) / np.maximum(ctr - lo, 1e-12)
    fall = (hi - freqs) / np.maximum(hi - ctr, 1e-12)
    weights = np.maximum(np.minimum(rise, fall), 0.0)
    weights.flags.writeable = False
    return weights


def _frames(x):
    """Strided view [..., n_frames, FRAME_LEN] of x's 25 ms frames, 10 ms apart, on its last axis."""
    if x.shape[-1] < FRAME_LEN:
        raise TooShort(f"waveform of {x.shape[-1]} samples < one {FRAME_LEN}-sample frame")
    return sliding_window_view(x, FRAME_LEN, axis=-1)[..., ::HOP_LEN, :]


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
    frames = _frames(np.asarray(utt.waveform, dtype=np.float64))
    spec = np.abs(np.fft.rfft(frames * np.hanning(FRAME_LEN), axis=1))
    fb = _triangle_weights(cfg.n_bands)
    static = np.log(np.maximum(spec @ fb.T, LOG_FLOOR_VALUE))
    return _append_deltas(static)


def _gaussian_weights(freqs, edges):
    """Smooth overlapping band filters: unit gain at each band center.

    Gaussian response avoids the dead zones of hard-edged masks, so band
    outputs vary smoothly as a tone moves in frequency.
    """
    edges = edges[:, None]
    sigma = np.maximum((edges[2:] - edges[:-2]) / 4.0, 1e-6)
    return np.exp(-0.5 * ((freqs - edges[1:-1]) / sigma) ** 2)


@lru_cache(maxsize=1)
def _envelope_filter():
    """(b, a) of the 4th-order Butterworth low-pass that smooths each band envelope."""
    return butter(4, ENV_CUTOFF_HZ / (SAMPLE_RATE / 2.0))


def ste(utt, cfg):
    """Subband temporal envelope features for one utterance.

    Byte-identical to one irfft, filtfilt and framed mean per band. Each
    row of the batched irfft and filtfilt runs the same 1-D computation
    as a call on that row alone. The strided frame view keeps each
    frame's samples adjacent on its last axis, so the mean sums every
    frame pairwise, as a mean of that frame alone does; a gathered copy
    ``env[:, idx]`` puts the band axis innermost and sums in another order.
    """
    x = np.asarray(utt.waveform, dtype=np.float64)
    _frames(x)  # the length check: a frame is longer than filtfilt's 15-sample edge padding
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, 1.0 / SAMPLE_RATE)
    edges = mel_band_edges(cfg.n_bands)
    # masks and the complex bands stay unnamed, so they are freed before
    # filtfilt makes its three n_bands x n_samples copies
    bands = np.abs(np.fft.irfft(spec * _gaussian_weights(freqs, edges), x.size, axis=1))
    env = filtfilt(*_envelope_filter(), bands, axis=1)
    static = np.log(np.maximum(_frames(env).mean(axis=-1), LOG_FLOOR_VALUE))
    return _append_deltas(static.T)


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

