"""Context-window MLP acoustic model with manual backprop and plain SGD.

Maps a T x d feature sequence to T x (n_symbols + 1) log-probabilities:
each frame sees +/- ``context`` neighboring frames (zero padded at the
edges), one tanh hidden layer, log-softmax output.  Small enough that
hand-written reverse mode stays readable; big enough to learn the toy
corpus.
"""

import json
import logging
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from .alphabet import LabelAlphabet
# perfbench/tracing.py rebinds ctc_loss and mh_ctc_loss here
from .ctc import ctc_lattice, ctc_loss, logits_gradient, target_labels  # noqa: F401
from .errors import (
    ConfigError, DivergedError, InfeasibleAlignment, InvalidInput, NonNegative, Positive,
    ShapeError, TooLarge, check_fields, reals, source,
)
from .features import FeatureConfig
from .mh import mh_ctc_loss  # noqa: F401

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"MHCTCKP1"
CHECKPOINT_VERSION = 4
CHECKPOINT_KEYS = {"version", "config", "features", "alphabet", "lineage"}


@dataclass(frozen=True)
class ModelConfig:
    feat_dim: Positive
    n_outputs: Positive
    context: NonNegative = 4
    hidden: Positive = 128
    seed: NonNegative = 0

    def __post_init__(self):
        check_fields(self)


@dataclass
class ModelParams:
    config: ModelConfig
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def copy(self):
        return replace(self, **{k: v.copy() for k, v in self.tensors().items()})

    def tensors(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


@dataclass
class System:
    """What a checkpoint holds: a model, the front end it reads and the alphabet it writes.

    ``lineage`` names the training steps that made it, from ``init:seed=<seed>`` on.
    """

    name: str
    feature_cfg: FeatureConfig
    alphabet: LabelAlphabet
    params: ModelParams
    lineage: tuple = ()


@dataclass
class TrainConfig:
    learning_rate: reals(0, strict=True) = 0.02
    epochs: NonNegative = 10
    batch_size: Positive = 4
    seed: NonNegative = 0
    grad_clip: reals(0, strict=True) = 5.0

    def __post_init__(self):
        check_fields(self)


def _tensor_shapes(config):
    """Shape of every parameter tensor, in ``ModelParams.tensors`` order."""
    d_in = config.feat_dim * (2 * config.context + 1)
    return {
        "w1": (d_in, config.hidden),
        "b1": (config.hidden,),
        "w2": (config.hidden, config.n_outputs),
        "b2": (config.n_outputs,),
    }


def init_model(config):
    """Xavier-uniform initialization, fully determined by config.seed.

    A model too large to allocate raises TooLarge; the config sets no upper bound.
    """
    rng = np.random.default_rng(config.seed)
    shapes = _tensor_shapes(config)
    try:
        lim1 = np.sqrt(6.0 / sum(shapes["w1"]))
        lim2 = np.sqrt(6.0 / sum(shapes["w2"]))
        return ModelParams(
            config=config,
            w1=rng.uniform(-lim1, lim1, size=shapes["w1"]),
            b1=np.zeros(shapes["b1"]),
            w2=rng.uniform(-lim2, lim2, size=shapes["w2"]),
            b2=np.zeros(shapes["b2"]),
        )
    # a size past the memory (MemoryError), past numpy's intp (ValueError) or past a float
    except (MemoryError, ValueError, OverflowError) as exc:
        raise TooLarge(f"cannot allocate the model: {exc}") from exc


def stack_context(x, context):
    """T x d -> T x d*(2w+1) by concatenating +/- w frames, zero padded."""
    T, d = x.shape
    n = 2 * context + 1
    padded = np.zeros((T + n, d))  # one spare row keeps a window to view when T == 0
    padded[context : context + T] = x
    # output row t is the n frames from padded[t] on, contiguous in the flat buffer
    windows = np.lib.stride_tricks.sliding_window_view(padded.ravel(), n * d)[: T * d : d]
    return windows.copy()


def _check_features(params, x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.config.feat_dim:
        raise ShapeError(
            f"expected T x {params.config.feat_dim} features, got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidInput("features contain non-finite values")
    return x


def _forward_activations(params, x):
    """Every intermediate needed for backprop, from features ``_check_features`` passed."""
    xc = stack_context(x, params.config.context)
    h = np.tanh(xc @ params.w1 + params.b1)
    u = h @ params.w2 + params.b2
    logp = u - np.logaddexp.reduce(u, axis=1, keepdims=True)
    return xc, h, logp


def forward(params, x):
    """Per-frame log-probabilities, rows normalized by log-softmax."""
    return _forward_activations(params, _check_features(params, x))[2]


def _backward_from(params, xc, h, logp, grad_logp):
    """Parameter gradients; ``grad_logp`` is d(loss)/d(logp), a float array of ``logp``'s shape.

    The chain rule runs back through log-softmax, the affine output layer,
    tanh, and the affine input layer.
    """
    du = logits_gradient(logp, grad_logp)
    dh = du @ params.w2.T
    dz = dh * (1.0 - h * h)
    return {
        "w1": xc.T @ dz,
        "b1": dz.sum(axis=0),
        "w2": h.T @ du,
        "b2": du.sum(axis=0),
    }


def sgd_train(params, dataset, cfg):
    """Mini-batch SGD on the summed loss over each batch.

    ``dataset`` is a list of (features, target) pairs; a target is a tuple
    of one or more transcriptions (``ctc.target_labels``), so a batch may
    mix N=1 and N>=2 targets.  Every utterance's features and
    target are checked once, before the first epoch; an infeasible
    utterance is logged once and left out of every batch.  A batch whose
    gradient is not finite, as after a non-finite loss, raises DivergedError.
    Returns (new params, per-epoch mean-loss curve); fully deterministic
    given cfg.seed.
    """
    params = params.copy()
    feats = []  # checked once here; the batch step reads them unchecked
    targets = {}  # index of each feasible utterance -> its checked transcriptions
    for i, (x, target) in enumerate(dataset):
        feats.append(_check_features(params, x))
        shape = (len(feats[i]), params.config.n_outputs)
        try:
            targets[i] = target_labels(shape, target)
        except InfeasibleAlignment as exc:
            log.warning("skipping infeasible utterance %d: %s", i, exc)
    rng = np.random.default_rng(cfg.seed)
    curve = []
    n = len(dataset)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        # the batch step stays inline: freeing its arrays on return from a
        # helper tripled the allocator's page faults (see BENCH_8.json)
        for start in range(0, n, cfg.batch_size):
            batch = [i for i in order[start : start + cfg.batch_size] if i in targets]
            if not batch:
                continue
            # every overflow or NaN here reaches the norm test, which reports it once
            with np.errstate(over="ignore", invalid="ignore"):
                acts = [_forward_activations(params, feats[i]) for i in batch]
                results = ctc_lattice([logp for *_, logp in acts], [targets[i] for i in batch])
                grads = {k: np.zeros_like(v) for k, v in params.tensors().items()}
                for (xc, h, logp), res in zip(acts, results):
                    losses.append(res.loss)
                    g = _backward_from(params, xc, h, logp, res.grad)
                    for k in grads:
                        grads[k] += g[k]
                norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            # the one divergence test: a NaN output or a non-finite loss makes the gradient NaN
            if not np.isfinite(norm):
                raise DivergedError(f"non-finite loss or gradient at epoch {epoch}")
            if norm > cfg.grad_clip:
                scale = cfg.grad_clip / norm
                for k in grads:
                    grads[k] *= scale
            for k, tensor in params.tensors().items():
                tensor -= cfg.learning_rate * grads[k]
        curve.append(float(np.mean(losses)) if losses else float("nan"))
    return params, curve


def save_checkpoint(system, path):
    """Deterministic binary container: magic, JSON header, raw tensor bytes.

    The header records the front end the model was trained on and its
    alphabet, which give the model's input and output sizes, so loading a
    checkpoint is enough to extract matching features.  The float64 tensors
    follow in ``ModelParams.tensors`` order, their shapes given by the config.
    A model whose sizes are not the front end's and the alphabet's raises
    ShapeError, as no checkpoint could describe it.
    """
    config = system.params.config
    sizes = (config.feat_dim, config.n_outputs)
    fits = (system.feature_cfg.dim, system.alphabet.n_outputs)
    if sizes != fits:
        raise ShapeError(f"model sizes {sizes} differ from the front end's and alphabet's {fits}")
    header = {
        "version": CHECKPOINT_VERSION,
        "config": {k: getattr(config, k) for k in ("context", "hidden", "seed")},
        "features": asdict(system.feature_cfg),
        "alphabet": list(system.alphabet.symbols),
        "lineage": list(system.lineage),
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(len(blob).to_bytes(8, "little"))
        f.write(blob)
        for tensor in system.params.tensors().values():
            f.write(np.ascontiguousarray(tensor, dtype=np.float64).tobytes())


def _read_header(data):
    """Parsed header and the offset of the first tensor byte."""
    if data[:8] != CHECKPOINT_MAGIC:
        raise InvalidInput("not a checkpoint file")
    end = 16 + int.from_bytes(data[8:16], "little")
    try:
        header = json.loads(data[16:end])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise InvalidInput("checkpoint header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise InvalidInput(f"checkpoint version {header.get('version')!r} is not supported"
                           f" (expected {CHECKPOINT_VERSION})")
    missing, unknown = CHECKPOINT_KEYS - set(header), set(header) - CHECKPOINT_KEYS
    if missing or unknown:
        raise InvalidInput(f"checkpoint header has missing keys {sorted(missing)}"
                           f" and unknown keys {sorted(unknown)}")
    for key in ("alphabet", "lineage"):
        if not isinstance(header[key], list) or not all(isinstance(v, str) for v in header[key]):
            raise InvalidInput(f"checkpoint {key} must be a list of strings")
    return header, end


def load_checkpoint(path):
    """Inverse of save_checkpoint; bit-exact round trip.

    Returns the System, named after the file.  The model's
    input size is the front end's dimension and its output size the
    alphabet's.  A malformed, truncated or inconsistent file raises
    InvalidInput naming the file.
    """
    with open(path, "rb") as f:
        data = f.read()
    with source(path):
        header, offset = _read_header(data)
        try:
            alphabet = LabelAlphabet(tuple(header["alphabet"]))
            feature_cfg = FeatureConfig(**header["features"])
            config = ModelConfig(feat_dim=feature_cfg.dim, n_outputs=alphabet.n_outputs,
                                 **header["config"])
        except (TypeError, ConfigError) as exc:
            raise InvalidInput(f"bad checkpoint config: {exc}") from exc
        tensors = {}
        for name, shape in _tensor_shapes(config).items():
            nbytes = 8 * int(np.prod(shape))
            buf = data[offset : offset + nbytes]
            if len(buf) != nbytes:
                raise InvalidInput(f"truncated: tensor {name} has {len(buf)} of {nbytes} bytes")
            tensors[name] = np.frombuffer(buf).reshape(shape).copy()
            if not np.all(np.isfinite(tensors[name])):
                raise InvalidInput(f"tensor {name} contains non-finite values")
            offset += nbytes
        if offset != len(data):
            raise InvalidInput(f"{len(data) - offset} trailing bytes after the last tensor")
    return System(name=Path(path).stem, feature_cfg=feature_cfg, alphabet=alphabet,
                  params=ModelParams(config=config, **tensors), lineage=tuple(header["lineage"]))
