"""Command-line entry points.

Subcommands:
  synth       build a synthetic corpus (WAVs + manifest)
  train       train an acoustic model on a corpus
  adapt       adapt a trained model under one condition
  decode      decode a corpus with a trained model
  score       score a hypothesis file against a reference file
  experiment  run the full comparison grid from a JSON config

Exit codes: 0 success, 2 configuration error, 3 stage failure.
"""

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .alphabet import LabelAlphabet
from .audio import NOISE_KINDS, SynthConfig, load_corpus, save_corpus, synth_corpus
from .decode import DecodeConfig, decode
from .errors import ConfigError, InvalidInput, InvalidLabel, MhctcError, SizeError
from .features import FeatureConfig, cmn, extract
from .model import (
    ModelConfig,
    TrainConfig,
    format_curve,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
    sgd_train,
    with_lineage,
)
from .pipeline import (
    CONDITIONS,
    AdaptationSplit,
    ExperimentPlan,
    System,
    condition_dataset,
    format_report,
    run_experiment,
)
from .score import score_corpus

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3

# inputs each adaptable condition needs, as argparse destinations
ADAPT_INPUTS = {
    "supervised-labeled": ("labeled",),
    "supervised-all": ("labeled", "unlabeled"),
    "semi-sup-A": ("unlabeled", "hyps_a"),
    "semi-sup-B": ("unlabeled", "hyps_b"),
    "mh-ctc": ("unlabeled", "hyps_a", "hyps_b"),
}


def _train_args(p):
    p.add_argument("--learning-rate", type=float, default=0.02)
    p.add_argument("--epochs", type=int, default=14)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--grad-clip", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(prog="mhctc")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build a synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-utts", type=int, default=100)
    p.add_argument("--alphabet", default="abcde")
    p.add_argument("--noise-kind", choices=NOISE_KINDS, default="none")
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--snr-spread-db", type=float, default=0.0)
    p.add_argument("--freq-jitter", type=float, default=0.0)
    p.add_argument("--amp-jitter", type=float, default=0.0)
    p.add_argument("--len-min", type=int, default=4)
    p.add_argument("--len-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train an acoustic model")
    p.add_argument("--corpus", required=True, help="manifest.json of a corpus")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--features", choices=("fbank", "ste"), default="fbank")
    p.add_argument("--n-bands", type=int, default=16)
    p.add_argument("--context", type=int, default=4)
    p.add_argument("--hidden", type=int, default=128)
    _train_args(p)

    p = sub.add_parser("adapt", help="adapt a model under one condition")
    p.add_argument("--ckpt", required=True, help="initial model checkpoint")
    p.add_argument("--out", required=True, help="adapted checkpoint path")
    p.add_argument("--condition", choices=CONDITIONS, required=True)
    p.add_argument("--labeled", help="manifest.json of the labeled subset")
    p.add_argument("--unlabeled", help="manifest.json of the unlabeled subset")
    p.add_argument("--hyps-a", help="system-A hypothesis JSON for the unlabeled subset")
    p.add_argument("--hyps-b", help="system-B hypothesis JSON for the unlabeled subset")
    _train_args(p)

    p = sub.add_parser("decode", help="decode a corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True, help="manifest.json of a corpus")
    p.add_argument("--out", required=True, help="output hypothesis JSON")
    p.add_argument("--mode", choices=("greedy", "beam"), default="beam")
    p.add_argument("--beam-width", type=int, default=20)

    p = sub.add_parser("score", help="score hypotheses against references")
    p.add_argument("--ref", required=True, help="reference JSON (id -> label list)")
    p.add_argument("--hyp", required=True, help="hypothesis JSON (id -> label list)")

    p = sub.add_parser("experiment", help="run the full comparison grid")
    p.add_argument("--config", help="JSON file overriding ExperimentPlan fields")
    p.add_argument("--out", required=True, help="output directory for the run")
    return parser


def _load_hyps(path):
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object of id -> label list")
    try:
        return {uid: tuple(int(v) for v in labels) for uid, labels in data.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: label lists must hold integers: {exc}") from exc


def cmd_synth(args):
    alphabet = LabelAlphabet(tuple(args.alphabet))
    cfg = SynthConfig(
        alphabet=alphabet,
        noise_kind=args.noise_kind,
        snr_db=args.snr_db,
        snr_spread_db=args.snr_spread_db,
        freq_jitter=args.freq_jitter,
        amp_jitter=args.amp_jitter,
        seed=args.seed,
    )
    corpus = synth_corpus(cfg, args.n_utts, (args.len_min, args.len_max))
    save_corpus(corpus, alphabet, args.out)
    print(f"wrote {len(corpus)} utterances to {args.out}")
    return EXIT_OK


def cmd_train(args):
    corpus, alphabet = load_corpus(args.corpus)
    fcfg = FeatureConfig(kind=args.features, n_bands=args.n_bands)
    mcfg = ModelConfig(
        feat_dim=fcfg.dim,
        n_outputs=alphabet.n_outputs,
        context=args.context,
        hidden=args.hidden,
        seed=args.seed,
    )
    params = init_model(mcfg)
    data = [(cmn(extract(u, fcfg)), u.labels) for u in corpus]
    params, curve = sgd_train(params, data, _train_cfg_from(args))
    params = with_lineage(params, f"cli-train:{args.features}:seed={args.seed}")
    save_checkpoint(params, args.out, fcfg, alphabet_symbols=alphabet.symbols)
    print(f"trained {args.features} model: loss {format_curve(curve)}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def _train_cfg_from(args):
    return TrainConfig(
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        grad_clip=args.grad_clip,
    )


def _load_utts(path):
    return load_corpus(path)[0] if path else []


def cmd_adapt(args):
    params, symbols, fcfg = load_checkpoint(args.ckpt)
    if args.condition == "no-adapt":
        save_checkpoint(params, args.out, fcfg, alphabet_symbols=symbols)
        print(f"no-adapt: checkpoint copied to {args.out}")
        return EXIT_OK
    missing = [k for k in ADAPT_INPUTS[args.condition] if not getattr(args, k)]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ConfigError(f"{args.condition} requires {flags}")
    # the feature cache is keyed by utterance id, and two separately
    # synthesized manifests reuse the same ids
    labeled = [replace(u, id=f"labeled:{u.id}") for u in _load_utts(args.labeled)]
    split = AdaptationSplit(labeled=labeled, unlabeled=_load_utts(args.unlabeled), test=[])
    hyps_a = _load_hyps(args.hyps_a) if args.hyps_a else {}
    hyps_b = _load_hyps(args.hyps_b) if args.hyps_b else {}
    system = System(name="cli", feature_cfg=fcfg, params=params)
    data = condition_dataset(args.condition, split, hyps_a, hyps_b, system, {})
    params, curve = sgd_train(params, data, _train_cfg_from(args))
    params = with_lineage(params, f"cli-adapt:{args.condition}:seed={args.seed}")
    save_checkpoint(params, args.out, fcfg, alphabet_symbols=symbols)
    print(f"adapted ({args.condition}): loss {format_curve(curve)}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_decode(args):
    params, _, fcfg = load_checkpoint(args.ckpt)
    corpus, _ = load_corpus(args.corpus)
    dcfg = DecodeConfig(beam_width=args.beam_width, mode=args.mode)
    out = {}
    for u in corpus:
        hyp = decode(forward(params, cmn(extract(u, fcfg))), dcfg)
        out[u.id] = [int(v) for v in hyp.labels]
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True))
    print(f"decoded {len(out)} utterances to {args.out}")
    return EXIT_OK


def cmd_score(args):
    refs = _load_hyps(args.ref)
    hyps = _load_hyps(args.hyp)
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise ConfigError(f"hypotheses missing for ids: {missing[:5]}")
    pairs = [(refs[uid], hyps[uid]) for uid in sorted(refs)]
    wer, cer = score_corpus(pairs)
    print(
        f"WER {wer.wer:.2f}  (S {wer.substitutions} I {wer.insertions}"
        f" D {wer.deletions} / {wer.ref_words} words)"
    )
    print(
        f"CER {cer.wer:.2f}  (S {cer.substitutions} I {cer.insertions}"
        f" D {cer.deletions} / {cer.ref_words} symbols)"
    )
    return EXIT_OK


def cmd_experiment(args):
    overrides = {}
    if args.config:
        overrides = json.loads(Path(args.config).read_text())
        if not isinstance(overrides, dict):
            raise ConfigError("experiment config must be a JSON object")
    for key in ("scenarios", "conditions", "seeds", "split_sizes", "len_range"):
        if key in overrides:
            overrides[key] = tuple(overrides[key])
    try:
        plan = ExperimentPlan(**overrides)
    except TypeError as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc
    report, run_dir = run_experiment(plan, out_dir=args.out)
    print(format_report(report))
    print(f"run directory: {run_dir}")
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "adapt": cmd_adapt,
    "decode": cmd_decode,
    "score": cmd_score,
    "experiment": cmd_experiment,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, SizeError, InvalidLabel, InvalidInput) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MhctcError as exc:
        print(f"stage failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
