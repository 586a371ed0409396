"""Command-line entry points.

Subcommands:
  synth       build a synthetic corpus (WAVs + manifest)
  train       train an acoustic model on a corpus
  adapt       adapt a trained model under one condition
  decode      decode a corpus with a trained model
  score       score a hypothesis file against a reference file
  experiment  run the full comparison grid from a JSON config

Exit codes: 0 success, 2 configuration error, 3 stage failure. A ``ConfigError``
(``InvalidLabel`` and ``InvalidInput`` are kinds of it) or an unreadable path exits 2;
any other ``MhctcError`` exits 3. An input error names its file, then its record or id.
"""

import argparse
import json
import logging
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .alphabet import LabelAlphabet, validate_transcription
from .audio import NOISE_KINDS, SynthConfig, load_corpus, save_corpus, synth_corpus
from .blas import pin_one_thread
from .decode import DECODE_MODES, DecodeConfig, decode
from .errors import ConfigError, MhctcError, read_json, source
from .features import BANDS, FeatureConfig
from .model import ModelConfig, TrainConfig, load_checkpoint, save_checkpoint
from .pipeline import (
    CONDITION_TARGETS,
    CONDITIONS,
    AdaptationSplit,
    ExperimentPlan,
    condition_dataset,
    decode_set,
    failed_cells,
    format_report,
    init_system,
    labeled_data,
    run_experiment,
    train_system,
)
from .score import score_corpus

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _config_args(p, defaults):
    """One flag per config field, given as a dict of field name to default."""
    for name, value in defaults.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(value), default=value)


def build_parser():
    plan = ExperimentPlan()  # synth, train, adapt and decode default to the grid's values
    parser = argparse.ArgumentParser(prog="mhctc")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build a synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-utts", type=int, default=100)
    p.add_argument("--alphabet", default=plan.alphabet)
    p.add_argument("--len-min", type=int, default=plan.len_range[0])
    p.add_argument("--len-max", type=int, default=plan.len_range[1])
    synth = {f.name: f.default for f in fields(SynthConfig) if f.name != "alphabet"}
    p.add_argument("--noise-kind", choices=NOISE_KINDS, default=synth.pop("noise_kind"))
    _config_args(p, synth)

    p = sub.add_parser("train", help="train an acoustic model")
    p.add_argument("--corpus", required=True, help="manifest.json of a corpus")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--features", choices=tuple(BANDS), default=FeatureConfig.kind)
    p.add_argument("--n-bands", type=int, help="default: the front end's own band count")
    p.add_argument("--context", type=int, default=ModelConfig.context)
    p.add_argument("--hidden", type=int, default=plan.hidden)
    _config_args(p, asdict(plan.train_cfg("train", seed=0)))

    p = sub.add_parser("adapt", help="adapt a model under one condition")
    p.add_argument("--ckpt", required=True, help="initial model checkpoint")
    p.add_argument("--out", required=True, help="adapted checkpoint path")
    p.add_argument("--condition", choices=CONDITIONS, required=True)
    p.add_argument("--labeled", help="manifest.json of the labeled subset")
    p.add_argument("--unlabeled", help="manifest.json of the unlabeled subset")
    p.add_argument("--hyps-a", help="system-A hypothesis JSON for the unlabeled subset")
    p.add_argument("--hyps-b", help="system-B hypothesis JSON for the unlabeled subset")
    _config_args(p, asdict(plan.train_cfg("adapt", seed=0)))

    p = sub.add_parser("decode", help="decode a corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True, help="manifest.json of a corpus")
    p.add_argument("--out", required=True, help="output hypothesis JSON")
    p.add_argument("--mode", choices=DECODE_MODES, default=DecodeConfig.mode)
    p.add_argument("--beam-width", type=int, default=plan.beam_width)

    p = sub.add_parser("score", help="score hypotheses against references")
    p.add_argument("--ref", required=True, help="reference JSON (id -> label list)")
    p.add_argument("--hyp", required=True, help="hypothesis JSON (id -> label list)")

    p = sub.add_parser("experiment", help="run the full comparison grid")
    p.add_argument("--config", help="JSON file overriding ExperimentPlan fields")
    p.add_argument("--out", required=True, help="output directory for the run")
    return parser


def _load_hyps(path, alphabet=None, ids=()):
    """An id -> labels file holding every id in ``ids``.

    With ``alphabet``, each label must be an index of it.
    """
    with source(path):
        data = read_json(path)
        if not isinstance(data, dict):
            raise ConfigError("expected a JSON object of id -> label list")
        for uid, labels in data.items():
            if not isinstance(labels, list) or any(type(v) is not int for v in labels):
                raise ConfigError(f"labels of {uid!r} must hold integers, got {labels!r}")
            if alphabet is not None:
                with source(f"labels of {uid!r}"):
                    validate_transcription(labels, alphabet.n_symbols)
        missing = sorted(set(ids) - set(data))
        if missing:
            raise ConfigError(f"hypotheses missing for ids: {missing[:5]}")
    return {uid: tuple(labels) for uid, labels in data.items()}


def cmd_synth(args):
    alphabet = LabelAlphabet(tuple(args.alphabet))
    cfg = _config_from(args, SynthConfig, alphabet=alphabet)
    corpus = synth_corpus(cfg, args.n_utts, (args.len_min, args.len_max))
    save_corpus(corpus, alphabet, args.out)
    print(f"wrote {len(corpus)} utterances to {args.out}")
    return EXIT_OK


def cmd_train(args):
    corpus, alphabet = load_corpus(args.corpus)
    train_cfg = _config_from(args, TrainConfig)
    fcfg = FeatureConfig(kind=args.features, n_bands=args.n_bands)
    system = init_system("cli", fcfg, alphabet, args.context, args.hidden, args.seed)
    step = f"cli-train:{args.features}:seed={args.seed}"
    system = train_system(system, labeled_data(system, corpus, {}), train_cfg, step)
    save_checkpoint(system, args.out)
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def _config_from(args, cls, **given):
    """A ``cls`` built from ``given`` and, for its other fields, the flags of the same name."""
    flags = {f.name: getattr(args, f.name) for f in fields(cls) if f.name not in given}
    return cls(**flags, **given)


def _load_utts(path, alphabet):
    """Utterances of a manifest (none without ``path``) written in the checkpoint's ``alphabet``."""
    if not path:
        return []
    corpus, manifest_alphabet = load_corpus(path)
    if manifest_alphabet != alphabet:
        with source(path):
            raise ConfigError(f"alphabet {list(manifest_alphabet.symbols)} differs from the"
                              f" checkpoint's {list(alphabet.symbols)}")
    return corpus


def cmd_adapt(args):
    sources = CONDITION_TARGETS[args.condition]  # None: no adaptation
    system = load_checkpoint(args.ckpt)
    if sources is not None:
        # --labeled when every target is manual, one flag per other source
        needs = {"labeled": set(sources) <= {"truth"}, "unlabeled": bool(sources),
                 "hyps_a": "sysA" in sources, "hyps_b": "sysB" in sources}
        missing = [k for k, needed in needs.items() if needed and not getattr(args, k)]
        if missing:
            flags = ", ".join("--" + k.replace("_", "-") for k in missing)
            raise ConfigError(f"{args.condition} requires {flags}")
        split = AdaptationSplit(labeled=_load_utts(args.labeled, system.alphabet),
                                unlabeled=_load_utts(args.unlabeled, system.alphabet), test=[])
        ids = [u.id for u in split.unlabeled]
        hyps_a, hyps_b = (_load_hyps(path, system.alphabet, ids) if path else {}
                          for path in (args.hyps_a, args.hyps_b))
        data = condition_dataset(args.condition, split, hyps_a, hyps_b, system, {})
        step = f"cli-adapt:{args.condition}:seed={args.seed}"
        system = train_system(system, data, _config_from(args, TrainConfig), step)
    save_checkpoint(system, args.out)
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_decode(args):
    dcfg = DecodeConfig(beam_width=args.beam_width, mode=args.mode)
    system = load_checkpoint(args.ckpt)
    corpus = _load_utts(args.corpus, system.alphabet)
    hyps = decode_set(system, corpus, lambda logp: decode(logp, dcfg), {})
    out = {uid: [int(v) for v in labels] for uid, labels in hyps.items()}
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True))
    print(f"decoded {len(out)} utterances to {args.out}")
    return EXIT_OK


def cmd_score(args):
    refs = _load_hyps(args.ref)
    hyps = _load_hyps(args.hyp, ids=refs)
    pairs = [(refs[uid], hyps[uid]) for uid in sorted(refs)]
    wer, cer = score_corpus(pairs)
    for name, rep, unit in (("WER", wer, "words"), ("CER", cer, "symbols")):
        print(f"{name} {rep.wer:.2f}  (S {rep.substitutions} I {rep.insertions}"
              f" D {rep.deletions} / {rep.ref_words} {unit})")
    return EXIT_OK


def _read_plan(path):
    """The default plan with the fields that the JSON object in ``path`` gives."""
    with source(path):
        overrides = read_json(path)
        if not isinstance(overrides, dict):
            raise ConfigError("experiment config must be a JSON object")
        names = [f.name for f in fields(ExperimentPlan)]
        unknown = sorted(set(overrides) - set(names))
        if unknown:
            raise ConfigError(f"bad experiment config: a plan's fields are {', '.join(names)};"
                              f" unknown: {', '.join(map(repr, unknown))}")
        return ExperimentPlan(**overrides)


def cmd_experiment(args):
    plan = _read_plan(args.config) if args.config else ExperimentPlan()
    report, run_dir = run_experiment(plan, out_dir=args.out)
    print(format_report(report))
    print(f"run directory: {run_dir}")
    return EXIT_STAGE if failed_cells(report) else EXIT_OK  # report.txt lists the failures


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
    if pin_one_thread() is None:  # one thread: the same bits serial or forked, on any box
        log.info("no bundled OpenBLAS to pin: outputs follow the BLAS thread count")
    try:
        # an output file is checked before any input is loaded or model trained
        out = Path(args.out) if args.command in ("train", "adapt", "decode") else None
        if out and (out.is_dir() or not out.parent.is_dir()):
            raise ConfigError(f"cannot write {out}: it is a directory or its folder does not exist")
        return COMMANDS[args.command](args)
    # an OSError (missing file, a directory given for a file, ...) names its path
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MhctcError as exc:
        print(f"stage failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
