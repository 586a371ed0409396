"""End-to-end tests of the ``mhctc`` command line on a tiny synthesized corpus."""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import wave
from pathlib import Path

import numpy as np
import pytest

from mhctc import cli, pipeline
from mhctc.alphabet import LabelAlphabet
from mhctc.audio import SynthConfig, load_corpus, save_corpus
from mhctc.blas import openblas
from mhctc.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, _config_from, build_parser, main
from mhctc.decode import DecodeConfig, beam_decode
from mhctc.errors import ConfigError, InvalidInput, MhctcError
from mhctc.features import FeatureConfig, cmn, fbank, ste
from mhctc.model import TrainConfig, forward, load_checkpoint, save_checkpoint, sgd_train
from mhctc.pipeline import ExperimentPlan

TRAINABLE = ("supervised-labeled", "supervised-all", "semi-sup-A", "semi-sup-B", "mh-ctc")
FAST_TRAIN = ["--hidden", "16", "--epochs", "2"]
ADAPT_TRAIN = ["--epochs", "1", "--learning-rate", "0.01", "--seed", "3"]
# a two-cell experiment of a few seconds
TINY_PLAN = {"seeds": [0], "n_train": 6, "split_sizes": [2, 3, 3], "len_range": [2, 3],
             "hidden": 8, "train_epochs": 1, "finetune_epochs": 1, "adapt_epochs": 1,
             "beam_width": 2}


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Corpora, an STE-trained checkpoint and A/B hypothesis files.

    The labeled and unlabeled corpora are synthesized separately, so they
    reuse the same utterance ids.
    """
    d = tmp_path_factory.mktemp("cli")
    for name, n, seed in (("train", 12, 1), ("lab", 3, 2), ("unlab", 5, 3)):
        assert run("synth", "--out", d / name, "--n-utts", n, "--seed", seed,
                   "--len-min", 2, "--len-max", 4, "--noise-kind", "babble") == EXIT_OK
    assert run("train", "--corpus", d / "train/manifest.json", "--features", "ste",
               "--out", d / "ste.ckpt", *FAST_TRAIN) == EXIT_OK
    for mode, out in (("greedy", "hypsA.json"), ("beam", "hypsB.json")):
        assert run("decode", "--ckpt", d / "ste.ckpt", "--corpus", d / "unlab/manifest.json",
                   "--mode", mode, "--beam-width", 4, "--out", d / out) == EXIT_OK
    return d


def adapt(ws, condition, out, **inputs):
    flags = []
    for key, value in inputs.items():
        flags += ["--" + key.replace("_", "-"), value]
    return run("adapt", "--ckpt", ws / "ste.ckpt", "--condition", condition,
               "--out", out, *flags, *ADAPT_TRAIN)


def all_inputs(ws):
    return dict(labeled=ws / "lab/manifest.json", unlabeled=ws / "unlab/manifest.json",
                hyps_a=ws / "hypsA.json", hyps_b=ws / "hypsB.json")


@pytest.mark.parametrize("command", ["decode", "adapt"])
def test_front_end_flags_are_gone(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert "--features" not in out and "--n-bands" not in out


def test_flag_defaults_are_the_grids():
    parse = build_parser().parse_args
    train = parse(["train", "--corpus", "c", "--out", "o"])
    adapt = parse(["adapt", "--ckpt", "c", "--out", "o", "--condition", "no-adapt"])
    decode = parse(["decode", "--ckpt", "c", "--corpus", "c", "--out", "o"])
    got = [getattr(train, k) for k in ("learning_rate", "epochs", "batch_size", "grad_clip",
                                       "seed", "n_bands", "context", "hidden")]
    # no --n-bands: the chosen front end's own count (test_train_band_count_follows_the_front_end)
    assert got == [0.02, 14, 4, 5.0, 0, None, 4, 128]
    # adapt trains with the grid's adaptation values, not train's
    assert (adapt.learning_rate, adapt.epochs) == (0.01, 16)
    plan = ExperimentPlan()
    assert (adapt.learning_rate, adapt.epochs) == (pipeline.ADAPT_LEARNING_RATE, plan.adapt_epochs)
    assert decode.beam_width == plan.beam_width == 20
    assert (train.features, decode.mode) == (FeatureConfig.kind, DecodeConfig.mode)


def test_synth_flag_defaults_are_synth_configs_and_the_plans(tmp_path):
    args = build_parser().parse_args(["synth", "--out", "x"])
    plan = ExperimentPlan()
    alphabet = LabelAlphabet(tuple(plan.alphabet))
    assert args.alphabet == "abcde" and (args.len_min, args.len_max) == plan.len_range == (4, 10)
    assert _config_from(args, SynthConfig, alphabet=alphabet) == SynthConfig(alphabet=alphabet)
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "x"), "--noise-kind", "pink"])
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "x").exists()


def test_ste_checkpoint_decodes_with_ste_features(ws):
    system, _ = load_checkpoint(ws / "ste.ckpt")
    params, fcfg = system.params, system.feature_cfg
    assert fcfg == FeatureConfig(kind="ste", n_bands=12)
    corpus, _ = load_corpus(ws / "unlab/manifest.json")
    cfg = DecodeConfig(beam_width=4)
    want = {u.id: list(beam_decode(forward(params, cmn(ste(u, fcfg))), cfg).labels)
            for u in corpus}
    assert json.loads((ws / "hypsB.json").read_text()) == want
    # FBANK at 12 bands has the same dimension, so a checkpoint that did not
    # record its front end would decode silently with different hypotheses
    wrong = {u.id: list(beam_decode(forward(params, cmn(fbank(u, FeatureConfig(n_bands=12)))), cfg).labels)
             for u in corpus}
    assert wrong != want


@pytest.mark.parametrize("condition", ("no-adapt",) + TRAINABLE)
def test_adapt_each_condition_keeps_front_end(ws, condition):
    out = ws / f"{condition}.ckpt"
    assert adapt(ws, condition, out, **all_inputs(ws)) == EXIT_OK
    system, symbols = load_checkpoint(out)
    assert system.feature_cfg == FeatureConfig(kind="ste", n_bands=12)
    assert symbols == tuple("abcde")
    if condition == "no-adapt":  # the checkpoint is written back unchanged
        assert out.read_bytes() == (ws / "ste.ckpt").read_bytes()
    else:
        assert system.params.lineage[-1] == f"cli-adapt:{condition}:seed=3"


def test_adapt_matches_in_process_training(ws):
    # the labeled and unlabeled manifests share ids; each utterance must
    # still be trained on its own features
    out = ws / "check.ckpt"
    assert adapt(ws, "supervised-all", out, labeled=ws / "lab/manifest.json",
                 unlabeled=ws / "unlab/manifest.json") == EXIT_OK
    system, _ = load_checkpoint(ws / "ste.ckpt")
    utts = load_corpus(ws / "lab/manifest.json")[0] + load_corpus(ws / "unlab/manifest.json")[0]
    data = [(cmn(ste(u, system.feature_cfg)), (u.labels,)) for u in utts]
    want, _ = sgd_train(system.params, data, TrainConfig(learning_rate=0.01, epochs=1, seed=3))
    got = load_checkpoint(out)[0].params
    for k, v in want.tensors().items():
        np.testing.assert_array_equal(got.tensors()[k], v)


def test_score(ws, capsys):
    corpus, _ = load_corpus(ws / "unlab/manifest.json")
    (ws / "refs.json").write_text(json.dumps({u.id: list(u.labels) for u in corpus}))
    assert run("score", "--ref", ws / "refs.json", "--hyp", ws / "hypsB.json") == EXIT_OK
    assert capsys.readouterr().out.startswith("WER ")


def test_hypotheses_missing_reference_ids_is_a_config_error(ws, tmp_path, capsys):
    hyps = json.loads((ws / "hypsA.json").read_text())
    gone = sorted(hyps)[1:3]
    (tmp_path / "partial.json").write_text(json.dumps({k: v for k, v in hyps.items()
                                                       if k not in gone}))
    assert run("score", "--ref", ws / "hypsA.json", "--hyp", tmp_path / "partial.json") == (
        EXIT_CONFIG)
    captured = capsys.readouterr()
    assert captured.err == (f"configuration error: {tmp_path / 'partial.json'}: hypotheses missing"
                            f" for ids: {gone}\n")
    assert not captured.out


def test_zero_epochs_writes_unchanged_model(ws, tmp_path):
    out = tmp_path / "zero.ckpt"
    assert run("train", "--corpus", ws / "train/manifest.json", "--out", out,
               "--epochs", 0, "--hidden", 16) == EXIT_OK
    assert run("adapt", "--ckpt", out, "--condition", "supervised-labeled",
               "--labeled", ws / "lab/manifest.json", "--out", tmp_path / "a.ckpt",
               "--epochs", 0) == EXIT_OK
    first = load_checkpoint(out)[0].params
    second = load_checkpoint(tmp_path / "a.ckpt")[0].params
    for k, v in first.tensors().items():
        np.testing.assert_array_equal(second.tensors()[k], v)


def read_header(data):
    """A checkpoint's parsed header."""
    return json.loads(data[16 : 16 + int.from_bytes(data[8:16], "little")])


def replace_header(data, blob):
    """A checkpoint's bytes with ``blob`` in place of its header."""
    end = 16 + int.from_bytes(data[8:16], "little")
    return data[:8] + len(blob).to_bytes(8, "little") + blob + data[end:]


def header_edit(edit):
    """Damage to a checkpoint: ``edit`` applied to its parsed header."""
    def damage(data):
        header = read_header(data)
        edit(header)
        return replace_header(data, json.dumps(header, sort_keys=True).encode())
    return damage


def as_v1(header):
    header["version"] = 1
    del header["features"]
    header["tensors"] = []


def as_v2(header):
    as_v3(header)
    header["version"] = 2
    header["features"].update(frame_ms=25.0, hop_ms=10.0, add_deltas=True, fmin=100.0,
                              env_cutoff_hz=30.0)


def as_v3(header):
    """Version 3 also stored the model's input and output sizes in its config."""
    header["version"] = 3
    header["config"].update(feat_dim=36, n_outputs=6)


# damage to a checkpoint's bytes and the message it must be refused with
BAD_CHECKPOINTS = {
    "truncated": (lambda data: data[:3000], "truncated"),
    "v1": (header_edit(as_v1), "version 1 is not supported"),
    "v2": (header_edit(as_v2), "version 2 is not supported"),
    "v3": (header_edit(as_v3), "version 3 is not supported"),
    "extra-feature-key": (header_edit(lambda h: h["features"].update(fmin=80.0)),
                          "bad checkpoint config: .*'fmin'"),
    # an alphabet or front end the tensors do not fit leaves bytes over
    "alphabet-size": (header_edit(lambda h: h.update(alphabet=["a", "b"])),
                      "408 trailing bytes after the last tensor"),
    "unknown-key": (header_edit(lambda h: h.update(extra=1)), "unknown keys \\['extra'\\]"),
    "missing-key": (header_edit(lambda h: h.pop("lineage")), "missing keys \\['lineage'\\]"),
    "dim-mismatch": (header_edit(lambda h: h["features"].update(n_bands=4)),
                     "27648 trailing bytes after the last tensor"),
    "alphabet-repeat": (header_edit(lambda h: h.update(alphabet=list("aacde"))),
                        "bad checkpoint config: alphabet symbols must be unique"),
    "alphabet-long-symbol": (header_edit(lambda h: h["alphabet"].__setitem__(0, "ab")),
                             "bad checkpoint config: alphabet symbols must be one-character"),
    "alphabet-empty-symbol": (header_edit(lambda h: h["alphabet"].__setitem__(0, "")),
                              "bad checkpoint config: alphabet symbols must be one-character"),
    "wrong-magic": (lambda data: b"MHCTCKP0" + data[8:], "not a checkpoint file"),
    "header-not-json": (lambda data: replace_header(data, b"{kind: ste}"),
                        "unreadable checkpoint header"),
    "header-list": (lambda data: replace_header(data, b"[3]"),
                    "checkpoint header is not a JSON object"),
    "alphabet-entry": (header_edit(lambda h: h["alphabet"].__setitem__(0, 1)),
                       "checkpoint alphabet must be a list of strings"),
    "trailing-bytes": (lambda data: data + bytes(5), "5 trailing bytes after the last tensor"),
}


@pytest.mark.parametrize("kind", sorted(BAD_CHECKPOINTS))
@pytest.mark.parametrize("command", ["decode", "adapt"])
def test_bad_checkpoint_is_a_config_error(ws, tmp_path, capsys, kind, command):
    damage, message = BAD_CHECKPOINTS[kind]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(damage((ws / "ste.ckpt").read_bytes()))
    if command == "decode":
        code = run("decode", "--ckpt", bad, "--corpus", ws / "unlab/manifest.json",
                   "--out", tmp_path / "h.json")
    else:
        code = run("adapt", "--ckpt", bad, "--condition", "no-adapt", "--out", tmp_path / "a.ckpt")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert re.search(message, err)


@pytest.mark.parametrize("features,flags,want", [
    ("ste", [], {"kind": "ste", "n_bands": 12}),
    ("ste", ["--n-bands", 8], {"kind": "ste", "n_bands": 8}),
    ("fbank", [], {"kind": "fbank", "n_bands": 16}),
], ids=["ste", "ste-8-bands", "fbank"])
def test_train_band_count_follows_the_front_end(ws, tmp_path, features, flags, want):
    out = tmp_path / "m.ckpt"
    assert run("train", "--corpus", ws / "train/manifest.json", "--features", features, *flags,
               "--out", out, "--hidden", 8, "--epochs", 0) == EXIT_OK
    assert read_header(out.read_bytes())["features"] == want


@pytest.mark.parametrize("argv", [
    ["decode", "--mode", "beam"],
    ["decode", "--mode", "greedy"],
    ["adapt", "--condition", "supervised-labeled"],
], ids=["decode-beam", "decode-greedy", "adapt"])
def test_non_finite_checkpoint_tensor_is_a_config_error(ws, tmp_path, capsys, argv):
    system, symbols = load_checkpoint(ws / "ste.ckpt")
    system.params.w2[:] = np.nan
    save_checkpoint(system, tmp_path / "nan.ckpt", symbols)
    out = tmp_path / "out"
    inputs = ["--corpus", ws / "unlab/manifest.json"] if argv[0] == "decode" else [
        "--labeled", ws / "lab/manifest.json", *ADAPT_TRAIN]
    assert run(*argv, "--ckpt", tmp_path / "nan.ckpt", *inputs, "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "tensor w2 contains non-finite values" in err
    assert not out.exists()


JSON_READERS = ["decode", "score", "experiment", "adapt"]


def read_bad_json(ws, tmp_path, capsys, command, data):
    """Exit code and stderr of ``command`` given a file holding ``data`` where it reads JSON."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    argv = {
        "decode": ["decode", "--ckpt", ws / "ste.ckpt", "--corpus", bad,
                   "--out", tmp_path / "h.json"],
        "score": ["score", "--ref", ws / "hypsA.json", "--hyp", bad],
        "experiment": ["experiment", "--config", bad, "--out", tmp_path / "out"],
        "adapt": ["adapt", "--ckpt", ws / "ste.ckpt", "--condition", "semi-sup-A",
                  "--unlabeled", ws / "unlab/manifest.json", "--hyps-a", bad,
                  "--out", tmp_path / "a.ckpt"],
    }[command]
    code = run(*argv)
    assert not (tmp_path / "h.json").exists() and not (tmp_path / "a.ckpt").exists()
    assert not list(tmp_path.glob("out/run-*"))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", JSON_READERS)
def test_non_utf8_input_is_a_config_error(ws, tmp_path, capsys, command):
    utf16 = b"\xff\xfe" + "{}".encode("utf-16-le")
    code, err = read_bad_json(ws, tmp_path, capsys, command, utf16)
    assert code == EXIT_CONFIG and len(err.splitlines()) == 1
    assert err.startswith(f"configuration error: {tmp_path / 'bad.json'}: not UTF-8 text")


@pytest.mark.parametrize("data,message", [
    (b"{bad", "not JSON: Expecting property name enclosed in double quotes: line 1 column 2"),
    # nested past the parser's recursion limit
    (b"[" * 100_000, "not JSON: maximum recursion depth exceeded"),
], ids=["syntax", "nested-too-deep"])
@pytest.mark.parametrize("command", JSON_READERS)
def test_not_json_input_is_a_config_error(ws, tmp_path, capsys, command, data, message):
    code, err = read_bad_json(ws, tmp_path, capsys, command, data)
    assert code == EXIT_CONFIG and len(err.splitlines()) == 1
    assert err.startswith(f"configuration error: {tmp_path / 'bad.json'}: {message}")


def write_wav(path, channels=1, width=2, rate=8000):
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(width)
        w.setframerate(rate)
        w.writeframes(bytes(channels * width * 400))


BAD_WAVS = {
    "not-a-wav": (lambda wav, rec: wav.write_text("not audio\n"), "cannot read WAV file"),
    "empty": (lambda wav, rec: wav.write_bytes(b""), "cannot read WAV file"),
    "missing": (lambda wav, rec: wav.unlink(), "cannot read WAV file"),
    "stereo": (lambda wav, rec: write_wav(wav, channels=2),
               "has 2 channel(s) of 16-bit samples at 8000 Hz"),
    "8-bit": (lambda wav, rec: write_wav(wav, width=1), "has 1 channel(s) of 8-bit samples"),
    "zero-rate": (lambda wav, rec: rec.update(sample_rate=0), "sample_rate must be positive, got 0"),
    "rate-mismatch": (lambda wav, rec: rec.update(sample_rate=16000),
                      "at 8000 Hz; expected mono 16-bit at 16000 Hz"),
    "odd-byte-count": (lambda wav, rec: wav.write_bytes(wav.read_bytes()[:-1]),
                       "ends in half a 16-bit sample"),
    # the fmt chunk's size field points into the samples: the wave module's bare RuntimeError
    "fmt-chunk-size": (lambda wav, rec: wav.write_bytes(
        wav.read_bytes()[:16] + b"\xff" + wav.read_bytes()[17:]),
        "cannot read WAV file {wav}: a chunk size points past the file"),
}


@pytest.mark.parametrize("kind", sorted(BAD_WAVS))
def test_bad_wav_file_is_a_config_error(ws, tmp_path, capsys, kind):
    shutil.copytree(ws / "unlab", tmp_path / "bad")
    path = tmp_path / "bad/manifest.json"
    manifest = json.loads(path.read_text())
    record = manifest["utterances"][1]
    wav = tmp_path / "bad" / record["path"]
    edit, message = BAD_WAVS[kind]
    edit(wav, record)
    path.write_text(json.dumps(manifest))
    assert run("decode", "--ckpt", ws / "ste.ckpt", "--corpus", path,
               "--out", tmp_path / "h.json") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message.format(wav=wav) in err
    assert f"utterance record 1 ({record['id']!r})" in err
    assert kind == "zero-rate" or str(wav) in err
    assert not (tmp_path / "h.json").exists()


def test_sample_rate_at_twice_the_lowest_band_edge_is_a_config_error(ws, tmp_path, capsys):
    shutil.copytree(ws / "unlab", tmp_path / "low")
    path = tmp_path / "low/manifest.json"
    manifest = json.loads(path.read_text())
    for record in manifest["utterances"]:
        record["sample_rate"] = 200
        write_wav(tmp_path / "low" / record["path"], rate=200)
    path.write_text(json.dumps(manifest))
    assert run("decode", "--ckpt", ws / "ste.ckpt", "--corpus", path,
               "--out", tmp_path / "h.json") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "sample rate 200 Hz" in err
    assert not (tmp_path / "h.json").exists()


@pytest.mark.parametrize("command", ["decode", "adapt"])
def test_manifest_in_another_alphabet_is_a_config_error(ws, tmp_path, capsys, command):
    assert run("synth", "--out", tmp_path / "xyz", "--n-utts", 2, "--alphabet", "xyz",
               "--len-min", 2, "--len-max", 3) == EXIT_OK
    manifest = tmp_path / "xyz/manifest.json"
    out = tmp_path / "out"
    if command == "decode":
        code = run("decode", "--ckpt", ws / "ste.ckpt", "--corpus", manifest, "--out", out)
    else:
        code = adapt(ws, "supervised-labeled", out, labeled=manifest)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"configuration error: {manifest}: alphabet ['x', 'y', 'z'] differs from the"
                   " checkpoint's ['a', 'b', 'c', 'd', 'e']\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["decode", "adapt"])
def test_unknown_symbol_in_a_manifest_is_a_config_error(ws, tmp_path, capsys, command):
    shutil.copytree(ws / "lab", tmp_path / "bad")
    path = tmp_path / "bad/manifest.json"
    manifest = json.loads(path.read_text())
    record = manifest["utterances"][1]
    record["transcription"] = "zz"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    if command == "decode":
        code = run("decode", "--ckpt", ws / "ste.ckpt", "--corpus", path, "--out", out)
    else:
        code = adapt(ws, "supervised-labeled", out, labeled=path)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (f"configuration error: {path}: utterance record 1"
                                       f" ({record['id']!r}): unknown symbol 'z'\n")
    assert not out.exists()


def test_missing_hypothesis_id_is_a_config_error(ws, tmp_path, capsys):
    # each hypothesis file must cover the unlabeled manifest, and is refused as it is read
    for flag, name in (("hyps_a", "hypsA.json"), ("hyps_b", "hypsB.json")):
        hyps = json.loads((ws / name).read_text())
        gone = sorted(hyps)[1]
        del hyps[gone]
        partial = tmp_path / f"partial-{name}"
        partial.write_text(json.dumps(hyps))
        inputs = dict(all_inputs(ws), **{flag: partial})
        assert adapt(ws, "mh-ctc", tmp_path / "a.ckpt", **inputs) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: {partial}: hypotheses missing for ids: [{gone!r}]\n")
        assert not (tmp_path / "a.ckpt").exists()


@pytest.mark.parametrize("condition,flags", [
    ("supervised-labeled", "--labeled"),
    ("mh-ctc", "--unlabeled, --hyps-b"),
    ("supervised-all", "--labeled, --unlabeled"),
    ("semi-sup-A", "--unlabeled"),
    ("semi-sup-B", "--unlabeled, --hyps-b"),
])
def test_missing_adapt_input_is_a_config_error(ws, tmp_path, capsys, condition, flags):
    inputs = {"hyps_a": ws / "hypsA.json"}
    assert adapt(ws, condition, tmp_path / "a.ckpt", **inputs) == EXIT_CONFIG
    assert f"{condition} requires {flags}" in capsys.readouterr().err


@pytest.mark.parametrize("hyps,message", [
    ([[1, 2]], "expected a JSON object"),
    ({"utt0000": ["x"]}, "must hold integers"),
    # floats, numeric strings and bools were read as ints: (1, 2, 1)
    ({"a": [1.9, "2", True]}, "labels of 'a' must hold integers, got [1.9, '2', True]"),
    ({"a": [1, 2], "b": [False]}, "labels of 'b' must hold integers, got [False]"),
    ({"a": "12"}, "labels of 'a' must hold integers, got '12'"),
    ({"a": 3}, "labels of 'a' must hold integers, got 3"),
])
def test_malformed_hypothesis_file_is_a_config_error(ws, tmp_path, capsys, hyps, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(hyps))
    assert run("score", "--ref", ws / "hypsA.json", "--hyp", bad) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err and str(bad) in err


@pytest.mark.parametrize("label", [9, 0])
def test_hypothesis_outside_the_alphabet_is_a_config_error(ws, tmp_path, capsys, label):
    hyps = json.loads((ws / "hypsA.json").read_text())
    uid = sorted(hyps)[2]
    hyps[uid] = [label]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(hyps))
    out = tmp_path / "a.ckpt"
    assert adapt(ws, "semi-sup-A", out, unlabeled=ws / "unlab/manifest.json", hyps_a=bad) == (
        EXIT_CONFIG)
    err = capsys.readouterr().err
    assert err == (f"configuration error: {bad}: labels of {uid!r}: label {label} is not an"
                   " index in [1, 5] (0 is blank)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["decode", "train", "adapt", "decode-out", "score",
                                     "experiment"])
def test_directory_for_a_file_is_a_config_error(ws, tmp_path, capsys, monkeypatch, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {
        "decode": ["decode", "--ckpt", folder, "--corpus", ws / "unlab/manifest.json",
                   "--out", tmp_path / "h.json"],
        "train": ["train", "--corpus", ws / "lab/manifest.json", "--out", folder, *FAST_TRAIN],
        "adapt": ["adapt", "--ckpt", ws / "ste.ckpt", "--condition", "supervised-labeled",
                  "--labeled", ws / "lab/manifest.json", "--out", folder, *ADAPT_TRAIN],
        # an output file in a folder that does not exist
        "decode-out": ["decode", "--ckpt", ws / "ste.ckpt", "--corpus", ws / "unlab/manifest.json",
                       "--out", folder / "missing" / "h.json"],
        "score": ["score", "--ref", folder, "--hyp", ws / "hypsA.json"],
        "experiment": ["experiment", "--config", folder, "--out", tmp_path / "out"],
    }[command]
    # --out is checked before any input is loaded or any model trained
    if command in ("train", "adapt", "decode-out"):
        for name in ("train_system", "load_corpus", "load_checkpoint"):
            monkeypatch.setattr(f"mhctc.cli.{name}", lambda *a, **k: pytest.fail("work ran"))
    assert run(*argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(folder) in err
    assert not (tmp_path / "h.json").exists()
    assert not list(tmp_path.glob("out/run-*"))


def test_non_positive_band_count_is_a_config_error(ws, tmp_path, capsys):
    assert run("train", "--corpus", ws / "train/manifest.json", "--n-bands", 0,
               "--out", tmp_path / "m.ckpt") == EXIT_CONFIG
    assert "n_bands must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags,message", [
    ("synth", ["--n-utts", -1], "n_utts must be a non-negative integer"),
    ("synth", ["--seed", -1], "seed must be a non-negative integer"),
    ("synth", ["--len-min", 5, "--len-max", 3], "1 <= min <= max, got 5..3"),
    ("train", ["--batch-size", 0], "batch_size must be a positive integer"),
    ("train", ["--seed", -1], "seed must be a non-negative integer"),
    ("train", ["--context", -1], "context must be a non-negative integer"),
    ("train", ["--epochs", -1], "epochs must be a non-negative integer"),
    ("train", ["--hidden", 0], "hidden must be a positive integer"),
    ("train", ["--learning-rate", -0.5], "learning_rate must be a finite number > 0"),
    ("train", ["--learning-rate", "nan"], "learning_rate must be a finite number > 0"),
    ("train", ["--grad-clip", -1], "grad_clip must be a finite number > 0"),
    ("train", ["--grad-clip", 0], "grad_clip must be a finite number > 0"),
    ("synth", ["--snr-db", "nan"], "snr_db must be a finite number"),
    ("synth", ["--amp-jitter", -0.1], "amp_jitter must be a finite number >= 0"),
    ("synth", ["--alphabet", ""], "alphabet must hold at least one symbol"),
    # values that would overflow, divide by zero or render NaN samples in synthesis
    ("synth", ["--snr-db", "1e300"], "snr_db +/- snr_spread_db must lie within +/-3000 dB"),
    ("synth", ["--snr-db=-1e300"], "snr_db +/- snr_spread_db must lie within +/-3000 dB"),
    ("synth", ["--snr-db", "-2990", "--snr-spread-db", "20"], "got -2990.0 +/- 20.0"),
    ("synth", ["--amp-jitter", "1e300"], "amp_jitter must be at most 1, got 1e+300"),
    ("synth", ["--freq-jitter", "1"], "freq_jitter must be below 1"),
    ("synth", ["--freq-jitter", "0.33"], "keep the highest tone (3020 Hz) below 4000 Hz"),
    ("decode", ["--beam-width", 0], "beam_width must be a positive integer, got 0"),
    ("decode", ["--beam-width", 10**20], "beam_width must be at most 1000"),
], ids=["n-utts", "synth-seed", "len-range", "batch-size", "train-seed", "context", "epochs",
        "hidden", "negative-learning-rate", "nan-learning-rate", "negative-grad-clip",
        "zero-grad-clip", "nan-snr", "negative-amp-jitter", "empty-alphabet", "huge-snr",
        "tiny-snr", "snr-spread-past-range", "huge-amp-jitter", "freq-jitter-1",
        "freq-jitter-past-nyquist", "zero-beam-width", "huge-beam-width"])
def test_bad_numeric_flag_is_a_config_error(ws, tmp_path, capsys, command, flags, message):
    argv = {
        "synth": ["synth", "--out", tmp_path / "c", "--n-utts", 2],
        "train": ["train", "--corpus", ws / "train/manifest.json", "--out", tmp_path / "m.ckpt"],
        "decode": ["decode", "--ckpt", ws / "ste.ckpt", "--corpus", ws / "unlab/manifest.json",
                   "--out", tmp_path / "h.json"],
    }[command]
    assert run(*argv, *flags) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert "Traceback" not in err and "Warning" not in err
    assert not any((tmp_path / name).exists() for name in ("m.ckpt", "c", "h.json"))


def test_duplicate_utterance_id_is_a_config_error(ws, tmp_path, capsys):
    shutil.copytree(ws / "unlab", tmp_path / "dup")
    dup = tmp_path / "dup/manifest.json"
    manifest = json.loads(dup.read_text())
    records = manifest["utterances"][:3]
    records[1]["id"] = records[0]["id"]
    dup.write_text(json.dumps(dict(manifest, utterances=records)))
    for argv in (
        ["train", "--corpus", dup, "--out", tmp_path / "m.ckpt", *FAST_TRAIN],
        ["decode", "--ckpt", ws / "ste.ckpt", "--corpus", dup, "--out", tmp_path / "h.json"],
        ["adapt", "--ckpt", ws / "ste.ckpt", "--condition", "supervised-labeled",
         "--labeled", dup, "--out", tmp_path / "a.ckpt", *ADAPT_TRAIN],
    ):
        assert run(*argv) == EXIT_CONFIG
        assert f"duplicate utterance id '{records[0]['id']}'" in capsys.readouterr().err
    assert not any((tmp_path / name).exists() for name in ("m.ckpt", "h.json", "a.ckpt"))


def test_bad_plan_fails_before_the_grid(tmp_path, capsys):
    plan = {"hidden": 0, "seeds": [0], "n_train": 4, "split_sizes": [1, 1, 1]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    code = run("experiment", "--config", tmp_path / "plan.json", "--out", tmp_path / "out")
    assert code == EXIT_CONFIG
    assert "hidden must be a positive integer" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/run-*"))


@pytest.mark.parametrize("config,message", [
    ([{"seeds": [0]}], "experiment config must be a JSON object\n"),
    # a field ExperimentPlan no longer has is refused like any unknown key
    ({"learning_rate": 0.05}, "bad experiment config: .*'learning_rate'\n"),
    # every unknown key is named, after the fields a plan has
    ({"seeds": [0], "learning_rate": 0.05, "batch_size": 4},
     "bad experiment config: a plan's fields are scenarios, conditions, seeds, .*, beam_width;"
     " unknown: 'batch_size', 'learning_rate'\n"),
    ({"alphabet": 5}, "alphabet must be a string of symbols, got 5\n"),
], ids=["list", "unknown-field", "unknown-fields", "alphabet-not-a-string"])
def test_malformed_experiment_config_is_a_config_error(tmp_path, capsys, config, message):
    (tmp_path / "plan.json").write_text(json.dumps(config))
    code = run("experiment", "--config", tmp_path / "plan.json", "--out", tmp_path / "out")
    assert code == EXIT_CONFIG
    assert re.fullmatch("configuration error: " + message, capsys.readouterr().err)
    assert not list(tmp_path.glob("out/run-*"))


@pytest.mark.parametrize("field,value,message", [
    ("freq_jitter", "x", "freq_jitter must be a finite number >= 0, got 'x'"),
    ("snr_db", float("inf"), "snr_db must be a finite number"),
    ("beam_width", 2.5, "beam_width must be a positive integer, got 2.5"),
    ("alphabet", "", "alphabet must hold at least one symbol"),
    ("seeds", [], "seeds must be non-empty without repeats, got ()"),
    ("seeds", [0, 0], "seeds must be non-empty without repeats, got (0, 0)"),
    ("seeds", 3, "seeds must be a list, got 3"),
    ("scenarios", "clean-train", "scenarios must be a list, got 'clean-train'"),
    ("split_sizes", [1, 1, 0], "split_sizes must end in a test size of at least 1"),
    ("split_sizes", [1, 0, 1], "split_sizes needs an unlabeled size of at least 1"),
    ("train_epochs", -1, "train_epochs must be a non-negative integer, got -1"),
    ("finetune_epochs", 2.5, "finetune_epochs must be a non-negative integer, got 2.5"),
    # a list where one integer is expected
    ("hidden", [], "hidden must be a positive integer, got []"),
    ("hidden", [1], "hidden must be a positive integer, got [1]"),
    ("beam_width", [1], "beam_width must be a positive integer, got [1]"),
    ("n_train", [], "n_train must be a positive integer, got []"),
    # values synthesis cannot render
    ("snr_db", 1e300, "snr_db +/- snr_spread_db must lie within +/-3000 dB"),
    ("amp_jitter", 1e300, "amp_jitter must be at most 1, got 1e+300"),
    ("beam_width", 10**20, "beam_width must be at most 1000, got 100000000000000000000"),
    ("seeds", [True], "seeds must be non-negative integers, got (True,)"),
])
def test_bad_plan_value_fails_before_the_grid(tmp_path, capsys, field, value, message):
    plan = {"seeds": [0], "n_train": 4, "split_sizes": [1, 1, 1], field: value}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    code = run("experiment", "--config", tmp_path / "plan.json", "--out", tmp_path / "out")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err and "Warning" not in err
    assert not list(tmp_path.glob("out/run-*"))


@pytest.mark.parametrize("field,value,error", [
    ("hidden", 10**20, "TooLarge: cannot allocate the model: Maximum allowed dimension exceeded"),
    ("n_train", 10**20, "OverflowError: Python int too large to convert to C ssize_t"),
    ("split_sizes", [1, 1, 10**20], "OverflowError: Python int too large to convert to C ssize_t"),
    ("len_range", [2, 10**20], "ValueError: high is out of bounds for int64"),
])
def test_size_no_machine_can_allocate_fails_the_cell(tmp_path, capsys, caplog, monkeypatch,
                                                     field, value, error):
    # the plan has no upper bound on a size: the cell fails typed, with no traceback or warning
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    plan = dict(TINY_PLAN, scenarios=["clean-train"], train_epochs=0, finetune_epochs=0,
                adapt_epochs=0, **{field: value})
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    code = run("experiment", "--config", tmp_path / "plan.json", "--out", tmp_path / "out")
    assert code == EXIT_STAGE
    report = next(tmp_path.glob("out/run-*/report.txt")).read_text()
    assert report.endswith(f"failed: clean-train seed 0: {error}\n")
    err = capsys.readouterr().err + caplog.text
    assert "Traceback" not in err and "Warning" not in err


def test_failed_grid_cell_is_a_stage_failure(tmp_path, capsys, caplog, monkeypatch):
    build = pipeline._build_systems

    def build_or_fail(plan, scenario, *args):
        if scenario == "multi-condition-train":
            raise InvalidInput("no systems today")
        return build(plan, scenario, *args)

    monkeypatch.setattr(pipeline, "_build_systems", build_or_fail)
    (tmp_path / "plan.json").write_text(json.dumps(TINY_PLAN))
    code = run("experiment", "--config", tmp_path / "plan.json", "--out", tmp_path / "out")
    assert code == EXIT_STAGE
    text = next(tmp_path.glob("out/run-*/report.txt")).read_text()
    captured = capsys.readouterr()
    assert text in captured.out
    assert text.endswith("failed: multi-condition-train seed 0: InvalidInput: no systems today\n")
    assert "failed: clean-train" not in text
    # one ERROR line names the cell and its error; the traceback shows only under -v
    failures = [r for r in caplog.records if r.levelname == "ERROR"]
    assert [r.getMessage() for r in failures] == [
        "scenario multi-condition-train seed 0 failed: InvalidInput: no systems today"]
    assert "Traceback" not in caplog.text + captured.err


def test_dead_grid_worker_is_a_stage_failure(tmp_path, capsys, monkeypatch):
    if openblas() is None:
        pytest.skip("no bundled OpenBLAS to pin: the grid runs in this process")
    build, parent = pipeline._build_systems, os.getpid()

    def build_or_die(plan, scenario, *args):
        if scenario == "multi-condition-train" and os.getpid() != parent:
            os._exit(1)
        return build(plan, scenario, *args)

    monkeypatch.setattr(pipeline, "_build_systems", build_or_die)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    (tmp_path / "plan.json").write_text(json.dumps(TINY_PLAN))
    code = run("experiment", "--config", tmp_path / "plan.json", "--out", tmp_path / "out")
    assert code == EXIT_STAGE
    run_dir = next(tmp_path.glob("out/run-*"))
    failed = [line for line in (run_dir / "report.txt").read_text().splitlines()
              if line.startswith("failed: ")]
    # the dying worker breaks the pool, so the other cell may be lost with it
    lost = [line.split()[1] for line in failed]
    assert "multi-condition-train" in lost and len(set(lost)) == len(lost)
    assert all(": BrokenProcessPool: " in line for line in failed)
    per_seed = {scenario: entry["per_seed"]["0"] for scenario, entry in
                json.loads((run_dir / "report.json").read_text())["scenarios"].items()}
    assert {scenario for scenario, cell in per_seed.items() if "error" in cell} == set(lost)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


def test_failed_stage_worker_is_reported_as_serially(tmp_path, capsys, caplog, monkeypatch):
    if openblas() is None:
        pytest.skip("no bundled OpenBLAS to pin: the stages run in this process")
    train = pipeline.train_system

    def train_or_fail(system, data, train_cfg, step):
        if step.startswith("train:") and system.name == "sysB":
            (tmp_path / f"raised-in-{os.getpid()}").touch()
            raise InvalidInput("no system B today")
        return train(system, data, train_cfg, step)

    monkeypatch.setattr(pipeline, "train_system", train_or_fail)
    (tmp_path / "plan.json").write_text(json.dumps(dict(TINY_PLAN, scenarios=["clean-train"])))
    seen = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        caplog.clear()
        out = tmp_path / f"cpus{len(cpus)}"
        assert run("experiment", "--config", tmp_path / "plan.json", "--out", out) == EXIT_STAGE
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        seen.append((next(out.glob("run-*/report.txt")).read_text(), errors))
    # B's build raised here, then in a forked worker
    raised = {p.name for p in tmp_path.glob("raised-in-*")}
    assert f"raised-in-{os.getpid()}" in raised and len(raised) == 2
    assert seen[0] == seen[1]
    report, errors = seen[0]
    assert report.endswith("failed: clean-train seed 0: InvalidInput: no system B today\n")
    assert errors == ["scenario clean-train seed 0 failed: InvalidInput: no system B today"]
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_dead_stage_worker_is_a_stage_failure(tmp_path, capsys, monkeypatch):
    if openblas() is None:
        pytest.skip("no bundled OpenBLAS to pin: the stages run in this process")
    train, parent = pipeline.train_system, os.getpid()

    def train_or_die(system, data, train_cfg, step):
        if system.name == "sysB" and os.getpid() != parent:
            os._exit(1)
        return train(system, data, train_cfg, step)

    monkeypatch.setattr(pipeline, "train_system", train_or_die)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    (tmp_path / "plan.json").write_text(json.dumps(dict(TINY_PLAN, scenarios=["clean-train"])))
    code = run("experiment", "--config", tmp_path / "plan.json", "--out", tmp_path / "out")
    assert code == EXIT_STAGE
    report = next(tmp_path.glob("out/run-*/report.txt")).read_text()
    failed = [line for line in report.splitlines() if line.startswith("failed: ")]
    assert len(failed) == 1
    assert failed[0].startswith("failed: clean-train seed 0: BrokenProcessPool: ")
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


def _children(pid):
    """Pids of the live (not zombie) processes whose parent is ``pid``, read from /proc."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended meanwhile
            continue
        if fields[1] == str(pid) and fields[0] != "Z":
            found.append(int(stat.parent.name))
    return found


def _alive(pid):
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_killed_experiment_leaves_no_workers(tmp_path):
    if openblas() is None or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs a bundled OpenBLAS and two usable CPUs: else nothing forks")
    # one cell whose two system builds take a few seconds each
    plan = dict(TINY_PLAN, scenarios=["clean-train"], n_train=20, hidden=32, train_epochs=40)
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "mhctc.cli", "experiment", "--config", tmp_path / "plan.json",
         "--out", tmp_path / "out"],
        env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
            workers = _children(proc.pid)
        assert len(workers) == 2, "the experiment forked no workers"
        proc.terminate()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(_alive, workers))
    finally:
        proc.kill()
        proc.wait(timeout=10)
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)


def test_checkpoint_bytes_do_not_follow_the_blas_threads(ws, tmp_path):
    blas = openblas()
    if blas is None:
        pytest.skip("no bundled OpenBLAS to pin")
    default_threads = blas.scipy_openblas_get_num_threads64_()
    try:
        for threads in (2, 1):
            blas.scipy_openblas_set_num_threads64_(threads)
            assert run("train", "--corpus", ws / "train/manifest.json",
                       "--out", tmp_path / f"threads{threads}.ckpt", "--epochs", 2) == EXIT_OK
    finally:
        blas.scipy_openblas_set_num_threads64_(default_threads)
    assert (tmp_path / "threads2.ckpt").read_bytes() == (tmp_path / "threads1.ckpt").read_bytes()


@pytest.mark.parametrize("command", ["train", "adapt"])
def test_divergence_is_a_stage_failure(ws, tmp_path, capsys, caplog, command):
    argv = {
        "train": ["train", "--corpus", ws / "train/manifest.json", *FAST_TRAIN],
        "adapt": ["adapt", "--ckpt", ws / "ste.ckpt", "--condition", "supervised-all",
                  "--labeled", ws / "lab/manifest.json", "--unlabeled", ws / "unlab/manifest.json",
                  "--epochs", 2],
    }[command]
    out = tmp_path / "m.ckpt"
    # no RuntimeWarning on the way: pytest.ini makes one an error
    assert run(*argv, "--learning-rate", 1e300, "--out", out) == EXIT_STAGE
    err = capsys.readouterr().err
    assert re.fullmatch(r"stage failure: DivergedError: non-finite loss or gradient at epoch \d+\n",
                        err)
    assert "Traceback" not in err + caplog.text
    assert not out.exists()


# 10**12 hidden units or context frames are petabytes, past any 47-bit address space, so no
# machine begins the allocation; 10**20 is past numpy's largest dimension, 10**400 past a float
@pytest.mark.parametrize("flag,value", [("--hidden", 10**12), ("--context", 10**12),
                                        ("--hidden", 10**20), ("--hidden", 10**400)],
                         ids=["hidden", "context", "hidden-past-intp", "hidden-past-float"])
def test_model_no_machine_can_hold_is_a_stage_failure(ws, tmp_path, capsys, caplog, flag, value):
    out = tmp_path / "m.ckpt"
    assert run("train", "--corpus", ws / "lab/manifest.json", "--out", out, "--epochs", 0,
               flag, value) == EXIT_STAGE
    err = capsys.readouterr().err
    assert re.fullmatch(r"stage failure: TooLarge: cannot allocate the model: [^\n]*\n", err)
    assert "Traceback" not in err + caplog.text
    assert not out.exists()


def test_malformed_manifest_record_is_a_config_error(ws, tmp_path, capsys):
    shutil.copytree(ws / "unlab", tmp_path / "bad")
    path = tmp_path / "bad/manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["utterances"][1]["transcription"]
    path.write_text(json.dumps(manifest))
    assert run("decode", "--ckpt", ws / "ste.ckpt", "--corpus", path,
               "--out", tmp_path / "h.json") == EXIT_CONFIG
    assert "utterance record 1 needs id (str), path (str), transcription (str)" in (
        capsys.readouterr().err)
    assert not (tmp_path / "h.json").exists()


MANIFEST_SHAPE = 'a manifest is a JSON object with lists "utterances" and "alphabet"'
ONE_CHARACTER = "alphabet symbols must be one-character strings, got "


@pytest.mark.parametrize("manifest,message", [
    ({"utterances": []}, MANIFEST_SHAPE), ([], MANIFEST_SHAPE),
    ({"utterances": {}, "alphabet": []}, MANIFEST_SHAPE),
    # the alphabet follows LabelAlphabet's rule: unique one-character strings
    ({"utterances": [], "alphabet": [{}]}, ONE_CHARACTER + "[{}]"),
    ({"utterances": [], "alphabet": [1, 2]}, ONE_CHARACTER + "[1, 2]"),
    ({"utterances": [], "alphabet": ["ab", "c"]}, ONE_CHARACTER + "['ab', 'c']"),
    ({"utterances": [], "alphabet": ["a", "a", "c", "d", "e"]},
     "alphabet symbols must be unique"),
], ids=[f"manifest{i}" for i in range(7)])
def test_malformed_manifest_top_level_is_a_config_error(ws, tmp_path, capsys, manifest, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run("decode", "--ckpt", ws / "ste.ckpt", "--corpus", path,
               "--out", tmp_path / "h.json") == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {path}: {message}\n"
    assert not (tmp_path / "h.json").exists()


def test_exit_code_follows_the_error_class(monkeypatch, capsys):
    def subclasses(cls):
        return [cls] + [c for sub in cls.__subclasses__() for c in subclasses(sub)]

    for cls in subclasses(MhctcError):
        def fail(args):
            raise cls("the message")
        monkeypatch.setitem(cli.COMMANDS, "score", fail)
        code = run("score", "--ref", "refs.json", "--hyp", "hyps.json")
        err = capsys.readouterr().err
        if issubclass(cls, ConfigError):
            assert (code, err) == (EXIT_CONFIG, "configuration error: the message\n"), cls
        else:
            assert (code, err) == (EXIT_STAGE, f"stage failure: {cls.__name__}: the message\n")


def test_too_short_waveform_is_a_stage_failure(ws, tmp_path, capsys):
    corpus, alphabet = load_corpus(ws / "unlab/manifest.json")
    corpus[0].waveform = corpus[0].waveform[:50]  # shorter than one 25 ms frame
    save_corpus(corpus, alphabet, tmp_path / "short")
    assert run("decode", "--ckpt", ws / "ste.ckpt", "--corpus", tmp_path / "short/manifest.json",
               "--out", tmp_path / "h.json") == EXIT_STAGE
    assert "stage failure: TooShort" in capsys.readouterr().err


def test_waveform_within_the_envelope_filter_padding_is_a_stage_failure(ws, tmp_path, capsys):
    # at 201 Hz a frame is 5 samples, so 10 samples frame, but STE's
    # low-pass needs more than its 15-sample edge padding
    corpus, alphabet = load_corpus(ws / "unlab/manifest.json")
    corpus[0].waveform, corpus[0].sample_rate = corpus[0].waveform[:10], 201
    save_corpus(corpus[:1], alphabet, tmp_path / "short")
    assert run("decode", "--ckpt", ws / "ste.ckpt", "--corpus", tmp_path / "short/manifest.json",
               "--out", tmp_path / "h.json") == EXIT_STAGE
    err = capsys.readouterr().err
    assert err.startswith("stage failure: TooShort") and "10 samples" in err
    assert not (tmp_path / "h.json").exists()
