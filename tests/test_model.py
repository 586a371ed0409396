import json
import logging

import numpy as np
import pytest

from mhctc.ctc import ctc_loss
from mhctc.errors import DivergedError, InvalidInput, InvalidLabel, ShapeError
from mhctc.features import FeatureConfig
from mhctc.model import (
    ModelConfig,
    System,
    TrainConfig,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
    sgd_train,
    stack_context,
    with_lineage,
)

from helpers import backward, stack_context_reference


def tiny_model(seed=0, feat_dim=3, n_outputs=3, context=1, hidden=5):
    return init_model(ModelConfig(feat_dim=feat_dim, n_outputs=n_outputs,
                                  context=context, hidden=hidden, seed=seed))


def flatten(params):
    return np.concatenate([v.ravel() for v in params.tensors().values()])


class TestForward:
    def test_zero_weights_uniform(self):
        m = tiny_model()
        m.w1[:] = 0
        m.w2[:] = 0
        logp = forward(m, np.random.default_rng(0).standard_normal((4, 3)))
        np.testing.assert_allclose(logp, -np.log(3.0), atol=1e-12)

    def test_single_frame(self):
        m = tiny_model()
        assert forward(m, np.zeros((1, 3))).shape == (1, 3)

    def test_deterministic_from_seed(self):
        x = np.random.default_rng(1).standard_normal((6, 3))
        a = forward(tiny_model(seed=7), x)
        b = forward(tiny_model(seed=7), x)
        np.testing.assert_array_equal(a, b)

    def test_rows_normalized(self):
        x = np.random.default_rng(2).standard_normal((5, 3))
        logp = forward(tiny_model(), x)
        np.testing.assert_allclose(np.logaddexp.reduce(logp, axis=1), 0.0, atol=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            forward(tiny_model(), np.zeros((4, 7)))


class TestStackContext:
    def test_shape_and_center(self):
        x = np.arange(12, dtype=float).reshape(4, 3)
        xc = stack_context(x, 1)
        assert xc.shape == (4, 9)
        np.testing.assert_array_equal(xc[:, 3:6], x)
        np.testing.assert_array_equal(xc[0, :3], 0.0)  # zero padding at edges

    @pytest.mark.parametrize("T", [0, 1, 2, 9, 95])
    @pytest.mark.parametrize("context", [0, 1, 4])
    def test_matches_reference(self, T, context):
        x = np.random.default_rng(T * 10 + context).standard_normal((T, 7))
        got, want = stack_context(x, context), stack_context_reference(x, context)
        assert got.shape == want.shape and got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)


class TestBackward:
    def test_zero_grad(self):
        m = tiny_model()
        x = np.random.default_rng(0).standard_normal((4, 3))
        g = backward(m, x, np.zeros((4, 3)))
        assert all(np.all(v == 0) for v in g.values())

    def test_grad_shape_mismatch(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        with pytest.raises(ShapeError, match=r"grad_logp shape \(4, 2\) != output shape \(4, 3\)"):
            backward(tiny_model(), x, np.zeros((4, 2)))

    def test_duplicated_utterance_doubles_contribution(self):
        # batch gradients are sums of per-utterance gradients, so listing an
        # utterance twice contributes exactly 2x its single-call gradient
        m = tiny_model()
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3))
        res = ctc_loss(forward(m, x), (1,))
        single = backward(m, x, res.grad)
        twice = {k: single[k] + backward(m, x, res.grad)[k] for k in single}
        for k in single:
            np.testing.assert_array_equal(twice[k], 2 * single[k])

    def test_parameter_finite_differences(self):
        m = tiny_model(hidden=4)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 3))
        labels = (1, 2)

        def loss_of(params):
            return ctc_loss(forward(params, x), labels).loss

        res = ctc_loss(forward(m, x), labels)
        grads = backward(m, x, res.grad)
        h = 1e-5
        for name in ("w1", "b1", "w2", "b2"):
            tensor = getattr(m, name)
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + h
                up = loss_of(m)
                tensor[idx] = orig - h
                dn = loss_of(m)
                tensor[idx] = orig
                fd = (up - dn) / (2 * h)
                assert abs(fd - grads[name][idx]) <= 1e-5 * max(1.0, abs(fd))


class TestSgdTrain:
    def make_dataset(self, rng, n=3):
        data = []
        for _ in range(n):
            x = rng.standard_normal((8, 3))
            data.append((x, ((1, 2),)))
        return data

    def test_zero_epochs_unchanged(self):
        m = tiny_model()
        out, curve = sgd_train(m, self.make_dataset(np.random.default_rng(0)),
                               TrainConfig(epochs=0))
        np.testing.assert_array_equal(flatten(out), flatten(m))
        assert curve == []

    def test_loss_decreases(self):
        rng = np.random.default_rng(1)
        data = self.make_dataset(rng, n=1)
        m = tiny_model(hidden=16)
        _, curve = sgd_train(m, data, TrainConfig(learning_rate=0.1, epochs=200, seed=0))
        assert curve[-1] < curve[0]

    def test_determinism(self):
        rng = np.random.default_rng(2)
        data = self.make_dataset(rng)
        cfg = TrainConfig(learning_rate=0.05, epochs=5, seed=3)
        a, _ = sgd_train(tiny_model(seed=1), data, cfg)
        b, _ = sgd_train(tiny_model(seed=1), data, cfg)
        np.testing.assert_array_equal(flatten(a), flatten(b))

    def test_mixed_targets(self):
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal((8, 3))
        x2 = rng.standard_normal((8, 3))
        data = [
            (x1, ((1,),)),
            (x2, ((1, 2), (2,))),
        ]
        _, curve = sgd_train(tiny_model(), data, TrainConfig(epochs=2))
        assert len(curve) == 2

    def test_infeasible_skipped(self, caplog):
        data = [(np.zeros((1, 3)), ((1, 1, 2),))]  # needs 4 frames, has 1
        with caplog.at_level(logging.WARNING, logger="mhctc.model"):
            _, curve = sgd_train(tiny_model(), data, TrainConfig(epochs=3))
        assert len(curve) == 3 and all(np.isnan(curve))
        # feasibility is decided once per training run, not once per epoch
        skips = [r for r in caplog.records if "skipping infeasible utterance" in r.getMessage()]
        assert len(skips) == 1
        assert skips[0].getMessage() == (
            "skipping infeasible utterance 0: transcription needs at least 4 frames, got 1")

    def test_zero_frame_utterance_is_infeasible(self, caplog):
        # the lattice needs at least one frame, even for an empty transcription
        data = [(np.zeros((0, 3)), ((),))]
        with caplog.at_level(logging.WARNING, logger="mhctc.model"):
            _, curve = sgd_train(tiny_model(), data, TrainConfig(epochs=2))
        assert len(curve) == 2 and all(np.isnan(curve))
        assert caplog.messages == [
            "skipping infeasible utterance 0: transcription needs at least 1 frames, got 0"]

    def test_divergence_raises_naming_the_epoch(self):
        rng = np.random.default_rng(8)
        data = self.make_dataset(rng, n=8)
        # no RuntimeWarning on the way: pytest.ini makes one an error
        with pytest.raises(DivergedError, match=r"non-finite loss or gradient at epoch \d+"):
            sgd_train(tiny_model(hidden=16), data, TrainConfig(learning_rate=1e300, epochs=20))

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_bad_features_raise_even_when_infeasible(self, epochs):
        rng = np.random.default_rng(6)
        data = [(rng.standard_normal((8, 3)), ((1, 2),)), (np.zeros((1, 5)), ((1, 1, 2),))]
        with pytest.raises(ShapeError):
            sgd_train(tiny_model(), data, TrainConfig(epochs=epochs))

    def test_invalid_label_raises_before_any_epoch(self):
        data = [(np.zeros((8, 3)), ((1, 3),))]  # 3 outputs: symbols 1 and 2
        with pytest.raises(InvalidLabel):
            sgd_train(tiny_model(), data, TrainConfig(epochs=0))

    @pytest.mark.parametrize("target", [(1, 2), ()], ids=["bare-transcription", "empty"])
    def test_target_not_a_tuple_of_transcriptions_raises(self, target):
        data = [(np.zeros((8, 3)), target)]
        with pytest.raises(InvalidInput, match="non-empty tuple of transcriptions"):
            sgd_train(tiny_model(), data, TrainConfig(epochs=0))

    def test_all_infeasible_batches_leave_params_unchanged(self):
        hs_bad = ((1,), (2, 2))
        data = [(np.zeros((1, 3)), ((1, 1, 2),)), (np.ones((2, 3)), hs_bad)]
        m = tiny_model()
        out, curve = sgd_train(m, data, TrainConfig(epochs=2, batch_size=2))
        np.testing.assert_array_equal(flatten(out), flatten(m))
        assert len(curve) == 2 and all(np.isnan(curve))

    def test_infeasible_utterances_leave_the_batch_as_its_feasible_subset(self):
        rng = np.random.default_rng(4)
        data = [
            (rng.standard_normal((8, 3)), ((1, 2),)),
            (rng.standard_normal((2, 3)), ((1, 1, 2),)),  # needs 4 frames
            (rng.standard_normal((6, 3)), ((1, 2), (2,))),
            (rng.standard_normal((3, 3)), ((1,), (2, 2, 2))),
            (rng.standard_normal((7, 3)), ((2,),)),
        ]
        cfg = TrainConfig(epochs=1, batch_size=len(data), seed=5)
        mixed, mixed_curve = sgd_train(tiny_model(), data, cfg)
        # sgd_train visits dataset[i] for i in default_rng(seed).permutation(n);
        # lay the subset out so that it is visited in the mixed batch's order
        visit = [i for i in np.random.default_rng(cfg.seed).permutation(len(data)) if i not in (1, 3)]
        subset = [None] * len(visit)
        for i, slot in zip(visit, np.random.default_rng(cfg.seed).permutation(len(visit))):
            subset[slot] = data[i]
        sub, sub_curve = sgd_train(tiny_model(), subset, cfg)
        np.testing.assert_array_equal(flatten(mixed), flatten(sub))
        assert mixed_curve == sub_curve


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = with_lineage(tiny_model(seed=5), "test-stage")
        path = tmp_path / "m.ckpt"
        fcfg = FeatureConfig(kind="ste", n_bands=1)
        save_checkpoint(System(name="a", feature_cfg=fcfg, params=m), path, ("a", "b"))
        loaded, symbols = load_checkpoint(path)
        assert symbols == ("a", "b")
        assert loaded.name == "m"
        assert loaded.feature_cfg == fcfg
        assert loaded.params.config == m.config
        assert loaded.params.lineage == m.lineage
        np.testing.assert_array_equal(flatten(loaded.params), flatten(m))
        # the model's input and output sizes are stored once, as the front end and the alphabet
        data = path.read_bytes()
        header = json.loads(data[16 : 16 + int.from_bytes(data[8:16], "little")])
        assert header["config"] == {"context": 1, "hidden": 5, "seed": 5}

    def test_byte_identical_rewrites(self, tmp_path):
        system = System(name="a", feature_cfg=FeatureConfig(n_bands=1), params=tiny_model(seed=6))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(system, p1, ("a", "b"))
        save_checkpoint(system, p2, ("a", "b"))
        assert p1.read_bytes() == p2.read_bytes()
