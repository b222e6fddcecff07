import numpy as np
import pytest

from ballwsd.corpus import TrainingRecord
from ballwsd.embeddings import EmbeddingTable
from ballwsd.encoder import (TrainConfig, batch_loss_and_grads,
                             embed_records, forward_batch,
                             init_params, load_encoder, prepare_arrays,
                             save_encoder, train)
from ballwsd.inventory import SenseId

from helpers import configuration, gradient_check


def toy_setup():
    """Two senses with linearly separable contexts and opposite centers."""
    s1, s2 = SenseId("alpha", "n", 1), SenseId("beta", "n", 1)
    rng = np.random.default_rng(10)
    table = EmbeddingTable({
        "alpha": rng.standard_normal(8),
        "beta": rng.standard_normal(8),
        "ctxa": rng.standard_normal(8),
        "ctxb": rng.standard_normal(8),
        "pad": rng.standard_normal(8),
    })
    centers = {str(s1): np.array([1.0, 0.0, 0.0, 0.0]),
               str(s2): np.array([-1.0, 0.5, 0.0, 0.0])}
    balls = configuration(((sid, c, 0.1) for sid, c in centers.items()), prefix=2)
    records = []
    for sense, ctx in ((s1, "ctxa"), (s2, "ctxb")):
        for i in range(12):
            toks = ("pad", str(sense.lemma), ctx) if i % 2 else (str(sense.lemma), ctx, "pad")
            records.append(TrainingRecord(sense, sense, toks, (1 if i % 2 else 0,)))
    return table, balls, records


class TestParams:
    def test_init_deterministic(self):
        a = init_params(8, 4, seed=3)
        b = init_params(8, 4, seed=3)
        assert sorted(a.arrays) == sorted(b.arrays)
        for name in a.arrays:
            assert np.array_equal(a.arrays[name], b.arrays[name])

    def test_seed_changes_weights(self):
        a = init_params(8, 4, seed=3)
        b = init_params(8, 4, seed=4)
        assert not np.array_equal(a.arrays["head.w2"], b.arrays["head.w2"])

    def test_shapes(self):
        p = init_params(8, 5)
        assert (p.dim, p.out_dim) == (8, 5)
        assert p.arrays["role"].shape == (2, 8)
        assert p.arrays["l0.wq"].shape == (8, 8)
        assert p.arrays["l1.ff1"].shape == (8, 32)
        assert p.arrays["head.w1"].shape == (16, 16)
        assert p.arrays["head.w2"].shape == (16, 5)

    def test_width_must_divide_heads(self):
        with pytest.raises(ValueError):
            init_params(9, 4)

    def test_train_config_validation(self):
        TrainConfig(epochs=0)
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                TrainConfig(lr=bad)
        with pytest.raises(ValueError):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(window_k=-1)


class TestForward:
    def test_output_shape_and_finite(self):
        p = init_params(8, 5, seed=1)
        v = forward_batch(p, np.ones((1, 8)), np.zeros((1, 8)))
        assert v.shape == (1, 5) and np.all(np.isfinite(v))

    def test_batch_matches_single(self):
        p = init_params(8, 5, seed=2)
        rng = np.random.default_rng(11)
        T = rng.standard_normal((6, 8))
        C = rng.standard_normal((6, 8))
        V = forward_batch(p, T, C)
        for i in range(6):
            assert np.allclose(V[i], forward_batch(p, T[i:i + 1], C[i:i + 1])[0], atol=1e-12)

    def test_dim_mismatch_raises(self):
        p = init_params(8, 5)
        with pytest.raises(ValueError, match="model width is 8"):
            forward_batch(p, np.ones((1, 7)), np.zeros((1, 8)))
        with pytest.raises(ValueError, match="model width is 8"):
            forward_batch(p, np.ones((2, 8)), np.zeros((2, 6)))

    def test_order_sensitivity(self):
        # role embeddings break slot symmetry: swapping inputs changes output
        p = init_params(8, 5, seed=3)
        rng = np.random.default_rng(12)
        t, c = rng.standard_normal((1, 8)), rng.standard_normal((1, 8))
        assert not np.allclose(forward_batch(p, t, c), forward_batch(p, c, t))


class TestLoss:
    def test_matches_cosine_formula(self):
        p = init_params(8, 4, seed=4)
        rng = np.random.default_rng(13)
        t, c = rng.standard_normal(8), rng.standard_normal(8)
        y = rng.standard_normal(4)
        v = forward_batch(p, t[None], c[None])[0]
        want = 1.0 - float(np.dot(v, y) / (np.linalg.norm(v) * np.linalg.norm(y)))
        value, _ = batch_loss_and_grads(p, t[None], c[None], y[None])
        assert value == pytest.approx(want, abs=1e-12)

    def test_zero_target_raises(self):
        p = init_params(8, 4, seed=4)
        with pytest.raises(ValueError):
            batch_loss_and_grads(p, np.ones((1, 8)), np.ones((1, 8)), np.zeros((1, 4)))

    def test_batch_loss_is_mean(self):
        p = init_params(8, 4, seed=5)
        rng = np.random.default_rng(14)
        T = rng.standard_normal((5, 8))
        C = rng.standard_normal((5, 8))
        Y = rng.standard_normal((5, 4))
        value, _ = batch_loss_and_grads(p, T, C, Y)
        singles = [batch_loss_and_grads(p, T[i:i + 1], C[i:i + 1], Y[i:i + 1])[0]
                   for i in range(5)]
        assert value == pytest.approx(float(np.mean(singles)), abs=1e-12)


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        p = init_params(8, 6, seed=6)
        rng = np.random.default_rng(15)
        T = rng.standard_normal((4, 8))
        C = rng.standard_normal((4, 8))
        Y = rng.standard_normal((4, 6))
        checked, skipped, worst, worst_abs = gradient_check(
            p, T, C, Y, h=1e-6, n_coords=60, rng=rng)
        assert checked >= 60
        assert worst <= 1e-4, f"worst relative error {worst:.3e} (skipped {skipped})"
        assert worst_abs <= 1e-5

    def test_gradient_nonzero_for_every_array(self):
        p = init_params(8, 6, seed=7)
        rng = np.random.default_rng(16)
        T = rng.standard_normal((6, 8))
        C = rng.standard_normal((6, 8))
        Y = rng.standard_normal((6, 6))
        _, grads = batch_loss_and_grads(p, T, C, Y)
        assert sorted(grads) == sorted(p.arrays)
        for name, g in grads.items():
            assert g.shape == p.arrays[name].shape
            assert np.all(np.isfinite(g))


class TestArrays:
    def test_embed_records_window_semantics(self):
        table, balls, records = toy_setup()
        T, C = embed_records(records[:1], table, window_k=2)
        rec = records[0]
        vecs = np.stack([table.vector(t) for t in rec.tokens])
        assert np.allclose(T[0], vecs[rec.indices[0]], atol=1e-15)
        rows = [j for j in range(3) if j != rec.indices[0]]
        assert np.allclose(C[0], vecs[rows].mean(axis=0), atol=1e-15)

    def test_prepare_arrays_targets_are_centers(self):
        table, balls, records = toy_setup()
        T, C, Y = prepare_arrays(records, table, balls, window_k=2)
        assert T.shape == (24, 8) and Y.shape == (24, 4)
        assert np.array_equal(Y[0], balls.centers[balls.row[str(records[0].target)]])

    def test_prepare_arrays_missing_ball_raises(self):
        table, balls, records = toy_setup()
        ghost = SenseId("ghost", "n", 1)
        bad = [TrainingRecord(ghost, ghost, ("pad",), (0,))]
        with pytest.raises(ValueError):
            prepare_arrays(bad, table, balls, window_k=2)

    def test_empty_records_raise(self):
        table, balls, _ = toy_setup()
        with pytest.raises(ValueError):
            prepare_arrays([], table, balls, window_k=2)


class TestTraining:
    def test_loss_decreases_on_separable_data(self):
        table, balls, records = toy_setup()
        cfg = TrainConfig(window_k=2, lr=0.05, epochs=15, batch_size=8, seed=0)
        result = train(records, table, balls, cfg)
        assert result.curve[-1][1] < 0.25 * result.curve[0][1]
        assert [e for e, _ in result.curve] == list(range(15))

    def test_deterministic_given_seed(self):
        table, balls, records = toy_setup()
        cfg = TrainConfig(window_k=2, lr=0.05, epochs=3, batch_size=8, seed=5)
        a = train(records, table, balls, cfg)
        b = train(records, table, balls, cfg)
        assert a.curve == b.curve
        for name in a.params.arrays:
            assert np.array_equal(a.params.arrays[name], b.params.arrays[name])

    def test_seed_changes_outcome(self):
        table, balls, records = toy_setup()
        a = train(records, table, balls, TrainConfig(window_k=2, epochs=2, seed=1))
        b = train(records, table, balls, TrainConfig(window_k=2, epochs=2, seed=2))
        assert not np.array_equal(a.params.arrays["head.w2"], b.params.arrays["head.w2"])

    def test_zero_epochs_returns_init(self):
        table, balls, records = toy_setup()
        cfg = TrainConfig(window_k=2, epochs=0, seed=9)
        result = train(records, table, balls, cfg)
        init = init_params(8, 4, seed=9)
        assert result.curve == []
        for name in init.arrays:
            assert np.array_equal(result.params.arrays[name], init.arrays[name])


class TestCheckpoints:
    def test_round_trip_exact(self, tmp_path):
        table, balls, records = toy_setup()
        cfg = TrainConfig(window_k=2, epochs=2, seed=0)
        result = train(records, table, balls, cfg)
        path = tmp_path / "ck.json"
        save_encoder(result.params, path, cfg)
        params, tc = load_encoder(path)
        assert tc == cfg
        assert params.dim == result.params.dim
        assert params.out_dim == result.params.out_dim
        for name in result.params.arrays:
            assert np.array_equal(params.arrays[name], result.params.arrays[name])

    def test_missing_train_config_rejected(self, tmp_path):
        import json
        path = tmp_path / "ck.json"
        save_encoder(init_params(4, 2, seed=0), path, TrainConfig())
        doc = json.loads(path.read_text())
        del doc["train_config"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="no train_config"):
            load_encoder(path)

    def test_save_is_deterministic(self, tmp_path):
        p = init_params(4, 2, seed=0)
        save_encoder(p, tmp_path / "a.json", TrainConfig())
        save_encoder(p, tmp_path / "b.json", TrainConfig())
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_wrong_version_rejected(self, tmp_path):
        import json
        p = init_params(4, 2, seed=0)
        path = tmp_path / "ck.json"
        save_encoder(p, path, TrainConfig())
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_encoder(path)

    def test_unknown_train_config_key_rejected(self, tmp_path):
        import json
        path = tmp_path / "ck.json"
        save_encoder(init_params(4, 2, seed=0), path, TrainConfig())
        doc = json.loads(path.read_text())
        doc["train_config"]["momentum"] = 0.9
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_encoder(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_encoder(path)

    def test_loaded_params_reproduce_outputs(self, tmp_path):
        table, balls, records = toy_setup()
        cfg = TrainConfig(window_k=2, epochs=2, seed=0)
        result = train(records, table, balls, cfg)
        path = tmp_path / "ck.json"
        save_encoder(result.params, path, cfg)
        params, _ = load_encoder(path)
        rng = np.random.default_rng(17)
        t, c = rng.standard_normal((1, 8)), rng.standard_normal((1, 8))
        assert np.array_equal(forward_batch(params, t, c), forward_batch(result.params, t, c))
