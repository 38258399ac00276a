"""Tests for layers, module system, attention, transformer, optimizers, losses."""

import dataclasses

import numpy as np
import pytest

from repro.core.model import MODEL_PRESETS, BootlegConfig, BootlegModel
from repro.core.modules import KG2Ent
from repro.corpus import CorpusConfig, NedDataset, build_vocabulary, generate_corpus
from repro.errors import ConfigError, SerializationError, ShapeError
from repro.kb import TwoHopKnowledgeGraph, WorldConfig, generate_world
from repro.nn import (
    MLP,
    Adam,
    AdditiveAttention,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    Parameter,
    SGD,
    Sequential,
    Tensor,
    TransformerEncoder,
    accuracy,
    clip_grad_norm,
    compute_dtype,
    cross_entropy,
    load_module,
    no_grad,
    save_module,
    sinusoidal_position_encoding,
)
from repro.nn.loss import IGNORE_INDEX


def make_rng():
    return np.random.default_rng(42)


class TestLinear:
    def test_shapes(self):
        layer = Linear(4, 7, make_rng())
        out = layer(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 7)

    def test_batched_shapes(self):
        layer = Linear(4, 7, make_rng())
        out = layer(Tensor(np.ones((2, 3, 4))))
        assert out.shape == (2, 3, 7)

    def test_wrong_dim_raises(self):
        layer = Linear(4, 7, make_rng())
        with pytest.raises(ShapeError):
            layer(Tensor(np.ones((3, 5))))

    def test_no_bias(self):
        layer = Linear(4, 7, make_rng(), bias=False)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_learns_identity(self):
        rng = make_rng()
        layer = Linear(3, 3, rng)
        opt = Adam(layer.parameters(), lr=0.05)
        x = rng.normal(size=(64, 3))
        for _ in range(200):
            opt.zero_grad()
            out = layer(Tensor(x))
            loss = ((out - Tensor(x)) ** 2).mean()
            loss.backward()
            opt.step()
        assert loss.item() < 1e-3

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            Linear(0, 3, make_rng())


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 5, make_rng())
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 5)

    def test_out_of_range(self):
        emb = Embedding(10, 5, make_rng())
        with pytest.raises(ShapeError):
            emb(np.array([10]))
        with pytest.raises(ShapeError):
            emb(np.array([-1]))

    def test_uniform_init_identical_rows(self):
        emb = Embedding(6, 4, make_rng(), uniform_init=True)
        rows = emb.weight.data
        for i in range(1, 6):
            np.testing.assert_allclose(rows[i], rows[0])

    def test_gradients_flow_to_selected_rows_only(self):
        emb = Embedding(5, 3, make_rng())
        out = emb(np.array([1, 3]))
        out.sum().backward()
        grad = emb.weight.grad
        assert grad[1].sum() != 0 and grad[3].sum() != 0
        np.testing.assert_allclose(grad[0], 0)
        np.testing.assert_allclose(grad[2], 0)
        np.testing.assert_allclose(grad[4], 0)


class TestLayerNorm:
    def test_normalizes(self):
        ln = LayerNorm(8)
        x = Tensor(np.random.default_rng(0).normal(3.0, 5.0, size=(4, 8)))
        out = ln(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_wrong_dim(self):
        with pytest.raises(ShapeError):
            LayerNorm(8)(Tensor(np.ones((2, 4))))

    def test_gradcheck(self):
        ln = LayerNorm(6)
        x = Tensor(np.random.default_rng(1).normal(size=(3, 6)), requires_grad=True)
        loss = (ln(x) ** 2).sum()
        loss.backward()
        assert x.grad is not None and np.isfinite(x.grad).all()


class TestDropout:
    def test_eval_is_identity(self):
        drop = Dropout(0.5, make_rng())
        drop.eval()
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_allclose(drop(x).data, 1.0)

    def test_training_masks_and_scales(self):
        drop = Dropout(0.5, make_rng())
        x = Tensor(np.ones((100, 100)))
        out = drop(x).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.4 < (out != 0).mean() < 0.6

    def test_training_is_identity_under_no_grad(self):
        drop = Dropout(0.5, make_rng())
        assert drop.training
        x = Tensor(np.ones((100, 100)))
        with no_grad():
            assert drop(x) is x
        out = drop(x).data
        assert (out == 0).any()
        np.testing.assert_allclose(out[out != 0], 2.0)

    def test_zero_p_identity(self):
        drop = Dropout(0.0, make_rng())
        x = Tensor(np.ones((5, 5)))
        np.testing.assert_allclose(drop(x).data, 1.0)

    def test_invalid_p(self):
        with pytest.raises(ConfigError):
            Dropout(1.0, make_rng())
        with pytest.raises(ConfigError):
            Dropout(-0.1, make_rng())


class TestMLP:
    def test_shapes(self):
        mlp = MLP([4, 8, 2], make_rng())
        out = mlp(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)

    def test_needs_two_dims(self):
        with pytest.raises(ConfigError):
            MLP([4], make_rng())

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            MLP([4, 2], make_rng(), activation="swish")

    def test_learns_xor(self):
        rng = make_rng()
        mlp = MLP([2, 16, 1], rng, activation="tanh")
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([[0.0], [1.0], [1.0], [0.0]])
        opt = Adam(mlp.parameters(), lr=0.02)
        for _ in range(400):
            opt.zero_grad()
            loss = ((mlp(Tensor(x)) - Tensor(y)) ** 2).mean()
            loss.backward()
            opt.step()
        assert loss.item() < 0.01


class TestModuleSystem:
    def test_named_parameters_nested(self):
        class Inner(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(2))

        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.inner = Inner()
                self.layers = [Linear(2, 2, make_rng())]
                self.table = {"a": Inner()}

        outer = Outer()
        names = {name for name, _ in outer.named_parameters()}
        assert "inner.w" in names
        assert "layers.0.weight" in names
        assert "table.a.w" in names

    def test_train_eval_propagates(self):
        seq = Sequential(Dropout(0.5, make_rng()), Linear(2, 2, make_rng()))
        seq.eval()
        assert all(not m.training for m in seq.modules())
        seq.train()
        assert all(m.training for m in seq.modules())

    def test_state_dict_roundtrip(self):
        a = MLP([3, 4, 2], make_rng())
        b = MLP([3, 4, 2], np.random.default_rng(7))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_mismatch(self):
        a = MLP([3, 4, 2], make_rng())
        b = MLP([3, 5, 2], make_rng())
        with pytest.raises(SerializationError):
            b.load_state_dict(a.state_dict())

    def test_save_load_module(self, tmp_path):
        a = MLP([3, 4, 2], make_rng())
        path = tmp_path / "model.npz"
        save_module(a, path, metadata={"epoch": 3})
        b = MLP([3, 4, 2], np.random.default_rng(9))
        meta = load_module(b, path)
        assert meta == {"epoch": 3}
        x = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_module(MLP([2, 2], make_rng()), tmp_path / "nope.npz")

    def test_zero_grad(self):
        mlp = MLP([2, 2], make_rng())
        loss = (mlp(Tensor(np.ones((1, 2)))) ** 2).sum()
        loss.backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())


class TestAttention:
    def test_mha_self_attention_shape(self):
        mha = MultiHeadAttention(16, 4, make_rng(), dropout=0.0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 16)))
        out = mha(x)
        assert out.shape == (2, 5, 16)

    def test_mha_cross_attention_shape(self):
        mha = MultiHeadAttention(16, 4, make_rng(), dropout=0.0)
        q = Tensor(np.random.default_rng(0).normal(size=(2, 3, 16)))
        ctx = Tensor(np.random.default_rng(1).normal(size=(2, 7, 16)))
        out = mha(q, ctx)
        assert out.shape == (2, 3, 16)

    def test_mha_mask_blocks_positions(self):
        mha = MultiHeadAttention(8, 2, make_rng(), dropout=0.0)
        mha.eval()
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(1, 2, 8)))
        ctx_a = rng.normal(size=(1, 4, 8))
        ctx_b = ctx_a.copy()
        ctx_b[0, 3] = 100.0  # masked position differs wildly
        mask = np.array([[False, False, False, True]])
        out_a = mha(q, Tensor(ctx_a), key_mask=mask)
        out_b = mha(q, Tensor(ctx_b), key_mask=mask)
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-10)

    def test_mha_dim_mismatch(self):
        with pytest.raises(ConfigError):
            MultiHeadAttention(10, 3, make_rng())

    def test_mha_wrong_input_dim(self):
        mha = MultiHeadAttention(8, 2, make_rng())
        with pytest.raises(ShapeError):
            mha(Tensor(np.ones((1, 2, 6))))

    def test_additive_attention_pools(self):
        attn = AdditiveAttention(6, make_rng())
        items = Tensor(np.random.default_rng(0).normal(size=(3, 4, 6)))
        out = attn(items)
        assert out.shape == (3, 6)

    def test_additive_attention_ignores_padding(self):
        attn = AdditiveAttention(6, make_rng())
        rng = np.random.default_rng(1)
        items_a = rng.normal(size=(1, 3, 6))
        items_b = items_a.copy()
        items_b[0, 2] = 99.0
        mask = np.array([[False, False, True]])
        out_a = attn(Tensor(items_a), pad_mask=mask)
        out_b = attn(Tensor(items_b), pad_mask=mask)
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-10)

    def test_additive_attention_wrong_dim(self):
        with pytest.raises(ShapeError):
            AdditiveAttention(6, make_rng())(Tensor(np.ones((2, 3, 5))))


def randomized(module, rng, dtype, scale=1.0):
    """``module`` with every parameter redrawn (non-zero biases, non-unit
    gains), then cast to ``dtype``."""
    for param in module.parameters():
        param.data = rng.normal(scale=scale, size=param.shape)
    return module.to_dtype(dtype)


# Every (parameter, compute) dtype pair.
DTYPE_PAIRS = [
    (np.float64, np.float64),
    (np.float32, np.float32),
    (np.float32, np.float64),
    (np.float64, np.float32),
]


class TestNoGradFastPaths:
    """Each no-grad fast path returns its graph path's dtype and values
    exactly, for every (parameter, compute) dtype pair."""

    @pytest.mark.parametrize("param_dtype, compute", DTYPE_PAIRS)
    def test_bit_identical_to_graph_path(self, param_dtype, compute):
        rng = make_rng()
        linear = randomized(Linear(8, 6, rng), rng, param_dtype)
        norm = randomized(LayerNorm(8), rng, param_dtype)
        mha = randomized(
            MultiHeadAttention(8, 2, rng, dropout=0.1), rng, param_dtype
        ).eval()
        kg = randomized(KG2Ent(), rng, param_dtype)
        kg_fixed = randomized(KG2Ent(learn_self_weight=False), rng, param_dtype)
        x = rng.normal(size=(3, 5, 8))
        context = rng.normal(size=(3, 4, 8))
        adjacency = rng.random((3, 5, 5))
        # Key masks (True = padding), each with one fully padded row.
        entity_pad = np.zeros((3, 5), dtype=bool)
        entity_pad[0, 3:] = entity_pad[2] = True
        word_pad = np.zeros((3, 4), dtype=bool)
        word_pad[1, 2:] = word_pad[2] = True

        def outputs():
            query, words = Tensor(x), Tensor(context)
            return {
                "linear": linear(query),
                "layer_norm": norm(query),
                "gelu": query.gelu(),
                "self_attention": mha(query, key_mask=entity_pad),
                "cross_attention": mha(query, words, key_mask=word_pad),
                "kg2ent": kg(query, adjacency, candidate_pad_mask=entity_pad),
                "kg2ent_fixed_weight": kg_fixed(
                    query, adjacency, candidate_pad_mask=entity_pad
                ),
            }

        with compute_dtype(compute):
            graph = outputs()
            with no_grad():
                fast = outputs()
        for name, want in graph.items():
            got = fast[name].data
            assert got.dtype == want.data.dtype == np.dtype(compute), name
            assert np.array_equal(got, want.data), name


@pytest.fixture(scope="module")
def ned_world():
    """A small world and a train split with two KGs per sentence."""
    world = generate_world(WorldConfig(num_entities=120, seed=7))
    corpus = generate_corpus(world, CorpusConfig(num_pages=30, seed=7))
    vocab = build_vocabulary(corpus)
    dataset = NedDataset(
        corpus, "train", vocab, world.candidate_map, 4,
        kgs=[world.kg, TwoHopKnowledgeGraph(world.kg)],
    )
    return world, vocab, dataset


class TestNoGradModelForward:
    """A no-grad ``BootlegModel`` forward, which runs on plain arrays
    between its module calls, returns the graph forward's dtype and
    values exactly."""

    # The bench model's shape, every branch of the layer loop and the
    # scoring (two layers, a mean over two KG outputs, one score branch,
    # no position payload, fixed KG self-loop weights, no KG skip), and a
    # payload without types or KG modules.
    CONFIGS = {
        "bootleg": {},
        "two_layers_two_kgs": {
            "num_layers": 2,
            "num_kg_modules": 2,
            "use_ensemble_scoring": False,
            "use_position_encoding": False,
            "kg_learn_self_weight": False,
            "kg_use_skip": False,
        },
        "ent_only": MODEL_PRESETS["ent-only"],
    }

    @pytest.mark.parametrize("preset", sorted(CONFIGS))
    @pytest.mark.parametrize("param_dtype, compute", DTYPE_PAIRS)
    def test_bit_identical_to_graph_forward(
        self, ned_world, preset, param_dtype, compute
    ):
        world, vocab, dataset = ned_world
        config = BootlegConfig(num_candidates=4, **self.CONFIGS[preset])
        rng = make_rng()
        model = BootlegModel(config, world.kb, vocab, rng=rng)
        model = randomized(model, rng, param_dtype, scale=0.3).eval()
        # The cached payload equals the uncached one only up to float
        # summation order; compare the rest of the forward.
        model.payload_cache_enabled = False
        padded = dataset.collate(dataset.encoded[:16])
        single = dataset.collate(dataset.encoded[:1])
        assert padded.token_pad_mask.any() and not single.token_pad_mask.any()
        for batch in (padded, single):
            with compute_dtype(compute):
                graph = model(batch)
                with no_grad():
                    fast = model(batch)
            for name in ("scores", "type_logits", "contextual_entities"):
                want, got = getattr(graph, name), getattr(fast, name)
                if want is None:
                    assert got is None and config.use_type_prediction is False
                    continue
                assert got.data.dtype == want.data.dtype == np.dtype(compute), name
                assert np.array_equal(got.data, want.data), name

    def test_out_of_range_token_id_raises(self, ned_world):
        """A bare ``weight[ids]`` gather would map -1 to the last row."""
        world, vocab, dataset = ned_world
        model = BootlegModel(BootlegConfig(num_candidates=4), world.kb, vocab)
        model.eval()
        batch = dataset.collate(dataset.encoded[:1])
        for bad_id in (-1, len(vocab)):
            token_ids = batch.token_ids.copy()
            token_ids[0, 0] = bad_id
            bad = dataclasses.replace(batch, token_ids=token_ids)
            with pytest.raises(ShapeError):
                model(bad)
            with no_grad(), pytest.raises(ShapeError):
                model(bad)


class TestTransformer:
    def test_encoder_stack_shape(self):
        enc = TransformerEncoder(16, 4, 2, make_rng(), dropout=0.0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 6, 16)))
        assert enc(x).shape == (2, 6, 16)

    def test_position_encoding_shape_and_range(self):
        pe = sinusoidal_position_encoding(50, 16)
        assert pe.shape == (50, 16)
        assert np.abs(pe).max() <= 1.0 + 1e-12

    def test_position_encoding_distinct_rows(self):
        pe = sinusoidal_position_encoding(20, 8)
        assert not np.allclose(pe[0], pe[1])


class TestOptimizers:
    def test_sgd_descends(self):
        w = Parameter(np.array([5.0]))
        opt = SGD([w], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            (w * w).sum().backward()
            opt.step()
        assert abs(w.data[0]) < 1e-3

    def test_sgd_momentum_descends(self):
        w = Parameter(np.array([5.0]))
        opt = SGD([w], lr=0.05, momentum=0.9)
        for _ in range(100):
            opt.zero_grad()
            (w * w).sum().backward()
            opt.step()
        assert abs(w.data[0]) < 0.1

    def test_adam_descends_rosenbrock_like(self):
        w = Parameter(np.array([3.0, -2.0]))
        opt = Adam([w], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            loss = ((w - Tensor(np.array([1.0, 2.0]))) ** 2).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.data, [1.0, 2.0], atol=1e-2)

    def test_adam_weight_decay_shrinks(self):
        w = Parameter(np.array([5.0]))
        opt = Adam([w], lr=0.1, weight_decay=0.5)
        for _ in range(200):
            opt.zero_grad()
            (w * 0.0).sum().backward()
            opt.step()
        assert abs(w.data[0]) < 0.5

    def test_empty_parameters_rejected(self):
        with pytest.raises(ConfigError):
            Adam([], lr=0.1)

    def test_invalid_lr(self):
        with pytest.raises(ConfigError):
            SGD([Parameter(np.ones(1))], lr=0.0)

    def test_clip_grad_norm(self):
        w = Parameter(np.ones(4))
        w.grad = np.ones(4) * 10.0
        norm = clip_grad_norm([w], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0, abs=1e-6)

    def test_clip_noop_under_norm(self):
        w = Parameter(np.ones(4))
        w.grad = np.ones(4) * 0.1
        clip_grad_norm([w], max_norm=10.0)
        np.testing.assert_allclose(w.grad, 0.1)


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
        targets = np.array([0, 2])
        loss = cross_entropy(logits, targets)
        probs = np.exp(logits.data) / np.exp(logits.data).sum(-1, keepdims=True)
        expected = -(np.log(probs[0, 0]) + np.log(probs[1, 2])) / 2
        assert loss.item() == pytest.approx(expected)

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(np.array([[2.0, 1.0], [5.0, -5.0]]))
        targets = np.array([0, IGNORE_INDEX])
        loss_partial = cross_entropy(logits, targets)
        loss_single = cross_entropy(Tensor(logits.data[:1]), targets[:1])
        assert loss_partial.item() == pytest.approx(loss_single.item())

    def test_cross_entropy_all_ignored_is_zero(self):
        logits = Tensor(np.ones((2, 3)))
        loss = cross_entropy(logits, np.full(2, IGNORE_INDEX))
        assert loss.item() == 0.0

    def test_cross_entropy_gradcheck(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(4, 5))
        targets = np.array([0, 3, IGNORE_INDEX, 2])
        x = Tensor(raw, requires_grad=True)
        cross_entropy(x, targets).backward()
        eps = 1e-6
        for i in range(4):
            for j in range(5):
                plus = raw.copy()
                plus[i, j] += eps
                minus = raw.copy()
                minus[i, j] -= eps
                num = (
                    cross_entropy(Tensor(plus), targets).item()
                    - cross_entropy(Tensor(minus), targets).item()
                ) / (2 * eps)
                assert x.grad[i, j] == pytest.approx(num, abs=1e-5)

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.ones((1, 3))), np.array([3]))

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.ones((2, 3))), np.array([0, 1, 2]))

    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        targets = np.array([0, 1, 1])
        assert accuracy(logits, targets) == pytest.approx(2 / 3)

    def test_accuracy_with_ignore(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8]])
        targets = np.array([0, IGNORE_INDEX])
        assert accuracy(logits, targets) == pytest.approx(1.0)

    def test_accuracy_all_ignored(self):
        assert accuracy(np.ones((2, 2)), np.full(2, IGNORE_INDEX)) == 0.0
