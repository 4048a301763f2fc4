import numpy as np
import pytest

from kgdial.models import (
    ModelError, ToyEncoder, ToyPairScorer, TrainConfig, build_vocab,
    finite_difference_check, load_checkpoint, save_checkpoint,
    scorer_from_checkpoint, scorer_to_checkpoint, train_pair_classifier,
)

# trivially separable: "alpha ..." pairs are positive, "omega ..." negative
POS = [("the hotel has a pool", "alpha marker", 1) for _ in range(10)]
NEG = [("the hotel has a pool", "omega marker", 0) for _ in range(10)]


def separable_set():
    out = []
    for i in range(10):
        out.append((f"dialogue row {i}", "alpha yes yes", 1))
        out.append((f"dialogue row {i}", "omega no no", 0))
    return out


class TestEncoderShapes:
    def test_shapes(self):
        vocab = build_vocab([["a", "b", "c"]])
        enc = ToyEncoder(vocab, d=8, seed=1)
        H, f = enc.encode(["a", "b", "c", "b"])
        assert H.shape == (4, 8)
        assert f.shape == (8,)

    def test_deterministic_encoding(self):
        vocab = build_vocab([["a", "b"]])
        enc = ToyEncoder(vocab, d=8, seed=3)
        _, f1 = enc.encode(["a", "b", "a"])
        _, f2 = enc.encode(["a", "b", "a"])
        assert np.array_equal(f1, f2)

    def test_left_truncation(self):
        vocab = build_vocab([["a", "b"]])
        enc = ToyEncoder(vocab, d=4, max_len=3, seed=0)
        ids, segs = enc.token_ids(["a", "a", "a", "b", "b"], boundary=3)
        assert list(ids) == [enc.vocab["a"], enc.vocab["b"], enc.vocab["b"]]
        assert list(segs) == [0, 1, 1]

    def test_first_token_pooling(self):
        vocab = build_vocab([["a", "b"]])
        enc = ToyEncoder(vocab, d=4, pooling="first", seed=0)
        H, f = enc.encode(["a", "b"])
        assert np.array_equal(f, H[0])

    def test_unknown_pooling_rejected(self):
        with pytest.raises(ModelError):
            ToyEncoder({"x": 0}, pooling="max")


class TestScorer:
    def test_probability_bounds_random_params(self):
        vocab = build_vocab([["a", "b", "c"]])
        for seed in range(20):
            enc = ToyEncoder(vocab, d=6, seed=seed)
            enc.params["emb"] *= 10  # stress the head
            scorer = ToyPairScorer(enc)
            p = scorer.score("a b c", "c b a")
            assert 0.0 <= p <= 1.0
            assert np.isfinite(p)

    def test_gradient_check(self):
        examples = separable_set()
        vocab = build_vocab([])
        scorer = train_pair_classifier(examples, TrainConfig(epochs=1, seed=4))
        err = finite_difference_check(scorer, examples[0], epsilon=1e-5)
        assert err < 1e-4

    def test_gradient_check_near_zero_loss(self):
        # saturate the positive logit so the loss is ~0 there
        examples = [("x", "alpha", 1), ("x", "omega", 0)]
        scorer = train_pair_classifier(examples, TrainConfig(epochs=1, seed=0))
        scorer.params["b"][0] = 30.0
        loss, grads = scorer.loss_and_grads(("x", "alpha", 1))
        assert loss < 1e-8
        assert max(np.max(np.abs(g)) for g in grads.values()) < 1e-8


class TestTraining:
    def test_separable_reaches_full_accuracy(self):
        examples = separable_set()
        cfg = TrainConfig(epochs=50, learning_rate=0.05, batch_size=20, seed=1)
        scorer = train_pair_classifier(examples, cfg)
        correct = sum(
            (scorer.score(s1, s2) >= 0.5) == bool(y) for s1, s2, y in examples)
        assert correct == len(examples)

    def test_loss_nonincreasing_on_separable_set(self):
        from kgdial.models import train_model

        examples = separable_set()
        cfg = TrainConfig(epochs=12, learning_rate=0.02, batch_size=20, seed=2)
        vocab = build_vocab([tuple((s1 + " " + s2).split()) for s1, s2, _ in examples])
        enc = ToyEncoder(vocab, d=24, seed=cfg.seed)
        scorer = ToyPairScorer(enc)
        history = train_model(scorer, examples, cfg)
        assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))

    def test_zero_lr_keeps_parameters(self):
        examples = separable_set()
        cfg = TrainConfig(epochs=3, learning_rate=0.0, seed=5)
        scorer = train_pair_classifier(examples, cfg)
        fresh = train_pair_classifier(examples, TrainConfig(epochs=0, seed=5))
        for key, val in scorer.all_params().items():
            assert np.array_equal(val, fresh.all_params()[key])

    def test_seed_determinism(self):
        examples = separable_set()
        cfg = TrainConfig(epochs=5, learning_rate=0.01, seed=9)
        a = train_pair_classifier(examples, cfg)
        b = train_pair_classifier(examples, cfg)
        for key, val in a.all_params().items():
            assert np.array_equal(val, b.all_params()[key])

    def test_single_class_rejected(self):
        with pytest.raises(ModelError):
            train_pair_classifier(POS, TrainConfig(epochs=1))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        examples = separable_set()
        scorer = train_pair_classifier(examples, TrainConfig(epochs=2, seed=7))
        path = str(tmp_path / "scorer.npz")
        scorer_to_checkpoint(scorer, path)
        restored = scorer_from_checkpoint(path)
        for s1, s2, _ in examples[:4]:
            assert restored.score(s1, s2) == pytest.approx(scorer.score(s1, s2))

    def test_version_field_required(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        np.savez(path, w=np.zeros(3))
        with pytest.raises(ModelError, match="metadata"):
            load_checkpoint(path)

    def test_meta_preserved(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, {"w": np.ones(2)}, {"kind": "test"})
        tensors, meta = load_checkpoint(path)
        assert meta["version"] == 1
        assert meta["kind"] == "test"
        assert np.array_equal(tensors["w"], np.ones(2))


def test_every_public_annotation_resolves():
    """typing.get_type_hints evaluates the postponed annotations of every
    public function and method in kgdial; a name missing from a module's
    imports raises NameError here."""
    import importlib
    import inspect
    import pkgutil
    import typing

    import kgdial

    checked = 0
    for info in pkgutil.iter_modules(kgdial.__path__):
        module = importlib.import_module(f"kgdial.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        members.append(member)
            for member in members:
                typing.get_type_hints(member)
                checked += 1
    assert checked > 100
