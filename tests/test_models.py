import json
import math
import tempfile
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdial import models
from kgdial.corpus import tokenize
from kgdial.models import (
    CHECKPOINT_VERSION, ModelError, PairRow, ToyEncoder, ToyPairScorer,
    TrainConfig, bce_loss, build_vocab, finite_difference_check,
    load_checkpoint, pair_readout, pair_readout_backward, save_checkpoint,
    scorer_from_checkpoint, scorer_to_checkpoint, softmax,
    train_pair_classifier,
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
        cache = enc.forward(*enc.token_ids(["a", "b", "c", "b"]))
        H, f = cache["H"], cache["f"]
        assert H.shape == (1, 4, 8)
        assert f.shape == (1, 8)
        assert pair_readout(cache).shape == (1, 16)

    def test_stack_shapes(self):
        vocab = build_vocab([["a", "b", "c"]])
        enc = ToyEncoder(vocab, d=8, seed=1)
        cache = enc.forward(np.array([1, 2, 3, 1, 2, 3]), np.array([0, 0, 1, 0, 1, 1]),
                            [2, 1, 3])
        assert cache["H"].shape == (3, 3, 8) and cache["f"].shape == (3, 8)
        assert cache["mask"].tolist() == [[True, True, False], [True, False, False],
                                          [True, True, True]]
        assert pair_readout(cache).shape == (3, 16)

    def test_deterministic_encoding(self):
        vocab = build_vocab([["a", "b"]])
        enc = ToyEncoder(vocab, d=8, seed=3)
        f1 = enc.forward(*enc.token_ids(["a", "b", "a"]))["f"]
        f2 = enc.forward(*enc.token_ids(["a", "b", "a"]))["f"]
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
        cache = enc.forward(*enc.token_ids(["a", "b"]))
        assert np.array_equal(cache["f"], cache["H"][:, 0])

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
        # a batch of three lengths, so padded positions are exercised
        err = finite_difference_check(scorer, examples[:2] + [("row", "", 1)],
                                      epsilon=1e-5)
        assert err < 1e-4

    def test_bce_loss_equals_scalar_definition(self):
        z = np.array([-800.0, -30.0, -1e-3, 0.0, 2.5, 40.0, 900.0])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        losses, dz = bce_loss(z, y)
        for i in range(len(z)):
            ref_loss, ref_dz = reference_bce(float(z[i]), float(y[i]))
            assert losses[i] == pytest.approx(ref_loss, rel=1e-12, abs=1e-300)
            assert dz[i] == pytest.approx(ref_dz, rel=1e-12, abs=1e-300)

    def test_gradient_check_near_zero_loss(self):
        # saturate the positive logit so the loss is ~0 there
        examples = [("x", "alpha", 1), ("x", "omega", 0)]
        scorer = train_pair_classifier(examples, TrainConfig(epochs=1, seed=0))
        scorer.head["b"][0] = 30.0
        loss, grads = scorer.loss_and_grads([scorer.compile(("x", "alpha", 1))])
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

    def test_packing_makes_the_tensors_views_of_one_vector(self):
        scorer = train_pair_classifier(separable_set(), TrainConfig(epochs=0, seed=2))
        before = {k: v.copy() for k, v in scorer.all_params().items()}
        data = models.pack_params(scorer)
        params = scorer.all_params()
        assert all(v.base is data for v in params.values())
        assert data.tobytes() == np.concatenate(
            [before[k].ravel() for k in sorted(before)]).tobytes()
        for key, value in before.items():
            assert params[key].tobytes() == value.tobytes()
        data += 1.0  # the model reads the vector
        assert np.array_equal(scorer.encoder.params["emb"], before["enc.emb"] + 1.0)
        assert np.array_equal(scorer.head["w"], before["head.w"] + 1.0)

    def test_fused_adamw_equals_per_tensor_steps(self):
        """Five steps over the one vector, with weight decay, equal the
        per-tensor update bit for bit."""
        rng = np.random.default_rng(3)
        shapes = {"emb": (7, 3), "b": (1,), "w": (3, 3), "v": (4,)}
        ref = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        data, views = models.packed(ref)
        opt = models.AdamW(data, lr=0.05, weight_decay=0.1)
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v2 = {k: np.zeros_like(v) for k, v in ref.items()}
        b1, b2, eps, lr, wd = 0.9, 0.999, 1e-8, 0.05, 0.1
        for t in range(1, 6):
            grads = {k: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                     for k, shape in shapes.items()}
            opt.step(np.concatenate([grads[k].ravel() for k in sorted(grads)]))
            for key, p in ref.items():  # the per-tensor loop
                g = grads[key]
                m[key] = b1 * m[key] + (1 - b1) * g
                v2[key] = b2 * v2[key] + (1 - b2) * g * g
                mhat = m[key] / (1 - b1 ** t)
                vhat = v2[key] / (1 - b2 ** t)
                p -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * p)
            for key, value in ref.items():
                assert views[key].tobytes() == value.tobytes(), (t, key)


@st.composite
def tensor_sets(draw):
    """float64 tensors of 0 to 3 dimensions, empty ones included, inserted
    in an order of their own, not sorted by name."""
    names = draw(st.lists(st.text("ab.c", min_size=1, max_size=3), unique=True,
                          max_size=5))
    out = {}
    for name in names:
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        n = math.prod(shape)
        values = draw(st.lists(st.floats(width=64), min_size=n, max_size=n))
        out[name] = np.array(values, dtype=np.float64).reshape(shape)
    return out


def write_archive(path, meta, members):
    """An archive of a ``__meta__`` block (``meta`` as JSON, or raw bytes)
    and ``members``, written member by member as `save_checkpoint` never
    writes one."""
    raw = meta if isinstance(meta, bytes) else json.dumps(meta).encode("utf-8")
    header = np.frombuffer(raw, dtype=np.uint8)
    np.savez(path, __meta__=header, **members)
    return path


# (meta, other members, pattern) of archives a load must reject
ARCHIVE_DEFECTS = [
    pytest.param({"kind": "ToyGenerator", "version": 1}, {"emb": np.zeros((2, 2))},
                 "has version 1", id="version-1"),
    pytest.param({"kind": "ToyGenerator", "version": CHECKPOINT_VERSION,
                  "layout": [["emb", [2, 2]]]}, {},
                 "missing data block", id="no-data"),
    pytest.param({"kind": "ToyGenerator", "version": CHECKPOINT_VERSION,
                  "layout": [["emb", [2, 2]]]},
                 {"__data__": np.zeros(4, dtype=np.int64)},
                 "data block is not a float64 vector", id="int-data"),
    pytest.param({"kind": "ToyGenerator", "version": CHECKPOINT_VERSION,
                  "layout": [["emb", [2, 2]]]}, {"__data__": np.zeros(3)},
                 "layout needs 4 values, data block holds 3", id="short-data"),
    pytest.param({"kind": "ToyGenerator", "version": CHECKPOINT_VERSION,
                  "layout": [["emb", "<f8", [2, 2]]]}, {"__data__": np.zeros(4)},
                 "malformed layout entry", id="malformed-layout"),
    pytest.param({"kind": "ToyGenerator", "version": CHECKPOINT_VERSION,
                  "layout": [["emb", [2]], ["emb", [2]]]}, {"__data__": np.zeros(4)},
                 "names a tensor twice", id="duplicate-name"),
    pytest.param(b"\xff{", {}, "metadata block is not a JSON object", id="not-json"),
]


def _plain_bytes(path):
    Path(path).write_bytes(b"not an archive\n")


def _truncated(path):
    save_checkpoint(path, {"emb": np.zeros((2, 2))}, {"kind": "ToyGenerator"})
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[:len(data) // 2])


def _truncated_data(path):
    """A checkpoint whose data member ends one value short of the vector
    its .npy header announces."""
    save_checkpoint(path, {"emb": np.zeros((2, 2))}, {"kind": "ToyGenerator"})
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members["__data__.npy"] = members["__data__.npy"][:-8]
    with zipfile.ZipFile(path, "w") as archive:
        for name, raw in members.items():
            archive.writestr(name, raw)


# writers of a file at a path that numpy cannot read as an archive
UNREADABLE_ARCHIVES = [pytest.param(_plain_bytes, id="plain-bytes"),
                       pytest.param(_truncated, id="truncated"),
                       pytest.param(_truncated_data, id="truncated-data")]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        examples = separable_set()
        scorer = train_pair_classifier(examples, TrainConfig(epochs=2, seed=7))
        path = str(tmp_path / "scorer.npz")
        scorer_to_checkpoint(scorer, path)
        restored = scorer_from_checkpoint(path)
        for s1, s2, _ in examples[:4]:
            assert restored.score(s1, s2) == pytest.approx(scorer.score(s1, s2))

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        scorer = train_pair_classifier(separable_set(), TrainConfig(epochs=1))
        path = str(tmp_path / "scorer.npz")
        scorer_to_checkpoint(scorer, path)
        forbid_draws(monkeypatch)
        restored = scorer_from_checkpoint(path)
        for key, value in scorer.all_params().items():
            assert restored.all_params()[key].tobytes() == value.tobytes(), key

    def test_version_field_required(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        np.savez(path, w=np.zeros(3))
        with pytest.raises(ModelError, match="metadata"):
            load_checkpoint(path)

    def test_load_holds_the_data_block_once(self, tmp_path):
        """A load holds the data vector and at most a chunk of the archive
        besides, not a second whole copy of the block."""
        path = str(tmp_path / "ck.npz")
        values = np.arange(25_000, dtype=np.float64)  # 200 KB
        save_checkpoint(path, {"w": values}, {"kind": "test"})
        load_checkpoint(path)  # first-use set-up is not the load's
        tracemalloc.start()
        try:
            tensors, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensors["w"].tobytes() == values.tobytes()
        assert peak < 1.75 * values.nbytes  # a second copy makes it 2x

    def test_meta_preserved(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, {"w": np.ones(2)}, {"kind": "test"})
        tensors, meta = load_checkpoint(path)
        assert meta["version"] == CHECKPOINT_VERSION
        assert meta["kind"] == "test"
        assert np.array_equal(tensors["w"], np.ones(2))

    @settings(max_examples=60, deadline=None)
    @given(tensor_sets(), st.dictionaries(
        st.text(max_size=4).filter(lambda k: k not in ("version", "layout")),
        st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
        max_size=3))
    @example({"b": np.zeros((2, 0)), "a": np.array(3.5), "a.c": np.arange(3.0)},
             {"kind": "x"})
    def test_round_trip_property(self, tensors, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "ck.npz")
            save_checkpoint(path, tensors, config)
            loaded, meta = load_checkpoint(path)
        assert meta == dict(config, version=CHECKPOINT_VERSION)
        assert list(loaded) == sorted(tensors)
        for name, value in tensors.items():
            got = loaded[name]
            assert (got.dtype, got.shape) == (value.dtype, value.shape), name
            assert got.tobytes() == value.tobytes(), name
            assert got.flags.writeable and got.flags.aligned, name

    @pytest.mark.parametrize("meta,members,pattern", ARCHIVE_DEFECTS)
    def test_malformed_archive_is_one_line_error(self, tmp_path, meta, members,
                                                 pattern):
        path = write_archive(str(tmp_path / "bad.npz"), meta, members)
        with pytest.raises(ModelError, match=pattern) as info:
            load_checkpoint(path)
        assert path in str(info.value) and "\n" not in str(info.value)

    @pytest.mark.parametrize("write", UNREADABLE_ARCHIVES)
    def test_unreadable_archive_is_one_line_error(self, tmp_path, write):
        path = str(tmp_path / "bad.npz")
        write(path)
        with pytest.raises(ModelError, match="is not a readable .npz archive") as info:
            load_checkpoint(path)
        assert path in str(info.value) and "\n" not in str(info.value)

    def test_reserved_layout_key_is_rejected(self, tmp_path):
        with pytest.raises(ModelError, match="'layout' is reserved"):
            save_checkpoint(str(tmp_path / "ck.npz"), {}, {"layout": []})

    def test_save_rejects_a_tensor_that_is_not_float64(self, tmp_path):
        with pytest.raises(ModelError, match="'w' has dtype int64, expected float64"):
            save_checkpoint(str(tmp_path / "ck.npz"),
                            {"v": np.zeros(2), "w": np.arange(2)}, {})
        assert not (tmp_path / "ck.npz").exists()


def _no_rng(*args, **kwargs):
    raise AssertionError("a checkpoint load built a random generator")


def forbid_draws(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _no_rng)


def rewrite_checkpoint(src, dst, edit):
    """Save a copy of checkpoint ``src`` at ``dst`` after ``edit(tensors,
    meta)`` changed it in place."""
    tensors, meta = load_checkpoint(src)
    edit(tensors, meta)
    save_checkpoint(dst, tensors, meta)
    return dst


def vector_key(tensors):
    """A 1-d tensor of more than one entry: a (1,) stand-in broadcasts."""
    return next(k for k in sorted(tensors)
                if tensors[k].ndim == 1 and tensors[k].size > 1)


def _set_kind(t, m):
    m["kind"] = "bogus"


def _drop(t, m):
    del t[vector_key(t)]


def _add(t, m):
    t["enc.extra"] = np.zeros(3)


def _shrink(t, m):
    key = vector_key(t)
    t[key] = t[key][:1]


# (edit, pattern naming the key) for each defect a load must reject
CHECKPOINT_DEFECTS = [
    (_set_kind, "key 'kind' is 'bogus'"),
    (_drop, "missing tensor"),
    (_add, "unexpected tensor 'enc.extra'"),
    (_shrink, r"has shape \(1,\)"),
]


class TestCheckpointValidation:
    @pytest.mark.parametrize("edit,pattern", CHECKPOINT_DEFECTS)
    def test_scorer_load_rejects_defect(self, tmp_path, edit, pattern):
        scorer = train_pair_classifier(separable_set(), TrainConfig(epochs=1))
        good = str(tmp_path / "good.npz")
        scorer_to_checkpoint(scorer, good)
        bad = rewrite_checkpoint(good, str(tmp_path / "bad.npz"), edit)
        with pytest.raises(ModelError, match=pattern) as info:
            scorer_from_checkpoint(bad)
        assert bad in str(info.value)

    def test_missing_key_is_named(self, tmp_path):
        scorer = train_pair_classifier(separable_set(), TrainConfig(epochs=1))
        good = str(tmp_path / "good.npz")
        scorer_to_checkpoint(scorer, good)
        key = vector_key(scorer.all_params())
        bad = rewrite_checkpoint(good, str(tmp_path / "bad.npz"), _drop)
        with pytest.raises(ModelError, match=f"missing tensor '{key}'"):
            scorer_from_checkpoint(bad)


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


# -- the definitions before rows were compiled, kept as oracles ---------------


def reference_token_ids(encoder, tokens, boundary=None):
    ids = [encoder.vocab.get(t, 0) for t in tokens]
    segs = [0] * len(ids)
    if boundary is not None:
        for i in range(min(boundary, len(ids)), len(ids)):
            segs[i] = 1
    if not ids:
        ids, segs = [0], [0]
    if len(ids) > encoder.max_len:
        ids = ids[-encoder.max_len:]
        segs = segs[-encoder.max_len:]
    return np.asarray(ids, dtype=np.int64), np.asarray(segs, dtype=np.int64)


def reference_softmax(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def reference_pair_readout(cache):
    H = cache["H"]
    mask = cache["segs"] == 1
    seg_pool = H[mask].mean(axis=0) if mask.any() else np.zeros(H.shape[1])
    return np.concatenate([cache["f"], seg_pool])


def mask_pair_readout_backward(cache, du):
    """pair_readout_backward scattering through a boolean mask."""
    d = cache["H"].shape[1]
    df = du[:d].copy()
    dH = np.zeros_like(cache["H"])
    mask = cache["segs"] == 1
    if mask.any():
        dH[mask] = du[d:] / mask.sum()
    return dH, df


def reference_forward(encoder, ids, segs):
    """The encoder pass over one sequence, as written before passes were
    stacked."""
    p = encoder.params
    E = p["emb"][ids] + p["seg"][segs]
    Q, K, Vm = E @ p["wq"], E @ p["wk"], E @ p["wv"]
    A = reference_softmax((Q @ K.T) / math.sqrt(encoder.d), axis=-1)
    H = E + A @ Vm
    f = H.mean(axis=0) if encoder.pooling == "mean" else H[0]
    return {"ids": ids, "segs": segs, "E": E, "Q": Q, "K": K, "Vm": Vm,
            "A": A, "H": H, "f": f}


def reference_backward(encoder, cache, dH, df, grads):
    """The gradients of one `reference_forward` pass, accumulated into
    ``grads``, as written before passes were stacked."""
    p = encoder.params
    T = cache["E"].shape[0]
    dH_total = np.zeros_like(cache["H"]) if dH is None else dH.copy()
    if df is not None:
        if encoder.pooling == "mean":
            dH_total += df / T
        else:
            dH_total[0] += df
    E, A, Vm = cache["E"], cache["A"], cache["Vm"]
    dE = dH_total.copy()
    dA = dH_total @ Vm.T
    dVm = A.T @ dH_total
    grads["wv"] += E.T @ dVm
    dE += dVm @ p["wv"].T
    dS = A * (dA - np.sum(dA * A, axis=-1, keepdims=True)) / math.sqrt(encoder.d)
    dQ = dS @ cache["K"]
    dK = dS.T @ cache["Q"]
    grads["wq"] += E.T @ dQ
    grads["wk"] += E.T @ dK
    dE += dQ @ p["wq"].T + dK @ p["wk"].T
    np.add.at(grads["emb"], cache["ids"], dE)
    np.add.at(grads["seg"], cache["segs"], dE)


def reference_pair_loss(scorer, example):
    """ToyPairScorer.loss_and_grads tokenizing its example on every call."""
    s1, s2, label = example
    left = tokenize(s1)
    tokens = left + tokenize(s2)
    cache = reference_forward(
        scorer.encoder, *reference_token_ids(scorer.encoder, tokens, len(left)))
    u = reference_pair_readout(cache)
    z = float(scorer.head["w"] @ u + scorer.head["b"][0])
    loss, dz = reference_bce(z, float(label))
    grads = {f"enc.{k}": np.zeros(v.shape) for k, v in scorer.encoder.params.items()}
    grads["head.w"] = dz * u
    grads["head.b"] = np.array([dz])
    dH, df = mask_pair_readout_backward(cache, dz * scorer.head["w"])
    enc_grads = {k.split(".", 1)[1]: v for k, v in grads.items() if k.startswith("enc.")}
    reference_backward(scorer.encoder, cache, dH, df, enc_grads)
    return loss, grads


def reference_bce(z, y):
    """Binary cross entropy on one logit and its derivative, in scalar math."""
    loss = max(z, 0.0) + math.log1p(math.exp(-abs(z))) - y * z
    return loss, models.sigmoid(z) - y


def summed_losses(results):
    """The summed loss and gradients of per-row (loss, grads) results."""
    results = list(results)
    grads = {k: np.zeros_like(v) for k, v in results[0][1].items()}
    for _, row_grads in results:
        for k, v in row_grads.items():
            grads[k] += v
    return sum(loss for loss, _ in results), grads


def assert_close(got, expected, rtol=1e-12, scale=None):
    """Equal up to rounding: within rtol of the largest entry of expected
    (of ``scale`` instead, when given)."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    if scale is None:
        scale = np.abs(expected).max(initial=0.0)
    assert np.abs(got - expected).max(initial=0.0) <= rtol * scale, (
        np.abs(got - expected).max(), scale)


def assert_close_loss(got, expected, rtol=1e-12):
    """Losses within rtol, and every gradient entry within rtol of the
    largest entry of all the expected gradients: a gradient that is zero in
    exact arithmetic (attention over identical tokens) is a rounding residue
    on either side."""
    loss, grads = got
    ref_loss, ref_grads = expected
    assert loss == pytest.approx(ref_loss, rel=rtol)
    assert grads.keys() == ref_grads.keys()
    largest = max(np.abs(v).max(initial=0.0) for v in ref_grads.values())
    for key, value in ref_grads.items():
        assert_close(grads[key], value, rtol, largest)


TOKENS = st.lists(st.sampled_from(["a", "b", "c", "⟨kng⟩", "zz", "unknown"]),
                  max_size=12)


class TestCompiledInputs:
    VOCAB = {"⟨unk⟩": 0, "a": 1, "b": 2, "c": 3, "⟨kng⟩": 4}

    @settings(max_examples=300, deadline=None)
    @given(left=TOKENS, right=TOKENS, max_len=st.integers(1, 14))
    @example(left=[], right=[], max_len=4)
    @example(left=["a"] * 5, right=[], max_len=4)
    @example(left=[], right=["b"] * 5, max_len=4)
    @example(left=["a"] * 3, right=["b"] * 3, max_len=6)
    @example(left=["a"] * 3, right=["b"] * 3, max_len=5)
    def test_pair_ids_equal_token_ids(self, left, right, max_len):
        enc = ToyEncoder(self.VOCAB, d=4, max_len=max_len)
        ids, segs = enc.pair_ids(enc.vocab_ids(left), enc.vocab_ids(right))
        ref_ids, ref_segs = reference_token_ids(enc, left + right, len(left))
        assert ids.dtype == ref_ids.dtype and segs.dtype == ref_segs.dtype
        assert np.array_equal(ids, ref_ids) and np.array_equal(segs, ref_segs)

    @settings(max_examples=200, deadline=None)
    @given(tokens=TOKENS, boundary=st.one_of(st.none(), st.integers(0, 16)),
           max_len=st.integers(1, 14))
    def test_token_ids_equal_reference(self, tokens, boundary, max_len):
        enc = ToyEncoder(self.VOCAB, d=4, max_len=max_len)
        got = enc.token_ids(tokens, boundary)
        ref = reference_token_ids(enc, tokens, boundary)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))

    @settings(max_examples=200, deadline=None)
    @given(shape=st.sampled_from([(1,), (5,), (3, 4), (7, 7), (2, 3, 5)]),
           scale=st.sampled_from([1e-3, 1.0, 40.0, 800.0]),
           seed=st.integers(0, 2 ** 16))
    def test_softmax_equals_definition(self, shape, scale, seed):
        x = np.random.default_rng(seed).normal(0.0, scale, size=shape)
        for axis in range(-1, -len(shape) - 1, -1):
            before = x.copy()
            assert np.array_equal(softmax(x, axis=axis), reference_softmax(x, axis=axis))
            assert np.array_equal(x, before)  # the input is not written to

    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(st.tuples(TOKENS, TOKENS), min_size=1, max_size=6),
           max_len=st.integers(1, 14), pooling=st.sampled_from(["mean", "first"]),
           seed=st.integers(0, 1000), with_segs=st.booleans())
    @example(pairs=[(["a"] * 6, ["b"] * 3)], max_len=4, pooling="mean", seed=0,
             with_segs=True)  # the cut keeps segment 1 and the end of segment 0
    @example(pairs=[(["a"] * 3, ["b"] * 6)], max_len=4, pooling="mean", seed=0,
             with_segs=True)  # the cut keeps segment 1 only
    @example(pairs=[(["a"] * 3, []), ([], []), (["a"], ["b"] * 5)], max_len=8,
             pooling="first", seed=0, with_segs=True)  # no segment 1, mixed lengths
    def test_stacked_pass_equals_definition(self, pairs, max_len, pooling, seed,
                                            with_segs):
        """A stacked `forward` (mixed lengths, cut at max_len) and its readout
        and readout backward equal the per-sequence definitions row by row,
        up to rounding."""
        enc = ToyEncoder(self.VOCAB, d=6, max_len=max_len, pooling=pooling, seed=seed)
        rows = [enc.pair_ids(enc.vocab_ids(left), enc.vocab_ids(right))
                for left, right in pairs]
        if not with_segs:
            rows = [(ids, np.zeros_like(ids)) for ids, _ in rows]
        cache = enc.forward(np.concatenate([ids for ids, _ in rows]),
                            np.concatenate([segs for _, segs in rows]),
                            [len(ids) for ids, _ in rows])
        du = np.random.default_rng(seed).normal(size=(len(rows), 2 * enc.d))
        readouts = pair_readout(cache)
        dH, df = pair_readout_backward(cache, du)
        for r, (ids, segs) in enumerate(rows):
            n = len(ids)
            ref = reference_forward(enc, ids, segs)
            for key in ("E", "A", "H"):
                assert_close(cache[key][r, :n, :n] if key == "A" else cache[key][r, :n],
                             ref[key])
            assert_close(cache["f"][r], ref["f"])
            assert_close(readouts[r], reference_pair_readout(ref))
            ref_dH, ref_df = mask_pair_readout_backward(ref, du[r])
            assert_close(dH[r, :n], ref_dH)
            assert not dH[r, n:].any()
            assert np.array_equal(df[r], ref_df)

class TestCompiledPairRows:
    def scorer(self):
        examples = separable_set() + [("", "", 1), ("alpha " * 40, "omega", 0)]
        return examples, train_pair_classifier(
            examples, TrainConfig(epochs=2, learning_rate=0.05, seed=3, max_len=16))

    def test_compiled_loss_equals_per_call_path(self):
        examples, scorer = self.scorer()
        for example in examples + [("unseen words", "alpha", 1)]:
            expected = reference_pair_loss(scorer, example)
            row = scorer.compile(example)
            assert isinstance(row, PairRow)
            assert_close_loss(scorer.loss_and_grads([row]), expected)

    @pytest.mark.parametrize("epochs", [1, 4])
    def test_training_tokenizes_each_row_once(self, monkeypatch, epochs):
        examples = separable_set()
        calls = []
        real = models.tokenize
        monkeypatch.setattr(models, "tokenize",
                            lambda text: calls.append(text) or real(text))
        train_pair_classifier(examples, TrainConfig(epochs=epochs, seed=1))
        # both texts of each row, once for the vocabulary, once compiled
        assert len(calls) == 4 * len(examples)


def per_pair_readouts(encoder, left, rights):
    """`ToyEncoder.pair_readouts` as one plain pass per pair."""
    return np.array([reference_pair_readout(reference_forward(
        encoder, *encoder.pair_ids(left, r))) for r in rights]).reshape(
            len(rights), 2 * encoder.d)


def random_case(rng, max_len, n_left, lengths, n_vocab=None):
    """A random vocabulary's encoder (of ``n_vocab`` tokens, or 2-29 drawn)
    with a history of ``n_left`` ids and one right side per length in
    ``lengths``."""
    n_vocab = int(rng.integers(2, 30)) if n_vocab is None else n_vocab
    encoder = ToyEncoder({f"w{i}": i for i in range(n_vocab)},
                         d=int(rng.integers(2, 9)), max_len=max_len,
                         seed=int(rng.integers(1000)))
    left = rng.integers(0, n_vocab, size=n_left)
    return encoder, left, [rng.integers(0, n_vocab, size=m) for m in lengths]


# (max_len, history length, right-side lengths[, vocabulary size])
READOUT_CASES = {
    "no truncation": (64, 12, [3, 5, 3, 7]),
    "truncation inside the history": (24, 30, [4, 6, 4, 9, 6]),
    "right side of max_len or more": (16, 10, [16, 20, 3]),
    "empty history": (16, 0, [3, 5]),
    "empty right side": (16, 8, [0, 4, 0]),
    "one candidate": (32, 20, [6]),
    "duplicate candidates": (32, 20, [5, 5]),
    "mixed lengths": (32, 25, [1, 2, 3, 5, 8, 13, 2, 1]),
    "one history row": (16, 1, [3, 5, 3]),
    "window of one row by truncation": (16, 20, [15, 4, 15]),
    "one snippet length": (64, 30, [6, 6, 6, 6]),
    "short history, decode-sized list": (128, 27, [18, 21, 24, 21, 18, 19, 24, 21,
                                                   18, 20, 21, 24, 19, 18, 21]),
    # every token repeated many times over: few table rows, many occurrences
    "two-token vocabulary, 40 candidates": (48, 30, [3, 7, 12, 7, 3, 20, 12, 7] * 5, 2),
    "long repeating history, several windows": (32, 90, [1, 2, 5, 9, 14, 20, 27, 31,
                                                         5, 14, 1, 27], 4),
}


class TestPairReadouts:
    """`ToyEncoder.pair_readouts` equals one forward pass per pair up to
    rounding, and gives a candidate the same row in any list."""

    @pytest.mark.parametrize("pooling", ["mean", "first"])
    @pytest.mark.parametrize("case", sorted(READOUT_CASES))
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_per_pair_passes(self, case, pooling, seed):
        max_len, n_left, lengths, *n_vocab = READOUT_CASES[case]
        rng = np.random.default_rng(seed)
        encoder, left, rights = random_case(rng, max_len, n_left, lengths, *n_vocab)
        encoder.pooling = pooling
        if case == "duplicate candidates":
            rights[1] = rights[0].copy()
        expected = per_pair_readouts(encoder, left, rights)
        got = encoder.pair_readouts(left, rights)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        if case == "duplicate candidates":
            assert got[0].tobytes() == got[1].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), max_len=st.integers(2, 40),
           n_left=st.integers(0, 50), lengths=st.lists(st.integers(0, 45), max_size=40),
           pooling=st.sampled_from(["mean", "first"]))
    def test_random_lists_equal_per_pair_passes(self, seed, max_len, n_left,
                                                lengths, pooling):
        encoder, left, rights = random_case(np.random.default_rng(seed), max_len,
                                            n_left, lengths)
        encoder.pooling = pooling
        expected = per_pair_readouts(encoder, left, rights)
        got = encoder.pair_readouts(left, rights)
        assert got.shape == expected.shape
        if rights:
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("block", [models._STACK_BLOCK, 64])
    @pytest.mark.parametrize("pooling", ["mean", "first"])
    def test_row_independent_of_list_and_position(self, monkeypatch, block, pooling):
        monkeypatch.setattr(models, "_STACK_BLOCK", block)
        rng = np.random.default_rng(7)
        for max_len, n_left in ((64, 20), (24, 30)):
            encoder, left, rights = random_case(
                rng, max_len, n_left, rng.integers(1, 9, size=24).tolist())
            encoder.pooling = pooling
            rows = encoder.pair_readouts(left, rights)
            for j, right in enumerate(rights):
                alone = encoder.pair_readouts(left, [right])[0]
                assert alone.tobytes() == rows[j].tobytes()
            for _ in range(3):
                order = rng.permutation(len(rights))[:int(rng.integers(1, len(rights)))]
                got = encoder.pair_readouts(left, [rights[i] for i in order])
                assert got.tobytes() == rows[order].tobytes()

    @pytest.mark.parametrize("pooling", ["mean", "first"])
    def test_readout_ignores_token_order(self, pooling):
        """The condition the token tables rest on: the encoder has no
        position parameters, so permuting the window's history tokens and
        the snippet's tokens (all but the window's first under ``first``
        pooling) leaves a pair's readout unchanged up to rounding."""
        rng = np.random.default_rng(9)
        for max_len, n_left, m in ((64, 20, 7), (24, 30, 9), (16, 40, 1)):
            encoder, left, (right,) = random_case(rng, max_len, n_left, [m])
            encoder.pooling = pooling
            start = max(0, n_left - (max_len - m)) + (pooling == "first")
            shuffled = left.copy()
            shuffled[start:] = rng.permutation(left[start:])
            moved = rng.permutation(right)
            expected = per_pair_readouts(encoder, left, [right])
            for got in (per_pair_readouts(encoder, shuffled, [moved]),
                        encoder.pair_readouts(shuffled, [moved])):
                assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    # a token scaled far past the others: one only in the right sides
    # passes `_Z_MAX` in the history's normalisers and its own block; one
    # only at the history's start, outside every window, raises shifts
    # that leave windowed normalisers below `_TINY`
    # (the tables serve mean pooling only)
    @pytest.mark.parametrize("where,scale", [("right", 60.0), ("history", 80.0)])
    def test_normaliser_out_of_range_takes_the_plain_pass(self, monkeypatch, where,
                                                         scale):
        rng = np.random.default_rng(11)
        encoder, left, rights = random_case(rng, 24, 30,
                                            rng.integers(1, 9, size=24).tolist())
        hot = rights[0][0] if where == "right" else left[0]
        other = (hot + 1) % len(encoder.vocab)
        left = np.where(left == hot, other, left)
        rights = [np.where(r == hot, other, r) if where == "history" else r
                  for r in rights]
        if where == "history":
            left[0] = hot
        encoder.params["emb"][hot] *= scale
        calls = []
        real = ToyEncoder.forward
        monkeypatch.setattr(ToyEncoder, "forward",
                            lambda self, *a: calls.append(1) or real(self, *a))
        rows = encoder.pair_readouts(left, rights)
        if where == "right":
            assert len(calls) == sum(hot in r for r in rights) > 0
        else:
            assert len(calls) == len(rights)
        expected = per_pair_readouts(encoder, left, rights)
        assert np.abs(rows - expected).max() <= 1e-12 * np.abs(expected).max()
        for j, right in enumerate(rights):
            assert encoder.pair_readouts(left, [right])[0].tobytes() == rows[j].tobytes()

    def test_stacks_stay_within_the_block(self, monkeypatch):
        monkeypatch.setattr(models, "_STACK_BLOCK", 200)
        seen = []
        real = ToyEncoder._table_readouts

        def recording(self, tables, window, ids):
            seen.append((len(window[1]), *ids.shape))
            return real(self, tables, window, ids)

        monkeypatch.setattr(ToyEncoder, "_table_readouts", recording)
        encoder, left, rights = random_case(np.random.default_rng(3), 24, 30,
                                            [4] * 9 + [6] * 5)
        encoder.pair_readouts(left, rights)
        assert sum(k for _, k, _ in seen) == len(rights) and len(seen) > 2
        # the stacked temporaries: own-table rows (k, m, 4d + 4), the own
        # block (k, m, m) and the history tokens' X rows (k, m, H)
        assert all(k == 1 or k * m * max(h, m, 4 * encoder.d + 4) <= 200
                   for h, k, m in seen)

    # (max_len, history length, right-side lengths, pairs with no window):
    # an empty right side, one of max_len tokens or more, or an empty history
    @pytest.mark.parametrize("max_len,n_left,lengths,plain", [
        (16, 45, [0, 3, 16, 20, 5], 3),
        (64, 12, [0, 3, 64, 70, 5], 3),
        (16, 0, [3, 5], 2),
    ], ids=["truncated history", "short history", "empty history"])
    def test_plain_forward_only_without_a_shared_window(self, monkeypatch, max_len,
                                                        n_left, lengths, plain):
        encoder, left, rights = random_case(np.random.default_rng(5), max_len,
                                            n_left, lengths)
        calls = []
        real = ToyEncoder.forward
        monkeypatch.setattr(ToyEncoder, "forward",
                            lambda self, *a: calls.append(len(a[0])) or real(self, *a))
        encoder.pair_readouts(left, rights)
        assert len(calls) == plain

    def test_first_pooling_takes_one_plain_pass_per_pair(self, monkeypatch):
        """The token tables serve mean pooling: under ``first`` pooling
        every right side, windowed or not, is one plain `forward`, whose
        readout row it returns as it is."""
        encoder, left, rights = random_case(np.random.default_rng(13), 24, 30,
                                            [0, 3, 6, 24, 9, 3])
        encoder.pooling = "first"
        plain = [pair_readout(encoder.forward(*encoder.pair_ids(left, r)))[0]
                 for r in rights]
        calls = []
        real = ToyEncoder.forward
        monkeypatch.setattr(ToyEncoder, "forward",
                            lambda self, *a: calls.append(1) or real(self, *a))
        rows = encoder.pair_readouts(left, rights)
        assert len(calls) == len(rights)
        assert rows.tobytes() == np.array(plain).tobytes()
        expected = per_pair_readouts(encoder, left, rights)
        assert np.abs(rows - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_scorer_scores_equal_score(self):
        examples = separable_set()
        scorer = train_pair_classifier(examples, TrainConfig(epochs=1, seed=2))
        texts = ["alpha marker", "omega marker", "", "the hotel alpha"]
        got = scorer.scores("the hotel has a pool", texts)
        assert got == [scorer.score("the hotel has a pool", t) for t in texts]
        enc = scorer.encoder
        left = enc.vocab_ids(tokenize("the hotel has a pool"))
        assert got[2] == models.sigmoid(float(
            scorer.head["w"] @ pair_readout(enc.forward(*enc.pair_ids(left, left[:0])))[0]
            + scorer.head["b"][0]))


WORDS = st.lists(st.sampled_from(["a", "b", "c", "⟨kng⟩", "zz", "unknown"]),
                 max_size=10).map(" ".join)


def random_scorer(vocab, d, max_len, pooling, seed):
    """A scorer whose every weight is drawn at random (the head included)."""
    rng = np.random.default_rng(seed)
    scorer = ToyPairScorer(ToyEncoder(vocab, d=d, max_len=max_len, pooling=pooling,
                                      seed=seed))
    for value in scorer.all_params().values():
        value[...] = rng.normal(0.0, 0.7, size=value.shape)
    return scorer


class TestBatchedPairScorer:
    """One `ToyPairScorer.loss_and_grads` call on a minibatch equals the
    per-row reference summed over its rows, up to rounding."""

    VOCAB = {"⟨unk⟩": 0, "a": 1, "b": 2, "c": 3, "⟨kng⟩": 4}

    @settings(max_examples=120, deadline=None)
    @given(examples=st.lists(st.tuples(WORDS, WORDS, st.integers(0, 1)), min_size=1,
                             max_size=9),
           max_len=st.integers(1, 14), pooling=st.sampled_from(["mean", "first"]),
           seed=st.integers(0, 1000))
    @example(examples=[("a b c", "", 1), ("a", "", 0), ("", "", 1)], max_len=8,
             pooling="mean", seed=0)  # the detector's empty right sides
    @example(examples=[("a " * 12, "b c", 1), ("a", "b", 0)], max_len=6,
             pooling="first", seed=1)  # one pair cut at max_len
    def test_batch_equals_per_row_reference(self, examples, max_len, pooling, seed):
        scorer = random_scorer(self.VOCAB, 5, max_len, pooling, seed)
        got = scorer.loss_and_grads([scorer.compile(e) for e in examples])
        assert_close_loss(got, summed_losses(reference_pair_loss(scorer, e)
                                             for e in examples))

    @pytest.mark.parametrize("block", [1, 600, 5000])
    def test_stacks_stay_within_the_block(self, monkeypatch, block):
        monkeypatch.setattr(models, "_STACK_BLOCK", block)
        d = 3
        scorer = random_scorer(self.VOCAB, d, 32, "mean", 4)
        rng = np.random.default_rng(0)
        examples = [(" ".join(rng.choice(["a", "b", "c"], size=n)), "b c", 1)
                    for n in rng.integers(0, 20, size=24)]
        seen = []
        real = ToyEncoder.forward

        def recording(self, ids, segs=None, lengths=None):
            seen.append(list(lengths))
            return real(self, ids, segs, lengths)

        monkeypatch.setattr(ToyEncoder, "forward", recording)
        got = scorer.loss_and_grads([scorer.compile(e) for e in examples])
        assert sum(len(lengths) for lengths in seen) == len(examples)
        for lengths in seen:
            longest = max(lengths)
            assert (len(lengths) == 1
                    or len(lengths) * longest * max(longest, 3 * d) <= block)
        assert (len(seen) == len(examples)) == (block == 1)
        assert_close_loss(got, summed_losses(reference_pair_loss(scorer, e)
                                             for e in examples))

    def test_training_is_one_call_per_minibatch(self, monkeypatch):
        scorer = train_pair_classifier(separable_set(), TrainConfig(epochs=0))
        sizes = []
        real = ToyPairScorer.loss_and_grads
        monkeypatch.setattr(ToyPairScorer, "loss_and_grads",
                            lambda self, rows: sizes.append(len(rows)) or real(self, rows))
        models.train_model(scorer, separable_set(), TrainConfig(epochs=2, batch_size=8))
        assert sizes == [8, 8, 4] * 2
