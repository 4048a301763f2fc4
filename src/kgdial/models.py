"""Encoder/scorer/generator contracts and the trainable reference encoder.

The reference encoder is a deliberately small model: one embedding table,
one self-attention layer with a residual connection, and a pooled summary
vector. It exists to exercise every training objective in this package at
desk scale with exact analytic gradients (verified against central finite
differences), not to approach pretrained-LM quality. Heavier backbones
can be plugged in behind the same contracts.

All math is float64 and seeded; training is single-threaded and
bit-reproducible. Inference never mutates parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol, Sequence

import numpy as np

from .corpus import tokenize

UNK = "⟨unk⟩"

CHECKPOINT_VERSION = 1


class ModelError(Exception):
    pass


class TextEncoder(Protocol):
    d: int

    def encode(self, tokens: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Return (H: T x d hidden states, f: pooled vector of length d)."""


class SentencePairScorer(Protocol):
    def score(self, sentence1: str, sentence2: str) -> float:
        """Probability in [0, 1] that the pair is a true match."""


class Generator(Protocol):
    def generate_nbest(self, context: str, n: int) -> list[tuple[str, float]]:
        """Up to n (text, logprob) candidates, best first."""


def build_vocab(token_streams: Iterable[Sequence[str]]) -> dict[str, int]:
    vocab = {UNK: 0}
    for stream in token_streams:
        for tok in stream:
            if tok not in vocab:
                vocab[tok] = len(vocab)
    return vocab


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def bce_loss(z: float, y: float) -> tuple[float, float]:
    """Binary cross entropy on a logit; returns (loss, dloss/dz)."""
    # log(1 + e^z) - y*z, computed stably
    loss = max(z, 0.0) + math.log1p(math.exp(-abs(z))) - y * z
    return loss, sigmoid(z) - y


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """Jacobian-vector product for row-wise softmax outputs a."""
    inner = np.sum(da * a, axis=-1, keepdims=True)
    return a * (da - inner)


class ToyEncoder:
    """Embedding + one residual self-attention layer + pooling."""

    def __init__(self, vocab: dict[str, int], d: int = 24, pooling: str = "mean",
                 max_len: int = 128, seed: int = 0):
        if pooling not in ("mean", "first"):
            raise ModelError(f"unknown pooling: {pooling}")
        self.vocab = dict(vocab)
        self.d = d
        self.pooling = pooling
        self.max_len = max_len
        self.seed = seed
        rng = np.random.default_rng(seed)
        scale = 1.0 / math.sqrt(d)
        # identity-plus-noise projections so token-identity attention
        # (same word attends to its other occurrences) works from step 0;
        # segment embeddings make cross-segment matches visible in the
        # mean pool (attending to your twin in the other segment pulls in
        # the other segment's offset)
        eye = np.eye(d)
        self.params = {
            "emb": rng.normal(0.0, 0.5, size=(len(self.vocab), d)),
            "seg": rng.normal(0.0, 0.5, size=(2, d)),
            "wq": eye + rng.normal(0.0, scale * 0.1, size=(d, d)),
            "wk": eye + rng.normal(0.0, scale * 0.1, size=(d, d)),
            "wv": eye + rng.normal(0.0, scale * 0.1, size=(d, d)),
        }

    def config(self) -> dict:
        return {"d": self.d, "pooling": self.pooling, "max_len": self.max_len,
                "seed": self.seed}

    def token_ids(self, tokens: Sequence[str],
                  boundary: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        """(token ids, segment ids); boundary marks where segment 1 starts."""
        ids = [self.vocab.get(t, 0) for t in tokens]
        segs = [0] * len(ids)
        if boundary is not None:
            for i in range(min(boundary, len(ids)), len(ids)):
                segs[i] = 1
        if not ids:
            ids, segs = [0], [0]
        if len(ids) > self.max_len:
            ids = ids[-self.max_len:]  # keep the most recent context
            segs = segs[-self.max_len:]
        return (np.asarray(ids, dtype=np.int64),
                np.asarray(segs, dtype=np.int64))

    def forward(self, ids: np.ndarray,
                segs: Optional[np.ndarray] = None) -> dict:
        p = self.params
        if segs is None:
            segs = np.zeros_like(ids)
        E = p["emb"][ids] + p["seg"][segs]
        Q = E @ p["wq"]
        K = E @ p["wk"]
        Vm = E @ p["wv"]
        S = (Q @ K.T) / math.sqrt(self.d)
        A = softmax(S, axis=-1)
        H = E + A @ Vm
        if self.pooling == "mean":
            f = H.mean(axis=0)
        else:
            f = H[0]
        return {"ids": ids, "segs": segs, "E": E, "Q": Q, "K": K, "Vm": Vm,
                "A": A, "H": H, "f": f}

    def encode(self, tokens: Sequence[str],
               boundary: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        cache = self.forward(*self.token_ids(tokens, boundary))
        return cache["H"], cache["f"]

    def backward(self, cache: dict, dH: np.ndarray | None, df: np.ndarray | None,
                 grads: dict) -> None:
        """Accumulate parameter gradients for one encoded sequence."""
        p = self.params
        T = cache["E"].shape[0]
        dH_total = np.zeros_like(cache["H"]) if dH is None else dH.copy()
        if df is not None:
            if self.pooling == "mean":
                dH_total += df / T
            else:
                dH_total[0] += df
        E, A, Vm = cache["E"], cache["A"], cache["Vm"]
        dE = dH_total.copy()
        dA = dH_total @ Vm.T
        dVm = A.T @ dH_total
        grads["wv"] += E.T @ dVm
        dE += dVm @ p["wv"].T
        dS = softmax_backward(A, dA) / math.sqrt(self.d)
        dQ = dS @ cache["K"]
        dK = dS.T @ cache["Q"]
        grads["wq"] += E.T @ dQ
        grads["wk"] += E.T @ dK
        dE += dQ @ p["wq"].T + dK @ p["wk"].T
        np.add.at(grads["emb"], cache["ids"], dE)
        np.add.at(grads["seg"], cache["segs"], dE)

    def zero_grads(self) -> dict:
        return {k: np.zeros_like(v) for k, v in self.params.items()}


class AdamW:
    """Adaptive gradient descent with decoupled weight decay."""

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-5,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for key, p in self.params.items():
            g = grads[key]
            self.m[key] = self.b1 * self.m[key] + (1 - self.b1) * g
            self.v[key] = self.b2 * self.v[key] + (1 - self.b2) * g * g
            mhat = self.m[key] / (1 - self.b1 ** self.t)
            vhat = self.v[key] / (1 - self.b2 ** self.t)
            p -= self.lr * (mhat / (np.sqrt(vhat) + self.eps) + self.weight_decay * p)


@dataclass
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 1e-5
    batch_size: int = 16
    weight_decay: float = 0.01
    seed: int = 0
    d: int = 24
    pooling: str = "mean"
    max_len: int = 128


def pair_readout(cache: dict) -> np.ndarray:
    """Head input for pair scoring: [global pool, candidate-segment pool].

    Pooling the second segment separately matters: in the global mean the
    displacement a matched token picks up from attending to its twin in
    the other segment is cancelled by the twin's mirror-image displacement.
    """
    segs = cache["segs"]
    H = cache["H"]
    mask = segs == 1
    seg_pool = H[mask].mean(axis=0) if mask.any() else np.zeros(H.shape[1])
    return np.concatenate([cache["f"], seg_pool])


def pair_readout_backward(cache: dict, du: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split head-input gradient into (dH, df) for the encoder backward."""
    d = cache["H"].shape[1]
    df = du[:d].copy()
    dH = np.zeros_like(cache["H"])
    mask = cache["segs"] == 1
    if mask.any():
        dH[mask] = du[d:] / mask.sum()
    return dH, df


class ToyPairScorer:
    """Cross-encoder over the concatenated sentence pair with a sigmoid head."""

    def __init__(self, encoder: ToyEncoder):
        self.encoder = encoder
        rng = np.random.default_rng(encoder.seed + 1)
        self.params = {"w": rng.normal(0.0, 0.1, size=2 * encoder.d),
                       "b": np.zeros(1)}

    def all_params(self) -> dict[str, np.ndarray]:
        out = {f"enc.{k}": v for k, v in self.encoder.params.items()}
        out.update({f"head.{k}": v for k, v in self.params.items()})
        return out

    def _tokens(self, sentence1: str, sentence2: str) -> tuple[list[str], int]:
        left = tokenize(sentence1)
        return left + tokenize(sentence2), len(left)

    def logit(self, sentence1: str, sentence2: str) -> float:
        tokens, boundary = self._tokens(sentence1, sentence2)
        cache = self.encoder.forward(*self.encoder.token_ids(tokens, boundary))
        return float(self.params["w"] @ pair_readout(cache) + self.params["b"][0])

    def score(self, sentence1: str, sentence2: str) -> float:
        return sigmoid(self.logit(sentence1, sentence2))

    def loss_and_grads(self, example: tuple[str, str, int]) -> tuple[float, dict]:
        s1, s2, label = example
        tokens, boundary = self._tokens(s1, s2)
        cache = self.encoder.forward(*self.encoder.token_ids(tokens, boundary))
        u = pair_readout(cache)
        z = float(self.params["w"] @ u + self.params["b"][0])
        loss, dz = bce_loss(z, float(label))
        grads = {f"enc.{k}": v for k, v in self.encoder.zero_grads().items()}
        grads["head.w"] = dz * u
        grads["head.b"] = np.array([dz])
        dH, df = pair_readout_backward(cache, dz * self.params["w"])
        enc_grads = {k.split(".", 1)[1]: v for k, v in grads.items()
                     if k.startswith("enc.")}
        self.encoder.backward(cache, dH, df, enc_grads)
        return loss, grads


def train_pair_classifier(examples: Sequence[tuple[str, str, int]],
                          config: TrainConfig | None = None,
                          vocab: dict[str, int] | None = None) -> ToyPairScorer:
    """Fit the reference pair scorer with AdamW on binary cross entropy."""
    config = config or TrainConfig()
    labels = {int(label) for _, _, label in examples}
    if labels != {0, 1}:
        raise ModelError("training data must contain both classes")
    if vocab is None:
        vocab = build_vocab([tokenize(s1) + tokenize(s2) for s1, s2, _ in examples])
    encoder = ToyEncoder(vocab, d=config.d, pooling=config.pooling,
                         max_len=config.max_len, seed=config.seed)
    scorer = ToyPairScorer(encoder)
    train_model(scorer, list(examples), config)
    return scorer


def train_model(model, examples: list, config: TrainConfig) -> list[float]:
    """Generic minibatch loop over a model exposing loss_and_grads/all_params.

    Returns the mean training loss per epoch.
    """
    params = model.all_params()
    opt = AdamW(params, lr=config.learning_rate,
                weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            for idx in batch:
                loss, g = model.loss_and_grads(examples[int(idx)])
                total += loss
                for k in grads:
                    grads[k] += g[k]
            for k in grads:
                grads[k] /= len(batch)
            if config.learning_rate > 0:
                opt.step(grads)
        history.append(total / len(examples))
    return history


def finite_difference_check(model, example, epsilon: float = 1e-5,
                            max_entries_per_param: int = 8,
                            seed: int = 0) -> float:
    """Max relative error between analytic gradients and central differences
    over a random subset of parameter entries."""
    params = model.all_params()
    _, grads = model.loss_and_grads(example)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for key, tensor in params.items():
        flat = tensor.reshape(-1)
        n = flat.shape[0]
        picks = rng.choice(n, size=min(max_entries_per_param, n), replace=False)
        for idx in picks:
            idx = int(idx)
            original = flat[idx]
            flat[idx] = original + epsilon
            loss_plus, _ = model.loss_and_grads(example)
            flat[idx] = original - epsilon
            loss_minus, _ = model.loss_and_grads(example)
            flat[idx] = original
            numeric = (loss_plus - loss_minus) / (2 * epsilon)
            analytic = grads[key].reshape(-1)[idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            err = abs(numeric - analytic) / denom
            if abs(numeric) < 1e-10 and abs(analytic) < 1e-10:
                err = 0.0
            worst = max(worst, err)
    return worst


def save_checkpoint(path: str, tensors: dict[str, np.ndarray], config: dict) -> None:
    """Single-file archive of named tensors plus a JSON config block."""
    meta = dict(config)
    meta["version"] = CHECKPOINT_VERSION
    blob = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                         dtype=np.uint8)
    np.savez(path, __meta__=blob, **tensors)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with np.load(path) as archive:
        if "__meta__" not in archive:
            raise ModelError(f"checkpoint {path} missing metadata block")
        meta = json.loads(bytes(archive["__meta__"].tobytes()).decode("utf-8"))
        if "version" not in meta:
            raise ModelError(f"checkpoint {path} missing version field")
        tensors = {k: archive[k] for k in archive.files if k != "__meta__"}
    return tensors, meta


def scorer_to_checkpoint(scorer: ToyPairScorer, path: str) -> None:
    config = {
        "kind": "pair_scorer",
        "encoder": scorer.encoder.config(),
        "vocab": scorer.encoder.vocab,
    }
    save_checkpoint(path, scorer.all_params(), config)


def scorer_from_checkpoint(path: str) -> ToyPairScorer:
    tensors, meta = load_checkpoint(path)
    if meta.get("kind") != "pair_scorer":
        raise ModelError(f"checkpoint {path} is not a pair scorer")
    enc_cfg = meta["encoder"]
    encoder = ToyEncoder(meta["vocab"], d=enc_cfg["d"], pooling=enc_cfg["pooling"],
                         max_len=enc_cfg["max_len"], seed=enc_cfg["seed"])
    scorer = ToyPairScorer(encoder)
    for key, value in tensors.items():
        scope, name = key.split(".", 1)
        target = encoder.params if scope == "enc" else scorer.params
        target[name][...] = value
    return scorer
