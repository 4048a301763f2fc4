"""The sentence-pair scorer contract and the trainable reference encoder.

The reference encoder is a deliberately small model: one embedding table,
one self-attention layer with a residual connection, and a pooled summary
vector. It exists to exercise every training objective in this package at
desk scale with exact analytic gradients (verified against central finite
differences), not to approach pretrained-LM quality. A heavier scorer can
be plugged in behind the ``SentencePairScorer`` protocol, which learned
entity tracking reads.

`ToyPairScorer`, the encoder plus a logit head over `pair_readout`, is the
one pair-scoring core: the detector and the learned tracker as it is, the
knowledge rankers extended with their sparse terms (`rank`).

All math is float64 and seeded; training is single-threaded and
bit-reproducible. Inference never mutates parameters. ``forward`` is one
padded pass over a stack of sequences (B x L, the shorter ones masked as
keys and in pooling), returning the caches ``backward`` reads; its adjoint
sums the gradients over the stack. Training hands each minibatch to a
model's ``loss_and_grads`` in one call, which encodes the minibatch's rows
in stacks (`ToyEncoder.stacked_passes`: sorted by length and cut so that no
temporary exceeds `_STACK_BLOCK` elements) and returns the summed loss and
gradients, equal to the per-row sums up to rounding.
At inference, ``pair_readouts`` scores one history against a list of right
sides (a ranker's candidate snippets, a tracker's entity names), equal to
one ``forward`` per pair up to rounding. Under ``first`` pooling, which no
program config sets, that is what every pair takes. Under mean pooling it
reads token tables: the encoder has no position parameters, so an
attention score depends only on its two tokens and their segments, and
the history x snippet scores are tabled once per call, one entry per
distinct (history token, snippet token) pair in each direction, and
exponentiated with shifts taken from the history alone. Each truncation
window is a count vector over the history's distinct tokens, and each
candidate adds only its own snippet x snippet block and sums its tokens'
table rows. A candidate whose normalisers leave the range the shifts keep
exact (a shifted score that would overflow, a normaliser that would
underflow) takes the plain ``forward``, as does a pair with no window: an
empty right side (the detector's), an empty history, or a right side that
fills ``max_len``.

A checkpoint is an ``.npz`` archive of two members: a JSON metadata block
(the model's config, ``version`` and the tensor layout) and one float64
vector that holds every tensor. A loader checks the tensors' names and
shapes, then builds its model around them; it draws no initial weights.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol, Sequence

import numpy as np

from .corpus import tokenize

UNK = "⟨unk⟩"

# the encoder's poolings: the mean over the positions, or position 0
POOLINGS = ("mean", "first")

CHECKPOINT_VERSION = 2
_LAYOUT = "layout"

# most elements a stacked temporary of `ToyEncoder.pair_readouts` or of a
# training stack holds (256 KB of float64), unless one candidate's (one
# unit's) own needs more
_STACK_BLOCK = 1 << 15

# the range of a softmax normaliser (a sum of shifted exponentials) that
# `ToyEncoder.pair_readouts` takes from its token tables: below the smallest
# normal float its terms lose bits to subnormal rounding; above 2**740
# (every term is at most the sum, so no shifted score passes 512) its
# products with the values come near float64 overflow
_TINY = np.finfo(np.float64).tiny
_Z_MAX = 2.0 ** 740


class ModelError(Exception):
    pass


class SentencePairScorer(Protocol):
    def score(self, sentence1: str, sentence2: str) -> float:
        """Probability in [0, 1] that the pair is a true match."""

    def scores(self, sentence1: str, sentences2: Sequence[str]) -> list[float]:
        """``score(sentence1, s)`` for every s in sentences2."""


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


def bce_loss(z, y):
    """Binary cross entropy on logits (a number or an array, elementwise);
    returns (loss, dloss/dz)."""
    z = np.asarray(z, dtype=np.float64)
    # log(1 + e^z) - y*z and the sigmoid, computed stably
    e = np.exp(-np.abs(z))
    loss = np.maximum(z, 0.0) + np.log1p(e) - y * z
    return loss, np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e)) - y


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax_backward(a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """Jacobian-vector product for row-wise softmax outputs a."""
    inner = np.sum(da * a, axis=-1, keepdims=True)
    return a * (da - inner)


class ToyEncoder:
    """Embedding + one residual self-attention layer + pooling.

    A position's input is its token's embedding plus its segment's: the
    encoder has no position parameters, so attention is order-free and
    only mean pooling's count and ``first`` pooling's position 0 see the
    order. `pair_readouts` rests on this condition."""

    # the constructor arguments `config` writes to a checkpoint
    CONFIG_FIELDS = ("d", "pooling", "max_len", "seed")

    def __init__(self, vocab: dict[str, int], d: int = 24, pooling: str = "mean",
                 max_len: int = 128, seed: int = 0,
                 params: Optional[dict[str, np.ndarray]] = None):
        """Seeded initial weights, or ``params`` (laid out as
        `param_shapes` says) as they are, with nothing drawn."""
        if pooling not in POOLINGS:
            raise ModelError(f"unknown pooling: {pooling}")
        self.vocab = dict(vocab)
        self.d = d
        self.pooling = pooling
        self.max_len = max_len
        self.seed = seed
        if params is None:
            shapes = self.param_shapes(len(self.vocab), d)
            rng = np.random.default_rng(seed)
            scale = 1.0 / math.sqrt(d)
            # identity-plus-noise projections so token-identity attention
            # (same word attends to its other occurrences) works from step 0;
            # segment embeddings make cross-segment matches visible in the
            # mean pool (attending to your twin in the other segment pulls in
            # the other segment's offset)
            eye = np.eye(d)
            params = {
                "emb": rng.normal(0.0, 0.5, size=shapes["emb"]),
                "seg": rng.normal(0.0, 0.5, size=shapes["seg"]),
                "wq": eye + rng.normal(0.0, scale * 0.1, size=shapes["wq"]),
                "wk": eye + rng.normal(0.0, scale * 0.1, size=shapes["wk"]),
                "wv": eye + rng.normal(0.0, scale * 0.1, size=shapes["wv"]),
            }
        self.params = params

    @staticmethod
    def param_shapes(n_vocab: int, d: int) -> dict[str, tuple[int, ...]]:
        return {"emb": (n_vocab, d), "seg": (2, d), "wq": (d, d), "wk": (d, d),
                "wv": (d, d)}

    def config(self) -> dict:
        return {key: getattr(self, key) for key in self.CONFIG_FIELDS}

    def vocab_ids(self, tokens: Sequence[str]) -> np.ndarray:
        """Vocabulary id of every token (0 for unknown ones), uncut."""
        return np.fromiter((self.vocab.get(t, 0) for t in tokens),
                           dtype=np.int64, count=len(tokens))

    def pair_ids(self, left: np.ndarray,
                 right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(token ids, segment ids) of ``left`` (segment 0) followed by
        ``right`` (segment 1), both given as `vocab_ids`. An empty pair
        becomes the single id 0; a pair longer than ``max_len`` keeps its
        last ``max_len`` positions (the most recent context)."""
        n = len(left) + len(right)
        if n == 0:
            return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        ids = np.concatenate((left, right))
        segs = np.zeros(n, dtype=np.int64)
        segs[len(left):] = 1
        if n > self.max_len:
            return ids[-self.max_len:], segs[-self.max_len:]
        return ids, segs

    def token_ids(self, tokens: Sequence[str],
                  boundary: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        """(token ids, segment ids); boundary marks where segment 1 starts."""
        cut = len(tokens) if boundary is None else max(0, min(boundary, len(tokens)))
        return self.pair_ids(self.vocab_ids(tokens[:cut]),
                             self.vocab_ids(tokens[cut:]))

    def forward(self, ids: np.ndarray, segs: np.ndarray,
                lengths: Optional[Sequence[int]] = None) -> dict:
        """One padded pass over a stack of sequences, laid end to end in
        ``ids`` and ``segs``, of ``lengths`` tokens each, at least one (one
        sequence when ``None``). Each sequence is one row of the (B, L, ...)
        caches `backward` reads, padded at its end to the longest one; a
        padded position is masked out as a key (a -inf score) and from
        pooling, so a row equals the sequence encoded alone up to rounding.
        Q, K and V come from one fused product, with 1/sqrt(d) folded into
        the query projection."""
        p, d = self.params, self.d
        lengths = np.asarray([len(ids)] if lengths is None else lengths)
        B, L = len(lengths), int(lengths.max())
        mask = np.arange(L) < lengths[:, None]
        E = np.zeros((B, L, d))
        E[mask] = p["emb"][ids] + p["seg"][segs]
        seg1 = np.zeros((B, L))
        seg1[mask] = segs
        # segment-1 pooling weights: per row, 1/n at its n segment-1 positions
        seg_w = seg1 / np.maximum(seg1.sum(axis=1), 1.0)[:, None]
        w_qkv = self._qkv_weights()
        QKV = (E.reshape(B * L, d) @ w_qkv).reshape(B, L, 3 * d)
        A = QKV[:, :, :d] @ QKV[:, :, d:2 * d].transpose(0, 2, 1)
        A += np.where(mask, 0.0, -np.inf)[:, None, :]
        A -= A.max(axis=2, keepdims=True)
        np.exp(A, out=A)
        A /= A.sum(axis=2, keepdims=True)
        H = A @ QKV[:, :, 2 * d:]
        H += E
        if self.pooling == "mean":
            pool = mask / lengths[:, None]
            f = (pool[:, None, :] @ H)[:, 0]
        else:
            pool = None
            f = H[:, 0]
        return {"ids": ids, "segs": segs, "mask": mask, "seg_w": seg_w, "pool": pool,
                "E": E, "w_qkv": w_qkv, "QKV": QKV, "A": A, "H": H, "f": f}

    def _qkv_weights(self) -> np.ndarray:
        """The fused projection to [Q / sqrt(d), K, V]."""
        p = self.params
        return np.hstack((p["wq"] / math.sqrt(self.d), p["wk"], p["wv"]))

    def stacked_passes(self, units: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]]):
        """One `forward` per padded stack of ``units``, each unit a list of
        (ids, segs) sequences that go into one stack together (a list-wise
        instance's candidates). Yields (the stack's unit indices, its
        cache), whose rows are those units' sequences in that order.

        Units go in by the length of their longest sequence (a stable
        sort), and a stack ends before the unit that would make its
        (rows x L x max(L, 3d)) temporaries hold more than `_STACK_BLOCK`
        elements; a unit that needs more on its own is a stack alone."""
        lengths = [max(len(ids) for ids, _ in unit) for unit in units]
        stacks: list[list[int]] = []
        rows = 0
        for i in sorted(range(len(units)), key=lengths.__getitem__):
            rows += len(units[i])
            if not stacks or rows * lengths[i] * max(lengths[i], 3 * self.d) > _STACK_BLOCK:
                stacks.append([])
                rows = len(units[i])
            stacks[-1].append(i)
        for stack in stacks:
            seqs = [seq for i in stack for seq in units[i]]
            yield stack, self.forward(np.concatenate([ids for ids, _ in seqs]),
                                      np.concatenate([segs for _, segs in seqs]),
                                      [len(ids) for ids, _ in seqs])

    def pair_readouts(self, left: np.ndarray,
                      rights: Sequence[np.ndarray]) -> np.ndarray:
        """``pair_readout(forward(*pair_ids(left, right)))`` of every right
        side, one row each, equal to it up to rounding; inference only.
        Under ``first`` pooling that is what every pair takes; the tables
        below serve mean pooling.

        The encoder has no position parameters, so a score depends only on
        its query's and its key's (token, segment). The history x snippet
        scores are tabled once per call, one row per distinct snippet
        token against the history's distinct tokens, in both directions
        (`_token_tables`), and exponentiated with shifts taken from the
        history alone: a history token's max score against the history's
        tokens, and a snippet token's. A right side of m tokens cuts the
        history at ``max_len - m``; that truncation window is a count
        vector over the history's distinct tokens, and its sums over
        history keys are products with those counts (`_window_tables`). A
        candidate then adds only its own snippet x snippet block and sums
        its tokens' table rows (`_table_readouts`); candidates of one
        length are stacked, since their own blocks share a shape. A
        candidate one of whose normalisers leaves [`_TINY`, `_Z_MAX`] (a
        shifted score that would overflow, or a normaliser that would lose
        bits to underflow) takes the plain ``forward``, as does a pair with
        no window: an empty right side or history, or a right side of
        ``max_len`` tokens or more. A snippet table row is one product of
        its own token's embedding with a matrix of the history's, and every
        other product a candidate reads is the history's alone or stacked
        per candidate, never padded, so a candidate's row is the same, bit
        for bit, in any list at any position."""
        out = np.empty((len(rights), 2 * self.d))
        by_length: dict[int, list[int]] = {}
        plain = []
        tabled = self.pooling == "mean" and len(left) > 0
        for j, right in enumerate(rights):
            if not tabled or len(right) == 0 or len(right) >= self.max_len:
                plain.append(j)
            else:
                by_length.setdefault(len(right), []).append(j)
        if by_length:
            snip, snip_ids = _distinct(np.concatenate(
                [rights[j] for js in by_length.values() for j in js]))
            # an overflow or underflow shows in a normaliser, whose
            # candidate is recomputed below
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                tables = self._token_tables(left, snip)
                windows: dict[int, tuple] = {}
                start = 0
                for m, members in by_length.items():
                    n_left = min(len(left), self.max_len - m)
                    if n_left not in windows:
                        windows[n_left] = self._window_tables(tables, n_left)
                    ids = snip_ids[start:start + m * len(members)].reshape(-1, m)
                    start += m * len(members)
                    # per candidate, the stacked temporaries hold (m, H)
                    # table rows, an (m, m) own block and (m, 4d + 4) own
                    # rows
                    step = max(1, _STACK_BLOCK
                               // (m * max(len(tables[1]), m, 4 * self.d + 4)))
                    for lo in range(0, len(members), step):
                        block = members[lo:lo + step]
                        rows, ok = self._table_readouts(tables, windows[n_left],
                                                        ids[lo:lo + step])
                        out[block] = rows
                        plain += [j for j, good in zip(block, ok) if not good]
        for j in plain:
            out[j] = pair_readout(self.forward(*self.pair_ids(left, rights[j])))[0]
        return out

    def _token_tables(self, left: np.ndarray, snip: np.ndarray) -> tuple:
        """The tables of one `pair_readouts` call, for the history ``left``
        and the sorted distinct snippet tokens ``snip``: each history
        position's row among the history's distinct tokens; those tokens'
        embeddings (segment 0), values and shifted score exponentials
        against each other; and per snippet token (segment 1) one row
        [embedding, 1, Q, -shift, K, 1, 1, V] for the own blocks, then its
        shifted score exponentials as a key against the history's queries
        (X) and as a query against its keys (Y). A snippet row is one
        (1, d + 1) x (d + 1, 3d + 3 + 2H) product with a matrix of the
        history's, so it does not depend on the other snippet tokens."""
        d, p = self.d, self.params
        hist, hist_ids = _distinct(left)
        H, c = len(hist), 3 * d + 3
        W = np.zeros((d + 1, c + 2 * H))
        np.divide(p["wq"], math.sqrt(d), out=W[:d, :d])
        W[:d, d + 1:2 * d + 1] = p["wk"]
        W[d, 2 * d + 1:2 * d + 3] = 1.0
        W[:d, 2 * d + 3:c] = p["wv"]
        E_h = p["emb"][hist] + p["seg"][0]
        QKV_h = E_h @ W[:d, :c]
        Q_h, K_h, V_h = QKV_h[:, :d], QKV_h[:, d + 1:2 * d + 1], QKV_h[:, 2 * d + 3:]
        P_h = Q_h @ K_h.T
        top_h = P_h.max(axis=1)
        P_h -= top_h[:, None]
        np.exp(P_h, out=P_h)
        W[:d, c:c + H] = p["wk"] @ Q_h.T
        W[d, c:c + H] = -top_h
        W[:d, c + H:] = W[:d, :d] @ K_h.T
        T = np.empty((len(snip), d + 1 + c + 2 * H))
        np.add(p["emb"][snip], p["seg"][1], out=T[:, :d])
        T[:, d] = 1.0
        np.matmul(T[:, None, :d + 1], W, out=T[:, None, d + 1:])
        X, Y = T[:, d + 1 + c:d + 1 + c + H], T[:, d + 1 + c + H:]
        top_s = Y.max(axis=1)
        Y -= top_s[:, None]
        T[:, 2 * d + 1] = -top_s
        np.exp(T[:, d + 1 + c:], out=T[:, d + 1 + c:])
        return hist_ids, E_h, V_h, P_h, T[:, :d + 1 + c], X, Y

    def _window_tables(self, tables: tuple, n_left: int) -> tuple:
        """What every right side of one truncation window (the last
        ``n_left`` history positions) reads: the window's length, its
        count of each distinct history token, its embedding sum (the
        mean pool's history part), and, as [normaliser, value sum],
        its history keys' part of each history query's (G) and each
        snippet query's (YG) softmax row."""
        hist_ids, E_h, V_h, P_h, _, _, Y = tables
        window = hist_ids[len(hist_ids) - n_left:]
        counts = np.bincount(window, minlength=len(E_h)).astype(np.float64)
        CV = np.empty((len(E_h), 1 + self.d))
        CV[:, 0] = counts
        np.multiply(counts[:, None], V_h, out=CV[:, 1:])
        return (n_left, counts, counts @ E_h, P_h @ CV, (Y[:, None, :] @ CV)[:, 0])

    def _table_readouts(self, tables: tuple, window: tuple,
                        ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean-pooled `pair_readout` rows of a (k, m) stack of right
        sides, given as rows of the snippet tables, in one window, and per
        row whether every normaliser it computes, those of history tokens
        outside the window included, lies in [`_TINY`, `_Z_MAX`]. A right
        row's softmax is its token's window row plus its own block's; a
        history token's is its window row plus its X column summed over
        the right side's tokens, and the mean pool weighs it by its count.
        A sum over the right side's tokens is a (1, m) product, stacked
        per candidate."""
        d = self.d
        own, X = tables[4], tables[5]
        n_left, counts, e_left, G, YG = window
        m = ids.shape[1]
        ones = np.ones((1, m))
        g = own[ids]
        E, QS, K1, V1 = (g[:, :, :d], g[:, :, d + 1:2 * d + 2], g[:, :, 2 * d + 2:3 * d + 3],
                         g[:, :, 3 * d + 3:])
        V = V1[:, :, 1:]
        B = QS @ K1.transpose(0, 2, 1)
        np.exp(B, out=B)
        N = B @ V1
        N += YG[ids]
        z_r = N[:, :, 0]
        right = ((ones @ E) + (1.0 / z_r)[:, None, :] @ N[:, :, 1:])[:, 0]
        XR = X[ids]
        z_l = G[:, 0] + (ones @ XR)[:, 0]
        w = counts / z_l
        f = (e_left + right + (w[:, None, :] @ G[:, 1:]
                               + (XR @ w[:, :, None]).transpose(0, 2, 1) @ V)[:, 0]
             ) / (n_left + m)
        z = np.concatenate((z_r, z_l), axis=1)
        ok = (z.min(axis=1) >= _TINY) & (z.max(axis=1) <= _Z_MAX)
        return np.concatenate((f, right / m), axis=1), ok

    def backward(self, cache: dict, dH: np.ndarray, df: np.ndarray | None,
                 grads: dict) -> None:
        """Accumulate the parameter gradients of a `forward` pass, summed
        over its sequences, given the (B, L, d) gradient ``dH`` of its
        states (zero at padded positions) and the (B, d) gradient ``df``
        of its pooled vectors. The embedding rows are scattered in one
        sorted ``reduceat`` (`scatter_add`)."""
        d = self.d
        E, A, QKV, w_qkv = cache["E"], cache["A"], cache["QKV"], cache["w_qkv"]
        B, L = A.shape[:2]
        if df is not None:
            if self.pooling == "mean":
                pooled = cache["pool"][:, :, None] * df[:, None, :]
                pooled += dH
                dH = pooled
            else:
                dH = dH.copy()
                dH[:, 0] += df
        dQKV = np.empty_like(QKV)
        np.matmul(A.transpose(0, 2, 1), dH, out=dQKV[:, :, 2 * d:])
        # softmax backward: A * (dA - rowsum(dA * A)), where
        # rowsum(dA * A) = rowsum(dH * (A @ V)) and A @ V = H - E
        dS = dH @ QKV[:, :, 2 * d:].transpose(0, 2, 1)
        dS -= (np.einsum("bld,bld->bl", dH, cache["H"])
               - np.einsum("bld,bld->bl", dH, E))[:, :, None]
        dS *= A
        np.matmul(dS, QKV[:, :, d:2 * d], out=dQKV[:, :, :d])
        np.matmul(dS.transpose(0, 2, 1), QKV[:, :, :d], out=dQKV[:, :, d:2 * d])
        del dS
        dQKV = dQKV.reshape(B * L, 3 * d)
        dw = E.reshape(B * L, d).T @ dQKV
        grads["wq"] += dw[:, :d] / math.sqrt(d)
        grads["wk"] += dw[:, d:2 * d]
        grads["wv"] += dw[:, 2 * d:]
        dE = dQKV @ w_qkv.T
        del dQKV
        dE += dH.reshape(B * L, d)
        dE = dE[cache["mask"].ravel()]
        scatter_add(grads["emb"], cache["ids"], dE)
        grads["seg"] += (np.arange(2)[:, None] == cache["segs"]) @ dE


def _distinct(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the sorted distinct values of a non-empty ``ids``, each element's
    index among them), as ``np.unique(ids, return_inverse=True)`` gives
    them, which would import numpy.ma (about 0.6 MB)."""
    order = np.argsort(ids)
    ordered = ids[order]
    first = np.empty(len(ids), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(ids), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def scatter_add(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``table[ids[k]] += rows[k]`` for every k (at least one), the rows of
    a repeated id summed first: one stable sort and one sorted
    ``reduceat``."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
    table[sorted_ids[starts]] += np.add.reduceat(rows[order], starts, axis=0)


class AdamW:
    """Adaptive gradient descent with decoupled weight decay over one flat
    float64 parameter vector (`pack_params`), updated in place. A step runs
    the per-tensor expression once over the whole vector, in the same
    operation order, so it equals one step per tensor bit for bit."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, data: np.ndarray, lr: float = 1e-5,
                 weight_decay: float = 0.01):
        self.data = data
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)
        self._scratch = np.empty((2, data.size))

    def step(self, grad: np.ndarray) -> None:
        """One update from ``grad``, laid out as the parameter vector:
        p -= lr * (mhat / (sqrt(vhat) + eps) + weight_decay * p), each
        product and sum taken in place, into two scratch vectors."""
        self.t += 1
        m, v, (a, b) = self.m, self.v, self._scratch
        np.multiply(grad, 1 - self.b1, out=a)
        m *= self.b1
        m += a
        np.multiply(grad, 1 - self.b2, out=a)
        a *= grad
        v *= self.b2
        v += a
        np.divide(v, 1 - self.b2 ** self.t, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, 1 - self.b1 ** self.t, out=b)
        b /= a
        np.multiply(self.data, self.weight_decay, out=a)
        b += a
        b *= self.lr
        self.data -= b


@dataclass
class TrainConfig:
    """How a model trains (`train_model`'s epochs, AdamW's learning rate
    and weight decay, the batch size and the seed of the batch order) and
    the encoder it builds (width ``d``, pooling, ``max_len``, and the same
    seed for its initial weights). Each trainer and config of the package
    holds one instead of copying its fields."""
    epochs: int = 10
    learning_rate: float = 1e-5
    batch_size: int = 16
    weight_decay: float = 0.01
    seed: int = 0
    d: int = 24
    pooling: str = "mean"
    max_len: int = 128


def pair_readout(cache: dict) -> np.ndarray:
    """Head input for pair scoring, one (B, 2d) row per sequence of a
    `ToyEncoder.forward` pass: [global pool, candidate-segment pool].

    Pooling the second segment separately matters: in the global mean the
    displacement a matched token picks up from attending to its twin in
    the other segment is cancelled by the twin's mirror-image displacement.
    With no segment 1, as in the detector's pairs, its pool is zero.
    """
    pooled = (cache["seg_w"][:, None, :] @ cache["H"])[:, 0]
    return np.concatenate((cache["f"], pooled), axis=1)


def pair_readout_backward(cache: dict, du: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the (B, 2d) head-input gradient into (dH, df) for the
    encoder backward."""
    d = cache["H"].shape[2]
    return cache["seg_w"][:, :, None] * du[:, None, d:], du[:, :d].copy()


@dataclass(frozen=True)
class PairRow:
    """A sentence-pair training example compiled to encoder inputs."""
    ids: np.ndarray
    segs: np.ndarray
    label: int


def pair_scorer_shapes(n_vocab: int, d: int) -> dict[str, tuple[int, ...]]:
    """Tensor shapes of an encoder (``enc.*``) and a logit head over
    `pair_readout` (``head.*``), named as ``all_params`` names them."""
    return {**prefixed("enc.", ToyEncoder.param_shapes(n_vocab, d)),
            "head.w": (2 * d,), "head.b": (1,)}


def prefixed(prefix: str, named: dict) -> dict:
    return {prefix + k: v for k, v in named.items()}


def unprefixed(prefix: str, named: dict) -> dict:
    """The entries of ``named`` whose key starts with ``prefix``, without it."""
    return {k[len(prefix):]: v for k, v in named.items() if k.startswith(prefix)}


def stacked_dot(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w @ row`` for every row, as a stack of (1, k) @ (k, 1) products:
    numpy computes each as the 1-D dot, bit for bit, which a plain
    ``rows @ w`` does not."""
    return (rows[:, None, :] @ w[:, None])[:, 0, 0]


class ToyPairScorer:
    """Cross-encoder over the concatenated sentence pair with a logit head
    over `pair_readout`: the detector and the learned tracker as it is,
    the knowledge rankers with sparse terms added (`rank.PointwiseModel`,
    `rank.ListwiseModel`). The head is written once, here: its logits in
    `_head_logits`, at inference through `pair_logits` and in training
    through `_stack_logits`, and its backward in `_head_backward`."""

    def __init__(self, encoder: ToyEncoder,
                 head: Optional[dict[str, np.ndarray]] = None):
        """A seeded initial head, or ``head`` as it is."""
        if head is None:
            rng = np.random.default_rng(encoder.seed + 1)
            head = {"w": rng.normal(0.0, 0.1, size=2 * encoder.d), "b": np.zeros(1)}
        self.encoder = encoder
        self.head = head

    def param_groups(self) -> dict[str, dict[str, np.ndarray]]:
        """The model's tensor dicts by the prefix `all_params` gives their
        names."""
        return {"enc.": self.encoder.params, "head.": self.head}

    def all_params(self) -> dict[str, np.ndarray]:
        return {prefix + k: v for prefix, group in self.param_groups().items()
                for k, v in group.items()}

    def score(self, sentence1: str, sentence2: str) -> float:
        return self.scores(sentence1, [sentence2])[0]

    def scores(self, sentence1: str, sentences2: Sequence[str]) -> list[float]:
        """``score(sentence1, s)`` for every s in sentences2, with sentence1
        mapped to ids once (`pair_logits`)."""
        enc = self.encoder
        logits = self.pair_logits(enc.vocab_ids(tokenize(sentence1)),
                                  [enc.vocab_ids(tokenize(s)) for s in sentences2])
        return [sigmoid(float(z)) for z in logits]

    def pair_logits(self, left: np.ndarray, rights: Sequence[np.ndarray]) -> np.ndarray:
        """Head logit of ``left`` paired with each right side (all given as
        `ToyEncoder.vocab_ids`): the rows of `ToyEncoder.pair_readouts`,
        then ``head.w . readout`` as `stacked_dot`, then ``head.b``; so a
        right side's logit is the same, bit for bit, in any list."""
        return self._head_logits(self.encoder.pair_readouts(left, rights), stacked_dot)

    def compile(self, example: tuple[str, str, int]) -> PairRow:
        s1, s2, label = example
        enc = self.encoder
        return PairRow(*enc.pair_ids(enc.vocab_ids(tokenize(s1)),
                                     enc.vocab_ids(tokenize(s2))), label)

    def _stack_logits(self, cache: dict) -> tuple[np.ndarray, np.ndarray]:
        """(readouts, head logits) of the rows of one training stack (a
        `ToyEncoder.forward` cache), the logits as one matrix-vector
        product."""
        u = pair_readout(cache)
        return u, self._head_logits(u, np.matmul)

    def _head_logits(self, readouts: np.ndarray, dot) -> np.ndarray:
        """``head.w . readout + head.b`` of every readout row, the dots
        taken by ``dot(readouts, head.w)``: `stacked_dot` at inference, so
        that a row's logit does not depend on the other rows, and one
        matrix-vector product (``np.matmul``) per training stack."""
        return dot(readouts, self.head["w"]) + self.head["b"][0]

    def _head_backward(self, cache: dict, u: np.ndarray, dz: np.ndarray,
                       grads: dict) -> tuple[np.ndarray, np.ndarray]:
        """Add the head's gradients, given the logits' ``dz``, to ``grads``
        and return the (dH, df) that `ToyEncoder.backward` takes."""
        grads["head.w"] += dz @ u
        grads["head.b"] += dz.sum()
        return pair_readout_backward(cache, dz[:, None] * self.head["w"])

    def _zero_grads(self) -> tuple[dict, dict]:
        """Zero gradients named as `all_params` names the tensors, and
        their ``enc.*`` part as `ToyEncoder.backward` names it."""
        grads = {k: np.zeros(v.shape) for k, v in self.all_params().items()}
        return grads, unprefixed("enc.", grads)

    def loss_and_grads(self, rows: Sequence[PairRow]) -> tuple[float, dict]:
        """Summed binary cross entropy of compiled rows and its gradients,
        the rows encoded in padded stacks (`ToyEncoder.stacked_passes`)."""
        grads, enc_grads = self._zero_grads()
        labels = np.array([row.label for row in rows], dtype=np.float64)
        loss = 0.0
        for idx, cache in self.encoder.stacked_passes([[(row.ids, row.segs)]
                                                       for row in rows]):
            u, z = self._stack_logits(cache)
            losses, dz = bce_loss(z, labels[idx])
            loss += float(losses.sum())
            self.encoder.backward(cache, *self._head_backward(cache, u, dz, grads),
                                  enc_grads)
        return loss, grads


def train_pair_classifier(examples: Sequence[tuple[str, str, int]],
                          config: TrainConfig | None = None) -> ToyPairScorer:
    """Fit the reference pair scorer with AdamW on binary cross entropy."""
    config = config or TrainConfig()
    labels = {int(label) for _, _, label in examples}
    if labels != {0, 1}:
        raise ModelError("training data must contain both classes")
    vocab = build_vocab([tokenize(s1) + tokenize(s2) for s1, s2, _ in examples])
    encoder = ToyEncoder(vocab, d=config.d, pooling=config.pooling,
                         max_len=config.max_len, seed=config.seed)
    scorer = ToyPairScorer(encoder)
    train_model(scorer, list(examples), config)
    return scorer


def packed(tensors: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``tensors`` copied into one float64 vector, each raveled, in
    sorted-name order (the checkpoint layout), and views of that vector
    named and shaped as ``tensors``."""
    names = sorted(tensors)
    data = np.concatenate([np.zeros(0)] + [tensors[name].ravel() for name in names])
    return data, _views(data, [(name, tensors[name].shape) for name in names])


def _views(data: np.ndarray, layout) -> dict[str, np.ndarray]:
    """Views of consecutive stretches of ``data``, one per (name, shape)
    of ``layout``."""
    out, start = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        out[name] = data[start:start + size].reshape(shape)
        start += size
    return out


def pack_params(model) -> np.ndarray:
    """Move every tensor of ``model`` (its ``param_groups``) into one vector
    (`packed`); the model then holds views of it, so updating the vector
    updates the model. Returns the vector."""
    data, views = packed(model.all_params())
    for prefix, group in model.param_groups().items():
        for key in group:
            group[key] = views[prefix + key]
    return data


def train_model(model, examples: list, config: TrainConfig) -> list[float]:
    """Generic minibatch loop over a model exposing compile/loss_and_grads/
    param_groups. Every example is compiled to model inputs once, before the
    first epoch; the compiled rows live only for this call. The model's
    tensors become views of one vector (`pack_params`). Each minibatch goes
    to ``loss_and_grads`` in one call, which returns its summed loss and
    gradients; those are laid out as that vector and divided by the batch
    size in one operation, and AdamW steps the whole vector at once.

    Returns the mean training loss per epoch.
    """
    rows = [model.compile(e) for e in examples]
    opt = AdamW(pack_params(model), lr=config.learning_rate,
                weight_decay=config.weight_decay)
    grad = np.empty_like(opt.data)
    rng = np.random.default_rng(config.seed)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [rows[int(i)] for i in order[start:start + config.batch_size]]
            loss, grads = model.loss_and_grads(batch)
            total += loss
            if config.learning_rate > 0:
                np.concatenate([grads[k].ravel() for k in sorted(grads)], out=grad)
                grad /= len(batch)
                opt.step(grad)
        history.append(total / len(rows))
    return history


def finite_difference_check(model, examples: Sequence, epsilon: float = 1e-5,
                            max_entries_per_param: int = 8,
                            seed: int = 0) -> float:
    """Max relative error between the analytic gradients of a minibatch's
    summed loss (one ``loss_and_grads`` call on the compiled examples) and
    central differences, over a random subset of parameter entries."""
    params = model.all_params()
    batch = [model.compile(e) for e in examples]
    _, grads = model.loss_and_grads(batch)
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
            loss_plus, _ = model.loss_and_grads(batch)
            flat[idx] = original - epsilon
            loss_minus, _ = model.loss_and_grads(batch)
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
    """Single-file archive of two members: ``__meta__``, the JSON config
    block plus ``version`` and ``layout``, and ``__data__``, one float64
    vector holding every tensor, raveled, in sorted-name order. ``layout``
    lists ``[name, shape]`` per tensor, in that order."""
    if _LAYOUT in config:
        raise ModelError(f"checkpoint {path}: config key {_LAYOUT!r} is reserved")
    names = sorted(tensors)
    for name in names:
        if tensors[name].dtype != np.float64:
            raise ModelError(f"checkpoint {path}: tensor {name!r} has dtype "
                             f"{tensors[name].dtype}, expected float64")
    meta = dict(config)
    meta["version"] = CHECKPOINT_VERSION
    meta[_LAYOUT] = [[name, list(tensors[name].shape)] for name in names]
    data, _ = packed(tensors)
    header = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                           dtype=np.uint8)
    np.savez(path, __meta__=header, __data__=data)


# bytes of the data block read at a time: a load holds the data vector
# and at most this much of the archive besides
_READ_CHUNK = 1 << 15


def load_checkpoint(path: str, kind: Optional[str] = None
                    ) -> tuple[dict[str, np.ndarray], dict]:
    """Named tensors and config block of a checkpoint; when ``kind`` is
    given, the config's ``kind`` must equal it. The tensors are writable
    views into the one vector the data block is read into; the config
    block is returned without its ``layout`` key."""
    try:
        with zipfile.ZipFile(path) as archive:
            names = set(archive.namelist())
            if "__meta__.npy" not in names:
                raise ModelError(f"checkpoint {path} missing metadata block")
            with archive.open("__meta__.npy") as member:
                block = np.lib.format.read_array(member, allow_pickle=False)
            try:
                meta = json.loads(block.tobytes().decode("utf-8"))
            except ValueError:
                meta = None
            if not isinstance(meta, dict):
                raise ModelError(f"checkpoint {path}: metadata block is not a "
                                 f"JSON object")
            if "version" not in meta:
                raise ModelError(f"checkpoint {path} missing version field")
            if meta["version"] != CHECKPOINT_VERSION:
                raise ModelError(f"checkpoint {path} has version {meta['version']!r}, "
                                 f"this version reads {CHECKPOINT_VERSION}: retrain it")
            if "__data__.npy" not in names:
                raise ModelError(f"checkpoint {path} missing data block")
            layout = meta.pop(_LAYOUT, None)
            with archive.open("__data__.npy") as member:
                data = _read_data(path, member, layout)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ModelError(f"checkpoint {path} is not a readable .npz archive") from exc
    if kind is not None and meta.get("kind") != kind:
        raise ModelError(f"checkpoint {path}: key 'kind' is {meta.get('kind')!r}, "
                         f"expected {kind!r}")
    return _views(data, [(name, tuple(shape)) for name, shape in layout]), meta


def _read_data(path: str, member, layout) -> np.ndarray:
    """The float64 vector of the data block, an open ``.npy`` archive
    member, checked against the checkpoint's layout and then read into it
    in `_READ_CHUNK` pieces, so the block's bytes are never held whole
    beside it."""
    # `np.savez` writes a float vector's header in .npy format 1.0
    if np.lib.format.read_magic(member) != (1, 0):
        raise ValueError(f"checkpoint {path}: data block is not .npy format 1.0")
    dims, _, dtype = np.lib.format.read_array_header_1_0(member)
    if not isinstance(layout, list):
        raise ModelError(f"checkpoint {path} missing tensor layout")
    if dtype != np.float64 or len(dims) != 1:
        raise ModelError(f"checkpoint {path}: data block is not a float64 vector")
    for entry in layout:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], list)
                and all(type(n) is int and n >= 0 for n in entry[1])):
            raise ModelError(f"checkpoint {path}: malformed layout entry {entry!r}")
    if len({name for name, _ in layout}) < len(layout):
        raise ModelError(f"checkpoint {path}: layout names a tensor twice")
    needed = sum(math.prod(shape) for _, shape in layout)
    if needed != dims[0]:
        raise ModelError(f"checkpoint {path}: layout needs {needed} values, "
                         f"data block holds {dims[0]}")
    data = np.empty(needed)
    view = memoryview(data).cast("B")
    for start in range(0, view.nbytes, _READ_CHUNK):
        chunk = view[start:start + _READ_CHUNK]
        if member.readinto(chunk) < chunk.nbytes:
            raise EOFError(f"checkpoint {path}: data block ends early")
    return data


def check_tensors(path: str, shapes: dict[str, tuple[int, ...]],
                  tensors: dict[str, np.ndarray]) -> None:
    """A model's checkpoint tensors must hold exactly the keys of
    ``shapes``, each an array of that shape."""
    for key in sorted(shapes.keys() - tensors.keys()):
        raise ModelError(f"checkpoint {path}: missing tensor {key!r}")
    for key in sorted(tensors.keys() - shapes.keys()):
        raise ModelError(f"checkpoint {path}: unexpected tensor {key!r}")
    for key, value in sorted(tensors.items()):
        if value.shape != shapes[key]:
            raise ModelError(f"checkpoint {path}: tensor {key!r} has shape "
                             f"{value.shape}, expected {shapes[key]}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# each config field a loader reads, by the name `check_fields` gives it:
# the test its value must pass and what its message says it is not
_FIELD_TYPES = {
    # a JSON object's keys are strings
    "vocab": (lambda v: isinstance(v, dict) and set(map(type, v.values())) <= {int},
              "an object of string -> integer"),
    "encoder.d": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "encoder.max_len": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "encoder.seed": (_is_int, "an integer"),
    "encoder.pooling": (lambda v: v in POOLINGS, "'mean' or 'first'"),
    "domains": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                "a list of strings"),
    "use_mtl": (lambda v: isinstance(v, bool), "a boolean"),
    "d": (_is_int, "an integer"),
    "max_target_tokens": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
}


def check_fields(path: str, meta: dict, fields: Sequence[str]) -> None:
    """A checkpoint's config block must hold each of ``fields``; an
    ``encoder`` among them must be an object of exactly
    `ToyEncoder.CONFIG_FIELDS`, so a loaded model takes no default it was
    not saved with; and each field that `_FIELD_TYPES` names must pass its
    test there, so a wrong-typed value is rejected on load."""
    for key in fields:
        if key not in meta:
            raise ModelError(f"checkpoint {path}: missing field {key!r}")
    if "encoder" in fields:
        encoder = meta["encoder"]
        if not isinstance(encoder, dict):
            raise ModelError(f"checkpoint {path}: field 'encoder' is not an object")
        for key in ToyEncoder.CONFIG_FIELDS:
            if key not in encoder:
                raise ModelError(f"checkpoint {path}: missing field 'encoder.{key}'")
        for key in sorted(encoder.keys() - set(ToyEncoder.CONFIG_FIELDS)):
            raise ModelError(f"checkpoint {path}: unknown field 'encoder.{key}'")
    for name, (valid, kind) in _FIELD_TYPES.items():
        block, _, key = name.rpartition(".")
        if (block or key) in fields and not valid(meta[block][key] if block else meta[key]):
            raise ModelError(f"checkpoint {path}: field {name!r} is not {kind}")


def scorer_to_checkpoint(scorer: ToyPairScorer, path: str) -> None:
    config = {
        "kind": "pair_scorer",
        "encoder": scorer.encoder.config(),
        "vocab": scorer.encoder.vocab,
    }
    save_checkpoint(path, scorer.all_params(), config)


def scorer_from_checkpoint(path: str) -> ToyPairScorer:
    tensors, meta = load_checkpoint(path, "pair_scorer")
    check_fields(path, meta, ("vocab", "encoder"))
    check_tensors(path, pair_scorer_shapes(len(meta["vocab"]), meta["encoder"]["d"]), tensors)
    encoder = ToyEncoder(meta["vocab"], **meta["encoder"],
                         params=unprefixed("enc.", tensors))
    return ToyPairScorer(encoder, unprefixed("head.", tensors))
