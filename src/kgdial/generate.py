"""Response generation harness.

Covers the data side of generation: mining and stripping the
written-style trailing interrogatives, building tagged generation
contexts with the top-5 knowledge in descending order, the online
distractor knob p_s (with probability p_s the gold snippet is dropped
from the context so the generator learns to survive selection errors),
and a small trainable conditional generator with n-best beam decoding.

The reference generator is an autoregressive word model conditioned on a
bag-of-words context vector, the previous token and the position. It can
overfit a small training set exactly, which is all the desk-scale
harness requires; real pretrained LMs plug in behind the Generator
contract. Its n-best beam search steps all live beams of a position in
one batched call and stops as soon as the n-best can no longer change
(finished beams scoring strictly above every live beam hold n distinct
texts), with the same result as running every position.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import (Dialogue, GenerationContext, KnowledgeSnippet, TAG_RESP,
                     build_generation_context, normalize_ws, tokenize)
from .models import TrainConfig, build_vocab, train_model

EOS = "⟨eos⟩"

_SENTENCE_RE = re.compile(r"[^.!?]*[.!?]|[^.!?]+$")


class GenerateError(Exception):
    pass


@dataclass
class GenTrainConfig:
    epochs: int = 6
    batch_size: int = 32
    max_history_tokens: int = 512
    max_target_tokens: int = 96
    p_s: float = 0.15
    seed: int = 0
    learning_rate: float = 1e-5
    weight_decay: float = 0.01
    d: int = 32

    def __post_init__(self):
        if not 0.0 <= self.p_s <= 1.0:
            raise GenerateError(f"p_s out of [0,1]: {self.p_s}")


def split_sentences(text: str) -> list[str]:
    return [s.strip() for s in _SENTENCE_RE.findall(text) if s.strip()]


def _normalize_sentence(sentence: str) -> str:
    return normalize_ws(sentence).lower()


def mine_frequent_interrogatives(responses: Sequence[str],
                                 min_count: int = 20) -> list[str]:
    """Trailing question sentences whose normalized form repeats at least
    min_count times, most frequent first."""
    counts: dict[str, int] = {}
    for response in responses:
        sentences = split_sentences(response)
        if not sentences:
            continue
        tail = sentences[-1]
        if tail.endswith("?"):
            key = _normalize_sentence(tail)
            counts[key] = counts.get(key, 0) + 1
    frequent = [(n, s) for s, n in counts.items() if n >= min_count]
    frequent.sort(key=lambda t: (-t[0], t[1]))
    return [s for _, s in frequent]


def strip_trailing_interrogatives(response: str,
                                  interrogatives: Sequence[str]) -> str:
    """Drop listed trailing questions; never empties the response."""
    listed = {_normalize_sentence(s) for s in interrogatives}
    current = response
    while True:
        sentences = split_sentences(current)
        if len(sentences) < 2:
            return current
        if _normalize_sentence(sentences[-1]) not in listed:
            return current
        current = " ".join(sentences[:-1])


def preprocess_responses(dialogues: Sequence[Dialogue],
                         interrogatives: Sequence[str]) -> list[Dialogue]:
    from dataclasses import replace

    out = []
    for d in dialogues:
        if d.label is None or d.label.response is None:
            out.append(d)
            continue
        stripped = strip_trailing_interrogatives(d.label.response, interrogatives)
        out.append(replace(d, label=replace(d.label, response=stripped)))
    return out


@dataclass(frozen=True)
class GenExample:
    """One generation training row: tagged context plus tagged target."""
    turn_id: str
    context: GenerationContext
    target: str
    gold_replaced: bool = False


def build_gen_examples(dialogues: Sequence[Dialogue],
                       selection_outputs: dict[str, Sequence[KnowledgeSnippet]],
                       config: GenTrainConfig,
                       rng: np.random.Generator) -> list[GenExample]:
    """Contexts from (cross-validated) selection outputs, with the gold
    snippet dropped with probability p_s so contexts reflect inference
    conditions."""
    examples = []
    for d in dialogues:
        if d.label is None or not d.label.is_knowledge_seeking:
            continue
        if d.label.response is None:
            continue
        if d.id not in selection_outputs:
            raise GenerateError(f"no selection output for turn {d.id}")
        topk = list(selection_outputs[d.id])[:5]
        refs = set(d.label.knowledge_refs)
        gold_replaced = False
        if topk and rng.uniform() < config.p_s:
            survivors = [s for s in topk if s.key not in refs]
            if len(survivors) < len(topk):
                topk = survivors
                gold_replaced = True
        context = build_generation_context(
            d, topk, max_tokens=config.max_history_tokens)
        examples.append(GenExample(
            turn_id=d.id, context=context,
            target=f"{TAG_RESP} {d.label.response}",
            gold_replaced=gold_replaced))
    return examples


@dataclass(frozen=True)
class GenRow:
    """A generation example compiled to ids: context, target (ending in
    EOS) and the teacher-forced input of every target position."""
    context_ids: np.ndarray
    target: np.ndarray
    prev_ids: np.ndarray


class ToyGenerator:
    """Word-level conditional generator: tanh state over (previous token,
    position, mean context embedding), softmax over the vocabulary."""

    def __init__(self, vocab: dict[str, int], d: int = 32,
                 max_target_tokens: int = 96, seed: int = 0):
        self.vocab = dict(vocab)
        if EOS not in self.vocab:
            self.vocab[EOS] = len(self.vocab)
        self.inv_vocab = {i: w for w, i in self.vocab.items()}
        self.d = d
        self.max_target_tokens = max_target_tokens
        self.seed = seed
        rng = np.random.default_rng(seed)
        V = len(self.vocab)
        self.params = {
            "emb": rng.normal(0.0, 0.5, size=(V, d)),
            "pos": rng.normal(0.0, 0.1, size=(max_target_tokens + 1, d)),
            "wp": rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, d)),
            "wc": rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, d)),
            "bh": np.zeros(d),
            "out": rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, V)),
            "bo": np.zeros(V),
        }

    def all_params(self) -> dict[str, np.ndarray]:
        return self.params

    def _ids(self, tokens: Sequence[str]) -> np.ndarray:
        return np.asarray([self.vocab.get(t, 0) for t in tokens], dtype=np.int64)

    def context_vector(self, ids: np.ndarray) -> np.ndarray:
        """Mean embedding of the context token ids (zeros when empty)."""
        if ids.size == 0:
            return np.zeros(self.d)
        return self.params["emb"][ids].sum(axis=0) / ids.size

    def _target_ids(self, target: str) -> np.ndarray:
        tokens = tokenize(target)
        if tokens and tokens[0] == TAG_RESP:
            tokens = tokens[1:]
        tokens = tokens[: self.max_target_tokens - 1] + [EOS]
        return self._ids(tokens)

    def _step_forward(self, prev_ids: np.ndarray, pos, c: np.ndarray) -> dict:
        """One step for a batch of rows: row i continues ``prev_ids[i]`` at
        position ``pos`` (one int for all rows, or one per row). Each row
        is multiplied as a (1, d) matrix, which numpy does row by row
        exactly as for a single row; one matrix-matrix product for all rows
        would round differently."""
        p = self.params
        x = p["emb"][prev_ids]
        xw = (x[:, None] @ p["wp"])[:, 0]
        h = np.tanh(xw + c @ p["wc"] + p["pos"][pos] + p["bh"])
        logits = (h[:, None] @ p["out"])[:, 0] + p["bo"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        norm = [math.log(s) for s in np.exp(shifted).sum(axis=1)]
        logp = shifted - np.asarray(norm)[:, None]
        return {"x": x, "h": h, "logp": logp}

    def compile(self, example: GenExample) -> GenRow:
        target = self._target_ids(example.target)
        return GenRow(
            context_ids=self._ids(tokenize(example.context.text)), target=target,
            prev_ids=np.concatenate([[self.vocab.get(TAG_RESP, 0)], target[:-1]]))

    def loss_and_grads(self, example: GenExample | GenRow) -> tuple[float, dict]:
        """Mean token-level cross entropy with analytic gradients. With
        teacher forcing every position's input is known, so all positions
        go through one step call. Every sum over positions adds them in
        position order, starting from the zero gradient, exactly as one
        position at a time would."""
        row = example if isinstance(example, GenRow) else self.compile(example)
        p = self.params
        grads = {k: np.zeros(v.shape) for k, v in p.items()}
        ctx_ids, target, prev_ids = row.context_ids, row.target, row.prev_ids
        c = self.context_vector(ctx_ids)
        n = len(target)
        positions = np.arange(n)
        step = self._step_forward(prev_ids, positions, c)
        logp, h = step["logp"], step["h"]
        loss = 0.0 + float(_sum_in_order(-logp[positions, target] / n))
        dlogits = np.exp(logp) / n
        dlogits[positions, target] -= 1.0 / n
        for pos in positions:  # one d x V product at a time
            grads["out"] += np.outer(h[pos], dlogits[pos])
        grads["bo"] += _sum_in_order(dlogits)
        # stacked (d, V) @ (V, 1) products: the kernel of a single one
        dh = (p["out"] @ dlogits[:, :, None])[:, :, 0]
        dpre = dh * (1.0 - h * h)
        grads["wp"] += _sum_in_order(step["x"][:, :, None] * dpre[:, None, :])
        grads["wc"] += _sum_in_order(c[None, :, None] * dpre[:, None, :])
        grads["pos"][:n] += dpre
        grads["bh"] += _sum_in_order(dpre)
        np.add.at(grads["emb"], prev_ids, (p["wp"] @ dpre[:, :, None])[:, :, 0])
        dc = np.zeros(self.d)
        dc += _sum_in_order((p["wc"] @ dpre[:, :, None])[:, :, 0])
        if ctx_ids.size:
            np.add.at(grads["emb"], ctx_ids, dc / ctx_ids.size)
        return loss, grads

    def generate_nbest(self, context: str, n: int,
                       beam_width: Optional[int] = None) -> list[tuple[str, float]]:
        """Beam-search n-best: deduplicated texts sorted by log-probability.

        Each position keeps the ``width`` best of the finished beams and of
        the ``width`` best tokens (ties to the lower id) each live beam
        offers, ordered by (-log-probability, tokens). The search stops
        early once the finished beams that score strictly above the best
        live beam hold ``n`` distinct texts: log-probabilities only fall,
        so no descendant of a live beam can displace or outrank them.
        """
        if n < 1:
            raise GenerateError("n must be >= 1")
        width = max(n, beam_width or 2 * n)
        c = self.context_vector(self._ids(tokenize(context)))
        bos = self.vocab.get(TAG_RESP, 0)
        eos_id = self.vocab[EOS]
        beams: list[tuple[float, list[int], bool]] = [(0.0, [], False)]
        for pos in range(self.max_target_tokens):
            done = [b for b in beams if b[2]]
            live = [b for b in beams if not b[2]]
            prev_ids = np.asarray([b[1][-1] if b[1] else bos for b in live])
            logp = self._step_forward(prev_ids, pos, c)["logp"]
            rows, toks = np.nonzero(_top_tokens(logp, width))
            scores = np.asarray([b[0] for b in live])[rows] + logp[rows, toks]
            # only entries at or above the width-th best score can be kept
            pool = np.concatenate([[b[0] for b in done], scores])
            cut = -math.inf
            if pool.size > width:
                cut = np.partition(pool, pool.size - width)[pool.size - width]
            nxt = [b for b in done if b[0] >= cut]
            for i in np.flatnonzero(scores >= cut):
                tok = int(toks[i])
                nxt.append((float(scores[i]), live[rows[i]][1] + [tok],
                            tok == eos_id))
            nxt.sort(key=lambda b: (-b[0], b[1]))
            beams = nxt[:width]
            live_scores = [lp for lp, _, finished in beams if not finished]
            if not live_scores:
                break
            settled = {self._text(tokens) for lp, tokens, finished in beams
                       if finished and lp > live_scores[0]}
            if len(settled) >= n:
                break
        best: dict[str, float] = {}
        for logprob, tokens, _ in beams:
            text = self._text(tokens)
            if text not in best or logprob > best[text]:
                best[text] = logprob
        ranked = sorted(best.items(), key=lambda t: (-t[1], t[0]))
        return ranked[:n]

    def _text(self, tokens: Sequence[int]) -> str:
        eos_id = self.vocab[EOS]
        return " ".join(self.inv_vocab[t] for t in tokens if t != eos_id)

    def greedy(self, context: str) -> str:
        return self.generate_nbest(context, 1, beam_width=1)[0][0]


def _sum_in_order(x: np.ndarray) -> np.ndarray:
    """Sum over the first axis adding the rows one after the other, as a
    loop would; numpy's ``sum`` may add them pairwise instead."""
    return np.add.accumulate(x, axis=0)[-1]


def _top_tokens(logp: np.ndarray, width: int) -> np.ndarray:
    """Mask of each row's ``width`` largest entries, ties to the lower
    column; the whole row when it has no more than ``width`` entries."""
    V = logp.shape[1]
    if width >= V:
        return np.ones(logp.shape, dtype=bool)
    kth = np.partition(logp, V - width, axis=1)[:, V - width, None]
    top = logp >= kth
    for row in np.flatnonzero(top.sum(axis=1) > width):
        # more entries tie at the cut than fit: the higher columns drop out
        ties = np.flatnonzero(logp[row] == kth[row])
        top[row, ties[width - (top[row].sum() - ties.size):]] = False
    return top


def train_generator(examples: Sequence[GenExample],
                    config: GenTrainConfig) -> tuple[ToyGenerator, list[float]]:
    """Fit the reference generator; returns (model, per-epoch mean loss)."""
    if not examples:
        raise GenerateError("no generation examples to train on")
    streams = [tokenize(e.context.text) + tokenize(e.target) for e in examples]
    vocab = build_vocab(streams)
    model = ToyGenerator(vocab, d=config.d,
                         max_target_tokens=config.max_target_tokens,
                         seed=config.seed)
    history = train_model(model, list(examples), TrainConfig(
        epochs=config.epochs, learning_rate=config.learning_rate,
        batch_size=config.batch_size, weight_decay=config.weight_decay,
        seed=config.seed))
    return model, history


def decode_nbest(generator, context: str, n: int) -> list[tuple[str, float]]:
    """Contract wrapper: validates ordering, dedup and finite logprobs."""
    out = generator.generate_nbest(context, n)
    if len(out) > n:
        raise GenerateError("generator returned more than n candidates")
    texts = [t for t, _ in out]
    if len(set(texts)) != len(texts):
        raise GenerateError("generator returned duplicate texts")
    logps = [lp for _, lp in out]
    if any(not math.isfinite(lp) or lp > 0 for lp in logps):
        raise GenerateError("log-probabilities must be finite and <= 0")
    if any(logps[i] < logps[i + 1] for i in range(len(logps) - 1)):
        raise GenerateError("candidates must be sorted by descending log-probability")
    return out
