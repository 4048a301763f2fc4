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
harness requires; a real pretrained LM would plug in by offering the same
``generate_nbest``. Its n-best beam search steps all live beams of a
position in one batched call, keeps the next beams with one score cut
per position, and stops as soon as the n-best can no longer change
(finished beams scoring strictly above every live beam hold n distinct
texts), with the same result as running every position.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .corpus import (Dialogue, KnowledgeSnippet, TAG_RESP,
                     TOP_K, build_generation_context, normalize_ws, tokenize)
from .models import _STACK_BLOCK, TrainConfig, build_vocab, scatter_add, train_model

EOS = "⟨eos⟩"

_SENTENCE_RE = re.compile(r"[^.!?]*[.!?]|[^.!?]+$")


class GenerateError(Exception):
    pass


@dataclass
class GenTrainConfig:
    """The generator's own settings: how its training contexts are built
    (``max_history_tokens``, the context's token budget, each tag one
    token; gold-snippet drop rate ``p_s``), its output length, and
    ``train``, the training loop and model width (``train.d``) it shares
    with every other model. The generator has no input length limit of its
    own, so its context is the one model input cut before the model reads
    it (`build_generation_context`); every encoder cuts its own."""
    max_history_tokens: int = 512
    max_target_tokens: int = 96
    p_s: float = 0.15
    train: TrainConfig = field(default_factory=TrainConfig)

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
    context: str
    target: str


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
        topk = list(selection_outputs[d.id])[:TOP_K]
        refs = set(d.label.knowledge_refs)
        if topk and rng.uniform() < config.p_s:
            topk = [s for s in topk if s.key not in refs]
        context = build_generation_context(d, topk,
                                           max_tokens=config.max_history_tokens)
        examples.append(GenExample(
            context=context, target=f"{TAG_RESP} {d.label.response}"))
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
                 max_target_tokens: int = 96, seed: int = 0,
                 params: Optional[dict[str, np.ndarray]] = None):
        """Seeded initial weights, or ``params`` (laid out as
        `param_shapes` says for the vocabulary with EOS) as they are, with
        nothing drawn."""
        self.vocab = dict(vocab)
        if EOS not in self.vocab:
            self.vocab[EOS] = len(self.vocab)
        self.inv_vocab = {i: w for w, i in self.vocab.items()}
        self.d = d
        self.max_target_tokens = max_target_tokens
        self.seed = seed
        if params is None:
            shapes = self.param_shapes(self.vocab, d, max_target_tokens)
            rng = np.random.default_rng(seed)
            params = {
                "emb": rng.normal(0.0, 0.5, size=shapes["emb"]),
                "pos": rng.normal(0.0, 0.1, size=shapes["pos"]),
                "wp": rng.normal(0.0, 1.0 / math.sqrt(d), size=shapes["wp"]),
                "wc": rng.normal(0.0, 1.0 / math.sqrt(d), size=shapes["wc"]),
                "bh": np.zeros(shapes["bh"]),
                "out": rng.normal(0.0, 1.0 / math.sqrt(d), size=shapes["out"]),
                "bo": np.zeros(shapes["bo"]),
            }
        self.params = params

    @staticmethod
    def param_shapes(vocab: dict[str, int], d: int,
                     max_target_tokens: int) -> dict[str, tuple[int, ...]]:
        V = len(vocab) + (EOS not in vocab)
        return {"emb": (V, d), "pos": (max_target_tokens + 1, d), "wp": (d, d),
                "wc": (d, d), "bh": (d,), "out": (d, V), "bo": (V,)}

    def param_groups(self) -> dict[str, dict[str, np.ndarray]]:
        return {"": self.params}

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
        position ``pos`` (one int for all rows, or one per row) in context
        ``c`` (one context vector for all rows, or one per row). Each row
        is multiplied as a (1, d) matrix, which numpy does row by row
        exactly as for a single row; one matrix-matrix product for all rows
        would round differently."""
        p = self.params
        x = p["emb"][prev_ids]
        xw = (x[:, None] @ p["wp"])[:, 0]
        h = np.tanh(xw + (c[..., None, :] @ p["wc"])[..., 0, :] + p["pos"][pos] + p["bh"])
        logits = (h[:, None] @ p["out"])[:, 0] + p["bo"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        norm = [math.log(s) for s in np.exp(shifted).sum(axis=1)]
        logp = shifted - np.asarray(norm)[:, None]
        return {"x": x, "h": h, "logp": logp}

    def compile(self, example: GenExample) -> GenRow:
        target = self._target_ids(example.target)
        return GenRow(
            context_ids=self._ids(tokenize(example.context)), target=target,
            prev_ids=np.concatenate([[self.vocab.get(TAG_RESP, 0)], target[:-1]]))

    def loss_and_grads(self, rows: Sequence[GenRow]) -> tuple[float, dict]:
        """Summed per-row mean token-level cross entropy of compiled rows,
        with analytic gradients. With teacher forcing every position's
        input is known, so consecutive rows go through as one stack of
        positions, each row's context vector broadcast to its positions:
        one `_step_forward`, one product per gradient and one scatter per
        embedding table. A stack ends before the row that would take its
        (positions x vocabulary) arrays past `_STACK_BLOCK` elements (a
        longer row is a stack alone). The forward step equals each row's
        own bit for bit (tanh amplifies rounding where it saturates); the
        loss and gradients equal the per-row sums up to rounding."""
        grads = {k: np.zeros(v.shape) for k, v in self.params.items()}
        most = max(1, _STACK_BLOCK // len(self.vocab))  # positions per stack
        loss, lo = 0.0, 0
        while lo < len(rows):
            hi, n = lo + 1, len(rows[lo].target)
            while hi < len(rows) and n + len(rows[hi].target) <= most:
                n += len(rows[hi].target)
                hi += 1
            loss += self._stack_loss(rows[lo:hi], grads)
            lo = hi
        return loss, grads

    def _stack_loss(self, rows: Sequence[GenRow], grads: dict) -> float:
        """The summed loss of one stack of rows; adds its gradients to
        ``grads``."""
        p = self.params
        lengths = np.array([len(row.target) for row in rows])
        owner = np.repeat(np.arange(len(rows)), lengths)  # the row of each position
        starts = np.cumsum(lengths) - lengths
        positions = np.arange(owner.size) - starts[owner]
        at = np.arange(owner.size), np.concatenate([row.target for row in rows])
        prev_ids = np.concatenate([row.prev_ids for row in rows])
        contexts = np.stack([self.context_vector(row.context_ids) for row in rows])
        step = self._step_forward(prev_ids, positions, contexts[owner])
        x, h, dlogits = step["x"], step["h"], step["logp"]
        per_row = lengths[owner]
        loss = float(-(dlogits[at] / per_row).sum())
        np.exp(dlogits, out=dlogits)
        dlogits /= per_row[:, None]
        dlogits[at] -= 1.0 / per_row
        dpre = (dlogits @ p["out"].T) * (1.0 - h * h)
        dpre_rows = np.add.reduceat(dpre, starts, axis=0)
        grads["out"] += h.T @ dlogits
        grads["bo"] += dlogits.sum(axis=0)
        grads["wp"] += x.T @ dpre
        grads["wc"] += contexts.T @ dpre_rows
        grads["bh"] += dpre_rows.sum(axis=0)
        scatter_add(grads["pos"], positions, dpre)
        # each context token takes its row's context gradient over their count
        sizes = np.array([row.context_ids.size for row in rows])
        has = sizes > 0
        dcontexts = (dpre_rows @ p["wc"].T)[has] / sizes[has, None]
        scatter_add(grads["emb"],
                    np.concatenate([prev_ids] + [row.context_ids for row in rows]),
                    np.concatenate((dpre @ p["wp"].T,
                                    np.repeat(dcontexts, sizes[has], axis=0))))
        return loss

    def generate_nbest(self, context: str, n: int) -> list[tuple[str, float]]:
        """Beam-search n-best: deduplicated texts sorted by log-probability.

        The beam is ``width`` = 2n wide. Each position keeps the ``width``
        best of the finished beams and of the ``width`` best tokens (ties to
        the lower id) each live beam offers, ordered by (-log-probability,
        tokens). One cut per position finds them: the ``width``-th best of
        the finished beams' scores and of every (live beam, token) score.
        An entry above the cut is among its beam's ``width`` best tokens,
        since adding the beam's log-probability is monotone; an entry at the
        cut is kept only if fewer than ``width`` tokens of its beam come
        before it. The search stops early once the finished beams that score
        strictly above the best live beam hold ``n`` distinct texts:
        log-probabilities only fall, so no descendant of a live beam can
        displace or outrank them.
        """
        if n < 1:
            raise GenerateError("n must be >= 1")
        width = 2 * n
        c = self.context_vector(self._ids(tokenize(context)))
        bos = self.vocab.get(TAG_RESP, 0)
        eos_id = self.vocab[EOS]
        beams: list[tuple[float, list[int], bool]] = [(0.0, [], False)]
        for pos in range(self.max_target_tokens):
            done = [b for b in beams if b[2]]
            live = [b for b in beams if not b[2]]
            prev_ids = np.asarray([b[1][-1] if b[1] else bos for b in live])
            logp = self._step_forward(prev_ids, pos, c)["logp"]
            scores = np.asarray([b[0] for b in live])[:, None] + logp
            pool = np.concatenate([[b[0] for b in done], scores.ravel()])
            cut = -math.inf
            if pool.size > width:
                cut = np.partition(pool, pool.size - width)[pool.size - width]
            nxt = [b for b in done if b[0] >= cut]
            rows, toks = np.nonzero(scores >= cut)
            for r, tok in zip(rows.tolist(), toks.tolist()):
                score, row = scores[r, tok], logp[r]
                if score == cut and (np.count_nonzero(row > row[tok])
                                     + np.count_nonzero(row[:tok] == row[tok])
                                     >= width):
                    continue
                nxt.append((float(score), live[r][1] + [tok], tok == eos_id))
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


def train_generator(examples: Sequence[GenExample],
                    config: GenTrainConfig) -> tuple[ToyGenerator, list[float]]:
    """Fit the reference generator; returns (model, per-epoch mean loss)."""
    if not examples:
        raise GenerateError("no generation examples to train on")
    streams = [tokenize(e.context) + tokenize(e.target) for e in examples]
    vocab = build_vocab(streams)
    model = ToyGenerator(vocab, d=config.train.d,
                         max_target_tokens=config.max_target_tokens,
                         seed=config.train.seed)
    return model, train_model(model, list(examples), config.train)


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
