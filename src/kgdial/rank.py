"""Knowledge ranking: point-wise scoring with Wide & Deep sparse features,
a multi-task head (domain classification + attention-pooled entity
selection), negative sampling, list-wise 5-way reranking, k-fold
bootstrapping of list-wise data, and the sum-of-probabilities ensemble.

Ranking one turn scores a list of candidates against one dialogue, so
whatever depends on the dialogue alone (its tracked entities, history ids
and the dialogue part of the sparse features) is computed once per ranking
call; each candidate then costs one encoder pass over the history-snippet
pair, built from id arrays. The candidates' sparse features are one n x 4
array, and the head and wide terms of all candidates are added at once, as
stacked (1, k) @ (k, 1) products that equal the per-candidate 1-D dots bit
for bit. A model maps each snippet to ids, and each entity name to its
token and bigram sets (``NameGrams``), on first use and keeps them, since
its vocabulary is fixed. Inference and training build the features through
the same ``DialogueFeatures.indicators``.

Training compiles each row once per training run, not once per epoch:
the encoder pair, the sparse-feature vector and (with MTL) the entity-name
input of a point-wise row, the pairs and feature vectors of a list-wise
one. A row that online entity-name augmentation rewrites on a call is
built afresh for that call.

The multi-task head computes, for a pooled query vector f and per-token
states H of the concatenated entity names,

    a   = softmax( (1/sqrt(d)) * f Wq Wk^T H^T )
    g_i = a_i * (h_i Wv)
    s_k = sum of g_i over the k-th entity's token span
    p   = softmax(s_k . v)

and trains with KL(true one-hot || p). All gradients are analytic and
finite-difference checked.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .augment import AugmentConfig, augment_entity_name
from .corpus import (Dialogue, Entity, KnowledgeBase, KnowledgeSnippet,
                     TAG_ENT, linearize_history, linearize_knowledge,
                     split_kfold, tokenize)
from .entity_track import exact_match_entities
from .metrics import mrr_at_k, recall_at_k
from .models import (ToyEncoder, TrainConfig, bce_loss, build_vocab,
                     pair_readout, pair_readout_backward, sigmoid, softmax,
                     softmax_backward, train_model)

N_SPARSE = 4  # is_domain_level, is_last_entity, unigram, bigram


class RankError(Exception):
    pass


class Variant(Enum):
    WD = "WD"
    WD2 = "WD2"


@dataclass(frozen=True)
class SparseFeatures:
    is_domain_level: int
    is_last_entity: int
    unigram_in_dialogue: int
    bigram_in_dialogue: int
    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise RankError("alpha must be positive")
        for v in self.indicators:
            if v not in (0, 1):
                raise RankError("sparse indicators must be binary")

    @property
    def indicators(self) -> tuple[int, int, int, int]:
        return (self.is_domain_level, self.is_last_entity,
                self.unigram_in_dialogue, self.bigram_in_dialogue)

    def vector(self, mask: Optional[Sequence[int]] = None) -> np.ndarray:
        return np.array(self.indicators, dtype=np.float64) * feature_scale(self.alpha, mask)


def feature_scale(alpha: float, mask: Optional[Sequence[int]] = None) -> np.ndarray:
    """The factor of each sparse-feature column: ``alpha``, or 1.0 in the
    columns where ``mask`` is 0."""
    if alpha <= 0:
        raise RankError("alpha must be positive")
    scale = np.full(N_SPARSE, alpha)
    if mask is not None:
        scale = np.where(np.asarray(mask, dtype=bool), scale, 1.0)
    return scale


class NameGrams(dict):
    """Entity name -> (its token set, its bigram set), tokenized on the
    name's first lookup. A ranking model keeps one beside its snippet ids."""

    def __missing__(self, name: str) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
        tokens = tokenize(name)
        grams = self[name] = (frozenset(tokens), frozenset(zip(tokens, tokens[1:])))
        return grams


def _rightmost_occurrence(utterances: list[list[str]], name_tokens: list[str]) -> int:
    """Global token offset just past the last occurrence of name_tokens,
    or -1 when the name never matches. Comparing match ends (with a
    longer-name tie-break at the caller) keeps nested mentions sane,
    e.g. "SW Hotel" vs the domain pseudo-entity "hotel"."""
    best = -1
    offset = 0
    n = len(name_tokens)
    for utt in utterances:
        if n and n <= len(utt):
            for start in range(len(utt) - n + 1):
                if utt[start:start + n] == name_tokens:
                    best = max(best, offset + start + n)
        offset += len(utt)
    return best


@dataclass(frozen=True)
class DialogueFeatures:
    """The part of the sparse features that depends on the dialogue and
    its tracked entities only, shared by every candidate snippet."""
    last_entity_key: Optional[tuple[str, str]]
    tokens: frozenset[str]
    bigrams: frozenset[tuple[str, str]]

    def indicators(self, snippets: Sequence[KnowledgeSnippet],
                   variant: Variant = Variant.WD2,
                   names: Optional[NameGrams] = None) -> np.ndarray:
        """The per-snippet part as an n x 4 array of 0/1 indicators, one row
        per snippet: the domain-level flag, whether the snippet's entity is
        the rightmost tracked one, and (WD2 only) whether any unigram/bigram
        of its entity name occurs. ``names`` is the table the name n-grams
        are read from (a fresh one when ``None``)."""
        if names is None:
            names = NameGrams()
        rows = []
        for snippet in snippets:
            unigram = bigram = False
            if variant is Variant.WD2:
                tokens, bigrams = names[snippet.entity_name]
                unigram = not self.tokens.isdisjoint(tokens)
                bigram = not self.bigrams.isdisjoint(bigrams)
            rows.append((snippet.is_domain_level,
                         self.last_entity_key == snippet.entity_key, unigram, bigram))
        return np.array(rows, dtype=np.float64).reshape(len(rows), N_SPARSE)

    def sparse_features(self, snippets: Sequence[KnowledgeSnippet],
                        variant: Variant = Variant.WD2, alpha: float = 1.0,
                        names: Optional[NameGrams] = None) -> list[SparseFeatures]:
        """The `indicators` of the snippets, one `SparseFeatures` each."""
        rows = self.indicators(snippets, variant, names).astype(np.int64).tolist()
        return [SparseFeatures(*row, alpha=alpha) for row in rows]

    def snippet_features(self, snippet: KnowledgeSnippet,
                         variant: Variant = Variant.WD2,
                         alpha: float = 1.0) -> SparseFeatures:
        return self.sparse_features([snippet], variant, alpha)[0]


def dialogue_features(dialogue: Dialogue,
                      tracked_entities: Sequence[Entity]) -> DialogueFeatures:
    """Tokenize the utterances once, find the tracked entity with the
    rightmost string-match occurrence (ties go to the longer, then the
    later-sorting name), and collect the dialogue's token and bigram sets."""
    utterances = [tokenize(t.text) for t in dialogue.turns]
    positions = {}
    for entity in tracked_entities:
        name_tokens = tokenize(entity.name)
        pos = _rightmost_occurrence(utterances, name_tokens)
        if pos >= 0:
            positions[entity.key] = (pos, len(name_tokens), entity.name)
    last_key = max(positions, key=lambda k: positions[k]) if positions else None
    return DialogueFeatures(
        last_entity_key=last_key,
        tokens=frozenset(tok for utt in utterances for tok in utt),
        bigrams=frozenset((utt[i], utt[i + 1])
                          for utt in utterances for i in range(len(utt) - 1)))


def extract_sparse_features(dialogue: Dialogue, snippet: KnowledgeSnippet,
                            tracked_entities: Sequence[Entity],
                            variant: Variant = Variant.WD2,
                            alpha: float = 1.0) -> SparseFeatures:
    """Indicator features of the candidate snippet against the dialogue.

    is_last_entity fires when the snippet's entity has the rightmost
    string-match occurrence among the tracked entities. The n-gram
    indicators (WD2 only) fire when any unigram/bigram of the entity name
    occurs in the utterances, catching names scattered across turns.

    This composes the per-dialogue part (`dialogue_features`) with the
    per-snippet part (`DialogueFeatures.indicators`); ranking code that
    scores several snippets against one dialogue builds the first part once
    and the second as one array for all of them.
    """
    return dialogue_features(dialogue, tracked_entities).snippet_features(
        snippet, variant, alpha)


DEFAULT_POOLS = ("kb", "mentioned", "other_entity")


def sample_negatives(gt_snippet: KnowledgeSnippet, kb: KnowledgeBase,
                     dialogue: Dialogue, rng: np.random.Generator,
                     count: int = 4,
                     strategy: Sequence[str] = DEFAULT_POOLS,
                     mentioned: Optional[Sequence[Entity]] = None) -> list[KnowledgeSnippet]:
    """Draw negatives without replacement, split equally across pools:
    the whole knowledge base, knowledge of entities mentioned in the
    utterances (``mentioned``, exact matching when ``None``), and knowledge
    of mentioned non-ground-truth entities. Empty or exhausted pools
    redistribute to the remaining ones."""
    unknown = set(strategy) - set(DEFAULT_POOLS)
    if unknown:
        raise RankError(f"unknown negative pools: {sorted(unknown)}")
    if mentioned is None:
        mentioned = exact_match_entities(dialogue, kb)
    mentioned_keys = {e.key for e in mentioned}
    pools: dict[str, list[KnowledgeSnippet]] = {
        "kb": [s for s in kb.snippets if s.key != gt_snippet.key],
        "mentioned": [s for s in kb.snippets
                      if s.entity_key in mentioned_keys and s.key != gt_snippet.key],
        "other_entity": [s for s in kb.snippets
                         if s.entity_key in mentioned_keys
                         and s.entity_key != gt_snippet.entity_key],
    }
    available = {s.key for name in strategy for s in pools[name]}
    if len(available) < count:
        raise RankError(
            f"need {count} distinct negatives, only {len(available)} available")
    active = [name for name in strategy if pools[name]]
    quotas = {name: count // len(active) for name in active}
    for name in active[:count % len(active)]:
        quotas[name] += 1
    chosen: dict[tuple, KnowledgeSnippet] = {}
    shortfall = 0
    for name in active:
        pool = [s for s in pools[name] if s.key not in chosen]
        take = min(quotas[name] + shortfall, len(pool))
        shortfall = quotas[name] + shortfall - take
        if take:
            picks = rng.choice(len(pool), size=take, replace=False)
            for idx in sorted(int(i) for i in picks):
                chosen[pool[idx].key] = pool[idx]
    while len(chosen) < count:  # catch-all: whole-KB pool
        pool = [s for s in pools["kb"] if s.key not in chosen]
        idx = int(rng.integers(len(pool)))
        chosen[pool[idx].key] = pool[idx]
    return list(chosen.values())[:count]


def sample_entity_candidates(kb: KnowledgeBase, dialogue: Dialogue,
                             gt_entity: Entity, rng: np.random.Generator,
                             n_total: int = 4,
                             mentioned: Optional[Sequence[Entity]] = None
                             ) -> tuple[list[str], int]:
    """Entity names for the selection head: n_total - 1 negatives drawn
    from mentioned (``mentioned``, exact matching when ``None``) and
    same-domain entities (backfilled from the full entity set), with the
    ground truth at a uniform random position."""
    names = list(dict.fromkeys(e.name for e in kb.entities))
    if len(names) < n_total:
        raise RankError(f"need {n_total} distinct entity names, have {len(names)}")
    if mentioned is None:
        mentioned = exact_match_entities(dialogue, kb)
    mentioned_names = {e.name for e in mentioned}
    same_domain = {e.name for e in kb.entities if e.domain == gt_entity.domain}
    preferred = sorted((mentioned_names | same_domain) - {gt_entity.name})
    backfill = [n for n in names if n != gt_entity.name and n not in preferred]
    negatives: list[str] = []
    for pool in (preferred, backfill):
        remaining = n_total - 1 - len(negatives)
        if remaining <= 0:
            break
        take = min(remaining, len(pool))
        if take:
            picks = rng.choice(len(pool), size=take, replace=False)
            negatives.extend(pool[int(i)] for i in sorted(picks))
    true_index = int(rng.integers(n_total))
    result = negatives[:true_index] + [gt_entity.name] + negatives[true_index:]
    return result, true_index


@dataclass
class MTLParams:
    """Projection matrices and output heads of the multi-task block."""
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    entity_vector: np.ndarray
    domain_weights: np.ndarray
    domain_bias: np.ndarray
    lambda_rank: float = 1.0
    lambda_domain: float = 1.0
    lambda_entity: float = 1.0

    @classmethod
    def create(cls, d: int, n_domains: int, seed: int = 0, **lambdas) -> "MTLParams":
        def init(name, shape, scale):
            rng = np.random.default_rng(zlib.crc32(name.encode()) + seed)
            return rng.normal(0.0, scale, size=shape)

        s = 1.0 / math.sqrt(d)
        return cls(wq=init("mtl.wq", (d, d), s), wk=init("mtl.wk", (d, d), s),
                   wv=init("mtl.wv", (d, d), s),
                   entity_vector=init("mtl.v", (d,), s),
                   domain_weights=init("mtl.dom", (d, n_domains), s),
                   domain_bias=np.zeros(n_domains), **lambdas)


def _check_spans(spans: Sequence[tuple[int, int]], length: int) -> None:
    prev_end = 0
    for start, end in spans:
        if not (0 <= start < end <= length):
            raise RankError(f"span ({start}, {end}) out of range for length {length}")
        if start < prev_end:
            raise RankError("entity spans must be disjoint and ordered")
        prev_end = end


def mtl_forward(f: np.ndarray, H: np.ndarray,
                spans: Sequence[tuple[int, int]],
                params: MTLParams) -> tuple[np.ndarray, np.ndarray]:
    """Attention over entity tokens and the induced entity distribution."""
    _check_spans(spans, H.shape[0])
    cache = _mtl_forward_cache(f, H, spans, params)
    return cache["a"], cache["p"]


def _mtl_forward_cache(f, H, spans, params: MTLParams) -> dict:
    d = f.shape[0]
    q = f @ params.wq
    Km = H @ params.wk
    u = (Km @ q) / math.sqrt(d)
    a = softmax(u)
    M = H @ params.wv
    G = a[:, None] * M
    S = np.stack([G[s:e].sum(axis=0) for s, e in spans])
    logits = S @ params.entity_vector
    p = softmax(logits)
    return {"f": f, "H": H, "spans": spans, "q": q, "Km": Km, "u": u, "a": a,
            "M": M, "G": G, "S": S, "logits": logits, "p": p}


def _mtl_backward(cache, params: MTLParams, dlogits: np.ndarray,
                  grads: dict) -> tuple[np.ndarray, np.ndarray]:
    """Backprop through the entity head; returns (df, dH)."""
    f, H, spans = cache["f"], cache["H"], cache["spans"]
    d = f.shape[0]
    a, M = cache["a"], cache["M"]
    grads["mtl.v"] += cache["S"].T @ dlogits
    dS = np.outer(dlogits, params.entity_vector)
    dG = np.zeros_like(cache["G"])
    for k, (s, e) in enumerate(spans):
        dG[s:e] = dS[k]
    da = np.einsum("td,td->t", dG, M)
    dM = a[:, None] * dG
    grads["mtl.wv"] += H.T @ dM
    dH = dM @ params.wv.T
    du = softmax_backward(a, da) / math.sqrt(d)
    dKm = np.outer(du, cache["q"])
    dq = cache["Km"].T @ du
    grads["mtl.wk"] += H.T @ dKm
    dH += dKm @ params.wk.T
    grads["mtl.wq"] += np.outer(f, dq)
    df = params.wq @ dq
    return df, dH


def _pair_inputs(encoder: ToyEncoder, snippet_ids: dict[KnowledgeSnippet, np.ndarray],
                 dialogue: Dialogue, candidates: Sequence[KnowledgeSnippet]
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(ids, segs) of the dialogue history followed by each candidate,
    equal to ``encoder.token_ids(history + snippet, len(history))``. The
    history is mapped to ids once; a snippet is mapped on its first use and
    kept in ``snippet_ids``, the model's table (its vocabulary is fixed)."""
    history = encoder.vocab_ids(tokenize(linearize_history(dialogue)))
    pairs = []
    for snippet in candidates:
        ids = snippet_ids.get(snippet)
        if ids is None:
            ids = snippet_ids[snippet] = encoder.vocab_ids(
                tokenize(linearize_knowledge(snippet)))
        pairs.append(encoder.pair_ids(history, ids))
    return pairs


def _stacked_dot(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w @ row`` for every row, as a stack of (1, k) @ (k, 1) products:
    numpy computes each as the 1-D dot, bit for bit, which a plain
    ``rows @ w`` does not."""
    return (rows[:, None, :] @ w[:, None])[:, 0, 0]


def _wide_deep_logits(model, pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                      vectors: np.ndarray, caches: Optional[list] = None) -> np.ndarray:
    """``head.w . readout + head.b + wide.u . vector`` of every (encoder
    pair, sparse-feature row), with one encoder pass per pair; ``caches``
    collects each pair's (encoder cache, readout)."""
    readouts = np.empty((len(pairs), model.head["w"].shape[0]))
    for j, pair in enumerate(pairs):
        cache = model.encoder.forward(*pair)
        readouts[j] = pair_readout(cache)
        if caches is not None:
            caches.append((cache, readouts[j]))
    return (_stacked_dot(readouts, model.head["w"]) + model.head["b"][0]
            + _stacked_dot(vectors, model.wide["u"]))


@dataclass
class PointwiseInstance:
    """One (dialogue, candidate) training row with its auxiliary targets
    and the dialogue's tracked entities (resolved by the model when
    ``None``)."""
    dialogue: Dialogue
    candidate: KnowledgeSnippet
    label: int
    domain_id: int
    entity_names: list[str] = field(default_factory=list)
    true_entity_index: int = 0
    tracked: Optional[list[Entity]] = None


@dataclass
class PointwiseConfig:
    use_mtl: bool = False
    variant: Variant = Variant.WD2
    epochs: int = 2
    learning_rate: float = 1e-5
    batch_size: int = 16
    seed: int = 0
    negatives: int = 4
    entity_candidates: int = 4
    lambda_rank: float = 1.0
    lambda_domain: float = 1.0
    lambda_entity: float = 1.0
    d: int = 24
    max_len: int = 128
    pooling: str = "mean"
    ena: Optional[AugmentConfig] = None


@dataclass(frozen=True)
class PointwiseRow:
    """A point-wise training row compiled to model inputs: the encoder pair
    and the sparse-feature vector built from ``instance.dialogue``, and the
    entity-name input of the multi-task head (``None`` without MTL)."""
    instance: PointwiseInstance
    pair: tuple[np.ndarray, np.ndarray]
    features: np.ndarray
    entity_input: Optional[tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]]


class PointwiseModel:
    """Wide & Deep point-wise scorer with an optional multi-task head."""

    def __init__(self, vocab: dict[str, int], domains: Sequence[str],
                 config: PointwiseConfig):
        self.config = config
        self.domains = list(domains)
        self.domain_ids = {d: i for i, d in enumerate(self.domains)}
        self.encoder = ToyEncoder(vocab, d=config.d, pooling=config.pooling,
                                  max_len=config.max_len, seed=config.seed)
        rng = np.random.default_rng(config.seed + 1)
        self.head = {"w": rng.normal(0.0, 0.1, size=2 * config.d), "b": np.zeros(1)}
        self.wide = {"u": np.zeros(N_SPARSE)}
        self.mtl: Optional[MTLParams] = None
        if config.use_mtl:
            self.mtl = MTLParams.create(
                config.d, max(1, len(self.domains)), seed=config.seed,
                lambda_rank=config.lambda_rank,
                lambda_domain=config.lambda_domain,
                lambda_entity=config.lambda_entity)
        self._ena_rng = np.random.default_rng(config.seed + 2)
        self._kb: Optional[KnowledgeBase] = None
        self._snippet_ids: dict[KnowledgeSnippet, np.ndarray] = {}
        self._name_grams = NameGrams()

    def bind_kb(self, kb: KnowledgeBase) -> None:
        self._kb = kb

    def all_params(self) -> dict[str, np.ndarray]:
        out = {f"enc.{k}": v for k, v in self.encoder.params.items()}
        out["head.w"] = self.head["w"]
        out["head.b"] = self.head["b"]
        out["wide.u"] = self.wide["u"]
        if self.mtl is not None:
            out.update({"mtl.wq": self.mtl.wq, "mtl.wk": self.mtl.wk,
                        "mtl.wv": self.mtl.wv, "mtl.v": self.mtl.entity_vector,
                        "mtl.dom": self.mtl.domain_weights,
                        "mtl.bdom": self.mtl.domain_bias})
        return out

    def _input2(self, entity_names: Sequence[str]) -> tuple[list[str], list[tuple[int, int]]]:
        tokens: list[str] = []
        spans = []
        for name in entity_names:
            tokens.append(TAG_ENT)
            name_toks = tokenize(name)
            spans.append((len(tokens), len(tokens) + len(name_toks)))
            tokens.extend(name_toks)
        return tokens, spans

    def _tracked(self, dialogue: Dialogue) -> list[Entity]:
        if self._kb is None:
            return []
        return exact_match_entities(dialogue, self._kb)

    def features(self, dialogue: Dialogue, candidate: KnowledgeSnippet,
                 tracked: Optional[Sequence[Entity]] = None,
                 alpha: float = 1.0) -> SparseFeatures:
        if tracked is None:
            tracked = self._tracked(dialogue)
        return extract_sparse_features(dialogue, candidate, tracked,
                                       self.config.variant, alpha)

    def _vectors(self, dialogue: Dialogue, candidates: Sequence[KnowledgeSnippet],
                 tracked: Optional[Sequence[Entity]], alpha: float) -> np.ndarray:
        """The sparse-feature rows of the candidates at ``alpha``, with the
        entity-name n-grams read from the model's table."""
        if tracked is None:
            tracked = self._tracked(dialogue)
        indicators = dialogue_features(dialogue, tracked).indicators(
            candidates, self.config.variant, self._name_grams)
        return indicators * feature_scale(alpha)

    def logits(self, dialogue: Dialogue, candidates: Sequence[KnowledgeSnippet],
               alpha: float = 1.0,
               tracked: Optional[Sequence[Entity]] = None) -> list[float]:
        """Logit of every candidate against one dialogue. The tracked
        entities, the history tokens and the dialogue part of the sparse
        features are computed once for the list; each candidate gets its
        own encoder pass, since the encoder attends across the pair."""
        vectors = self._vectors(dialogue, candidates, tracked, alpha)
        pairs = _pair_inputs(self.encoder, self._snippet_ids, dialogue, candidates)
        return _wide_deep_logits(self, pairs, vectors).tolist()

    def logit(self, dialogue: Dialogue, candidate: KnowledgeSnippet,
              alpha: float = 1.0,
              tracked: Optional[Sequence[Entity]] = None) -> float:
        return self.logits(dialogue, [candidate], alpha, tracked)[0]

    def score(self, dialogue: Dialogue, candidate: KnowledgeSnippet,
              alpha: float = 1.0,
              tracked: Optional[Sequence[Entity]] = None) -> float:
        return sigmoid(self.logit(dialogue, candidate, alpha, tracked))

    def _dialogue_inputs(self, dialogue: Dialogue, candidate: KnowledgeSnippet,
                         tracked: Optional[Sequence[Entity]]
                         ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        pair, = _pair_inputs(self.encoder, self._snippet_ids, dialogue, [candidate])
        return pair, self._vectors(dialogue, [candidate], tracked, 1.0)[0]

    def compile(self, instance: PointwiseInstance) -> PointwiseRow:
        entity_input = None
        if self.mtl is not None:
            tokens2, spans = self._input2(instance.entity_names)
            ids2, segs2 = self.encoder.token_ids(tokens2)
            if len(ids2) != len(tokens2):
                raise RankError("entity input exceeds encoder max_len; raise max_len")
            entity_input = (ids2, segs2, spans)
        pair, feats = self._dialogue_inputs(instance.dialogue, instance.candidate,
                                            instance.tracked)
        return PointwiseRow(instance, pair, feats, entity_input)

    def loss_and_grads(self, instance: PointwiseInstance | PointwiseRow
                       ) -> tuple[float, dict]:
        cfg = self.config
        row = instance if isinstance(instance, PointwiseRow) else self.compile(instance)
        instance = row.instance
        pair, feats = row.pair, row.features
        if cfg.ena is not None:
            dialogue = augment_entity_name(
                instance.dialogue, instance.candidate, bool(instance.label),
                cfg.ena, self._ena_rng)
            if dialogue is not instance.dialogue:  # rewritten: built and tracked afresh
                pair, feats = self._dialogue_inputs(dialogue, instance.candidate, None)
        params = self.all_params()
        grads = {k: np.zeros(v.shape) for k, v in params.items()}

        cache1 = self.encoder.forward(*pair)
        f1 = cache1["f"]
        u1 = pair_readout(cache1)
        z = float(self.head["w"] @ u1 + self.head["b"][0] + self.wide["u"] @ feats)
        rank_loss, dz = bce_loss(z, float(instance.label))
        lam_rank = self.mtl.lambda_rank if self.mtl is not None else cfg.lambda_rank
        loss = lam_rank * rank_loss
        dz *= lam_rank
        grads["head.w"] += dz * u1
        grads["head.b"] += np.array([dz])
        grads["wide.u"] += dz * feats
        dH1, df1 = pair_readout_backward(cache1, dz * self.head["w"])

        enc_grads = {name: grads[f"enc.{name}"] for name in self.encoder.params}

        if self.mtl is not None:
            # domain classification from the pooled pair representation
            dom_logits = f1 @ self.mtl.domain_weights + self.mtl.domain_bias
            dom_p = softmax(dom_logits)
            loss += -self.mtl.lambda_domain * math.log(max(dom_p[instance.domain_id], 1e-300))
            ddom = self.mtl.lambda_domain * dom_p.copy()
            ddom[instance.domain_id] -= self.mtl.lambda_domain
            grads["mtl.dom"] += np.outer(f1, ddom)
            grads["mtl.bdom"] += ddom
            df1 = df1 + self.mtl.domain_weights @ ddom

            # entity selection over the sampled candidate names
            ids2, segs2, spans = row.entity_input
            cache2 = self.encoder.forward(ids2, segs2)
            mtl_cache = _mtl_forward_cache(f1, cache2["H"], spans, self.mtl)
            p_ent = mtl_cache["p"]
            loss += -self.mtl.lambda_entity * math.log(
                max(p_ent[instance.true_entity_index], 1e-300))
            dlogits = self.mtl.lambda_entity * p_ent.copy()
            dlogits[instance.true_entity_index] -= self.mtl.lambda_entity
            df_mtl, dH2 = _mtl_backward(mtl_cache, self.mtl, dlogits, grads)
            df1 = df1 + df_mtl
            self.encoder.backward(cache2, dH2, None, enc_grads)

        self.encoder.backward(cache1, dH1, df1, enc_grads)
        return loss, grads


def _gt_snippet(dialogue: Dialogue, kb: KnowledgeBase) -> KnowledgeSnippet:
    ref = dialogue.label.knowledge_refs[0]
    return kb.get(*ref)


def build_pointwise_instances(dialogues: Sequence[Dialogue], kb: KnowledgeBase,
                              config: PointwiseConfig,
                              rng: np.random.Generator) -> list[PointwiseInstance]:
    """Positive plus sampled-negative instances for every labeled
    knowledge-seeking turn.

    Sampling runs on a per-dialogue generator derived from the incoming
    one, so the drawn negatives do not depend on unrelated options (an
    MTL and a plain run over the same corpus see the same negatives).
    """
    domains = sorted({s.domain for s in kb.snippets})
    domain_ids = {d: i for i, d in enumerate(domains)}
    base_seed = int(rng.integers(2 ** 31))
    instances = []
    for d in dialogues:
        if d.label is None or not d.label.is_knowledge_seeking or not d.label.knowledge_refs:
            continue
        drng = np.random.default_rng(zlib.crc32(f"{base_seed}:{d.id}".encode()))
        gt = _gt_snippet(d, kb)
        domain_id = domain_ids[gt.domain]
        gt_entity = next(e for e in kb.entities if e.key == gt.entity_key)
        tracked = exact_match_entities(d, kb)
        rows = [(gt, 1)]
        rows += [(neg, 0) for neg in sample_negatives(
            gt, kb, d, drng, count=config.negatives, mentioned=tracked)]
        for candidate, label in rows:
            names, true_idx = ([], 0)
            if config.use_mtl:
                names, true_idx = sample_entity_candidates(
                    kb, d, gt_entity, drng, n_total=config.entity_candidates,
                    mentioned=tracked)
            instances.append(PointwiseInstance(
                dialogue=d, candidate=candidate, label=label,
                domain_id=domain_id, entity_names=names,
                true_entity_index=true_idx, tracked=tracked))
    return instances


def _ranking_vocab(dialogues: Sequence[Dialogue], kb: KnowledgeBase) -> dict[str, int]:
    streams = [tokenize(linearize_history(d)) for d in dialogues if d.turns]
    streams += [tokenize(linearize_knowledge(s)) for s in kb.snippets]
    streams += [[TAG_ENT] + tokenize(e.name) for e in kb.entities]
    return build_vocab(streams)


def train_pointwise(dialogues: Sequence[Dialogue], kb: KnowledgeBase,
                    config: PointwiseConfig) -> PointwiseModel:
    """Fit the point-wise ranker; loss = lambda_rank * BCE + (if MTL)
    lambda_domain * CE + lambda_entity * KL, with online ENA."""
    rng = np.random.default_rng(config.seed)
    instances = build_pointwise_instances(dialogues, kb, config, rng)
    if not instances:
        raise RankError("no labeled knowledge-seeking dialogues to train on")
    labels = {i.label for i in instances}
    if labels != {0, 1}:
        raise RankError("training data must contain both classes")
    domains = sorted({s.domain for s in kb.snippets})
    model = PointwiseModel(_ranking_vocab(dialogues, kb), domains, config)
    model.bind_kb(kb)
    train_model(model, instances,
                TrainConfig(epochs=config.epochs, learning_rate=config.learning_rate,
                            batch_size=config.batch_size, seed=config.seed))
    return model


@dataclass(frozen=True)
class RankedKnowledgeList:
    turn_id: str
    items: tuple[tuple[KnowledgeSnippet, float], ...]

    def __post_init__(self):
        probs = [p for _, p in self.items]
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise RankError("probabilities must lie in [0,1]")
        if any(probs[i] < probs[i + 1] for i in range(len(probs) - 1)):
            raise RankError("items must be sorted by non-increasing probability")

    @property
    def keys(self) -> list[tuple[str, str, str]]:
        return [s.key for s, _ in self.items]


def _sorted_items(scored: list[tuple[KnowledgeSnippet, float]],
                  top_n: int = 5) -> tuple[tuple[KnowledgeSnippet, float], ...]:
    ordered = sorted(scored, key=lambda t: (-t[1],) + t[0].key)
    return tuple(ordered[:top_n])


def pointwise_rank(model: PointwiseModel, dialogue: Dialogue,
                   candidates: Sequence[KnowledgeSnippet],
                   alpha: float = 1.0, kb: Optional[KnowledgeBase] = None,
                   tracked: Optional[Sequence[Entity]] = None,
                   top_n: int = 5) -> RankedKnowledgeList:
    """Score candidates independently and keep the top ones. An empty
    candidate list falls back to the full knowledge base."""
    pool = list(candidates)
    if not pool:
        if kb is None:
            raise RankError("empty candidates and no knowledge base to fall back to")
        pool = list(kb.snippets)
    logits = model.logits(dialogue, pool, alpha, tracked)
    scored = [(snip, sigmoid(z)) for snip, z in zip(pool, logits)]
    return RankedKnowledgeList(dialogue.id, _sorted_items(scored, top_n))


@dataclass
class ListwiseInstance:
    dialogue: Dialogue
    candidates: list[KnowledgeSnippet]
    true_index: int
    features: list[SparseFeatures]


@dataclass
class ListwiseConfig:
    variant: Variant = Variant.WD2
    epochs: int = 2
    learning_rate: float = 1e-5
    batch_size: int = 16
    seed: int = 0
    d: int = 24
    max_len: int = 128
    pooling: str = "mean"
    alpha_mask: tuple[int, int, int, int] = (1, 1, 1, 1)


@dataclass(frozen=True)
class ListwiseRow:
    """A list-wise training instance compiled to model inputs: one encoder
    pair and one sparse-feature row (indicator value 1) per candidate."""
    instance: ListwiseInstance
    pairs: list[tuple[np.ndarray, np.ndarray]]
    vectors: np.ndarray


class ListwiseModel:
    """Jointly normalized scorer over a short candidate list."""

    def __init__(self, vocab: dict[str, int], config: ListwiseConfig):
        self.config = config
        self.encoder = ToyEncoder(vocab, d=config.d, pooling=config.pooling,
                                  max_len=config.max_len, seed=config.seed)
        rng = np.random.default_rng(config.seed + 1)
        self.head = {"w": rng.normal(0.0, 0.1, size=2 * config.d), "b": np.zeros(1)}
        self.wide = {"u": np.zeros(N_SPARSE)}
        self._snippet_ids: dict[KnowledgeSnippet, np.ndarray] = {}
        self._name_grams = NameGrams()

    def all_params(self) -> dict[str, np.ndarray]:
        out = {f"enc.{k}": v for k, v in self.encoder.params.items()}
        out["head.w"] = self.head["w"]
        out["head.b"] = self.head["b"]
        out["wide.u"] = self.wide["u"]
        return out

    def _vectors(self, features: Sequence[SparseFeatures], alpha: float) -> np.ndarray:
        """The sparse-feature rows at ``alpha``, masked by ``alpha_mask``."""
        indicators = np.array([f.indicators for f in features], dtype=np.float64)
        return (indicators.reshape(len(features), N_SPARSE)
                * feature_scale(alpha, self.config.alpha_mask))

    def distribution(self, dialogue: Dialogue,
                     candidates: Sequence[KnowledgeSnippet],
                     features: Sequence[SparseFeatures],
                     alpha: float) -> np.ndarray:
        """Distribution over the (at most 5) candidates."""
        if not candidates:
            raise RankError("listwise scoring needs at least one candidate")
        if len(candidates) > 5:
            raise RankError("listwise scoring accepts at most 5 candidates")
        pairs = _pair_inputs(self.encoder, self._snippet_ids, dialogue, candidates)
        return softmax(_wide_deep_logits(self, pairs, self._vectors(features, alpha)))

    def compile(self, instance: ListwiseInstance) -> ListwiseRow:
        # training uses indicator value 1; alpha applies at inference only
        pairs = _pair_inputs(self.encoder, self._snippet_ids, instance.dialogue,
                             instance.candidates)
        return ListwiseRow(instance, pairs, self._vectors(instance.features, 1.0))

    def loss_and_grads(self, instance: ListwiseInstance | ListwiseRow
                       ) -> tuple[float, dict]:
        row = instance if isinstance(instance, ListwiseRow) else self.compile(instance)
        params = self.all_params()
        grads = {k: np.zeros(v.shape) for k, v in params.items()}
        caches: list = []
        p = softmax(_wide_deep_logits(self, row.pairs, row.vectors, caches))
        true_index = row.instance.true_index
        loss = -math.log(max(p[true_index], 1e-300))
        dlogits = p.copy()
        dlogits[true_index] -= 1.0
        enc_grads = {name: grads[f"enc.{name}"] for name in self.encoder.params}
        for j, ((cache, u), vec) in enumerate(zip(caches, row.vectors)):
            dz = dlogits[j]
            grads["head.w"] += dz * u
            grads["head.b"] += np.array([dz])
            grads["wide.u"] += dz * vec
            dH, df = pair_readout_backward(cache, dz * self.head["w"])
            self.encoder.backward(cache, dH, df, enc_grads)
        return loss, grads


def build_listwise_training_data(dialogues: Sequence[Dialogue], kb: KnowledgeBase,
                                 config: PointwiseConfig, k: int = 5,
                                 seed: int = 0,
                                 tracker: Optional[Callable] = None
                                 ) -> tuple[list[ListwiseInstance], dict]:
    """Decode each fold with a point-wise model trained on the others and
    keep the 5-way lists whose ground truth survived in the top 5. The
    lists' sparse features use the point-wise ``config.variant``."""
    labeled = [d for d in dialogues
               if d.label is not None and d.label.is_knowledge_seeking
               and d.label.knowledge_refs]
    folds = split_kfold(labeled, k=k, seed=seed)
    names = NameGrams()
    instances: list[ListwiseInstance] = []
    dropped = 0
    decoded_ids: set[str] = set()
    for i, fold in enumerate(folds):
        train_set = [d for j, f in enumerate(folds) if j != i for d in f]
        fold_config = replace(config, seed=zlib.crc32(f"fold{i}".encode()) + config.seed)
        try:
            model = train_pointwise(train_set, kb, fold_config)
        except RankError as exc:
            raise RankError(f"fold {i} training failed: {exc}") from exc
        for d in fold:
            decoded_ids.add(d.id)
            candidates = tracker(d, kb) if tracker is not None else list(kb.snippets)
            tracked = exact_match_entities(d, kb)
            ranked = pointwise_rank(model, d, candidates, kb=kb, tracked=tracked)
            refs = set(d.label.knowledge_refs)
            true_idx = next((j for j, key in enumerate(ranked.keys) if key in refs), None)
            if true_idx is None:
                dropped += 1
                continue
            cands = [s for s, _ in ranked.items]
            context = dialogue_features(d, tracked)
            feats = context.sparse_features(cands, config.variant, names=names)
            instances.append(ListwiseInstance(
                dialogue=d, candidates=cands, true_index=true_idx, features=feats))
    stats = {"folds": k, "decoded": len(decoded_ids), "emitted": len(instances),
             "dropped": dropped}
    return instances, stats


def train_listwise(instances: Sequence[ListwiseInstance], kb: KnowledgeBase,
                   config: ListwiseConfig,
                   init_from: Optional[PointwiseModel] = None) -> ListwiseModel:
    """Fit the 5-way reranker. List-wise data is scarce (one instance per
    turn instead of one per candidate), so the encoder and heads can warm
    start from a trained point-wise model."""
    if not instances:
        raise RankError("no listwise instances to train on")
    if init_from is not None:
        if init_from.encoder.d != config.d:
            raise RankError("warm start requires matching encoder dimension")
        model = ListwiseModel(init_from.encoder.vocab, config)
        for key, value in init_from.encoder.params.items():
            model.encoder.params[key][...] = value
        model.head["w"][...] = init_from.head["w"]
        model.head["b"][...] = init_from.head["b"]
        model.wide["u"][...] = init_from.wide["u"]
    else:
        dialogues = [inst.dialogue for inst in instances]
        model = ListwiseModel(_ranking_vocab(dialogues, kb), config)
    train_model(model, list(instances),
                TrainConfig(epochs=config.epochs, learning_rate=config.learning_rate,
                            batch_size=config.batch_size, seed=config.seed))
    return model


def listwise_rerank(model: ListwiseModel, dialogue: Dialogue,
                    ranked: RankedKnowledgeList,
                    tracked: Sequence[Entity],
                    alpha: float) -> RankedKnowledgeList:
    if not ranked.items:
        return ranked
    cands = [s for s, _ in ranked.items]
    context = dialogue_features(dialogue, tracked)
    feats = context.sparse_features(cands, model.config.variant,
                                    names=model._name_grams)
    dist = model.distribution(dialogue, cands, feats, alpha)
    return RankedKnowledgeList(ranked.turn_id,
                               _sorted_items(list(zip(cands, dist))))


def ensemble_rank(system_lists: Sequence[RankedKnowledgeList],
                  top_n: int = 5) -> RankedKnowledgeList:
    """Sum each snippet's probability across systems and re-sort."""
    if not system_lists:
        raise RankError("ensemble needs at least one system")
    turn_id = system_lists[0].turn_id
    if any(lst.turn_id != turn_id for lst in system_lists):
        raise RankError("ensemble inputs must cover the same turn")
    totals: dict[tuple, float] = {}
    snippets: dict[tuple, KnowledgeSnippet] = {}
    for lst in system_lists:
        for snip, prob in lst.items:
            totals[snip.key] = totals.get(snip.key, 0.0) + prob
            snippets[snip.key] = snip
    max_total = max(totals.values(), default=1.0)
    scale = 1.0 / max(1.0, max_total)  # keep summed scores valid probabilities
    scored = [(snippets[k], v * scale) for k, v in totals.items()]
    return RankedKnowledgeList(turn_id, _sorted_items(scored, top_n))


def ranking_metrics(predicted: Sequence[RankedKnowledgeList],
                    references: Sequence[set[tuple[str, str, str]]]) -> dict[str, float]:
    keys = [lst.keys for lst in predicted]
    return {"mrr@5": mrr_at_k(keys, references, 5),
            "r@1": recall_at_k(keys, references, 1),
            "r@5": recall_at_k(keys, references, 5)}
