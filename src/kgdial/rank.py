"""Knowledge ranking: point-wise scoring with Wide & Deep sparse features,
a multi-task head (domain classification + attention-pooled entity
selection), negative sampling, list-wise 5-way reranking, k-fold
bootstrapping of list-wise data, and the sum-of-probabilities ensemble.
Both rankers are `models.ToyPairScorer` plus the wide weights ``wide.u``
(`_Ranker`); the point-wise one adds the multi-task block, its tensors a
dict named as checkpoints name them (``mtl.*``).

A dialogue reaches the rankers one way: as the `DialogueFeatures` that
``dialogue_features(dialogue, kb, tracked)`` composes from its turns'
`TurnInputs` (tag and word tokens, word and bigram sets, exact entity
mentions), each built by one tokenizing and one `exact_mentions` pass over
the turn. It holds the history's tokens, so the rankers never tokenize a
dialogue, and the rightmost exact mention among the tracked entities, so
the models track no entities. A candidate list's wide features have one
form, the n x 4 indicator array ``DialogueFeatures.indicators``, which
point-wise ranking adds as it is and the list-wise reranker multiplies by
``alpha`` (the ``rank.alpha`` setting) at inference. At
inference a candidate list is encoded in one `ToyEncoder.pair_readouts`
call: with no position parameters in the encoder, the history x snippet
attention is tabled once per distinct (history token, snippet token) pair,
exponentiated with shifts taken from the history alone; each truncation
window is a count vector over the history's distinct tokens, and each
candidate adds only its own snippet x snippet block and its tokens' table
rows (a candidate whose normalisers would overflow or underflow takes the
plain encoder pass). This equals one encoder pass per history-snippet pair
up to rounding and gives each candidate the same result in any list.
Training takes a whole minibatch per ``loss_and_grads`` call and encodes
its pairs in padded stacks (`ToyEncoder.stacked_passes`; a list-wise row's
candidates share a stack), keeping each stack's caches until its backward. At inference the head and
wide terms of all candidates are added at once, as stacked (1, k) @ (k, 1)
products that equal the per-candidate 1-D dots bit for bit. A model maps
each snippet to ids, and each entity name to its token and bigram sets
(``NameGrams``), on first use and keeps them, since its vocabulary is
fixed.

Training instances carry their dialogue's inputs, built once per dialogue
with exact tracking (every entity the dialogue mentions): a point-wise
instance its dialogue's `TurnInputs` and `DialogueFeatures`
(`build_pointwise_instances`), a list-wise one its `DialogueFeatures`
(`build_listwise_training_data`). Training compiles each row once per
training run, not once per epoch: the encoder pair, the indicator row and
(with MTL) the entity-name input of a point-wise row, the pairs and
indicator rows of a list-wise one. A row that online entity-name
augmentation (ENA) rewrites on a call is composed again from its
instance's `TurnInputs`: only the one or two turns the rewrite touched are
built afresh, against the knowledge base training bound, and their inputs
are not kept.

The list-wise reranker is derived from a trained point-wise ranker
(`train_listwise`): it takes the point-wise model's vocabulary, its
`PointwiseConfig` (a list-wise model reads only the variant and the encoder
settings) and its tensors as its starting point, since list-wise data is
scarce (one instance per turn instead of one per candidate). So the two
are saved as one checkpoint (`save_rankers`, `load_rankers`): the
point-wise tensors named ``pointwise.*``, the list-wise ones
``listwise.*``, and the vocabulary, encoder config and variant they share,
with the point-wise ``use_mtl`` and domain list, written once.

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
from typing import AbstractSet, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .augment import AugmentConfig, augment_entity_name
from .corpus import (Dialogue, Entity, KnowledgeBase, KnowledgeSnippet,
                     TAG_ENT, TOP_K, Turn, linearize_history, linearize_knowledge,
                     split_kfold, tokenize)
from .entity_track import exact_match_entities, exact_mentions
from .models import (ModelError, ToyEncoder, ToyPairScorer, TrainConfig, bce_loss,
                     build_vocab, check_fields, check_tensors, load_checkpoint,
                     pair_scorer_shapes, prefixed, save_checkpoint, sigmoid, softmax,
                     softmax_backward, stacked_dot, train_model, unprefixed)

N_SPARSE = 4  # is_domain_level, is_last_entity, unigram, bigram


class RankError(Exception):
    pass


class Variant(Enum):
    WD = "WD"
    WD2 = "WD2"


class NameGrams(dict):
    """Entity name -> (its token set, its bigram set), tokenized on the
    name's first lookup. A ranking model keeps one beside its snippet ids."""

    def __missing__(self, name: str) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
        tokens = tokenize(name)
        grams = self[name] = (frozenset(tokens), frozenset(zip(tokens, tokens[1:])))
        return grams


class TurnInputs(NamedTuple):
    """What the rankers read from one turn, so that a dialogue's
    `DialogueFeatures` is composed turn by turn: its tag and word tokens (its
    part of the history), its word and bigram sets, and its words'
    `exact_mentions` of the knowledge base's entities."""
    tokens: tuple[str, ...]
    words: frozenset[str]
    bigrams: frozenset[tuple[str, str]]
    mentions: dict[int, tuple[int, int]]


def turn_inputs(turn: Turn, kb: KnowledgeBase) -> TurnInputs:
    """One tokenizing and one `exact_mentions` pass over the turn."""
    words = tokenize(turn.text)
    return TurnInputs((turn.tag, *words), frozenset(words),
                      frozenset(zip(words, words[1:])),
                      exact_mentions(words, kb.name_index))


@dataclass(frozen=True)
class DialogueFeatures:
    """The one dialogue input of the rankers: the tokens of the tagged
    history (each turn's tag, then its words), and the part of the sparse
    features that depends on the dialogue and its tracked entities only,
    shared by every candidate snippet."""
    history: tuple[str, ...]
    last_entity_key: Optional[tuple[str, str]]
    words: frozenset[str]
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
                words, bigrams = names[snippet.entity_name]
                unigram = not self.words.isdisjoint(words)
                bigram = not self.bigrams.isdisjoint(bigrams)
            rows.append((snippet.is_domain_level,
                         self.last_entity_key == snippet.entity_key, unigram, bigram))
        return np.array(rows, dtype=np.float64).reshape(len(rows), N_SPARSE)


def _composed_features(turns: Sequence[TurnInputs], kb: KnowledgeBase,
                       tracked_keys: AbstractSet[tuple[str, str]]) -> DialogueFeatures:
    """The `DialogueFeatures` of the dialogue whose turns' inputs are
    ``turns``: their tokens joined, the unions of their word and bigram
    sets, and as last entity the tracked one (its key in ``tracked_keys``)
    whose rightmost mention (its last turn's) is greatest by (match end,
    name length, name), the first in ``kb.entities`` on a tie. Comparing
    match ends with the longer name first keeps nested mentions sane, e.g.
    "SW Hotel" vs the domain pseudo-entity "hotel"."""
    found = {}
    offset = 0
    for turn in turns:
        for i, (end, length) in turn.mentions.items():
            found[i] = (offset + end, length)
        offset += len(turn.tokens)
    positions = {}
    for i in sorted(found):
        entity = kb.entities[i]
        if entity.key in tracked_keys:
            positions[entity.key] = (*found[i], entity.name)
    return DialogueFeatures(
        history=tuple(tok for turn in turns for tok in turn.tokens),
        last_entity_key=(max(positions, key=positions.__getitem__)
                         if positions else None),
        words=frozenset().union(*(turn.words for turn in turns)),
        bigrams=frozenset().union(*(turn.bigrams for turn in turns)))


def dialogue_features(dialogue: Dialogue, kb: KnowledgeBase,
                      tracked: Sequence[Entity]) -> DialogueFeatures:
    """The dialogue's `DialogueFeatures`, composed from its turns'
    `TurnInputs`; ``tracked`` are entities of ``kb``."""
    return _composed_features([turn_inputs(turn, kb) for turn in dialogue.turns],
                              kb, {entity.key for entity in tracked})


def extract_sparse_features(dialogue: Dialogue, snippet: KnowledgeSnippet,
                            kb: KnowledgeBase, tracked_entities: Sequence[Entity],
                            variant: Variant = Variant.WD2) -> np.ndarray:
    """The indicator row of the candidate snippet against the dialogue.

    is_last_entity fires when the snippet's entity has the rightmost
    string-match occurrence among the tracked entities. The n-gram
    indicators (WD2 only) fire when any unigram/bigram of the entity name
    occurs in the utterances, catching names scattered across turns.

    This composes the per-dialogue part (`dialogue_features`) with the
    per-snippet part (`DialogueFeatures.indicators`); ranking code that
    scores several snippets against one dialogue builds the first part once
    and the second as one array for all of them.
    """
    return dialogue_features(dialogue, kb, tracked_entities).indicators(
        [snippet], variant)[0]


def sample_negatives(gt_snippet: KnowledgeSnippet, kb: KnowledgeBase,
                     mentioned: Sequence[Entity], rng: np.random.Generator,
                     count: int = 4) -> list[KnowledgeSnippet]:
    """Draw negatives without replacement, split equally across pools:
    the whole knowledge base, knowledge of the entities ``mentioned`` in
    the utterances, and knowledge of mentioned non-ground-truth entities.
    Empty or exhausted pools redistribute to the remaining ones."""
    mentioned_keys = {e.key for e in mentioned}
    gt_key, gt_entity = gt_snippet.key, gt_snippet.entity_key
    others = [s for s in kb.snippets if s.key != gt_key]
    of_mentioned = [s for s in others if s.entity_key in mentioned_keys]
    pools: dict[str, list[KnowledgeSnippet]] = {
        "kb": others,
        "mentioned": of_mentioned,
        # another entity's snippet is never the ground truth
        "other_entity": [s for s in of_mentioned if s.entity_key != gt_entity],
    }
    if len(pools["kb"]) < count:  # the other pools are parts of this one
        raise RankError(
            f"need {count} distinct negatives, only {len(pools['kb'])} available")
    active = [name for name, pool in pools.items() if pool]
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


def sample_entity_candidates(kb: KnowledgeBase, mentioned: Sequence[Entity],
                             gt_entity: Entity, rng: np.random.Generator,
                             n_total: int = 4) -> tuple[list[str], int]:
    """Entity names for the selection head: n_total - 1 negatives drawn
    from the ``mentioned`` and the same-domain entities (backfilled from
    the full entity set), with the ground truth at a uniform random
    position."""
    names = list(dict.fromkeys(e.name for e in kb.entities))
    if len(names) < n_total:
        raise RankError(f"need {n_total} distinct entity names, have {len(names)}")
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


def _mtl_shapes(d: int, n_domains: int) -> dict[str, tuple[int, ...]]:
    """Tensor shapes of the multi-task block, named as checkpoints name
    them after ``mtl.``: the attention projections, the entity vector and
    the domain classifier's weights and bias."""
    return {"wq": (d, d), "wk": (d, d), "wv": (d, d), "v": (d,),
            "dom": (d, n_domains), "bdom": (n_domains,)}


def _mtl_init(d: int, n_domains: int, seed: int) -> dict[str, np.ndarray]:
    """Seeded initial weights of the multi-task block: each tensor from a
    generator of its own, seeded by its checkpoint name, and a zero
    domain bias."""
    out = {}
    for key, shape in _mtl_shapes(d, n_domains).items():
        rng = np.random.default_rng(zlib.crc32(f"mtl.{key}".encode()) + seed)
        out[key] = (np.zeros(shape) if key == "bdom"
                    else rng.normal(0.0, 1.0 / math.sqrt(d), size=shape))
    return out


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
                params: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Attention over entity tokens and the induced entity distribution."""
    _check_spans(spans, H.shape[0])
    cache = _mtl_forward_cache(f, H, spans, params)
    return cache["a"], cache["p"]


def _mtl_forward_cache(f, H, spans, params: dict[str, np.ndarray]) -> dict:
    d = f.shape[0]
    q = f @ params["wq"]
    Km = H @ params["wk"]
    u = (Km @ q) / math.sqrt(d)
    a = softmax(u)
    M = H @ params["wv"]
    G = a[:, None] * M
    S = np.stack([G[s:e].sum(axis=0) for s, e in spans])
    logits = S @ params["v"]
    p = softmax(logits)
    return {"f": f, "H": H, "spans": spans, "q": q, "Km": Km, "u": u, "a": a,
            "M": M, "G": G, "S": S, "logits": logits, "p": p}


def _mtl_backward(cache, params: dict[str, np.ndarray], dlogits: np.ndarray,
                  grads: dict) -> tuple[np.ndarray, np.ndarray]:
    """Backprop through the entity head; returns (df, dH)."""
    f, H, spans = cache["f"], cache["H"], cache["spans"]
    d = f.shape[0]
    a, M = cache["a"], cache["M"]
    grads["mtl.v"] += cache["S"].T @ dlogits
    dS = np.outer(dlogits, params["v"])
    dG = np.zeros_like(cache["G"])
    for k, (s, e) in enumerate(spans):
        dG[s:e] = dS[k]
    da = np.einsum("td,td->t", dG, M)
    dM = a[:, None] * dG
    grads["mtl.wv"] += H.T @ dM
    dH = dM @ params["wv"].T
    du = softmax_backward(a, da) / math.sqrt(d)
    dKm = np.outer(du, cache["q"])
    dq = cache["Km"].T @ du
    grads["mtl.wk"] += H.T @ dKm
    dH += dKm @ params["wk"].T
    grads["mtl.wq"] += np.outer(f, dq)
    df = params["wq"] @ dq
    return df, dH


def _candidate_ids(encoder: ToyEncoder,
                   snippet_ids: dict[KnowledgeSnippet, np.ndarray],
                   candidates: Sequence[KnowledgeSnippet]) -> list[np.ndarray]:
    """The ids of each candidate. A snippet is mapped on its first use and
    kept in ``snippet_ids``, the model's table (its vocabulary is fixed)."""
    rights = []
    for snippet in candidates:
        ids = snippet_ids.get(snippet)
        if ids is None:
            ids = snippet_ids[snippet] = encoder.vocab_ids(
                tokenize(linearize_knowledge(snippet)))
        rights.append(ids)
    return rights


@dataclass
class PointwiseInstance:
    """One (dialogue, candidate) training row with its auxiliary targets,
    and its dialogue's inputs: the `TurnInputs` of its turns and the
    `DialogueFeatures` they compose with exact tracking (every entity of
    the knowledge base the dialogue mentions), shared by the dialogue's
    rows."""
    dialogue: Dialogue
    candidate: KnowledgeSnippet
    label: int
    domain_id: int
    turns: tuple[TurnInputs, ...]
    context: DialogueFeatures
    entity_names: list[str] = field(default_factory=list)
    true_entity_index: int = 0


@dataclass
class PointwiseConfig:
    """The point-wise ranker's own settings: whether it has the multi-task
    head, its feature variant, how many negatives and entity candidates a
    turn's instances draw, the loss weights and online ENA (``None`` for
    none). ``train`` holds its training loop and encoder settings; its
    seed also seeds the instance draws, the multi-task head and ENA."""
    use_mtl: bool = False
    variant: Variant = Variant.WD2
    negatives: int = 4
    entity_candidates: int = 4
    lambda_rank: float = 1.0
    lambda_domain: float = 1.0
    lambda_entity: float = 1.0
    ena: Optional[AugmentConfig] = None
    train: TrainConfig = field(default_factory=TrainConfig)


@dataclass(frozen=True)
class PointwiseRow:
    """A point-wise training row compiled to model inputs: the encoder pair
    and the indicator row built from ``instance.context``, and the
    entity-name input of the multi-task head (``None`` without MTL)."""
    instance: PointwiseInstance
    pair: tuple[np.ndarray, np.ndarray]
    features: np.ndarray
    entity_input: Optional[tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]]


class _Ranker(ToyPairScorer):
    """A knowledge ranker: the pair scorer's encoder and head, plus the
    wide part of Wide & Deep, weights ``wide.u`` over the sparse features
    (zero at the start). Of ``config`` it reads the variant and the encoder
    settings."""

    def __init__(self, vocab: dict[str, int], config: PointwiseConfig,
                 params: Optional[dict[str, np.ndarray]] = None):
        """Seeded initial weights, or ``params`` (named and shaped as
        `param_shapes` says) as they are, with nothing drawn."""
        self.config = config
        loaded = params is not None
        train = config.train
        super().__init__(
            ToyEncoder(vocab, d=train.d, pooling=train.pooling,
                       max_len=train.max_len, seed=train.seed,
                       params=unprefixed("enc.", params) if loaded else None),
            unprefixed("head.", params) if loaded else None)
        self.wide = unprefixed("wide.", params) if loaded else {"u": np.zeros(N_SPARSE)}
        self._snippet_ids: dict[KnowledgeSnippet, np.ndarray] = {}
        self._name_grams = NameGrams()

    @staticmethod
    def param_shapes(n_vocab: int, config: PointwiseConfig) -> dict[str, tuple[int, ...]]:
        return {**pair_scorer_shapes(n_vocab, config.train.d), "wide.u": (N_SPARSE,)}

    def param_groups(self) -> dict[str, dict[str, np.ndarray]]:
        return {**super().param_groups(), "wide.": self.wide}

    def _ranking_logits(self, candidates: Sequence[KnowledgeSnippet],
                        context: DialogueFeatures, alpha: float) -> np.ndarray:
        """`pair_logits` of the history of ``context`` and every candidate
        (`_candidate_ids`), plus ``wide.u`` dotted with the candidate's
        indicator row times ``alpha``, as `stacked_dot`."""
        if alpha <= 0:
            raise RankError("alpha must be positive")
        vectors = context.indicators(candidates, self.config.variant, self._name_grams) * alpha
        return (self.pair_logits(self.encoder.vocab_ids(context.history),
                                 _candidate_ids(self.encoder, self._snippet_ids, candidates))
                + stacked_dot(vectors, self.wide["u"]))


class PointwiseModel(_Ranker):
    """Wide & Deep point-wise scorer with an optional multi-task head."""

    def __init__(self, vocab: dict[str, int], domains: Sequence[str],
                 config: PointwiseConfig,
                 params: Optional[dict[str, np.ndarray]] = None):
        super().__init__(vocab, config, params)
        self.domains = list(domains)
        self.mtl: Optional[dict[str, np.ndarray]] = None
        if config.use_mtl:
            self.mtl = (_mtl_init(config.train.d, max(1, len(self.domains)),
                                  config.train.seed)
                        if params is None else unprefixed("mtl.", params))
        self._ena_rng = (None if config.ena is None
                         else np.random.default_rng(config.train.seed + 2))
        self._kb: Optional[KnowledgeBase] = None

    @staticmethod
    def param_shapes(n_vocab: int, domains: Sequence[str],
                     config: PointwiseConfig) -> dict[str, tuple[int, ...]]:
        shapes = _Ranker.param_shapes(n_vocab, config)
        if config.use_mtl:
            shapes.update(prefixed("mtl.", _mtl_shapes(config.train.d, max(1, len(domains)))))
        return shapes

    def bind_kb(self, kb: KnowledgeBase) -> None:
        """For training: ENA rewrites are exact-matched against ``kb``."""
        self._kb = kb

    def param_groups(self) -> dict[str, dict[str, np.ndarray]]:
        groups = super().param_groups()
        if self.mtl is not None:
            groups["mtl."] = self.mtl
        return groups

    def _input2(self, entity_names: Sequence[str]) -> tuple[list[str], list[tuple[int, int]]]:
        tokens: list[str] = []
        spans = []
        for name in entity_names:
            tokens.append(TAG_ENT)
            name_toks = tokenize(name)
            spans.append((len(tokens), len(tokens) + len(name_toks)))
            tokens.extend(name_toks)
        return tokens, spans

    def logits(self, candidates: Sequence[KnowledgeSnippet],
               context: DialogueFeatures) -> list[float]:
        """Logit of every candidate against the dialogue whose
        `DialogueFeatures` are ``context``, the wide terms unscaled."""
        return self._ranking_logits(candidates, context, 1.0).tolist()

    def _rewritten_inputs(self, row: PointwiseRow, dialogue: Dialogue
                          ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """The encoder pair and indicator row of ``row`` with its
        dialogue rewritten to ``dialogue`` (turn for turn): composed from
        the turns' inputs, of which only those of the turns that are not the
        compiled dialogue's own are built, and not kept."""
        if self._kb is None:
            raise RankError("ENA rewrites match entities: bind a knowledge base first")
        instance = row.instance
        turns = [inputs if turn is before else turn_inputs(turn, self._kb)
                 for turn, before, inputs in zip(
                     dialogue.turns, instance.dialogue.turns, instance.turns)]
        features = _composed_features(turns, self._kb, self._kb.entity_index.keys())
        return self._row_inputs(features, instance.candidate)

    def _row_inputs(self, features: DialogueFeatures, candidate: KnowledgeSnippet
                    ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """The encoder pair and indicator row of ``candidate`` against a
        dialogue's features."""
        right, = _candidate_ids(self.encoder, self._snippet_ids, [candidate])
        row, = features.indicators([candidate], self.config.variant, self._name_grams)
        return self.encoder.pair_ids(self.encoder.vocab_ids(features.history), right), row

    def compile(self, instance: PointwiseInstance) -> PointwiseRow:
        entity_input = None
        if self.mtl is not None:
            tokens2, spans = self._input2(instance.entity_names)
            ids2, segs2 = self.encoder.token_ids(tokens2)
            if len(ids2) != len(tokens2):
                raise RankError("entity input exceeds encoder max_len; raise max_len")
            entity_input = (ids2, segs2, spans)
        return PointwiseRow(instance, *self._row_inputs(instance.context, instance.candidate),
                            entity_input)

    def loss_and_grads(self, rows: Sequence[PointwiseRow]) -> tuple[float, dict]:
        """Summed loss of compiled rows and its gradients. Online ENA draws
        for each row in row order; a rewritten row's inputs are composed
        from its turns' (`_rewritten_inputs`), of which only the rewritten
        turns are built afresh. Then the pairs are encoded in padded stacks
        (`ToyEncoder.stacked_passes`), and with MTL the rows' entity-name
        inputs in stacks of their own, whose backward runs last."""
        cfg = self.config
        pairs, feats = [], []
        for row in rows:
            pair, row_feats = row.pair, row.features
            if cfg.ena is not None:
                instance = row.instance
                dialogue = augment_entity_name(
                    instance.dialogue, instance.candidate, bool(instance.label),
                    cfg.ena, self._ena_rng)
                if dialogue is not instance.dialogue:  # rewritten: matched afresh
                    pair, row_feats = self._rewritten_inputs(row, dialogue)
            pairs.append(pair)
            feats.append(row_feats)
        feats = np.array(feats).reshape(len(rows), N_SPARSE)
        labels = np.array([row.instance.label for row in rows], dtype=np.float64)
        grads, enc_grads = self._zero_grads()
        entity_stacks = []  # (cache, dH) of each stack of entity-name inputs
        entity = {}  # row -> (its entity stack's cache and dH, its row there)
        if self.mtl is not None:
            for idx, cache in self.encoder.stacked_passes(
                    [[row.entity_input[:2]] for row in rows]):
                entity_stacks.append((cache, np.zeros_like(cache["H"])))
                for r, i in enumerate(idx):
                    entity[i] = (*entity_stacks[-1], r)
        loss = 0.0
        for idx, cache in self.encoder.stacked_passes([[pair] for pair in pairs]):
            u, z = self._stack_logits(cache)
            rank_loss, dz = bce_loss(z + feats[idx] @ self.wide["u"], labels[idx])
            loss += cfg.lambda_rank * float(rank_loss.sum())
            dz *= cfg.lambda_rank
            grads["wide.u"] += dz @ feats[idx]
            dH, df = self._head_backward(cache, u, dz, grads)
            if self.mtl is not None:
                loss += self._mtl_terms([rows[i] for i in idx], [entity[i] for i in idx],
                                        cache["f"], df, grads)
            self.encoder.backward(cache, dH, df, enc_grads)
        for cache, dH2 in entity_stacks:
            self.encoder.backward(cache, dH2, None, enc_grads)
        return loss, grads

    def _mtl_terms(self, rows: Sequence[PointwiseRow], entity: Sequence[tuple],
                   f1: np.ndarray, df1: np.ndarray, grads: dict) -> float:
        """The domain and entity-selection losses of one stack's rows, whose
        pooled pair vectors are ``f1``: their gradients go into ``grads``,
        into ``df1`` (in place) and into each row's entity-name dH."""
        mtl, lam_domain, lam_entity = (self.mtl, self.config.lambda_domain,
                                       self.config.lambda_entity)
        # domain classification from the pooled pair representation
        domain_ids = np.array([row.instance.domain_id for row in rows])
        at = np.arange(len(rows)), domain_ids
        dom_p = softmax(f1 @ mtl["dom"] + mtl["bdom"], axis=1)
        loss = -lam_domain * float(np.log(np.maximum(dom_p[at], 1e-300)).sum())
        ddom = lam_domain * dom_p
        ddom[at] -= lam_domain
        grads["mtl.dom"] += f1.T @ ddom
        grads["mtl.bdom"] += ddom.sum(axis=0)
        df1 += ddom @ mtl["dom"].T
        # entity selection over the sampled candidate names
        for r, (row, (cache2, dH2, r2)) in enumerate(zip(rows, entity)):
            ids2, _, spans = row.entity_input
            mtl_cache = _mtl_forward_cache(f1[r], cache2["H"][r2, :len(ids2)], spans, mtl)
            true_index = row.instance.true_entity_index
            loss -= lam_entity * math.log(max(mtl_cache["p"][true_index], 1e-300))
            dlogits = lam_entity * mtl_cache["p"]
            dlogits[true_index] -= lam_entity
            df_mtl, dH2[r2, :len(ids2)] = _mtl_backward(mtl_cache, mtl, dlogits, grads)
            df1[r] += df_mtl
        return loss


def _gt_snippet(dialogue: Dialogue, kb: KnowledgeBase) -> KnowledgeSnippet:
    ref = dialogue.label.knowledge_refs[0]
    return kb.get(*ref)


def build_pointwise_instances(dialogues: Sequence[Dialogue], kb: KnowledgeBase,
                              config: PointwiseConfig,
                              rng: np.random.Generator) -> list[PointwiseInstance]:
    """Positive plus sampled-negative instances for every labeled
    knowledge-seeking turn. A dialogue's `TurnInputs` and exact-tracking
    `DialogueFeatures` are built once, for all its instances.

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
        turns = tuple(turn_inputs(turn, kb) for turn in d.turns)
        context = _composed_features(turns, kb, kb.entity_index.keys())
        rows = [(gt, 1)]
        rows += [(neg, 0) for neg in sample_negatives(
            gt, kb, tracked, drng, count=config.negatives)]
        for candidate, label in rows:
            names, true_idx = ([], 0)
            if config.use_mtl:
                names, true_idx = sample_entity_candidates(
                    kb, tracked, gt_entity, drng, n_total=config.entity_candidates)
            instances.append(PointwiseInstance(
                dialogue=d, candidate=candidate, label=label, domain_id=domain_id,
                turns=turns, context=context, entity_names=names,
                true_entity_index=true_idx))
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
    rng = np.random.default_rng(config.train.seed)
    instances = build_pointwise_instances(dialogues, kb, config, rng)
    if not instances:
        raise RankError("no labeled knowledge-seeking dialogues to train on")
    labels = {i.label for i in instances}
    if labels != {0, 1}:
        raise RankError("training data must contain both classes")
    domains = sorted({s.domain for s in kb.snippets})
    model = PointwiseModel(_ranking_vocab(dialogues, kb), domains, config)
    model.bind_kb(kb)
    train_model(model, instances, config.train)
    return model


@dataclass(frozen=True)
class RankedKnowledgeList:
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


def _sorted_items(scored: list[tuple[KnowledgeSnippet, float]]
                  ) -> tuple[tuple[KnowledgeSnippet, float], ...]:
    ordered = sorted(scored, key=lambda t: (-t[1],) + t[0].key)
    return tuple(ordered[:TOP_K])


def pointwise_rank(model: PointwiseModel, candidates: Sequence[KnowledgeSnippet],
                   context: DialogueFeatures, kb: KnowledgeBase) -> RankedKnowledgeList:
    """Score candidates independently and keep the `TOP_K` best. ``context`` is
    `dialogue_features(dialogue, kb, tracked)`. An empty candidate list falls
    back to the full knowledge base ``kb``."""
    pool = list(candidates) or list(kb.snippets)
    logits = model.logits(pool, context)
    scored = [(snip, sigmoid(z)) for snip, z in zip(pool, logits)]
    return RankedKnowledgeList(_sorted_items(scored))


@dataclass
class ListwiseInstance:
    candidates: list[KnowledgeSnippet]
    true_index: int
    context: DialogueFeatures


@dataclass(frozen=True)
class ListwiseRow:
    """A list-wise training instance compiled to model inputs: one encoder
    pair and one indicator row per candidate."""
    instance: ListwiseInstance
    pairs: list[tuple[np.ndarray, np.ndarray]]
    features: np.ndarray


class ListwiseModel(_Ranker):
    """Jointly normalized scorer over a short candidate list."""

    def distribution(self, candidates: Sequence[KnowledgeSnippet],
                     context: DialogueFeatures, alpha: float) -> np.ndarray:
        """Distribution over the (at most `TOP_K`) candidates against the
        dialogue whose `DialogueFeatures` are ``context``."""
        if not candidates:
            raise RankError("listwise scoring needs at least one candidate")
        if len(candidates) > TOP_K:
            raise RankError(f"listwise scoring accepts at most {TOP_K} candidates")
        return softmax(self._ranking_logits(candidates, context, alpha))

    def compile(self, instance: ListwiseInstance) -> ListwiseRow:
        context, candidates = instance.context, instance.candidates
        history = self.encoder.vocab_ids(context.history)
        return ListwiseRow(
            instance,
            [self.encoder.pair_ids(history, ids)
             for ids in _candidate_ids(self.encoder, self._snippet_ids, candidates)],
            context.indicators(candidates, self.config.variant, self._name_grams))

    def loss_and_grads(self, rows: Sequence[ListwiseRow]) -> tuple[float, dict]:
        """Summed list-wise cross entropy of compiled rows and its
        gradients. A row's candidates are encoded in one padded stack
        (`ToyEncoder.stacked_passes`), which may hold several rows, and
        normalised together."""
        grads, enc_grads = self._zero_grads()
        loss = 0.0
        for idx, cache in self.encoder.stacked_passes([row.pairs for row in rows]):
            # indicator value 1: alpha is for inference
            vectors = np.concatenate([rows[i].features for i in idx])
            u, z = self._stack_logits(cache)
            z += vectors @ self.wide["u"]
            dz = np.empty_like(z)
            start = 0
            for i in idx:
                end = start + len(rows[i].pairs)
                p = softmax(z[start:end])
                true_index = rows[i].instance.true_index
                loss -= math.log(max(p[true_index], 1e-300))
                p[true_index] -= 1.0
                dz[start:end] = p
                start = end
            grads["wide.u"] += dz @ vectors
            self.encoder.backward(cache, *self._head_backward(cache, u, dz, grads),
                                  enc_grads)
        return loss, grads


def build_listwise_training_data(dialogues: Sequence[Dialogue], kb: KnowledgeBase,
                                 config: PointwiseConfig, k: int = 5,
                                 seed: int = 0,
                                 tracker: Optional[Callable] = None
                                 ) -> tuple[list[ListwiseInstance], dict]:
    """Decode each fold with a point-wise model trained on the others and
    keep the 5-way lists whose ground truth survived in the top 5, each with
    its dialogue's features under exact tracking."""
    labeled = [d for d in dialogues
               if d.label is not None and d.label.is_knowledge_seeking
               and d.label.knowledge_refs]
    folds = split_kfold(labeled, k=k, seed=seed)
    instances: list[ListwiseInstance] = []
    dropped = 0
    decoded_ids: set[str] = set()
    for i, fold in enumerate(folds):
        train_set = [d for j, f in enumerate(folds) if j != i for d in f]
        fold_config = replace(config, train=replace(
            config.train, seed=zlib.crc32(f"fold{i}".encode()) + config.train.seed))
        try:
            model = train_pointwise(train_set, kb, fold_config)
        except RankError as exc:
            raise RankError(f"fold {i} training failed: {exc}") from exc
        for d in fold:
            decoded_ids.add(d.id)
            candidates = tracker(d, kb) if tracker is not None else list(kb.snippets)
            context = dialogue_features(d, kb, kb.entities)
            ranked = pointwise_rank(model, candidates, context, kb)
            refs = set(d.label.knowledge_refs)
            true_idx = next((j for j, key in enumerate(ranked.keys) if key in refs), None)
            if true_idx is None:
                dropped += 1
                continue
            instances.append(ListwiseInstance(
                candidates=[s for s, _ in ranked.items],
                true_index=true_idx, context=context))
    stats = {"folds": k, "decoded": len(decoded_ids), "emitted": len(instances),
             "dropped": dropped}
    return instances, stats


def train_listwise(instances: Sequence[ListwiseInstance], pointwise: PointwiseModel,
                   train: TrainConfig) -> ListwiseModel:
    """Fit the 5-way reranker, starting from the trained point-wise model
    ``pointwise``: its vocabulary, its config and its tensors. Training
    copies the tensors into a vector of its own (`pack_params`), and a
    point-wise model's ``mtl.*`` tensors are not read."""
    if not instances:
        raise RankError("no listwise instances to train on")
    model = ListwiseModel(pointwise.encoder.vocab, pointwise.config,
                          params=pointwise.all_params())
    train_model(model, list(instances), train)
    return model


def save_rankers(pointwise: PointwiseModel, listwise: ListwiseModel, path: str) -> None:
    """One checkpoint of the two rankers: the point-wise tensors named
    ``pointwise.*``, the list-wise ones ``listwise.*``, and the vocabulary,
    encoder config, variant, ``use_mtl`` and domain list written once: the
    list-wise model shares the vocabulary, encoder config and variant of
    the point-wise one it continues (`train_listwise`)."""
    meta = {"kind": "rankers", "vocab": pointwise.encoder.vocab,
            "encoder": pointwise.encoder.config(),
            "variant": pointwise.config.variant.value,
            "use_mtl": pointwise.config.use_mtl, "domains": pointwise.domains}
    save_checkpoint(path, {**prefixed("pointwise.", pointwise.all_params()),
                           **prefixed("listwise.", listwise.all_params())}, meta)


def load_rankers(path: str) -> tuple[PointwiseModel, ListwiseModel]:
    """The two rankers as train-select saved them (`save_rankers`): their
    variant, multi-task head and domain list come from the checkpoint, not
    from the decode config."""
    tensors, meta = load_checkpoint(path, "rankers")
    check_fields(path, meta, ("vocab", "encoder", "variant", "use_mtl", "domains"))
    try:
        variant = Variant(meta["variant"])
    except ValueError as exc:
        raise ModelError(f"checkpoint {path}: {exc}") from exc
    vocab, domains = meta["vocab"], meta["domains"]
    config = PointwiseConfig(use_mtl=meta["use_mtl"], variant=variant,
                             train=TrainConfig(**meta["encoder"]))
    check_tensors(path, {
        **prefixed("pointwise.", PointwiseModel.param_shapes(len(vocab), domains, config)),
        **prefixed("listwise.", ListwiseModel.param_shapes(len(vocab), config))}, tensors)
    return (PointwiseModel(vocab, domains, config, unprefixed("pointwise.", tensors)),
            ListwiseModel(vocab, config, unprefixed("listwise.", tensors)))


def listwise_rerank(model: ListwiseModel, ranked: RankedKnowledgeList,
                    context: DialogueFeatures, alpha: float) -> RankedKnowledgeList:
    """Reorder a point-wise list by the list-wise distribution. ``context``
    is `dialogue_features(dialogue, kb, tracked)` of the list's dialogue."""
    if not ranked.items:
        return ranked
    cands = [s for s, _ in ranked.items]
    dist = model.distribution(cands, context, alpha)
    return RankedKnowledgeList(_sorted_items(list(zip(cands, dist))))


def ensemble_rank(system_lists: Sequence[RankedKnowledgeList]) -> RankedKnowledgeList:
    """Sum each snippet's probability across systems (lists of one turn)
    and re-sort."""
    if not system_lists:
        raise RankError("ensemble needs at least one system")
    totals: dict[tuple, float] = {}
    snippets: dict[tuple, KnowledgeSnippet] = {}
    for lst in system_lists:
        for snip, prob in lst.items:
            totals[snip.key] = totals.get(snip.key, 0.0) + prob
            snippets[snip.key] = snip
    max_total = max(totals.values(), default=1.0)
    scale = 1.0 / max(1.0, max_total)  # keep summed scores valid probabilities
    scored = [(snippets[k], v * scale) for k, v in totals.items()]
    return RankedKnowledgeList(_sorted_items(scored))

