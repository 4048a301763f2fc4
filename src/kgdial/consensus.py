"""Consensus decoding over pooled n-best candidates.

Each candidate is scored by a weighted sum of 10 features: 9 similarity
features (its mean BLEU-1..4, ROUGE-1/2/L, METEOR-lite and character-F
against every other candidate in the pool) and the reciprocal of its
rank within its own system. The similarities equal the ``metrics``
functions of the same names bit for bit, but are computed from
per-candidate statistics built once per pool: tokens, suffix stems, the
tables METEOR-lite aligns with, and word and character 1-4-gram
multisets. A multiset is held as the set of its occurrences (a gram's
k-th repeat is the pair (gram, k)), so a clipped overlap is the size of a
set intersection. Clipped n-gram counts, LCS lengths (the bit-parallel
``kernels.lcs_length_tokens``) and character overlaps are symmetric, so
each unordered pair is compared once; the ROUGE and character-F scores
are symmetric F1s and are reused for both orders, BLEU-1..4 share one
pass over the orders, and METEOR-lite's alignment pairs the same tokens
whichever side is the hypothesis, so one alignment gives both orders'
scores. Nothing is kept between calls. Feature
weights are tuned toward corpus BLEU-4 by coordinate ascent with exact
line search: along one coordinate every pool's selection is a
piecewise-constant function of the weight, so the objective only
changes at candidate-crossing breakpoints, all of which are enumerated.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .corpus import tokenize
from .kernels import lcs_length_tokens
from .metrics import stem

FEATURE_NAMES = (
    "sim-bleu1", "sim-bleu2", "sim-bleu3", "sim-bleu4",
    "sim-rouge1", "sim-rouge2", "sim-rougeL", "sim-meteor", "sim-charf",
    "reciprocal-rank",
)

_MAX_N = 4  # word and character n-gram orders 1.._MAX_N
_MAX_ROUNDS = 20  # coordinate-ascent rounds per tuning restart


class ConsensusError(Exception):
    pass


@dataclass(frozen=True)
class Candidate:
    text: str
    system_id: str
    rank: int
    logprob: float

    def __post_init__(self):
        if self.rank < 1:
            raise ConsensusError("ranks are 1-based")


@dataclass(frozen=True)
class CandidatePool:
    turn_id: str
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        seen = set()
        per_system: dict[str, list[int]] = {}
        for c in self.candidates:
            key = (c.system_id, c.rank)
            if key in seen:
                raise ConsensusError(f"duplicate (system, rank): {key}")
            seen.add(key)
            per_system.setdefault(c.system_id, []).append(c.rank)
        for system, ranks in per_system.items():
            if sorted(ranks) != list(range(1, len(ranks) + 1)):
                raise ConsensusError(f"ranks not contiguous for system {system!r}")


@dataclass
class ConsensusWeights:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(FEATURE_NAMES),):
            raise ConsensusError(f"expected {len(FEATURE_NAMES)} weights")
        if not np.all(np.isfinite(self.values)):
            raise ConsensusError("weights must be finite")

    def to_json(self) -> dict:
        return {"features": list(FEATURE_NAMES), "weights": self.values.tolist()}

    @classmethod
    def from_json(cls, data) -> "ConsensusWeights":
        """The weights of a `to_json` object; anything else is a
        ConsensusError."""
        if not isinstance(data, dict):
            raise ConsensusError("weights must be a JSON object")
        if data.get("features") != list(FEATURE_NAMES):
            raise ConsensusError("feature-name header mismatch")
        weights = data.get("weights")
        if not (isinstance(weights, list) and all(
                isinstance(w, (int, float)) and not isinstance(w, bool)
                for w in weights)):
            raise ConsensusError("'weights' must be a list of numbers")
        return cls(np.asarray(weights, dtype=np.float64))

    @classmethod
    def uniform(cls) -> "ConsensusWeights":
        return cls(np.ones(len(FEATURE_NAMES)))


class _TextStats(NamedTuple):
    """What the similarity features need of one text. Each n-gram multiset
    is held as the set of its occurrences (`_occurrences`)."""
    tokens: list[str]
    stems: list[str]
    words: list[frozenset]  # word n-gram occurrences, n = 1.._MAX_N
    chars: list[frozenset]  # character n-gram occurrences of the joined tokens
    n_chars: int
    keys: list  # each token's occurrence key (`_occurrence_keys`)
    positions: dict  # occurrence key -> token position
    stem_positions: dict[str, list[int]]  # stem -> its token positions, ascending


def _occurrence_keys(items: list) -> list:
    """Each item's occurrence key: an item's first occurrence is the item
    itself, its k-th repeat the pair (item, k). Items here are strings or
    tuples of strings, so no item equals such a pair."""
    seen: dict = {}
    keys = []
    for item in items:
        k = seen.get(item, 0)
        seen[item] = k + 1
        keys.append((item, k) if k else item)
    return keys


def _occurrences(grams: list) -> frozenset:
    """The multiset ``grams`` as the set of its occurrence keys. Two such
    sets share min(a[g], b[g]) keys of each gram g, so the size of their
    intersection is the clipped overlap."""
    unique = frozenset(grams)
    if len(unique) == len(grams):
        return unique
    return frozenset(_occurrence_keys(grams))


def _char_ngrams(text: str) -> list[list[str]]:
    """The character n-grams of ``text`` in order, for n = 1.._MAX_N; the
    grams of order n + 1 extend those of order n by one character."""
    grams = [list(text)]
    for n in range(1, _MAX_N):
        grams.append(list(map(operator.add, grams[-1], text[n:])))
    return grams


def _text_stats(text: str) -> _TextStats:
    tokens = tokenize(text)
    stems = [stem(t) for t in tokens]
    joined = " ".join(tokens)
    keys = _occurrence_keys(tokens)
    stem_positions: dict[str, list[int]] = {}
    for i, key in enumerate(stems):
        stem_positions.setdefault(key, []).append(i)
    return _TextStats(
        tokens=tokens,
        stems=stems,
        words=[frozenset(keys)] + [
            _occurrences([tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)])
            for n in range(2, _MAX_N + 1)],
        chars=[_occurrences(grams) for grams in _char_ngrams(joined)],
        n_chars=len(joined),
        keys=keys,
        positions=dict(zip(keys, range(len(keys)))),
        stem_positions=stem_positions)


def _overlap(a: frozenset, b: frozenset) -> int:
    """Clipped overlap sum_g min(a[g], b[g]) of two n-gram multisets given
    as `_occurrences`, symmetric in a and b."""
    return len(a & b)


def _f1(overlap: int, a_total: int, b_total: int) -> float:
    """F1 of precision overlap/a_total and recall overlap/b_total. The
    doubling in 2*p*r is exact, so swapping a and b gives the same bits."""
    if overlap == 0:
        return 0.0
    p = overlap / a_total
    r = overlap / b_total
    return 2 * p * r / (p + r)


def _bleu_orders(hyp_len: int, ref_len: int, clipped: Sequence[int]) -> list[float]:
    """metrics.bleu_n(hyp, [ref], n) for n = 1.._MAX_N, from the clipped
    counts of each order: the log-precision sum of order n is a prefix of
    the one of order n + 1."""
    if hyp_len == 0:
        return [0.0] * _MAX_N
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    scores: list[float] = []
    log_sum = 0.0
    used = 0
    for order, count in enumerate(clipped):
        total = hyp_len - order
        if total > 0:  # orders the hypothesis is too short for are skipped
            if count == 0:
                return scores + [0.0] * (_MAX_N - order)
            log_sum += math.log(count / total)
            used += 1
        scores.append(bp * math.exp(log_sum / used))
    return scores


def _char_f(a: _TextStats, b: _TextStats) -> float:
    """metrics.char_f of the two texts, either way round."""
    if not a.n_chars or not b.n_chars:
        return 0.0
    scores = []
    for n, (x, y) in enumerate(zip(a.chars, b.chars), start=1):
        if x and y:
            scores.append(_f1(_overlap(x, y), a.n_chars - n + 1, b.n_chars - n + 1))
    return sum(scores) / len(scores) if scores else 0.0


def _meteor_pair(a: _TextStats, b: _TextStats) -> tuple[float, float]:
    """(metrics.meteor_lite(a, b), metrics.meteor_lite(b, a)). Each stage
    (exact, then stem) aligns the free hypothesis tokens left to right, each
    to the leftmost free reference token with the same key. All tokens are
    free in the exact stage, so there the k-th repeat of a token on one
    side takes its k-th repeat on the other: the token with the same
    occurrence key. In the stem stage the i-th free token of a stem on one
    side takes the i-th free token of that stem on the other. Both stages
    pair the same tokens whichever side is the hypothesis, and so does a
    chunk (a maximal run where both sides advance together); only
    precision and recall swap."""
    if not a.tokens or not b.tokens:
        return 0.0, 0.0
    # -2 marks an unaligned token, so j == prev + 1 holds only where two
    # aligned tokens advance together
    aligned = [b.positions.get(key, -2) for key in a.keys]
    used = set(aligned)
    # each position of b has one stem, so the stems' queues are disjoint
    free: dict[str, list[int]] = {}
    for i, j in enumerate(aligned):
        if j >= 0:
            continue
        stem_key = a.stems[i]
        queue = free.get(stem_key)
        if queue is None:
            queue = free[stem_key] = [
                k for k in reversed(b.stem_positions.get(stem_key, ()))
                if k not in used]
        if queue:
            aligned[i] = queue.pop()
    m = len(aligned) - aligned.count(-2)
    if m == 0:
        return 0.0, 0.0
    chunks = m - sum([j == prev + 1 for prev, j in zip(aligned, aligned[1:])])
    penalty = 0.5 * (chunks / m) ** 3
    scores = []
    for hyp_len, ref_len in ((len(a.tokens), len(b.tokens)),
                             (len(b.tokens), len(a.tokens))):
        p = m / hyp_len
        r = m / ref_len
        scores.append(10 * p * r / (r + 9 * p) * (1.0 - penalty))
    return scores[0], scores[1]


def _features(pool: CandidatePool, stats: Sequence[_TextStats]) -> np.ndarray:
    """Feature rows of the pool's candidates from their statistics."""
    if not pool.candidates:
        raise ConsensusError(f"empty candidate pool for turn {pool.turn_id}")
    n = len(stats)
    sims: list[list] = [[None] * n for _ in range(n)]  # [i][j]: i against j
    for i in range(n):
        a = stats[i]
        for j in range(i + 1, n):
            b = stats[j]
            clipped = []
            for x, y in zip(a.words, b.words):
                clipped.append(_overlap(x, y) if not clipped or clipped[-1] else 0)
            len_a, len_b = len(a.tokens), len(b.tokens)
            # symmetric scores: one value serves both orders
            shared = [_f1(clipped[0], len_a, len_b),
                      _f1(clipped[1], len_a - 1, len_b - 1),
                      _f1(lcs_length_tokens(a.tokens, b.tokens), len_a, len_b)]
            char_f = _char_f(a, b)
            meteor_ab, meteor_ba = _meteor_pair(a, b)
            sims[i][j] = (_bleu_orders(len_a, len_b, clipped) + shared
                          + [meteor_ab, char_f])
            sims[j][i] = (_bleu_orders(len_b, len_a, clipped) + shared
                          + [meteor_ba, char_f])
    feats = []
    for i, candidate in enumerate(pool.candidates):
        # Python sum in pool order, as the metric definitions are averaged,
        # so that the bits match
        others = [sims[i][j] for j in range(n) if j != i]
        means = ([sum(column) / (n - 1) for column in zip(*others)] if others
                 else [0.0] * (len(FEATURE_NAMES) - 1))
        feats.append(means + [1.0 / candidate.rank])
    return np.array(feats)


def pool_features(pool: CandidatePool) -> np.ndarray:
    """One row per candidate: its mean similarity to every other pool
    candidate per metric, then 1/rank. A singleton pool has zero
    similarity features."""
    return _features(pool, [_text_stats(c.text) for c in pool.candidates])


def _tie_key(candidate: Candidate):
    # higher logprob wins, then lexicographic system id, then rank
    return (-candidate.logprob, candidate.system_id, candidate.rank)


def _best_index(scores: np.ndarray, candidates: Sequence[Candidate]) -> int:
    """Index of the highest-scoring candidate, ties broken by `_tie_key`."""
    return min(range(len(candidates)),
               key=lambda i: (-scores[i],) + _tie_key(candidates[i]))


def _probes(points: Sequence[float]) -> list[float]:
    """One x inside each interval the sorted ``points`` cut the line into:
    1 before the first, the midpoints, 1 past the last (0 when empty)."""
    if not points:
        return [0.0]
    return ([points[0] - 1.0] + [(a + b) / 2.0 for a, b in zip(points, points[1:])]
            + [points[-1] + 1.0])


def consensus_select(pool: CandidatePool, weights: ConsensusWeights) -> Candidate:
    if not pool.candidates:
        raise ConsensusError(f"empty candidate pool for turn {pool.turn_id}")
    return pool.candidates[_best_index(pool_features(pool) @ weights.values,
                                       pool.candidates)]


@dataclass
class TuneConfig:
    restarts: int = 3
    seed: int = 0


def _selection_segments(base: np.ndarray, slope: np.ndarray,
                        pool: CandidatePool) -> list[tuple[float, int]]:
    """Piecewise-constant argmax of base + x*slope: [(x_start, cand_idx)].

    Exhaustive over pairwise crossing points; between consecutive
    breakpoints the argmax is evaluated at the midpoint.
    """
    n = base.shape[0]
    xs = set()
    for i in range(n):
        for j in range(i + 1, n):
            dm = slope[i] - slope[j]
            if dm != 0.0:
                xs.add((base[j] - base[i]) / dm)
    points = sorted(xs)
    segments = []
    starts = [-math.inf] + points
    for start, probe in zip(starts, _probes(points)):
        idx = _best_index(base + probe * slope, pool.candidates)
        if not segments or segments[-1][1] != idx:
            segments.append((start, idx))
    return segments


def _bleu_stats(candidates: Sequence[_TextStats], reference: _TextStats) -> np.ndarray:
    """Corpus-BLEU sufficient statistics of each candidate against the
    reference, one int64 row each: clipped counts of orders 1.._MAX_N,
    their totals, then hypothesis and reference length."""
    rows = np.zeros((len(candidates), 2 * _MAX_N + 2), dtype=np.int64)
    for k, hyp in enumerate(candidates):
        for order in range(_MAX_N):
            rows[k, order] = _overlap(hyp.words[order], reference.words[order])
            rows[k, _MAX_N + order] = max(len(hyp.tokens) - order, 0)
        rows[k, -2:] = len(hyp.tokens), len(reference.tokens)
    return rows


def _bleu_from_stats(stats: np.ndarray) -> float:
    """metrics.corpus_bleu from the summed rows of ``_bleu_stats``."""
    stats = stats.tolist()
    clipped, totals = stats[:_MAX_N], stats[_MAX_N:2 * _MAX_N]
    hyp_len, ref_len = stats[-2:]
    log_sum = 0.0
    used = 0
    for c, t in zip(clipped, totals):
        if t == 0:
            continue
        if c == 0:
            return 0.0
        log_sum += math.log(c / t)
        used += 1
    if used == 0 or hyp_len == 0:
        return 0.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum / used)


def _selection_bleu(pool_stats: Sequence[Sequence[_TextStats]],
                    references: Sequence[str]) -> Callable[[Sequence[int]], float]:
    """Corpus BLEU-4 of one selected candidate per pool against the pool's
    reference, each reference tokenized once."""
    rows = [_bleu_stats(stats, _text_stats(ref))
            for stats, ref in zip(pool_stats, references)]

    def objective(selection: Sequence[int]) -> float:
        return _bleu_from_stats(sum(rows[pi][ci] for pi, ci in enumerate(selection)))

    return objective


def tune_weights(dev_pools: Sequence[CandidatePool],
                 references: dict[str, str],
                 init_weights: Optional[ConsensusWeights] = None,
                 config: Optional[TuneConfig] = None) -> ConsensusWeights:
    """Coordinate-ascent line search maximizing corpus BLEU-4 of the
    selected candidates. Only improving moves are accepted, so the
    returned weights never score below the initial ones on the dev set.
    """
    config = config or TuneConfig()
    init = init_weights or ConsensusWeights.uniform()
    if not dev_pools:
        raise ConsensusError("tuning requires at least one dev pool")
    missing = [p.turn_id for p in dev_pools if p.turn_id not in references]
    if missing:
        raise ConsensusError(f"missing references for turns: {missing[:5]}")

    stats = [[_text_stats(c.text) for c in p.candidates] for p in dev_pools]
    feats = [_features(p, s) for p, s in zip(dev_pools, stats)]
    objective = _selection_bleu(stats, [references[p.turn_id] for p in dev_pools])

    def select_all(weights: np.ndarray) -> list[int]:
        return [_best_index(f @ weights, pool.candidates)
                for f, pool in zip(feats, dev_pools)]

    def line_search(weights: np.ndarray, direction: np.ndarray,
                    current: float) -> tuple[float, Optional[float]]:
        """Best (objective, step) along weights + step*direction."""
        all_segments = []
        for pi, pool in enumerate(dev_pools):
            base = feats[pi] @ weights
            slope = feats[pi] @ direction
            all_segments.append(_selection_segments(base, slope, pool))
        breakpoints = sorted({seg[0] for segs in all_segments for seg in segs
                              if seg[0] != -math.inf})

        def selection_at(x: float) -> list[int]:
            out = []
            for segs in all_segments:
                idx = segs[0][1]
                for start, cand in segs:
                    if start <= x:
                        idx = cand
                    else:
                        break
                out.append(idx)
            return out

        best_obj, best_step = current, None
        for x in _probes(breakpoints):
            obj = objective(selection_at(x))
            if obj > best_obj + 1e-12:
                best_obj, best_step = obj, x
        return best_obj, best_step

    rng = np.random.default_rng(config.seed)
    n_feat = len(FEATURE_NAMES)
    best_weights = init.values.copy()
    best_obj = objective(select_all(best_weights))

    for restart in range(config.restarts):
        if restart == 0:
            weights = init.values.copy()
        else:
            weights = init.values + rng.normal(0.0, 0.5, size=n_feat)
        current = objective(select_all(weights))
        for _ in range(_MAX_ROUNDS):
            improved = False
            for coord in rng.permutation(n_feat):
                direction = np.zeros(n_feat)
                direction[int(coord)] = 1.0
                obj, step = line_search(weights, direction, current)
                if step is not None:
                    weights = weights + step * direction
                    current = obj
                    improved = True
            if not improved:
                break
        if current > best_obj:
            best_obj, best_weights = current, weights.copy()

    return ConsensusWeights(best_weights)


def save_weights(weights: ConsensusWeights, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(weights.to_json(), fh, indent=1)


def load_weights(path: str) -> ConsensusWeights:
    """The weights `save_weights` wrote to ``path``; a file that does not
    hold them is a one-line ConsensusError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return ConsensusWeights.from_json(json.load(fh))
    except (ValueError, ConsensusError) as exc:  # json.JSONDecodeError is one
        raise ConsensusError(f"{path}: {exc}") from exc


def load_pools(path: str) -> list[CandidatePool]:
    """Line-delimited records {turn_id, system_id, rank, logprob, text}."""
    grouped: dict[str, list[Candidate]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                grouped.setdefault(rec["turn_id"], []).append(Candidate(
                    text=rec["text"], system_id=rec["system_id"],
                    rank=int(rec["rank"]), logprob=float(rec["logprob"])))
            except (KeyError, ValueError, json.JSONDecodeError) as exc:
                raise ConsensusError(f"bad pool record at line {lineno}: {exc}") from exc
    return [CandidatePool(turn_id=t, candidates=tuple(cands))
            for t, cands in grouped.items()]

