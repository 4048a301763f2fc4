"""Consensus decoding over pooled n-best candidates.

Each candidate is scored by a weighted sum of 10 features: 9 similarity
features (its mean BLEU-1..4, ROUGE-1/2/L, METEOR-lite and character-F
against every other candidate in the pool) and the reciprocal of its
rank within its own system. The similarities are the ``metrics`` scores,
run on each candidate's ``metrics.text_stats``. Clipped n-gram counts,
LCS lengths (the bit-parallel ``kernels.lcs_length_tokens``) and
character overlaps are symmetric, so each unordered pair of texts is
compared once; the ROUGE and character-F scores are symmetric F1s and are
reused for both orders, BLEU-1..4 share one pass over the orders, and
METEOR-lite's alignment pairs the same tokens whichever side is the
hypothesis, so one alignment gives both orders' scores. Every similarity
depends on its two texts alone, and n-best texts repeat across turns (a
collapsed generator answers many turns alike, and "." recurs in most
pools), so a pair's similarities in both orders are kept, keyed on its
two texts, for the last `_PAIR_CACHE_SIZE` pairs used (`_pair_sims`). A
pair not kept is compared on the ``text_stats`` of its texts, built once
per `pool_features` call and dropped when it returns. Feature weights are
tuned toward corpus BLEU-4, summed from the ``metrics.bleu_stats`` rows
that evaluation sums too, by coordinate ascent with exact line search:
along one coordinate every pool's selection is a piecewise-constant
function of the weight, so the objective only changes at
candidate-crossing breakpoints, all of which are enumerated.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import lcs_length_tokens
from .metrics import (TextStats, bleu_from_stats, bleu_orders, bleu_stats,
                      char_f, clipped_overlap, f_measure, meteor_pair, text_stats)

FEATURE_NAMES = (
    "sim-bleu1", "sim-bleu2", "sim-bleu3", "sim-bleu4",
    "sim-rouge1", "sim-rouge2", "sim-rougeL", "sim-meteor", "sim-charf",
    "reciprocal-rank",
)

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


# unordered text pairs whose similarities are kept; a pair whose two texts
# of `GenTrainConfig.max_target_tokens` tokens only it holds keeps 2.5 KB,
# so a full cache keeps about 0.65 MB
_PAIR_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_PAIR_CACHE_SIZE)
def _pair_sims(text_a: str, text_b: str) -> list:
    """The kept similarities of two texts, ``text_a <= text_b``: a list,
    empty until `pool_features` fills it with the two tuples of
    `_similarities`."""
    return []


def _similarities(a: TextStats, b: TextStats) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The 9 similarities of ``a`` against ``b`` and of ``b`` against
    ``a``, in `FEATURE_NAMES` order."""
    clipped = []
    for x, y in zip(a.words, b.words):
        clipped.append(clipped_overlap(x, y) if not clipped or clipped[-1] else 0)
    len_a, len_b = len(a.tokens), len(b.tokens)
    # symmetric scores: one value serves both orders
    shared = [f_measure(clipped[0], len_a, len_b),
              f_measure(clipped[1], len_a - 1, len_b - 1),
              f_measure(lcs_length_tokens(a.tokens, b.tokens), len_a, len_b)]
    char_score = char_f(a, b)
    meteor_ab, meteor_ba = meteor_pair(a, b)
    bleu_ab = bleu_orders(len_a, len_b, clipped)
    bleu_ba = bleu_ab if len_a == len_b else bleu_orders(len_b, len_a, clipped)
    return (tuple(bleu_ab + shared + [meteor_ab, char_score]),
            tuple(bleu_ba + shared + [meteor_ba, char_score]))


def pool_features(pool: CandidatePool) -> np.ndarray:
    """One row per candidate: its mean similarity to every other pool
    candidate per metric, then 1/rank. A singleton pool has zero
    similarity features.

    Every pair's similarities come from its `_pair_sims` cell, keyed on
    its texts in sorted order, since each similarity is the same either
    way round. The cells found empty are filled after the statistics of
    their texts are built, each text once and all before any comparison
    (measurably faster than building them between comparisons)."""
    if not pool.candidates:
        raise ConsensusError(f"empty candidate pool for turn {pool.turn_id}")
    texts = [c.text for c in pool.candidates]
    n = len(texts)
    cells = []  # (i, j, cell) with texts[i] <= texts[j]
    for i in range(n):
        for j in range(i + 1, n):
            if texts[j] < texts[i]:
                cells.append((j, i, _pair_sims(texts[j], texts[i])))
            else:
                cells.append((i, j, _pair_sims(texts[i], texts[j])))
    empty = [(i, j, cell) for i, j, cell in cells if not cell]
    needed = {texts[k] for i, j, _ in empty for k in (i, j)}
    stats = {}
    for text in texts:
        if text in needed and text not in stats:
            stats[text] = text_stats(text)
    for i, j, cell in empty:
        if not cell:  # a pair can recur within a pool
            cell[:] = _similarities(stats[texts[i]], stats[texts[j]])
    sims: list[list] = [[None] * n for _ in range(n)]  # [i][j]: i against j
    for i, j, (ab, ba) in cells:
        sims[i][j], sims[j][i] = ab, ba
    feats = []
    for i, candidate in enumerate(pool.candidates):
        # Python sum in pool order, as the metric definitions are averaged,
        # so that the bits match
        others = sims[i][:i] + sims[i][i + 1:]
        means = ([total / (n - 1) for total in map(sum, zip(*others))] if others
                 else [0.0] * (len(FEATURE_NAMES) - 1))
        feats.append(means + [1.0 / candidate.rank])
    return np.array(feats)


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


def _selection_bleu(pool_stats: Sequence[Sequence[TextStats]],
                    references: Sequence[str]) -> Callable[[Sequence[int]], float]:
    """Corpus BLEU-4 of one selected candidate per pool against the pool's
    reference, each reference tokenized once."""
    rows = []
    for stats, ref in zip(pool_stats, references):
        ref_stats = text_stats(ref)
        rows.append([bleu_stats(hyp, ref_stats) for hyp in stats])

    def objective(selection: Sequence[int]) -> float:
        return bleu_from_stats(sum(rows[pi][ci] for pi, ci in enumerate(selection)), 4)

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

    feats = [pool_features(p) for p in dev_pools]
    objective = _selection_bleu([[text_stats(c.text) for c in p.candidates]
                                 for p in dev_pools],
                                [references[p.turn_id] for p in dev_pools])

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
