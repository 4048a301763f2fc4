"""Consensus decoding over pooled n-best candidates.

Each candidate is scored by a weighted sum of 10 features: 9 similarity
features (its mean BLEU-1..4, ROUGE-1/2/L, METEOR-lite and character-F
against every other candidate in the pool) and the reciprocal of its
rank within its own system. The similarities are the ``metrics`` scores,
run on each candidate's ``metrics.text_stats``, built once per pool.
Clipped n-gram counts, LCS lengths (the bit-parallel
``kernels.lcs_length_tokens``) and character overlaps are symmetric, so
each unordered pair is compared once; the ROUGE and character-F scores
are symmetric F1s and are reused for both orders, BLEU-1..4 share one
pass over the orders, and METEOR-lite's alignment pairs the same tokens
whichever side is the hypothesis, so one alignment gives both orders'
scores. Nothing is kept between calls. Feature weights are tuned toward
corpus BLEU-4, summed from the ``metrics.bleu_stats`` rows that
evaluation sums too, by coordinate ascent with exact line search: along
one coordinate every pool's selection is a piecewise-constant function
of the weight, so the objective only changes at candidate-crossing
breakpoints, all of which are enumerated.
"""

from __future__ import annotations

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


def _features(pool: CandidatePool, stats: Sequence[TextStats]) -> np.ndarray:
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
                clipped.append(clipped_overlap(x, y) if not clipped or clipped[-1] else 0)
            len_a, len_b = len(a.tokens), len(b.tokens)
            # symmetric scores: one value serves both orders
            shared = [f_measure(clipped[0], len_a, len_b),
                      f_measure(clipped[1], len_a - 1, len_b - 1),
                      f_measure(lcs_length_tokens(a.tokens, b.tokens), len_a, len_b)]
            char_score = char_f(a, b)
            meteor_ab, meteor_ba = meteor_pair(a, b)
            sims[i][j] = (bleu_orders(len_a, len_b, clipped) + shared
                          + [meteor_ab, char_score])
            sims[j][i] = (bleu_orders(len_b, len_a, clipped) + shared
                          + [meteor_ba, char_score])
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
    return _features(pool, [text_stats(c.text) for c in pool.candidates])


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

    stats = [[text_stats(c.text) for c in p.candidates] for p in dev_pools]
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
