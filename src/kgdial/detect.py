"""Knowledge-seeking-turn detection and the error-fixing ensemble."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .corpus import Dialogue, linearize_history

logger = logging.getLogger(__name__)


class DetectError(Exception):
    pass


@dataclass(frozen=True)
class DetectionPrediction:
    dialogue_id: str
    probability: float
    label: bool

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise DetectError(f"probability out of range: {self.probability}")


def predict(dialogue_id: str, probability: float) -> DetectionPrediction:
    return DetectionPrediction(dialogue_id, probability, probability >= 0.5)


@dataclass(frozen=True)
class ErrorFixConfig:
    base_system_id: str
    delta_d: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.delta_d <= 1.0:
            raise DetectError(f"delta_d out of range: {self.delta_d}")


def build_detection_examples(dialogues: Sequence[Dialogue], max_tokens: int = 0,
                             count_tags: bool = True) -> list[tuple[str, bool]]:
    """One (tagged history, is_knowledge_seeking) pair per labeled dialogue."""
    examples = []
    for d in dialogues:
        if d.label is None:
            logger.warning("skipping unlabeled dialogue %s", d.id)
            continue
        examples.append((linearize_history(d, max_tokens, count_tags),
                         d.label.is_knowledge_seeking))
    return examples


def error_fixing_ensemble(predictions: dict[str, Sequence[DetectionPrediction]],
                          config: ErrorFixConfig) -> list[DetectionPrediction]:
    """Keep the base system's labels except where it is unsure and the
    auxiliaries disagree.

    A label flips iff |p_base - 0.5| < delta_d and a strict majority of the
    auxiliary systems disagrees with the base label. Output probability is
    the mean over all systems. delta_d = 0 reduces to the base system.
    """
    if config.base_system_id not in predictions:
        raise DetectError(f"base system {config.base_system_id!r} not in predictions")
    tables = {sys_id: {p.dialogue_id: p for p in preds}
              for sys_id, preds in predictions.items()}
    base = tables[config.base_system_id]
    ids = list(base)
    for sys_id, table in tables.items():
        missing = set(ids) ^ set(table)
        if missing:
            raise DetectError(f"system {sys_id!r} id mismatch: {sorted(missing)[:5]}")
    aux_ids = [s for s in tables if s != config.base_system_id]
    out = []
    for did in ids:
        base_pred = base[did]
        label = base_pred.label
        if abs(base_pred.probability - 0.5) < config.delta_d and aux_ids:
            disagree = sum(1 for s in aux_ids if tables[s][did].label != label)
            if disagree * 2 > len(aux_ids):
                label = not label
        mean_prob = sum(tables[s][did].probability for s in tables) / len(tables)
        out.append(DetectionPrediction(did, mean_prob, label))
    return out

