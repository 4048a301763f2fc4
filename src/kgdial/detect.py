"""Knowledge-seeking-turn detection and the error-fixing ensemble.

`build_detection_examples` gives the detector's training pairs, each
the whole tagged history: like every encoder input, it is cut once, by
the model that reads it (the detector keeps the last ``model.max_len``
positions, `ToyEncoder.pair_ids`).
`error_fixing_ensemble` combines several detectors' probabilities, each
system's given as a list in turn order, into one label and one mean
probability per turn.
"""

from __future__ import annotations

import logging
from typing import Sequence

from .corpus import Dialogue, linearize_history

logger = logging.getLogger(__name__)


class DetectError(Exception):
    pass


def build_detection_examples(dialogues: Sequence[Dialogue]) -> list[tuple[str, bool]]:
    """One (tagged history, is_knowledge_seeking) pair per labeled dialogue."""
    examples = []
    for d in dialogues:
        if d.label is None:
            logger.warning("skipping unlabeled dialogue %s", d.id)
            continue
        examples.append((linearize_history(d), d.label.is_knowledge_seeking))
    return examples


def error_fixing_ensemble(probabilities: dict[str, Sequence[float]], base: str,
                          delta_d: float) -> tuple[list[bool], list[float]]:
    """Keep the base system's labels except where it is unsure and the
    auxiliaries disagree. ``probabilities`` maps each system to its
    probabilities in turn order; a system's label is p >= 0.5.

    A label flips iff |p_base - 0.5| < delta_d and a strict majority of the
    auxiliary systems disagrees with the base label. Returns the labels and
    each turn's mean probability over all systems. delta_d = 0 reduces to
    the base system.
    """
    if base not in probabilities:
        raise DetectError(f"base system {base!r} not in predictions")
    if not 0.0 <= delta_d <= 1.0:
        raise DetectError(f"delta_d out of range: {delta_d}")
    n = len(probabilities[base])
    for system, probs in probabilities.items():
        if len(probs) != n:
            raise DetectError(f"system {system!r} has {len(probs)} turns, "
                              f"base {base!r} has {n}")
    aux = [probs for system, probs in probabilities.items() if system != base]
    labels, means = [], []
    for t, p in enumerate(probabilities[base]):
        label = p >= 0.5
        if abs(p - 0.5) < delta_d and aux:
            disagree = sum(1 for probs in aux if (probs[t] >= 0.5) != label)
            if disagree * 2 > len(aux):
                label = not label
        labels.append(label)
        means.append(sum(probs[t] for probs in probabilities.values()) / len(probabilities))
    return labels, means
