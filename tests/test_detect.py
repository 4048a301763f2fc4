import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial.corpus import Dialogue, Speaker, Turn, TurnLabel
from kgdial.detect import (
    DetectError, ErrorFixConfig, build_detection_examples,
    error_fixing_ensemble, predict,
)
from kgdial.pipeline import evaluate_predictions


def labeled(id, seeking):
    label = TurnLabel(is_knowledge_seeking=seeking,
                      knowledge_refs=(("hotel", "1", "0"),) if seeking else ())
    return Dialogue(id=id, turns=(Turn(Speaker.USER, "does it have wifi?"),),
                    label=label)


class TestExamples:
    def test_positive_and_negative(self):
        corpus = [labeled("a", True), labeled("b", False)]
        ex = build_detection_examples(corpus)
        assert ex[0] == ("⟨user⟩ does it have wifi?", True)
        assert ex[1][1] is False

    def test_unlabeled_skipped(self):
        corpus = [labeled("a", True),
                  Dialogue(id="u", turns=(Turn(Speaker.USER, "hi"),))]
        assert len(build_detection_examples(corpus)) == 1

    def test_count_matches_labeled(self):
        corpus = [labeled(f"d{i}", i % 2 == 0) for i in range(9)]
        assert len(build_detection_examples(corpus)) == 9


def table(sys_probs):
    """sys_probs: {system: {id: prob}} -> prediction tables."""
    return {s: [predict(i, p) for i, p in probs.items()]
            for s, probs in sys_probs.items()}


class TestErrorFixingEnsemble:
    def test_margin_flip_example(self):
        preds = table({
            "base": {"x": 0.6},
            "aux1": {"x": 0.1},
            "aux2": {"x": 0.2},
        })
        out = error_fixing_ensemble(preds, ErrorFixConfig("base", delta_d=0.3))
        assert out[0].label is False
        assert out[0].probability == pytest.approx(0.3)

    def test_delta_zero_is_base(self):
        rng = np.random.default_rng(0)
        ids = [f"d{i}" for i in range(50)]
        preds = table({
            s: {i: float(rng.uniform()) for i in ids}
            for s in ("base", "a", "b")})
        out = error_fixing_ensemble(preds, ErrorFixConfig("base", delta_d=0.0))
        base = {p.dialogue_id: p.label for p in preds["base"]}
        assert all(p.label == base[p.dialogue_id] for p in out)

    def test_agreement_never_flips(self):
        preds = table({
            "base": {"x": 0.51},
            "aux1": {"x": 0.9},
            "aux2": {"x": 0.7},
        })
        out = error_fixing_ensemble(preds, ErrorFixConfig("base", delta_d=1.0))
        assert out[0].label is True

    def test_identical_systems_reproduce_base(self):
        probs = {"x": 0.42, "y": 0.8, "z": 0.5}
        preds = table({s: dict(probs) for s in ("base", "c1", "c2", "c3")})
        out = error_fixing_ensemble(preds, ErrorFixConfig("base", delta_d=0.4))
        for p in out:
            assert p.label == (probs[p.dialogue_id] >= 0.5)
            assert p.probability == pytest.approx(probs[p.dialogue_id])

    def test_missing_id_rejected(self):
        preds = table({"base": {"x": 0.6}, "aux": {"y": 0.6}})
        with pytest.raises(DetectError, match="mismatch"):
            error_fixing_ensemble(preds, ErrorFixConfig("base"))

    def test_missing_base_rejected(self):
        preds = table({"aux": {"x": 0.6}})
        with pytest.raises(DetectError, match="base"):
            error_fixing_ensemble(preds, ErrorFixConfig("base"))

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=30),
           st.floats(0, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_flips_only_inside_margin_band(self, rows, delta):
        preds = table({
            "base": {f"d{i}": r[0] for i, r in enumerate(rows)},
            "a1": {f"d{i}": r[1] for i, r in enumerate(rows)},
            "a2": {f"d{i}": r[2] for i, r in enumerate(rows)},
        })
        out = error_fixing_ensemble(preds, ErrorFixConfig("base", delta_d=delta))
        for i, p in enumerate(out):
            base_label = rows[i][0] >= 0.5
            if abs(rows[i][0] - 0.5) >= delta:
                assert p.label == base_label


class TestDetectionMetrics:
    """Detection P/R/F1 as ``evaluate_predictions`` scores label records,
    knowledge-seeking (``target``) as the positive class."""

    @staticmethod
    def scores(predicted, truth):
        report = evaluate_predictions([{"target": t} for t in predicted],
                                      [{"target": t} for t in truth])
        return {m: report.scores[f"detection-{m}"]
                for m in ("precision", "recall", "f1")}

    def test_perfect(self):
        assert self.scores([True, False], [True, False]) == {
            "precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_hand_counts(self):
        # TP=2, FP=1, FN=2
        got = self.scores([True, True, True, False, False, False],
                          [True, True, False, True, True, False])
        assert got["precision"] == pytest.approx(2 / 3)
        assert got["recall"] == pytest.approx(0.5)
        assert got["f1"] == pytest.approx(4 / 7)

    def test_no_positive_predictions(self):
        got = self.scores([False], [True])
        assert got == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
