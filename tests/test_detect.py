import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial.corpus import Dialogue, Speaker, Turn, TurnLabel, tokenize
from kgdial.detect import DetectError, build_detection_examples, error_fixing_ensemble
from kgdial.models import TrainConfig, train_pair_classifier
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

    # a history is cut once, by the detector that reads it: the whole
    # tagged history scores as its last model.max_len tokens
    @pytest.mark.parametrize("max_len", [4, 9, 16])
    def test_detector_reads_the_last_max_len_tokens(self, max_len):
        turns = tuple(Turn(Speaker.USER if i % 2 == 0 else Speaker.SYSTEM,
                           f"turn {i} asks about the wifi and the parking")
                      for i in range(5))
        corpus = [Dialogue(id=f"d{i}", turns=turns[i % 2:],
                           label=labeled("x", i % 2 == 0).label)
                  for i in range(4)]
        examples = build_detection_examples(corpus)
        detector = train_pair_classifier(
            [(text, "", int(label)) for text, label in examples],
            TrainConfig(epochs=2, learning_rate=0.05, batch_size=2, d=8,
                        max_len=max_len))
        for text, _ in examples:
            tokens = tokenize(text)
            assert len(tokens) > max_len
            suffix = " ".join(tokens[-max_len:])
            assert tokenize(suffix) == tokens[-max_len:]
            assert detector.score(text, "") == detector.score(suffix, "")


def reference_ensemble(probabilities, base, delta_d):
    """The first implementation: each system's probabilities keyed by turn
    id in a table of (probability, label) records, the flip decided and the
    mean summed per id."""
    ids = [f"d{i:05d}" for i in range(len(probabilities[base]))]
    tables = {system: {did: (p, p >= 0.5) for did, p in zip(ids, probs)}
              for system, probs in probabilities.items()}
    aux_ids = [s for s in tables if s != base]
    labels, means = [], []
    for did in ids:
        p_base, label = tables[base][did]
        if abs(p_base - 0.5) < delta_d and aux_ids:
            disagree = sum(1 for s in aux_ids if tables[s][did][1] != label)
            if disagree * 2 > len(aux_ids):
                label = not label
        labels.append(label)
        means.append(sum(tables[s][did][0] for s in tables) / len(tables))
    return labels, means


probability = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
                        st.floats(0, 1).map(lambda p: round(p, 2)))


@st.composite
def probability_tables(draw):
    n = draw(st.integers(1, 29))
    systems = draw(st.lists(st.sampled_from(["base", "a1", "a2", "a3", "a4"]),
                            min_size=1, max_size=4, unique=True))
    if "base" not in systems:
        systems[draw(st.integers(0, len(systems) - 1))] = "base"
    return {s: draw(st.lists(probability, min_size=n, max_size=n)) for s in systems}


class TestErrorFixingEnsemble:
    def test_margin_flip_example(self):
        labels, means = error_fixing_ensemble(
            {"base": [0.6], "aux1": [0.1], "aux2": [0.2]}, "base", 0.3)
        assert labels == [False]
        assert means == [pytest.approx(0.3)]

    def test_delta_zero_is_base(self):
        rng = np.random.default_rng(0)
        probs = {s: [float(p) for p in rng.uniform(size=50)] for s in ("base", "a", "b")}
        labels, _ = error_fixing_ensemble(probs, "base", 0.0)
        assert labels == [p >= 0.5 for p in probs["base"]]

    def test_agreement_never_flips(self):
        labels, _ = error_fixing_ensemble(
            {"base": [0.51], "aux1": [0.9], "aux2": [0.7]}, "base", 1.0)
        assert labels == [True]

    def test_identical_systems_reproduce_base(self):
        probs = [0.42, 0.8, 0.5]
        labels, means = error_fixing_ensemble(
            {s: list(probs) for s in ("base", "c1", "c2", "c3")}, "base", 0.4)
        assert labels == [p >= 0.5 for p in probs]
        assert means == pytest.approx(probs)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DetectError, match="'aux' has 2 turns, base 'base' has 1"):
            error_fixing_ensemble({"base": [0.6], "aux": [0.6, 0.4]}, "base", 0.3)

    def test_missing_base_rejected(self):
        with pytest.raises(DetectError, match="base"):
            error_fixing_ensemble({"aux": [0.6]}, "base", 0.3)

    @pytest.mark.parametrize("delta_d", [-0.1, 1.5])
    def test_delta_outside_unit_interval_rejected(self, delta_d):
        with pytest.raises(DetectError, match="delta_d out of range"):
            error_fixing_ensemble({"base": [0.6]}, "base", delta_d)

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=30),
           st.floats(0, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_flips_only_inside_margin_band(self, rows, delta):
        probs = {s: [r[j] for r in rows] for j, s in enumerate(("base", "a1", "a2"))}
        labels, _ = error_fixing_ensemble(probs, "base", delta)
        for row, label in zip(rows, labels):
            if abs(row[0] - 0.5) >= delta:
                assert label == (row[0] >= 0.5)

    @given(probability_tables(), st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.3, 1.0])))
    @settings(max_examples=200, deadline=None)
    def test_equals_first_implementation(self, probabilities, delta_d):
        labels, means = error_fixing_ensemble(probabilities, "base", delta_d)
        want_labels, want_means = reference_ensemble(probabilities, "base", delta_d)
        assert labels == want_labels
        assert [m.hex() for m in means] == [m.hex() for m in want_means]


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
