import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgdial import pipeline
from kgdial.cli import main
from kgdial.consensus import ConsensusWeights, save_weights
from kgdial.models import load_checkpoint, save_checkpoint, unprefixed
from kgdial.pipeline import EXIT_CONFIG, EXIT_DEPENDENCY, EXIT_OK, load_config
from test_models import (ARCHIVE_DEFECTS, UNREADABLE_ARCHIVES, rewrite_checkpoint,
                         write_archive)
from test_pipeline import UNIT_INTERVAL_KEYS


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--output", str(data), "--dialogues", "36",
                 "--seed", "5"]) == EXIT_OK
    cfg = root / "run.cfg"
    cfg.write_text("\n".join([
        f"paths.logs = {data}/logs.json",
        f"paths.labels = {data}/labels.json",
        f"paths.knowledge = {data}/knowledge.json",
        f"paths.lexicon = {data}/lexicon.tsv",
        f"paths.output = {root}/out",
        "seed = 5",
        "model.d = 12",
        "model.max_len = 64",
        "detect.epochs = 4",
        "detect.learning_rate = 0.02",
        "track.method = fuzzy",
        "track.fuzzy_threshold = 0.5",
        "track.epochs = 2",
        "rank.epochs = 2",
        "rank.learning_rate = 0.01",
        "rank.kfolds = 2",
        "rank.listwise_epochs = 1",
        "rank.use_mtl = false",
        "gen.epochs = 2",
        "gen.learning_rate = 0.01",
        "gen.kfolds = 2",
        "gen.max_history_tokens = 64",
        "gen.max_target_tokens = 24",
    ]) + "\n")
    return root, data, cfg


@pytest.fixture(scope="module")
def stage_stdout(workdir):
    """The whole pipeline run once into `workdir`'s ``out`` directory,
    augment to evaluate, then ensemble and tune-consensus on its decode
    into ``extra``: for each command, the lines it printed and the paths
    `pipeline.run_stage` returned."""
    root, data, cfg = workdir
    predictions, labels = str(root / "out" / "predictions.json"), str(data / "labels.json")
    extra = ["--stage-overrides", f"paths.output={root / 'extra'}"]
    real, returned, runs = pipeline.run_stage, [], {}

    def recording(*args):
        returned.append(real(*args))
        return returned[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "run_stage", recording)
        for command, *args in (
                ("augment",), ("train-detect",), ("train-select",), ("train-generate",),
                ("decode",),
                ("evaluate", "--predictions", predictions, "--references", labels),
                ("ensemble", "--predictions", predictions, "--base", "predictions.json",
                 *extra),
                ("tune-consensus", "--predictions", predictions, "--references", labels,
                 *extra)):
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                assert main([command, "--config", str(cfg), *args]) == EXIT_OK, command
            runs[command] = printed.getvalue().splitlines(), returned.pop()
    return runs


@pytest.fixture(scope="module")
def trained(workdir, stage_stdout):
    """`workdir` with the whole pipeline run once into its ``out``
    directory, augment to evaluate; tests that read ``out`` copy it before
    they change it."""
    return workdir


def test_synth_writes_all_inputs(workdir):
    _, data, _ = workdir
    for name in ("logs.json", "labels.json", "knowledge.json", "lexicon.tsv"):
        assert (data / name).exists()
    logs = json.loads((data / "logs.json").read_text())
    labels = json.loads((data / "labels.json").read_text())
    assert len(logs) == len(labels) == 36


def test_synth_prints_the_paths_it_wrote(tmp_path, capsys):
    """synth's stdout is its four output paths, one a line, as a stage's
    is; without --seed it writes what seed 0 writes."""
    names = ("logs.json", "labels.json", "knowledge.json", "lexicon.tsv")
    for out, seed in ((tmp_path / "default", []), (tmp_path / "zero", ["--seed", "0"])):
        capsys.readouterr()
        assert main(["synth", "--output", str(out), "--dialogues", "4", *seed]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [str(out / n) for n in names]
    for name in names:
        assert (tmp_path / "default" / name).read_bytes() == \
            (tmp_path / "zero" / name).read_bytes()


@pytest.mark.parametrize("command", ["augment", "train-detect", "train-select",
                                     "train-generate", "decode", "evaluate", "ensemble",
                                     "tune-consensus"])
def test_a_stage_prints_the_paths_it_returned_manifest_last(stage_stdout, command):
    printed, returned = stage_stdout[command]
    assert printed == returned
    assert os.path.basename(returned[-1]) == f"{command}.manifest.json"


def _augment_unchanged(cfg, out):
    """augment's un-augmented run (no task) into ``out``: the corpus a
    training stage reads there."""
    assert main(["augment", "--config", str(cfg), "--stage-overrides",
                 f"paths.output={out}", "augment.tasks="]) == EXIT_OK


def test_augment_without_tasks_writes_the_corpus_it_read(workdir, tmp_path):
    """``augment.tasks=`` is the un-augmented run: it needs no lexicon,
    reads only the logs and labels and writes them as synth did."""
    _, data, cfg = workdir
    out = tmp_path / "out"
    assert main(["augment", "--config", str(cfg), "--stage-overrides",
                 f"paths.output={out}", "augment.tasks=", "paths.lexicon="]) == EXIT_OK
    manifest = json.loads((out / "augment.manifest.json").read_text())
    assert set(manifest["inputs"]) == {"logs.json", "labels.json"}
    assert set(manifest["config"]) == {"augment.tasks", "paths.logs", "paths.labels",
                                       "paths.output"}
    for name in ("logs", "labels"):
        assert (out / f"augmented.{name}.json").read_bytes() == \
            (data / f"{name}.json").read_bytes()


@pytest.mark.parametrize("command,override,missing,stage", [
    *[(command, "", "{out}/augmented.logs.json", "augment")
      for command in ("train-detect", "train-select", "train-generate")],
    ("augment", "paths.labels=", "", "synth"),
    ("decode", "", "{out}/detector.npz", "train-detect"),
])
def test_a_stage_before_its_upstream_is_one_line_dependency_error(
        workdir, tmp_path, capsys, command, override, missing, stage):
    """A training stage reads augment's output alone, never the synth
    corpus; augment needs the labels as well as the logs; decode needs the
    trained checkpoints."""
    _, _, cfg = workdir
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--stage-overrides",
                 f"paths.output={out}", *filter(None, [override])]) == EXIT_DEPENDENCY
    assert capsys.readouterr().err == (
        f"dependency error: missing artifact {missing.format(out=out)!r}: "
        f"run the {stage!r} stage first\n")


def test_decode_of_the_two_file_rank_layout_is_dependency_error(trained, tmp_path,
                                                                capsys):
    """An output directory from before ``rankers.npz``, its rankers saved as
    ``pointwise.npz`` and ``listwise.npz``, is not decoded: decode names the
    one rank checkpoint and the stage that writes it."""
    root, _, cfg = trained
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    tensors, meta = load_checkpoint(str(out / "rankers.npz"))
    for name, kind, fields in (
            ("pointwise", "PointwiseModel", ("vocab", "encoder", "variant", "use_mtl",
                                             "domains")),
            ("listwise", "ListwiseModel", ("vocab", "encoder", "variant"))):
        save_checkpoint(str(out / f"{name}.npz"), unprefixed(f"{name}.", tensors),
                        {"kind": kind, **{key: meta[key] for key in fields}})
    (out / "rankers.npz").unlink()
    capsys.readouterr()
    assert main(["decode", "--config", str(cfg),
                 "--stage-overrides", f"paths.output={out}"]) == EXIT_DEPENDENCY
    assert capsys.readouterr().err == (
        f"dependency error: missing artifact {str(out / 'rankers.npz')!r}: "
        f"run the 'train-select' stage first\n")


def test_ensemble_of_a_missing_file_is_dependency_error(workdir, tmp_path):
    _, _, cfg = workdir
    assert main(["ensemble", "--config", str(cfg), "--predictions",
                 str(tmp_path / "none.json"), "--base", "none.json"]) == EXIT_DEPENDENCY


# the detector cuts its own input to model.max_len, and the generation
# context's gen.max_history_tokens counts every token: neither
# detect.max_tokens nor corpus.count_tags is a key
@pytest.mark.parametrize("key", ["bogus.key", "detect.max_tokens", "corpus.count_tags"])
def test_unknown_config_key_is_config_error(workdir, key, capsys):
    _, _, cfg = workdir
    capsys.readouterr()
    assert main(["augment", "--config", str(cfg),
                 "--stage-overrides", f"{key}=1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(key) in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["train-select", "decode"])
def test_unknown_rank_variant_is_one_line_config_error(workdir, command, capsys):
    _, _, cfg = workdir
    capsys.readouterr()
    assert main([command, "--config", str(cfg),
                 "--stage-overrides", "rank.variant=XX"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: rank.variant") and "'XX'" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command,override,message", [
    ("augment", "model.d=abc", "config error: model.d: expected int, got 'abc'"),
    ("augment", "rank.learning_rate=fast",
     "config error: rank.learning_rate: expected float, got 'fast'"),
    ("train-select", "track.method=XX",
     "config error: track.method: expected one of ['exact', 'fuzzy', "
     "'learned'], got 'XX'"),
    # so is model.pooling, before train-detect builds an encoder
    ("train-detect", "model.pooling=max",
     "config error: model.pooling: expected one of ['mean', 'first'], got 'max'"),
    # rank.alpha is checked when the config loads, before any stage runs
    ("decode", "rank.alpha=0", "config error: rank.alpha: expected a number > 0, got 0.0"),
    ("train-select", "rank.alpha=-1",
     "config error: rank.alpha: expected a number > 0, got -1.0"),
])
def test_bad_config_value_is_one_line_config_error(workdir, command, override,
                                                   message, capsys):
    _, _, cfg = workdir
    capsys.readouterr()
    assert main([command, "--config", str(cfg),
                 "--stage-overrides", override]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == message + "\n"


@pytest.mark.parametrize("command,section", [
    ("train-detect", "detect"), ("train-select", "rank"),
    ("train-generate", "gen")])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_batch_size_below_one_is_one_line_config_error(workdir, command, section,
                                                       value, capsys):
    _, _, cfg = workdir
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--stage-overrides",
                 f"{section}.batch_size={value}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"config error: {section}.batch_size: expected an int >= 1, "
                   f"got {value}\n")


@pytest.mark.parametrize("command", ["decode", "train-detect"])
@pytest.mark.parametrize("overrides,message", [
    *[([f"{key}={value}"], f"{key}: expected a number in [0, 1], got {value}")
      for key in UNIT_INTERVAL_KEYS for value in ("1.5", "-0.5")],
    (["augment.replace_rate_low=0.4", "augment.replace_rate_high=0.2"],
     "augment.replace_rate_low: expected <= replace_rate_high, got 0.4 > 0.2"),
])
def test_out_of_range_probability_is_one_line_config_error(workdir, command,
                                                           overrides, message,
                                                           capsys):
    _, _, cfg = workdir
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--stage-overrides",
                 *overrides]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_malformed_confusion_file_is_one_line_error(workdir, tmp_path, capsys):
    _, _, cfg = workdir
    confusions = tmp_path / "confusions.tsv"
    confusions.write_text("# word<TAB>replacement\nhotel\thostel\nno tab here\n")
    capsys.readouterr()
    assert main(["augment", "--config", str(cfg), "--stage-overrides",
                 f"paths.output={tmp_path / 'out'}", "augment.tasks=TST",
                 f"paths.confusions={confusions}"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {confusions} line 3: expected word<TAB>replacement\n")


def test_augment_manifest_hashes_every_file_it_reads(workdir, tmp_path):
    """augment reads the labels file as well as the logs, the lexicon only
    when AEI is among its tasks, and the confusion file only when TST is."""
    _, data, cfg = workdir
    labels = tmp_path / "labels.json"
    shutil.copy(data / "labels.json", labels)
    confusions = tmp_path / "confusions.tsv"
    confusions.write_text("hotel\thostel\n")

    def inputs(*overrides):
        out = tmp_path / "out"
        assert main(["augment", "--config", str(cfg), "--stage-overrides",
                     f"paths.output={out}", f"paths.labels={labels}",
                     *overrides]) == EXIT_OK
        return json.loads((out / "augment.manifest.json").read_text())["inputs"]

    before = inputs()
    assert set(before) == {"logs.json", "labels.json", "lexicon.tsv"}
    records = json.loads(labels.read_text())
    edited = next(r for r in records if r["target"])
    edited["response"] += " Anything else?"
    labels.write_text(json.dumps(records))
    after = inputs()
    assert after["labels.json"] != before["labels.json"]
    assert {k: v for k, v in after.items() if k != "labels.json"} == {
        k: v for k, v in before.items() if k != "labels.json"}
    assert set(inputs("augment.tasks=TST", f"paths.confusions={confusions}")) == {
        "logs.json", "labels.json", "confusions.tsv"}


# a decode record's n-best that is not a list of {text, logprob} objects
NBEST_DEFECTS = {
    "nbest-not-list": {"text": "yes", "logprob": -1.0},
    "nbest-entry-not-object": ["yes"],
    "nbest-text-not-string": [{"text": 5, "logprob": -1.0}],
    "nbest-logprob-bool": [{"text": "yes", "logprob": True}],
    "nbest-logprob-null": [{"text": "yes", "logprob": None}],
}


@pytest.mark.parametrize("command,args,override,message", [
    ("train-select", [], "rank.kfolds=1",
     "config error: rank.kfolds: expected an int >= 2, got 1"),
    ("train-generate", [], "gen.kfolds=1",
     "config error: gen.kfolds: expected an int >= 2, got 1"),
    ("train-detect", [], "model.d=0",
     "config error: model.d: expected an int >= 1, got 0"),
    ("train-detect", [], "model.d=-4",
     "config error: model.d: expected an int >= 1, got -4"),
    ("train-detect", [], "model.max_len=0",
     "config error: model.max_len: expected an int >= 1, got 0"),
    ("train-generate", [], "gen.max_target_tokens=0",
     "config error: gen.max_target_tokens: expected an int >= 1, got 0"),
    # below 0, each of these four would end a stage in a traceback
    ("train-detect", [], "seed=-1", "config error: seed: expected an int >= 0, got -1"),
    ("train-select", [], "track.negatives=-1",
     "config error: track.negatives: expected an int >= 0, got -1"),
    ("train-select", [], "rank.negatives=-1",
     "config error: rank.negatives: expected an int >= 0, got -1"),
    ("train-select", [], "rank.entity_negatives=-1",
     "config error: rank.entity_negatives: expected an int >= 0, got -1"),
    # a negative epoch count would train nothing, and exit 0
    *[(command, [], f"{key}=-1", f"config error: {key}: expected an int >= 0, got -1")
      for command, key in (("train-detect", "detect.epochs"),
                           ("train-select", "track.epochs"),
                           ("train-select", "rank.epochs"),
                           ("train-select", "rank.listwise_epochs"),
                           ("train-generate", "gen.epochs"))],
    # no n-best would fail at decode's first targeted turn
    ("decode", [], "gen.nbest=0", "config error: gen.nbest: expected an int >= 1, got 0"),
    ("augment", [], "augment.neighbor_k=0",
     "config error: augment.neighbor_k: expected an int >= 1, got 0"),
    ("train-select", [], "augment.ena_probability=1.5",
     "config error: augment.ena_probability: expected a number in [0, 1], got 1.5"),
    ("ensemble", ["--predictions", "{predictions}", "--base", "nope.json"], "",
     "error: base system 'nope.json' not in predictions"),
    ("ensemble", ["--predictions", "{predictions}", "{three}", "--base",
                  "predictions.json"], "",
     "error: system 'three.json' has 3 turns, base 'predictions.json' has 2"),
    # the fixture corpus has 23 knowledge-seeking turns to split into folds
    ("train-select", [], "rank.kfolds=40",
     "error: cannot split 23 items into 40 folds"),
    # all 23 have a response, so train-generate's selection folds deal them too
    ("train-generate", [], "gen.kfolds=40",
     "error: cannot split 23 items into 40 folds"),
    ("augment", [], "paths.lexicon={lexicon}",
     "error: lexicon line 1: expected word<TAB>phonemes"),
    ("evaluate", ["--predictions", "{text}", "--references", "{predictions}"], "",
     "error: {text}: Expecting value: line 1 column 1 (char 0)"),
    ("evaluate", ["--predictions", "{three}", "--references", "{predictions}"], "",
     "error: {three} has 3 turn records but {predictions} has 2"),
    # augment reads the logs and labels that every training stage trains
    # on; train-detect reads no knowledge base, train-select does
    *[(command, [], f"paths.{name}={{text}}",
       "error: {text}: Expecting value: line 1 column 1 (char 0)")
      for command, name in (("augment", "logs"), ("augment", "labels"),
                            ("train-select", "knowledge"))],
    ("augment", [], "paths.logs={object}",
     "error: {object}: expected a list of dialogues, got dict"),
    ("augment", [], "paths.labels={stringy}",
     "error: {stringy}: record 1: expected an object with a boolean 'target'"),
    ("ensemble", ["--predictions", "{text}", "--base", "text.json"], "",
     "error: {text}: Expecting value: line 1 column 1 (char 0)"),
    ("evaluate", ["--predictions", "{untargeted}", "--references", "{predictions}"],
     "", "error: {untargeted}: record 0: expected an object with a boolean 'target'"),
    ("ensemble", ["--predictions", "{untargeted}", "--base", "untargeted.json"], "",
     "error: {untargeted}: record 0: expected an object with a boolean 'target'"),
    *[("tune-consensus", ["--predictions", f"{{{name}}}", "--references", "{predictions}"],
       "", f"error: {{{name}}}: record 1: nbest must be a list of objects with a "
           f"string 'text' and a numeric 'logprob'")
      for name in NBEST_DEFECTS],
    ("tune-consensus", ["--predictions", "{three}", "--references", "{predictions}"], "",
     "error: {three} has 3 turn records but {predictions} has 2"),
    ("tune-consensus", ["--predictions", "{predictions}", "--references", "{predictions}"],
     "", "error: tuning requires at least one dev pool"),
    ("evaluate", ["--predictions", "{predictions}", "--references", "{unkeyed}"], "",
     "error: {unkeyed}: record 0: malformed knowledge ref"),
    ("evaluate", ["--predictions", "{predictions}", "--references", "{numeric}"], "",
     "error: {numeric}: record 0: response must be a string"),
    ("ensemble", ["--predictions", "{worded}", "--base", "worded.json"], "",
     "error: {worded}: record 0: detection_probability must be a number in [0, 1]"),
    ("ensemble", ["--predictions", "{above}", "--base", "above.json"], "",
     "error: {above}: record 1: detection_probability must be a number in [0, 1]"),
    ("ensemble", ["--predictions", "{unscored}", "--base", "unscored.json"], "",
     "error: {unscored}: record 1: missing detection_probability"),
], ids=["rank-kfolds", "gen-kfolds", "model-d-zero", "model-d-negative",
        "model-max-len-zero", "gen-max-target-tokens-zero", "seed-negative",
        "track-negatives-negative", "rank-negatives-negative",
        "rank-entity-negatives-negative", "detect-epochs-negative",
        "track-epochs-negative", "rank-epochs-negative", "rank-listwise-epochs-negative",
        "gen-epochs-negative", "gen-nbest-zero", "augment-neighbor-k-zero",
        "ena-probability", "ensemble-base", "ensemble-lengths-differ",
        "rank-kfolds-above-turns", "gen-kfolds-above-turns",
        "lexicon-tab", "evaluate-not-json", "evaluate-lengths-differ",
        "logs-not-json", "labels-not-json", "knowledge-not-json",
        "logs-not-a-list", "labels-target-not-bool",
        "ensemble-not-json",
        "evaluate-no-target", "ensemble-no-target",
        *[f"tune-consensus-{name}" for name in NBEST_DEFECTS],
        "tune-consensus-lengths-differ", "tune-consensus-no-pool",
        "evaluate-bad-knowledge", "evaluate-response-not-text",
        "ensemble-probability-not-number", "ensemble-probability-above-one",
        "ensemble-probability-missing"])
def test_bad_stage_input_is_one_line_error(workdir, tmp_path, capsys, command,
                                           args, override, message):
    _, _, cfg = workdir
    paths = {name: tmp_path / f"{name}.json" for name in [
        "predictions", "text", "untargeted", "unkeyed", "numeric", "worded",
        "above", "unscored", "three", "stringy", "object", *NBEST_DEFECTS]}
    paths["lexicon"] = tmp_path / "lexicon.tsv"
    paths["predictions"].write_text(json.dumps([
        {"target": True, "detection_probability": 0.9},
        {"target": False, "detection_probability": 0.1}]))
    paths["three"].write_text(json.dumps([
        {"target": True, "detection_probability": 0.6}] * 3))
    paths["lexicon"].write_text("hotel HH OW T EH L\n")
    paths["text"].write_text("not json\n")
    paths["untargeted"].write_text(json.dumps([{"x": 1}, {"x": 1}]))
    paths["object"].write_text("{}")
    paths["stringy"].write_text(json.dumps([{"target": False}, {"target": "false"}]))
    for name, nbest in NBEST_DEFECTS.items():
        paths[name].write_text(json.dumps([
            {"target": True, "detection_probability": 0.9,
             "nbest": [{"text": "yes", "logprob": -1.0}]},
            {"target": True, "detection_probability": 0.9, "nbest": nbest}]))
    paths["unkeyed"].write_text(json.dumps([
        {"target": True, "knowledge": [{"domain": "hotel"}]}, {"target": False}]))
    paths["numeric"].write_text(json.dumps([
        {"target": True, "knowledge": [], "response": 5}, {"target": False}]))
    paths["worded"].write_text(json.dumps([
        {"target": True, "detection_probability": "high"}]))
    paths["above"].write_text(json.dumps([
        {"target": True, "detection_probability": 1}, {"target": True,
                                                       "detection_probability": 1.5}]))
    paths["unscored"].write_text(json.dumps([
        {"target": True, "detection_probability": 0.9}, {"target": False}]))
    overrides = [f"paths.output={tmp_path / 'out'}"]
    if override:
        overrides.append(override.format(**paths))
    if command.startswith("train-"):
        _augment_unchanged(cfg, tmp_path / "out")
    capsys.readouterr()
    assert main([command, "--config", str(cfg),
                 *(a.format(**paths) for a in args),
                 "--stage-overrides", *overrides]) == EXIT_CONFIG
    assert capsys.readouterr().err == message.format(**paths) + "\n"
    # a stage that fails on its input fails before it trains any model
    assert not list((tmp_path / "out").glob("*.npz"))


def test_full_pipeline_runs(trained):
    root, _, _ = trained
    out = root / "out"
    predictions = json.loads((out / "predictions.json").read_text())
    assert len(predictions) == 36
    assert all("target" in p for p in predictions)
    report = json.loads((out / "metrics.json").read_text())
    assert "detection-f1" in report["scores"]
    assert "selection-r@1" in report["scores"]
    assert "generation-bleu-4" in report["scores"]


def test_manifests_record_hashes(trained, tmp_path):
    root, _, cfg = trained
    out = root / "out"
    manifest = json.loads((out / "decode.manifest.json").read_text())
    assert manifest["stage"] == "decode"
    assert "predictions.json" in manifest["outputs"]
    # fuzzy tracking reads no tracker; no consensus weights were tuned; the
    # labels of the turns decode predicts are not among its inputs
    assert set(manifest["inputs"]) == {
        "logs.json", "knowledge.json", "detector.npz", "rankers.npz",
        "generator.npz"}
    for name in ("detector.npz", "generator.npz"):
        assert manifest["inputs"][name] == hashlib.sha256(
            (out / name).read_bytes()).hexdigest()
    assert set(manifest["config"]) == {
        "paths.logs", "paths.knowledge", "paths.output",
        "track.method", "track.fuzzy_threshold", "rank.alpha", "gen.nbest",
        "gen.max_history_tokens"}
    # train-detect reads the augmented corpus alone, no knowledge base
    augmented = {"augmented.logs.json", "augmented.labels.json"}
    for stage, inputs in (("train-detect", augmented),
                          ("train-select", augmented | {"knowledge.json"}),
                          ("train-generate", augmented | {"knowledge.json"})):
        manifest = json.loads((out / f"{stage}.manifest.json").read_text())
        assert set(manifest["inputs"]) == inputs, stage
    # no stage records a setting that cannot change its outputs: augment
    # applies no online ENA, train-generate's fold rankers have neither the
    # multi-task head nor ENA, and train-select (no MTL here) draws no
    # entity candidates
    mtl = {"rank.entity_negatives", "rank.lambda_domain", "rank.lambda_entity"}
    ena = {"augment.ena_probability", "augment.ena_delete_prob"}
    for stage, unread in (("augment", ena), ("train-select", mtl),
                          ("train-generate", mtl | ena | {"rank.use_mtl"})):
        manifest = json.loads((out / f"{stage}.manifest.json").read_text())
        assert not unread & set(manifest["config"]), stage
    values = load_config(str(cfg)).values
    for stage in ("augment", "train-detect", "train-select", "train-generate",
                  "decode", "evaluate"):
        config = json.loads((out / f"{stage}.manifest.json").read_text())["config"]
        assert config == {key: values[key] for key in config}, stage
        assert config["paths.output"] == f"{root}/out", stage
        # decode and evaluate draw nothing at random
        assert ("seed" in config) == (stage not in ("decode", "evaluate")), stage

    tuned = tmp_path / "out"
    shutil.copytree(out, tuned)
    save_weights(ConsensusWeights.uniform(), str(tuned / "consensus.weights.json"))
    assert main(["decode", "--config", str(cfg), "--stage-overrides",
                 f"paths.output={tuned}"]) == EXIT_OK
    manifest = json.loads((tuned / "decode.manifest.json").read_text())
    assert "consensus.weights.json" in manifest["inputs"]
    assert manifest["config"]["paths.output"] == str(tuned)


def test_corrupt_checkpoint_is_one_line_domain_error(trained, tmp_path, capsys):
    root, _, cfg = trained
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    tensors, meta = load_checkpoint(str(out / "generator.npz"))
    tensors["emb"] = tensors["emb"][:1]
    save_checkpoint(str(out / "generator.npz"), tensors, meta)
    capsys.readouterr()
    assert main(["decode", "--config", str(cfg),
                 "--stage-overrides", f"paths.output={out}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint ") and "'emb'" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("meta,members,pattern", ARCHIVE_DEFECTS)
def test_malformed_checkpoint_archive_is_one_line_domain_error(
        trained, tmp_path, capsys, meta, members, pattern):
    root, _, cfg = trained
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    write_archive(str(out / "generator.npz"), meta, members)
    capsys.readouterr()
    assert main(["decode", "--config", str(cfg),
                 "--stage-overrides", f"paths.output={out}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {out / 'generator.npz'}")
    assert pattern in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _drop_d(path):
    rewrite_checkpoint(path, path, lambda tensors, meta: meta.pop("d"))


def _set_field(block, key, value):
    """A writer that sets config field ``key`` (of the ``block`` object,
    when given) of a checkpoint in place."""
    def edit(tensors, meta):
        (meta[block] if block else meta)[key] = value
    return lambda path: rewrite_checkpoint(path, path, edit)


@pytest.mark.parametrize("name,write,message", [
    *[pytest.param("generator.npz", p.values[0], " is not a readable .npz archive",
                   id=p.id) for p in UNREADABLE_ARCHIVES],
    pytest.param("generator.npz", _drop_d, ": missing field 'd'", id="missing-field"),
    pytest.param("rankers.npz", _set_field(None, "domains", 5),
                 ": field 'domains' is not a list of strings", id="domains-not-a-list"),
    pytest.param("rankers.npz", _set_field("encoder", "max_len", "x"),
                 ": field 'encoder.max_len' is not an integer >= 1",
                 id="max-len-not-an-integer"),
    pytest.param("generator.npz", _set_field(None, "d", "x"),
                 ": field 'd' is not an integer", id="generator-d-not-an-integer"),
])
def test_unreadable_checkpoint_is_one_line_domain_error(trained, tmp_path, capsys,
                                                        name, write, message):
    root, _, cfg = trained
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    write(str(out / name))
    capsys.readouterr()
    assert main(["decode", "--config", str(cfg),
                 "--stage-overrides", f"paths.output={out}"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: checkpoint {out / name}{message}\n"


def _set_title(kb):
    kb["attraction"]["1"]["docs"]["0"]["title"] = 5


def _drop_body(kb):
    del kb["attraction"]["1"]["docs"]["0"]["body"]


def _list_entry(kb):
    kb["attraction"]["1"] = ["ivory museum"]


def _set_name(kb):
    kb["attraction"]["1"]["name"] = 5


@pytest.mark.parametrize("edit,message", [
    (_set_title, "knowledge doc attraction/1/0: title must be a string, got int"),
    (_drop_body, "knowledge doc attraction/1/0: missing 'body'"),
    (_list_entry, "knowledge entity attraction/1: expected an object, got list"),
    (_set_name, "knowledge entity attraction/1: name must be a string, got int"),
    (dict.clear, "{path}: no knowledge snippets"),
], ids=["title", "body", "entry", "name", "empty"])
@pytest.mark.parametrize("command", ["train-select", "decode"])
def test_malformed_knowledge_base_is_one_line_domain_error(workdir, tmp_path, capsys,
                                                           command, edit, message):
    _, data, cfg = workdir
    kb = json.loads((data / "knowledge.json").read_text())
    edit(kb)
    bad = tmp_path / "knowledge.json"
    bad.write_text(json.dumps(kb))
    if command == "train-select":
        _augment_unchanged(cfg, tmp_path / "out")
    capsys.readouterr()
    # a stage fails when it loads the knowledge base, before it needs any
    # checkpoint
    assert main([command, "--config", str(cfg), "--stage-overrides",
                 f"paths.knowledge={bad}", f"paths.output={tmp_path / 'out'}"]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: {message.format(path=bad)}\n"


def test_decode_time_domain_error_is_one_line(trained, tmp_path, capsys):
    # a non-finite wide weight passes checkpoint loading and fails in
    # ranking, inside decode
    root, _, cfg = trained
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    rewrite_checkpoint(str(out / "rankers.npz"), str(out / "rankers.npz"),
                       lambda tensors, meta: tensors["pointwise.wide.u"].fill(np.nan))
    capsys.readouterr()
    assert main(["decode", "--config", str(cfg), "--stage-overrides",
                 f"paths.output={out}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: decode failed at turn ")
    assert err.rstrip().endswith("probabilities must lie in [0,1]")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("text,message", [
    ("not json\n", "Expecting value: line 1 column 1 (char 0)"),
    ("[1, 2]", "weights must be a JSON object"),
    ('{"weights": [1]}', "feature-name header mismatch"),
    (json.dumps({**ConsensusWeights.uniform().to_json(), "weights": "x"}),
     "'weights' must be a list of numbers"),
    (json.dumps({**ConsensusWeights.uniform().to_json(), "weights": [1.0]}),
     "expected 10 weights"),
], ids=["not-json", "not-an-object", "no-header", "weights-not-numbers",
        "too-few-weights"])
def test_bad_consensus_weights_is_one_line_error(trained, tmp_path, capsys, text,
                                                 message):
    root, _, cfg = trained
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    weights = out / "consensus.weights.json"
    weights.write_text(text)
    capsys.readouterr()
    assert main(["decode", "--config", str(cfg), "--stage-overrides",
                 f"paths.output={out}"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {weights}: {message}\n"


def test_ensemble_subcommand(trained, tmp_path):
    root, data, cfg = trained
    out = root / "out"
    preds = out / "predictions.json"
    twin = tmp_path / "twin.json"
    shutil.copy(preds, twin)
    assert main(["ensemble", "--config", str(cfg),
                 "--predictions", str(preds), str(twin),
                 "--base", "predictions.json"]) == EXIT_OK
    fixed = json.loads((out / "ensemble.detection.json").read_text())
    original = json.loads(preds.read_text())
    assert [p["target"] for p in fixed] == [p["target"] for p in original]


def test_ensemble_systems_of_one_file_name_are_one_line_error(workdir, tmp_path,
                                                              capsys):
    # two decode output directories each hold a predictions.json; the
    # second must not silently replace the first
    _, _, cfg = workdir
    paths = []
    for system in ("a", "b"):
        (tmp_path / system).mkdir()
        path = tmp_path / system / "predictions.json"
        path.write_text(json.dumps([{"target": True, "detection_probability": 0.9}]))
        paths.append(str(path))
    capsys.readouterr()
    assert main(["ensemble", "--config", str(cfg), "--predictions", *paths,
                 "--base", "predictions.json"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: system name 'predictions.json' is given twice: {paths[0]} "
        f"and {paths[1]}; rename one file\n")
    assert not (tmp_path / "out").exists()


def test_ensemble_of_decode_outputs_flips_base_labels_inside_delta_d(trained,
                                                                     tmp_path):
    # the auxiliary system is decode with the detector's head negated, so
    # it disagrees with the base on every turn; the ensemble then flips
    # exactly the base labels whose probability lies within delta_d of 0.5
    root, _, cfg = trained
    aux = tmp_path / "aux"
    shutil.copytree(root / "out", aux)
    tensors, meta = load_checkpoint(str(aux / "detector.npz"))
    for key in ("head.w", "head.b"):
        tensors[key] = -tensors[key]
    save_checkpoint(str(aux / "detector.npz"), tensors, meta)
    assert main(["decode", "--config", str(cfg), "--stage-overrides",
                 f"paths.output={aux}"]) == EXIT_OK
    systems = {"base.json": root / "out" / "predictions.json",
               "aux.json": aux / "predictions.json"}
    records = {}
    for name, path in systems.items():
        shutil.copy(path, tmp_path / name)
        records[name] = json.loads(path.read_text())
    base, other = records["base.json"], records["aux.json"]
    assert [r["target"] for r in base] == [r["detection_probability"] >= 0.5
                                            for r in base]
    assert all(b["target"] != a["target"] for b, a in zip(base, other))
    margins = [abs(r["detection_probability"] - 0.5) for r in base]
    delta_d = (min(margins) + max(margins)) / 2
    assert main(["ensemble", "--config", str(cfg),
                 "--predictions", str(tmp_path / "base.json"), str(tmp_path / "aux.json"),
                 "--base", "base.json", "--stage-overrides",
                 f"paths.output={tmp_path / 'out'}", f"detect.delta_d={delta_d}"]) == EXIT_OK
    fixed = json.loads((tmp_path / "out" / "ensemble.detection.json").read_text())
    flipped = [f["target"] != b["target"] for f, b in zip(fixed, base)]
    assert flipped == [m < delta_d for m in margins]
    assert any(flipped) and not all(flipped)


def test_tune_consensus_tunes_on_a_dev_decode_that_decode_then_reads(trained,
                                                                     tmp_path):
    # the dev split is another synth seed over the same knowledge base
    root, data, cfg = trained
    dev, out = tmp_path / "dev", tmp_path / "out"
    assert main(["synth", "--output", str(dev), "--dialogues", "36",
                 "--seed", "7"]) == EXIT_OK
    assert (dev / "knowledge.json").read_bytes() == (data / "knowledge.json").read_bytes()
    shutil.copytree(root / "out", out)
    decode = ["decode", "--config", str(cfg), "--stage-overrides",
              f"paths.output={out}", f"paths.logs={dev / 'logs.json'}",
              f"paths.labels={dev / 'labels.json'}"]
    assert main(decode) == EXIT_OK
    predictions = out / "predictions.json"
    assert any(r.get("nbest") for r in json.loads(predictions.read_text()))
    assert main(["tune-consensus", "--config", str(cfg),
                 "--predictions", str(predictions),
                 "--references", str(dev / "labels.json"),
                 "--stage-overrides", f"paths.output={out}"]) == EXIT_OK
    manifest = json.loads((out / "tune-consensus.manifest.json").read_text())
    assert set(manifest["inputs"]) == {"predictions.json", "labels.json"}
    weights = out / "consensus.weights.json"
    assert len(json.loads(weights.read_text())["weights"]) == 10
    assert main(decode) == EXIT_OK
    manifest = json.loads((out / "decode.manifest.json").read_text())
    assert manifest["inputs"]["consensus.weights.json"] == hashlib.sha256(
        weights.read_bytes()).hexdigest()


# every stage, one epoch each, in one interpreter; the last line it prints
# says whether numpy.ma was imported on the way
NO_MASKED_ARRAYS = """
import sys
from kgdial.cli import main

def run(*args):
    assert main(list(args)) == 0, args

run("synth", "--output", "data", "--dialogues", "16", "--seed", "5")
with open("run.cfg", "w") as fh:
    fh.write("\\n".join([
        "paths.logs = data/logs.json", "paths.labels = data/labels.json",
        "paths.knowledge = data/knowledge.json", "paths.lexicon = data/lexicon.tsv",
        "paths.output = out", "model.d = 8", "track.method = fuzzy",
        "track.fuzzy_threshold = 0.5", "detect.epochs = 1", "rank.epochs = 1",
        "rank.listwise_epochs = 1", "rank.kfolds = 2", "gen.epochs = 1",
        "gen.kfolds = 2"]) + "\\n")
for command in ("augment", "train-detect", "train-select", "train-generate",
                "decode"):
    run(command, "--config", "run.cfg")
run("evaluate", "--config", "run.cfg", "--predictions", "out/predictions.json",
    "--references", "data/labels.json")
print("numpy.ma" in sys.modules)
"""


def test_no_stage_imports_numpy_ma(tmp_path):
    """``np.unique`` and other masked-array users import ``numpy.ma``, about
    0.6 MB of peak memory; augment, training, decode and evaluate run in a
    fresh interpreter without it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
