"""Command-line pipeline driver.

Subcommands cover the whole flow: synth (materialize the bundled
mini-corpus), augment, train-detect, train-select, train-generate,
decode, ensemble, tune-consensus, evaluate. Exit codes: 0 ok; 2 config
error, or a domain error (CorpusError, AugmentError, DetectError,
ModelError, RankError, GenerateError, ConsensusError: malformed corpus,
knowledge base, lexicon, checkpoint or stage input), reported as one
``error: ...`` line on stderr; 3 missing-dependency error.
"""

from __future__ import annotations

import argparse
import os
import sys

# the models are single-threaded: pin the BLAS/OpenMP pools before numpy
# loads, unless the environment sets them already
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import pipeline
from .augment import AugmentError
from .consensus import ConsensusError
from .corpus import CorpusError, save_corpus, save_knowledge_base
from .detect import DetectError
from .generate import GenerateError
from .models import ModelError
from .pipeline import (ConfigError, DependencyError, EXIT_CONFIG,
                       EXIT_DEPENDENCY, EXIT_OK, load_config)
from .rank import RankError
from .synth import MiniCorpusConfig, build_mini_corpus, save_lexicon

DOMAIN_ERRORS = (CorpusError, AugmentError, DetectError, ModelError, RankError,
                 GenerateError, ConsensusError)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default="", help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--stage-overrides", nargs="*", default=[],
                        metavar="KEY=VALUE", help="per-run config overrides")


def _config(args) -> pipeline.PipelineConfig:
    overrides = list(args.stage_overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return load_config(args.config, overrides)


def cmd_synth(args) -> None:
    os.makedirs(args.output, exist_ok=True)
    dialogues, kb, lexicon = build_mini_corpus(
        MiniCorpusConfig(n_dialogues=args.dialogues, seed=args.seed))
    logs, labels, knowledge, lexicon_path = (os.path.join(args.output, name) for name in (
        "logs.json", "labels.json", "knowledge.json", "lexicon.tsv"))
    save_corpus(dialogues, logs, labels)
    save_knowledge_base(kb, knowledge)
    save_lexicon(lexicon, lexicon_path)
    print(logs, labels, knowledge, lexicon_path, sep="\n")


def _run_stage(args, stage: str, run, *stage_args) -> list[str]:
    """Run a stage through `pipeline.run_stage` and print its output paths."""
    outputs = pipeline.run_stage(_config(args), stage, run, *stage_args)
    print(*outputs, sep="\n")
    return outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgdial",
        description="knowledge-grounded dialogue pipeline for spoken input")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write the bundled synthetic mini-corpus")
    p.add_argument("--output", required=True)
    p.add_argument("--dialogues", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    for name, runner in [
        ("augment", pipeline.stage_augment),
        ("train-detect", pipeline.stage_train_detect),
        ("train-select", pipeline.stage_train_select),
        ("train-generate", pipeline.stage_train_generate),
        ("decode", pipeline.stage_decode),
    ]:
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=lambda a, n=name, r=runner: _run_stage(a, n, r))

    p = sub.add_parser("ensemble", help="error-fixing detection ensemble")
    _add_common(p)
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--base", required=True, help="base system file name")
    p.set_defaults(func=lambda a: _run_stage(
        a, "ensemble", pipeline.stage_ensemble, a.predictions, a.base))

    p = sub.add_parser("tune-consensus", help="tune consensus weights on a dev decode")
    _add_common(p)
    p.add_argument("--predictions", required=True, help="a dev split's predictions.json")
    p.add_argument("--references", required=True, help="the dev split's labels")
    p.set_defaults(func=lambda a: _run_stage(
        a, "tune-consensus", pipeline.stage_tune_consensus, a.predictions, a.references))

    p = sub.add_parser("evaluate")
    _add_common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--references", required=True)
    p.set_defaults(func=lambda a: _run_stage(
        a, "evaluate", pipeline.stage_evaluate, a.predictions, a.references))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except DOMAIN_ERRORS as exc:
        message = " ".join(str(exc).split())
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
