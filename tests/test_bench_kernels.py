"""The kernel benchmark script's own checks, at small sizes, so that a
renamed or broken kernel fails the test suite and not only the script."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairwise_checks(bench):
    bench.bench_pairwise(np.random.default_rng(0), sizes=(0, 1, 17, 64))


def test_batched_levenshtein_checks(bench):
    bench.bench_batched_levenshtein(np.random.default_rng(0), n_names=4,
                                    n_utterances=2)


def test_fuzzy_workload_checks(bench):
    bench.bench_fuzzy_workload(n_dialogues=6, repeat=1)


def test_checkpoint_io_checks(bench):
    bench.bench_checkpoint_io(n_vocab=12, d=4, repeat=1)


def test_pair_readouts_checks(bench):
    bench.bench_pair_readouts(n_dialogues=6, d=4, max_len=48, repeat=1)


def test_train_batch_checks(bench):
    bench.bench_train_batch(n_dialogues=8, d=4, max_len=48, repeat=1)


def test_epoch_tail_checks(bench):
    bench.bench_epoch_tail(n_dialogues=8, d=4, max_history_tokens=48, steps=3,
                           repeat=1)
