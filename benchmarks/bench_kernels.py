#!/usr/bin/env python3
"""Benchmark the edit-distance and LCS kernels and checkpoint I/O.

Times the edit distance of one string pair (`kernels.levenshtein`) and the
bit-parallel LCS kernel (`kernels.lcs_length_tokens`, given Python lists
as consensus decoding gives it token lists) on random sequences of growing
length, the batched edit distance (`kernels.levenshtein_many`) against a
per-pair `levenshtein` loop on (entity name, same-length window) pairs,
`fuzzy_match_entities` over synth dialogues, cold and over stitched
histories with its window tables kept, the save and load of a
rank checkpoint the size the README quick start trains, and
`ToyEncoder.pair_readouts` against one encoder pass per history-snippet
pair on the candidate lists decode ranks, replayed from held-out synth
dialogues shaped like the two decode workloads, the rankers' training
step on whole minibatches against one row at a time, and the per-epoch
work beside the encoder (ENA rebuilds, AdamW, the generator loss) against
the paths training first took. Run after `pip install -e .`:

    python3 benchmarks/bench_kernels.py

Before timing, the kernels are checked against a plain-Python DP of this
script's own (on the sequences of at most CHECK_MAX elements, where it
runs in seconds), and fuzzy matching against its scalar definition
(`fuzzy_similarity`) on warm window tables, a loaded checkpoint against the tensors saved, and
the shared-history readouts against the per-pair passes, the
minibatch gradients against the per-row sums, and each per-epoch path
against the first one; the whole script
takes about half a minute on one
x86-64 core. ``tests/test_bench_kernels.py`` runs the same checks at small
sizes.
"""

import os
import tempfile
import time

# the models are single-threaded; a threaded BLAS would time its thread
# hand-offs, not the kernels (the pipeline benchmark pins these too)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from kgdial import kernels  # noqa: E402

SIZES = (64, 256, 1024, 4096)
CHECK_MAX = 256


def timeit(fn, *args, repeat=5, warmup=1):
    for _ in range(warmup):
        fn(*args)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def lev_dp(a, b):
    """Edit distance by the textbook row DP over two sequences."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (x != y), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def lcs_dp(a, b):
    """LCS length by the textbook row DP over two sequences."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def _letters(codes):
    return "".join(chr(ord("a") + c) for c in codes)


def bench_pairwise(rng, sizes=SIZES):
    print("\npairwise kernels (best of 5, seconds)")
    for name, fn, to_input, reference in (
            ("levenshtein", kernels.levenshtein, _letters, lev_dp),
            ("lcs_length", kernels.lcs_length_tokens, list, lcs_dp)):
        for n in sizes:
            a = to_input(rng.integers(0, 30, size=n).tolist())
            b = to_input(rng.integers(0, 30, size=n).tolist())
            if n <= CHECK_MAX:
                assert fn(a, b) == reference(list(a), list(b))
            print(f"{name} n={n}: {timeit(fn, a, b):.6f}s")


def fuzzy_shaped_pairs(rng, n_names=30, n_utterances=50, words_per_utt=30):
    """Three-word names against every three-word window of the utterances,
    with the vocabulary fuzzy tracking sees."""
    words = [f"word{i:03d}" for i in range(400)]
    utterances = [
        [words[int(i)] for i in rng.integers(0, len(words), words_per_utt)]
        for _ in range(n_utterances)]
    names = [" ".join(words[int(i)] for i in rng.integers(0, len(words), 3))
             for _ in range(n_names)]
    return [(name, " ".join(utt[i:i + 3]))
            for name in names for utt in utterances
            for i in range(len(utt) - 2)]


def bench_batched_levenshtein(rng, n_names=30, n_utterances=8):
    """One levenshtein_many call against a per-pair levenshtein loop, both
    checked against the reference DP first."""
    pairs = fuzzy_shaped_pairs(rng, n_names=n_names, n_utterances=n_utterances)
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    expected = [lev_dp(x, y) for x, y in pairs]
    assert kernels.levenshtein_many(a, b).tolist() == expected

    def per_pair():
        return [kernels.levenshtein(x, y) for x, y in pairs]

    assert per_pair() == expected
    t_many = timeit(kernels.levenshtein_many, a, b, repeat=3)
    t_loop = timeit(per_pair, repeat=3)
    print(f"\nbatched edit distance, {len(pairs)} name/window pairs "
          f"(best of 3, seconds)")
    print(f"  levenshtein_many      {t_many:.4f}")
    print(f"  per-pair kernel loop  {t_loop:.4f}  ({t_loop / t_many:.1f}x)")


def bench_fuzzy_workload(threshold=0.5, n_dialogues=150, window=4, repeat=3):
    """`fuzzy_match_entities` over the synth knowledge base and dialogues at
    the pipeline's tracker threshold of the README quick start, three ways,
    each pass from a fresh knowledge base (empty window tables):

    * cold: every dialogue once;
    * stitched, cold: each dialogue with the ``window - 1`` before it, as
      the pipeline benchmark's decode-long stitches histories, the tables
      emptied before each call (every window matched afresh);
    * stitched, incremental: the same histories in order, the tables kept,
      as decode serves them.

    Checked first: the incremental results equal the cold ones, and then,
    on the warm tables, every dialogue's result equals the scalar
    definition: every entity scored against every utterance with
    `fuzzy_similarity`."""
    from kgdial.corpus import Dialogue, KnowledgeBase, tokenize
    from kgdial.entity_track import fuzzy_match_entities, fuzzy_similarity
    from kgdial.synth import MiniCorpusConfig, build_mini_corpus

    dialogues, kb, _ = build_mini_corpus(
        MiniCorpusConfig(n_dialogues=n_dialogues, seed=6))
    histories = [Dialogue(id=dialogues[last].id, turns=tuple(
        t for part in dialogues[last - window + 1:last + 1] for t in part.turns))
        for last in range(window - 1, len(dialogues))]

    def track(calls, empty_tables=False):
        """One pass from a fresh knowledge base: (its results, seconds)."""
        fresh = KnowledgeBase(kb.snippets)
        tables = fresh.name_index.fuzzy_windows
        results = []
        t0 = time.perf_counter()
        for d in calls:
            if empty_tables:
                tables.clear()
            results.append(fuzzy_match_entities(d, fresh, threshold))
        return results, time.perf_counter() - t0, fresh

    incremental, _, warm = track(histories)
    assert incremental == track(histories, empty_tables=True)[0]
    for d in dialogues:
        utterances = [tokenize(t.text) for t in d.turns]
        expected = [e for e in kb.entities
                    if max((fuzzy_similarity(e.name, u) for u in utterances),
                           default=0.0) >= threshold]
        assert fuzzy_match_entities(d, warm, threshold) == expected

    print(f"\nfuzzy-matching workload against {len(kb.entities)} entities at "
          f"threshold {threshold} (best of {repeat} passes, each from a fresh "
          f"knowledge base)")
    for name, calls, empty_tables in (
            ("cold", dialogues, False),
            (f"stitched x{window}, cold", histories, True),
            (f"stitched x{window}, incremental", histories, False)):
        elapsed = min(track(calls, empty_tables)[1] for _ in range(repeat))
        print(f"  {name:26} {len(calls):4d} dialogues {elapsed:.3f}s "
              f"({elapsed / max(len(calls), 1) * 1e3:.2f} ms per dialogue)")


def bench_checkpoint_io(n_vocab=288, d=24, repeat=20):
    """`save_checkpoint` and `load_checkpoint` of a point-wise ranker
    without the multi-task head, at the quick start's vocabulary size and
    encoder width by default; the load is checked against the tensors
    saved first."""
    from kgdial.models import TrainConfig, load_checkpoint, save_checkpoint
    from kgdial.rank import PointwiseConfig, PointwiseModel

    vocab = {f"w{i}": i for i in range(n_vocab)}
    model = PointwiseModel(vocab, ["hotel", "restaurant", "taxi"],
                           PointwiseConfig(train=TrainConfig(d=d)))
    tensors = model.all_params()
    meta = {"kind": "PointwiseModel", "vocab": vocab,
            "encoder": model.encoder.config(), "variant": model.config.variant.value}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pointwise.npz")
        save_checkpoint(path, tensors, meta)
        loaded, loaded_meta = load_checkpoint(path, "PointwiseModel")
        assert loaded_meta == dict(meta, version=loaded_meta["version"])
        assert sorted(loaded) == sorted(tensors)
        for name, value in tensors.items():
            assert loaded[name].dtype == value.dtype, name
            assert loaded[name].shape == value.shape, name
            assert loaded[name].tobytes() == value.tobytes(), name
        t_save = timeit(save_checkpoint, path, tensors, meta, repeat=repeat)
        t_load = timeit(load_checkpoint, path, repeat=repeat)
        size = os.path.getsize(path)
    print(f"\nrank checkpoint, {len(tensors)} tensors, vocabulary {n_vocab}, "
          f"d={d}, {size / 1024:.1f} KiB (best of {repeat})")
    print(f"  save  {t_save * 1e3:.3f} ms")
    print(f"  load  {t_load * 1e3:.3f} ms")


# (name, consecutive held-out dialogues per history): the pipeline
# benchmark's decode-short turns, and its decode-long turns, whose history
# is cut to max_len
READOUT_WORKLOADS = (("decode-short", 1), ("decode-long", 4))
# (label, fewest, most candidates) of the list sizes reported apart
SIZE_CLASSES = (("1", 1, 1), ("5", 5, 5), ("2-9", 2, 9), ("10-30", 10, 30),
                ("31-99", 31, 99), ("100+", 100, float("inf")))


def decode_lists(dialogues, kb, window, rng, threshold=0.5):
    """(history, right-side texts) of the lists decode scores for each
    knowledge-seeking dialogue (stitched with the ``window - 1`` before
    it): the detector's one empty right side; the point-wise list, the
    snippets of the entities `fuzzy_match_entities` tracks at ``threshold``
    (the README quick start's), or the whole knowledge base when it tracks
    none; and five of those drawn at random for the list-wise reranker
    (the trained ranker is near chance on held-out dialogues)."""
    from kgdial.corpus import Dialogue, linearize_history, linearize_knowledge
    from kgdial.entity_track import collect_candidates, fuzzy_match_entities

    out = []
    for last in range(window - 1, len(dialogues)):
        d = dialogues[last]
        if not d.label.is_knowledge_seeking:
            continue
        d = Dialogue(id=d.id, label=d.label, turns=tuple(
            t for part in dialogues[last - window + 1:last + 1] for t in part.turns))
        candidates = collect_candidates(fuzzy_match_entities(d, kb, threshold), kb)
        texts = [linearize_knowledge(s) for s in candidates or kb.snippets]
        five = sorted(rng.choice(len(texts), size=min(5, len(texts)), replace=False))
        history = linearize_history(d)
        out += [(history, [""]), (history, texts),
                (history, [texts[i] for i in five])]
    return out


def bench_pair_readouts(n_dialogues=40, d=24, max_len=128, repeat=5):
    """`ToyEncoder.pair_readouts` of one history against a candidate list
    against one `forward` + `pair_readout` per pair, replaying the lists
    decode scores (`decode_lists`) on held-out synth dialogues (seed 7 is
    the pipeline benchmark's held-out set at its seed 1), at the quick
    start's encoder width and max_len by default. Checked first: equal up
    to rounding, and each row the same bit for bit when its snippet is
    scored alone. Times are summed over the lists of a size class."""
    from kgdial.corpus import linearize_knowledge, tokenize
    from kgdial.models import ToyEncoder, pair_readout
    from kgdial.synth import MiniCorpusConfig, build_mini_corpus

    dialogues, kb, _ = build_mini_corpus(
        MiniCorpusConfig(n_dialogues=n_dialogues, seed=7))
    texts = [linearize_knowledge(s) for s in kb.snippets]
    texts += [t.text for dialogue in dialogues for t in dialogue.turns]
    vocab = {tok: i for i, tok in enumerate(sorted({t for x in texts
                                                     for t in tokenize(x)}))}
    encoder = ToyEncoder(vocab, d=d, max_len=max_len, seed=0)
    rng = np.random.default_rng(0)
    print(f"\nshared-history readouts on decode's candidate lists, d={d}, "
          f"max_len={max_len} (best of {repeat} per list, milliseconds summed "
          f"over the lists of a size)")
    for name, window in READOUT_WORKLOADS:
        totals = {label: [0, 0, 0.0, 0.0] for label, _, _ in SIZE_CLASSES}
        for text, right_texts in decode_lists(dialogues, kb, window, rng):
            history = encoder.vocab_ids(tokenize(text))
            rights = [encoder.vocab_ids(tokenize(t)) for t in right_texts]

            def per_pair():
                return np.array([pair_readout(encoder.forward(
                    *encoder.pair_ids(history, r)))[0] for r in rights])

            shared = encoder.pair_readouts(history, rights)
            expected = per_pair()
            assert np.abs(shared - expected).max() <= 1e-12 * np.abs(expected).max()
            for row, right in zip(shared, rights):
                assert encoder.pair_readouts(history, [right])[0].tobytes() == \
                    row.tobytes()
            label = next(label for label, lo, hi in SIZE_CLASSES
                         if lo <= len(rights) <= hi)
            total = totals[label]
            total[0] += 1
            total[1] += len({len(r) for r in rights})
            total[2] += timeit(encoder.pair_readouts, history, rights, repeat=repeat)
            total[3] += timeit(per_pair, repeat=repeat)
        print(f"  {name} ({window} dialogue{'s' * (window > 1)} per history)")
        for label, (lists, distinct, t_shared, t_loop) in totals.items():
            if lists:
                print(f"    {label:>5} candidates: {lists:3d} lists, "
                      f"{distinct / lists:.2f} snippet lengths per list, "
                      f"pair_readouts {t_shared * 1e3:8.3f}, per-pair passes "
                      f"{t_loop * 1e3:8.3f} ({t_loop / t_shared:.2f}x)")


def bench_train_batch(n_dialogues=50, d=24, max_len=128, batch_size=16, repeat=3):
    """One ``loss_and_grads`` call per minibatch (`train_model`'s path: the
    rows encoded in padded stacks) against one call per row (a stack of
    one each), for the point-wise and list-wise rankers at the shapes the
    pipeline benchmark's `train` workload trains (50 dialogues of synth seed
    6, its corpus at seed 1; the quick start's encoder width, max_len and
    batch size). The list-wise rows are each dialogue's positive and four
    negatives. Checked first: every minibatch's summed loss and gradients
    equal the per-row sums up to rounding (within 1e-12 of the largest
    entry). Times are summed over one epoch's minibatches."""
    from kgdial.models import TrainConfig
    from kgdial.rank import (ListwiseInstance, PointwiseConfig,
                             build_pointwise_instances, dialogue_features,
                             train_listwise, train_pointwise)
    from kgdial.synth import MiniCorpusConfig, build_mini_corpus

    dialogues, kb, _ = build_mini_corpus(
        MiniCorpusConfig(n_dialogues=n_dialogues, seed=6))
    seeking = [x for x in dialogues if x.label.is_knowledge_seeking]
    config = PointwiseConfig(train=TrainConfig(epochs=0, d=d, max_len=max_len, seed=5))
    pointwise = train_pointwise(seeking, kb, config)
    instances = build_pointwise_instances(seeking, kb, config,
                                          np.random.default_rng(5))
    lists = []
    for start in range(0, len(instances), 5):
        group = instances[start:start + 5]
        dialogue = group[0].dialogue
        lists.append(ListwiseInstance([inst.candidate for inst in group], 0,
                                      dialogue_features(dialogue, kb, kb.entities)))
    # the list-wise model starts from the untrained point-wise one
    listwise = train_listwise(lists, pointwise, TrainConfig(epochs=0))
    rng = np.random.default_rng(0)
    print(f"\ntraining minibatches at the train workload's shapes, d={d}, "
          f"max_len={max_len}, batch size {batch_size} (best of {repeat}, "
          f"milliseconds per epoch)")
    for name, model, examples in (("point-wise", pointwise, instances),
                                  ("list-wise", listwise, lists)):
        for value in model.all_params().values():  # trained-looking weights
            value[...] = rng.normal(0.0, 0.3, size=value.shape)
        rows = [model.compile(e) for e in examples]
        order = rng.permutation(len(rows))
        batches = [[rows[int(i)] for i in order[start:start + batch_size]]
                   for start in range(0, len(rows), batch_size)]

        def per_row(batch):
            results = [model.loss_and_grads([row]) for row in batch]
            grads = {k: sum(g[k] for _, g in results) for k in results[0][1]}
            return sum(loss for loss, _ in results), grads

        for batch in batches:
            loss, grads = model.loss_and_grads(batch)
            ref_loss, ref_grads = per_row(batch)
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            largest = max(np.abs(g).max() for g in ref_grads.values())
            for key, ref in ref_grads.items():
                assert np.abs(grads[key] - ref).max() <= 1e-12 * largest, key
        t_batch = timeit(lambda: [model.loss_and_grads(b) for b in batches],
                         repeat=repeat)
        t_rows = timeit(lambda: [per_row(b) for b in batches], repeat=repeat)
        print(f"  {name:10} {len(rows):4d} rows: one call per minibatch "
              f"{t_batch * 1e3:8.2f}, one per row {t_rows * 1e3:8.2f} "
              f"({t_rows / t_batch:.2f}x)")


def per_tensor_adamw_step(params, state, grads, batch_size, lr, weight_decay):
    """Gradient division and AdamW step one tensor at a time, as training
    first ran them; ``state`` holds the step count and the moments."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    for g in grads.values():
        g /= batch_size
    state["t"] += 1
    t = state["t"]
    for key, p in params.items():
        g = grads[key]
        state["m"][key] = b1 * state["m"][key] + (1 - b1) * g
        state["v"][key] = b2 * state["v"][key] + (1 - b2) * g * g
        mhat = state["m"][key] / (1 - b1 ** t)
        vhat = state["v"][key] / (1 - b2 ** t)
        p -= lr * (mhat / (np.sqrt(vhat) + eps) + weight_decay * p)


def per_row_generator_loss(model, rows):
    """`ToyGenerator.loss_and_grads` as first written: one step, one set of
    products and two ``np.add.at`` scatters per row."""
    p = model.params
    grads = {k: np.zeros(v.shape) for k, v in p.items()}
    loss = 0.0
    for row in rows:
        c = model.context_vector(row.context_ids)
        n = len(row.target)
        positions = np.arange(n)
        step = model._step_forward(row.prev_ids, positions, c)
        logp, h = step["logp"], step["h"]
        loss += float(-logp[positions, row.target].sum() / n)
        dlogits = np.exp(logp) / n
        dlogits[positions, row.target] -= 1.0 / n
        grads["out"] += h.T @ dlogits
        grads["bo"] += dlogits.sum(axis=0)
        dpre = (dlogits @ p["out"].T) * (1.0 - h * h)
        dpre_sum = dpre.sum(axis=0)
        grads["wp"] += step["x"].T @ dpre
        grads["wc"] += np.outer(c, dpre_sum)
        grads["pos"][:n] += dpre
        grads["bh"] += dpre_sum
        np.add.at(grads["emb"], row.prev_ids, dpre @ p["wp"].T)
        if row.context_ids.size:
            np.add.at(grads["emb"], row.context_ids,
                      (dpre_sum @ p["wc"].T) / row.context_ids.size)
    return loss, grads


def bench_epoch_tail(n_dialogues=50, d=24, batch_size=16, gen_batch_size=32,
                     max_history_tokens=512, steps=20, repeat=3):
    """The per-epoch training work beside the encoder at the shapes of the
    pipeline benchmark's `train` workload (50 dialogues of synth seed 6, its
    corpus at seed 1; the quick start's encoder width and batch sizes), the
    path training first took against the one it takes now where both exist:

    * ENA rebuild: the inputs of each point-wise row that entity-name
      augmentation (at probability 1) rewrites, composed from its turns'
      inputs with only the rewritten turns built afresh
      (`PointwiseModel._rewritten_inputs`; tests/test_rank.py checks them
      against the row compiled from the rewritten dialogue);
    * AdamW: the gradient division and the update one tensor at a time
      against one fused pass over the point-wise ranker's tensors laid out
      as one vector; checked bit for bit over ``steps`` steps;
    * generator loss: one row at a time (`per_row_generator_loss`) against
      one ``loss_and_grads`` call per minibatch; checked within 1e-12 of
      the largest gradient entry.

    Times are summed over one epoch's rows or minibatches (AdamW: over
    ``steps`` steps)."""
    from kgdial.augment import AugmentConfig, augment_entity_name
    from kgdial.corpus import TOP_K
    from kgdial.generate import GenTrainConfig, build_gen_examples, train_generator
    from kgdial.models import AdamW, TrainConfig, packed
    from kgdial.rank import PointwiseConfig, build_pointwise_instances, train_pointwise
    from kgdial.synth import MiniCorpusConfig, build_mini_corpus

    dialogues, kb, _ = build_mini_corpus(
        MiniCorpusConfig(n_dialogues=n_dialogues, seed=6))
    seeking = [x for x in dialogues if x.label.is_knowledge_seeking]
    ena = AugmentConfig(ena_probability=1.0)
    config = PointwiseConfig(ena=ena, train=TrainConfig(epochs=0, d=d, seed=5))
    model = train_pointwise(seeking, kb, config)
    rows = [model.compile(inst) for inst in build_pointwise_instances(
        seeking, kb, config, np.random.default_rng(5))]
    rng = np.random.default_rng(0)
    rewrites = []
    for row in rows:
        inst = row.instance
        out = augment_entity_name(inst.dialogue, inst.candidate, bool(inst.label),
                                  ena, rng)
        if out is not inst.dialogue:
            rewrites.append((row, out))

    t_composed = timeit(lambda: [model._rewritten_inputs(row, dialogue)
                                 for row, dialogue in rewrites], repeat=repeat)

    lr, weight_decay = 0.01, 0.01
    tensors = {k: rng.normal(0.0, 0.3, size=v.shape)
               for k, v in model.all_params().items()}
    grads = [{k: rng.normal(0.0, 1.0, size=v.shape) for k, v in tensors.items()}
             for _ in range(steps)]

    def per_tensor():
        params = {k: v.copy() for k, v in tensors.items()}
        state = {"t": 0, "m": {k: np.zeros_like(v) for k, v in params.items()},
                 "v": {k: np.zeros_like(v) for k, v in params.items()}}
        for step in grads:
            per_tensor_adamw_step(params, state, {k: g.copy() for k, g in step.items()},
                                  batch_size, lr, weight_decay)
        return params

    def fused():
        data, views = packed(tensors)
        opt = AdamW(data, lr=lr, weight_decay=weight_decay)
        for step in grads:
            flat = np.concatenate([step[k].ravel() for k in sorted(step)])
            flat /= batch_size
            opt.step(flat)
        return views

    expected = per_tensor()
    for key, value in fused().items():
        assert value.tobytes() == expected[key].tobytes(), key
    # the copies of the gradients the per-tensor path divides in place
    t_copies = timeit(lambda: [{k: g.copy() for k, g in s.items()} for s in grads],
                      repeat=repeat)
    t_per_tensor = timeit(per_tensor, repeat=repeat) - t_copies
    t_fused = timeit(fused, repeat=repeat)

    gen_config = GenTrainConfig(max_history_tokens=max_history_tokens,
                                train=TrainConfig(epochs=0, d=d, seed=5))
    examples = build_gen_examples(seeking, {
        x.id: [kb.get(*x.label.knowledge_refs[0])] + list(kb.snippets[:TOP_K - 1])
        for x in seeking}, gen_config, np.random.default_rng(5))
    generator, _ = train_generator(examples, gen_config)
    for value in generator.params.values():  # trained-looking weights
        value[...] = rng.normal(0.0, 0.3, size=value.shape)
    gen_rows = [generator.compile(e) for e in examples]
    batches = [gen_rows[start:start + gen_batch_size]
               for start in range(0, len(gen_rows), gen_batch_size)]
    for batch in batches:
        loss, got = generator.loss_and_grads(batch)
        ref_loss, ref = per_row_generator_loss(generator, batch)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        largest = max(np.abs(g).max() for g in ref.values())
        for key, value in ref.items():
            assert np.abs(got[key] - value).max() <= 1e-12 * largest, key
    t_rows = timeit(lambda: [per_row_generator_loss(generator, b) for b in batches],
                    repeat=repeat)
    t_batch = timeit(lambda: [generator.loss_and_grads(b) for b in batches],
                     repeat=repeat)

    print(f"\nper-epoch training work beside the encoder, train workload shapes, "
          f"d={d} (best of {repeat}, milliseconds)")
    print(f"  {'ENA rebuild':15} {f'{len(rewrites)} rewritten rows':30} "
          f"now {t_composed * 1e3:8.2f}")
    for name, count, old, new in (
            ("AdamW", f"{steps} steps, {sum(v.size for v in tensors.values())} values",
             t_per_tensor, t_fused),
            ("generator loss", f"{len(gen_rows)} rows, {len(batches)} minibatches",
             t_rows, t_batch)):
        print(f"  {name:15} {count:30} first path {old * 1e3:8.2f}, now "
              f"{new * 1e3:8.2f} ({old / new:.2f}x)")


def main():
    rng = np.random.default_rng(0)
    bench_pairwise(rng)
    bench_batched_levenshtein(rng)
    bench_fuzzy_workload()
    bench_checkpoint_io()
    bench_pair_readouts()
    bench_train_batch()
    bench_epoch_tail()


if __name__ == "__main__":
    main()
