import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdial.corpus import (
    TAG_ANS, TAG_RESP, Dialogue, KnowledgeSnippet, Speaker, Turn,
    TurnLabel, count_tokens, tokenize,
)
from kgdial.generate import (
    EOS, GenerateError, GenExample, GenTrainConfig, ToyGenerator,
    build_gen_examples, decode_nbest, mine_frequent_interrogatives,
    preprocess_responses, strip_trailing_interrogatives, train_generator,
)
from kgdial.models import TrainConfig
from test_models import assert_close_loss, summed_losses

BOOK_Q = "Would you like to book a room?"


def snip(doc_id="0", name="Hamilton Lodge", answer=None):
    return KnowledgeSnippet(domain="hotel", entity_id="1", entity_name=name,
                            question=f"q{doc_id}?", answer=answer or f"a{doc_id}",
                            doc_id=doc_id)


def ks_dialogue(id="d0", response="Room A allows pets.", refs=(("hotel", "1", "0"),)):
    label = TurnLabel(is_knowledge_seeking=True, knowledge_refs=tuple(refs),
                      response=response)
    return Dialogue(id=id, turns=(
        Turn(Speaker.USER, "hello there"),
        Turn(Speaker.SYSTEM, "how can i help"),
        Turn(Speaker.USER, "can i bring my dog?"),
    ), label=label)


class TestInterrogativeMining:
    def test_frequent_trailing_question_included(self):
        responses = [f"Answer {i}. {BOOK_Q}" for i in range(30)]
        responses += [f"Other text {i}." for i in range(10)]
        got = mine_frequent_interrogatives(responses, min_count=20)
        assert got == [BOOK_Q.lower()]

    def test_unique_question_excluded(self):
        responses = ["Info. " + BOOK_Q] + ["Plain answer."] * 30
        assert mine_frequent_interrogatives(responses, min_count=2) == []

    def test_declarative_tail_never_included(self):
        responses = ["It is nice. You should go there."] * 50
        assert mine_frequent_interrogatives(responses, min_count=2) == []

    def test_non_trailing_question_not_counted(self):
        responses = [f"{BOOK_Q} It allows pets."] * 50
        assert mine_frequent_interrogatives(responses, min_count=2) == []


class TestPreprocessResponses:
    def test_trailing_interrogative_removed(self):
        got = strip_trailing_interrogatives(
            f"Room A allows pets. {BOOK_Q}", [BOOK_Q.lower()])
        assert got == "Room A allows pets."

    def test_unlisted_response_unchanged(self):
        text = "Room A allows pets. Anything else?"
        assert strip_trailing_interrogatives(text, [BOOK_Q.lower()]) == text

    def test_never_empties_response(self):
        assert strip_trailing_interrogatives(BOOK_Q, [BOOK_Q.lower()]) == BOOK_Q

    def test_idempotent(self):
        text = f"Sure. {BOOK_Q} {BOOK_Q}"
        once = strip_trailing_interrogatives(text, [BOOK_Q.lower()])
        twice = strip_trailing_interrogatives(once, [BOOK_Q.lower()])
        assert once == twice == "Sure."

    def test_corpus_level(self):
        corpus = [ks_dialogue(response=f"Fine. {BOOK_Q}")]
        out = preprocess_responses(corpus, [BOOK_Q.lower()])
        assert out[0].label.response == "Fine."


def keeps_gold(example):
    """Whether the example's context holds the gold snippet, ``snip("0")``."""
    return f"{TAG_ANS} {snip('0').answer} " in example.context


class TestBuildGenExamples:
    def outputs(self, d, with_gold=True):
        lst = [snip("0"), snip("1"), snip("2")]
        if not with_gold:
            lst = lst[1:]
        return {d.id: lst}

    def test_ps_zero_contexts_verbatim(self):
        d = ks_dialogue()
        cfg = GenTrainConfig(p_s=0.0)
        ex = build_gen_examples([d], self.outputs(d), cfg, np.random.default_rng(0))
        assert len(ex) == 1
        text = ex[0].context
        for tag in ("⟨kng_3⟩", "⟨kng_2⟩", "⟨kng_1⟩"):
            assert tag in text
        assert keeps_gold(ex[0])

    def test_best_snippet_adjacent_to_user_block(self):
        d = ks_dialogue()
        cfg = GenTrainConfig(p_s=0.0)
        ex = build_gen_examples([d], self.outputs(d), cfg, np.random.default_rng(0))
        text = ex[0].context
        assert text.index("⟨kng_3⟩") < text.index("⟨kng_1⟩")
        after_k1 = text.split("⟨kng_1⟩", 1)[1]
        assert "⟨user⟩" in after_k1
        assert "⟨kng_" not in after_k1

    def test_one_user_block_after_knowledge(self):
        d = ks_dialogue()
        cfg = GenTrainConfig(p_s=0.0)
        ex = build_gen_examples([d], self.outputs(d), cfg, np.random.default_rng(0))
        tail = ex[0].context.split("⟨kng_1⟩", 1)[1]
        assert tail.count("⟨user⟩") == 1

    def test_substitution_rate_statistics(self):
        cfg = GenTrainConfig(p_s=0.15)
        rng = np.random.default_rng(123)
        dialogues = [ks_dialogue(id=f"d{i}") for i in range(1000)]
        outputs = {d.id: [snip("0"), snip("1"), snip("2")] for d in dialogues}
        ex = build_gen_examples(dialogues, outputs, cfg, rng)
        rate = sum(not keeps_gold(e) for e in ex) / len(ex)
        assert 0.12 <= rate <= 0.18
        # a drop removes the gold snippet only
        assert all(f"{TAG_ANS} {s.answer} " in e.context
                   for e in ex for s in (snip("1"), snip("2")))

    def test_missing_selection_output_names_turn(self):
        d = ks_dialogue(id="d77")
        with pytest.raises(GenerateError, match="d77"):
            build_gen_examples([d], {}, GenTrainConfig(), np.random.default_rng(0))

    def test_context_token_budget(self):
        d = ks_dialogue()
        cfg = GenTrainConfig(p_s=0.0, max_history_tokens=18)
        ex = build_gen_examples([d], self.outputs(d), cfg, np.random.default_rng(0))
        assert count_tokens(ex[0].context) <= 18


def gen_config(**train):
    """A generator config with 16-token outputs; ``train`` sets its
    `TrainConfig` fields, with batch size 32 and width 32 unless given."""
    return GenTrainConfig(max_target_tokens=16,
                          train=TrainConfig(**{"batch_size": 32, "d": 32, **train}))


def overfit_examples(n=50):
    words = [f"w{i}" for i in range(n)]
    out = []
    for i in range(n):
        ctx = f"⟨user⟩ tell me about {words[i]} place"
        target = f"⟨resp⟩ the {words[i]} place is number {words[(i * 7) % n]}"
        out.append(GenExample(context=ctx, target=target))
    return out


class TestGenerator:
    def test_overfit_reproduces_training_responses(self):
        examples = overfit_examples(50)
        cfg = gen_config(epochs=250, batch_size=50, learning_rate=0.02,
                         weight_decay=0.0, d=48, seed=0)
        model, history = train_generator(examples, cfg)
        hits = 0
        for e in examples:
            decoded = model.generate_nbest(e.context, 1)[0][0]
            expected = " ".join(e.target.split()[1:]).lower()
            if decoded == expected:
                hits += 1
        assert hits >= 0.8 * len(examples)
        assert history[-1] < history[0]

    def test_loss_nonincreasing_full_batch(self):
        examples = overfit_examples(20)
        cfg = gen_config(epochs=40, batch_size=20, learning_rate=0.005,
                         weight_decay=0.0, d=32, seed=1)
        _, history = train_generator(examples, cfg)
        assert all(history[i + 1] <= history[i] + 1e-9
                   for i in range(len(history) - 1))

    def test_zero_lr_keeps_parameters(self):
        examples = overfit_examples(5)
        cfg = gen_config(epochs=3, learning_rate=0.0, seed=2)
        model, _ = train_generator(examples, cfg)
        fresh = ToyGenerator(model.vocab, d=cfg.train.d,
                             max_target_tokens=cfg.max_target_tokens, seed=2)
        for key, val in model.params.items():
            assert np.array_equal(val, fresh.params[key])

    def test_seed_determinism(self):
        examples = overfit_examples(10)
        cfg = gen_config(epochs=5, learning_rate=0.01, seed=3)
        a, _ = train_generator(examples, cfg)
        b, _ = train_generator(examples, cfg)
        for key, val in a.params.items():
            assert np.array_equal(val, b.params[key])

    def test_empty_examples_rejected(self):
        with pytest.raises(GenerateError):
            train_generator([], GenTrainConfig())

    def test_loss_equals_reference_step_by_step(self, trained):
        model, examples = trained
        for e in examples + overfit_examples(4):
            assert_close_loss(model.loss_and_grads([model.compile(e)]),
                              reference_loss_and_grads(model, e))

    def test_batch_loss_is_the_sum_over_its_rows(self, trained):
        model, examples = trained
        batch = examples + overfit_examples(4)
        assert_close_loss(model.loss_and_grads([model.compile(e) for e in batch]),
                          summed_losses(reference_loss_and_grads(model, e)
                                        for e in batch))

    @settings(max_examples=80, deadline=None)
    @given(V=st.integers(3, 40), d=st.integers(1, 40), max_target=st.integers(1, 96),
           n_words=st.integers(0, 120), ctx_words=st.integers(0, 30),
           scale=st.sampled_from([0.1, 1.0, 30.0]), seed=st.integers(0, 2 ** 16))
    def test_loss_equals_reference_on_random_generators(
            self, V, d, max_target, n_words, ctx_words, scale, seed):
        rng = np.random.default_rng(seed)
        vocab = {f"w{i}": i for i in range(V - 1)}
        model = ToyGenerator(vocab, d=d, max_target_tokens=max_target, seed=seed)
        for key, value in model.params.items():
            value[...] = rng.normal(0.0, scale, size=value.shape)
        words = [f"w{i}" for i in rng.integers(0, V + 3, size=n_words)]
        ctx = [f"w{i}" for i in rng.integers(0, V + 3, size=ctx_words)]
        e = GenExample(context=" ".join(ctx),
                       target=" ".join([TAG_RESP] + words))
        assert_close_loss(model.loss_and_grads([model.compile(e)]),
                          reference_loss_and_grads(model, e))

    @settings(max_examples=60, deadline=None)
    @given(V=st.integers(3, 40), d=st.integers(1, 24), max_target=st.integers(1, 40),
           rows=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 20)),
                         min_size=1, max_size=6),
           block=st.sampled_from([1, 50, 400, 1 << 15]),
           scale=st.sampled_from([0.1, 1.0, 30.0]), seed=st.integers(0, 2 ** 16))
    def test_minibatch_equals_per_row_reference(self, V, d, max_target, rows, block,
                                                scale, seed):
        """One call on a minibatch, cut into stacks of any size, equals the
        per-row reference summed over the rows, within 1e-12."""
        import kgdial.generate as generate

        rng = np.random.default_rng(seed)
        vocab = {f"w{i}": i for i in range(V - 1)}
        model = ToyGenerator(vocab, d=d, max_target_tokens=max_target, seed=seed)
        for key, value in model.params.items():
            value[...] = rng.normal(0.0, scale, size=value.shape)
        examples = [GenExample(
            context=" ".join(f"w{j}" for j in rng.integers(0, V + 3, size=n_ctx)),
            target=" ".join([TAG_RESP] + [f"w{j}" for j in rng.integers(0, V + 3,
                                                                          size=n_words)]))
            for n_words, n_ctx in rows]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generate, "_STACK_BLOCK", block)
            got = model.loss_and_grads([model.compile(e) for e in examples])
        assert_close_loss(got, summed_losses(reference_loss_and_grads(model, e)
                                             for e in examples))

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_training_tokenizes_each_example_once(self, monkeypatch, epochs):
        import kgdial.generate as generate

        examples = overfit_examples(4)
        calls = []
        real = generate.tokenize
        monkeypatch.setattr(generate, "tokenize",
                            lambda text: calls.append(text) or real(text))
        train_generator(examples, gen_config(epochs=epochs, seed=1))
        # two streams per example for the vocabulary, two for its row
        assert len(calls) == 4 * len(examples)

    def test_generator_gradients(self):
        from kgdial.models import finite_difference_check

        examples = overfit_examples(3)
        cfg = gen_config(epochs=1, learning_rate=0.01, seed=4)
        model, _ = train_generator(examples, cfg)
        err = finite_difference_check(model, examples, epsilon=1e-5)
        assert err < 1e-4


@pytest.fixture(scope="module")
def trained():
    examples = overfit_examples(12)
    cfg = gen_config(epochs=30, batch_size=12, learning_rate=0.02,
                     weight_decay=0.0, d=32, seed=5)
    model, _ = train_generator(examples, cfg)
    return model, examples


def reference_context(model, text):
    """Context token ids and their mean embedding (zeros when empty)."""
    ids = np.asarray([model.vocab.get(t, 0) for t in tokenize(text)],
                     dtype=np.int64)
    c = model.params["emb"][ids].mean(axis=0) if ids.size else np.zeros(model.d)
    return ids, c


def reference_step(model, prev, pos, c):
    """One position of one hypothesis: (input embedding, hidden state,
    log-probabilities)."""
    p = model.params
    x = p["emb"][prev]
    h = np.tanh(x @ p["wp"] + c @ p["wc"] + p["pos"][pos] + p["bh"])
    logits = h @ p["out"] + p["bo"]
    shifted = logits - logits.max()
    return x, h, shifted - math.log(np.exp(shifted).sum())


def reference_loss_and_grads(model, example):
    """Teacher-forced cross entropy stepped one position at a time."""
    p = model.params
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    ctx_ids, c = reference_context(model, example.context)
    target = model._target_ids(example.target)
    loss, dc, n = 0.0, np.zeros(model.d), len(target)
    prev = model.vocab.get(TAG_RESP, 0)
    for pos, tok in enumerate(target):
        x, h, logp = reference_step(model, prev, pos, c)
        loss += -float(logp[tok]) / n
        dlogits = np.exp(logp) / n
        dlogits[tok] -= 1.0 / n
        grads["out"] += np.outer(h, dlogits)
        grads["bo"] += dlogits
        dpre = (p["out"] @ dlogits) * (1.0 - h * h)
        grads["wp"] += np.outer(x, dpre)
        grads["wc"] += np.outer(c, dpre)
        grads["pos"][pos] += dpre
        grads["bh"] += dpre
        grads["emb"][prev] += p["wp"] @ dpre
        dc += p["wc"] @ dpre
        prev = int(tok)
    if ctx_ids.size:
        np.add.at(grads["emb"], ctx_ids, dc / ctx_ids.size)
    return loss, grads


def reference_nbest(model, context, n):
    """The n-best beam search written out plainly: every live beam of the
    2n-wide beam is stepped on its own at every position, each step's
    tokens are sorted in full (ties to the lower id), and the search runs
    until every kept beam has emitted EOS or the positions run out."""
    width = 2 * n
    _, c = reference_context(model, context)
    bos = model.vocab.get(TAG_RESP, 0)
    eos_id = model.vocab[EOS]
    beams = [(0.0, [], False)]
    for pos in range(model.max_target_tokens):
        nxt = []
        for logprob, tokens, done in beams:
            if done:
                nxt.append((logprob, tokens, True))
                continue
            _, _, logp = reference_step(model, tokens[-1] if tokens else bos,
                                        pos, c)
            for tok in np.argsort(-logp, kind="stable")[:width]:
                tok = int(tok)
                nxt.append((logprob + float(logp[tok]), tokens + [tok],
                            tok == eos_id))
        nxt.sort(key=lambda b: (-b[0], b[1]))
        beams = nxt[:width]
        if all(done for _, _, done in beams):
            break
    best = {}
    for logprob, tokens, _ in beams:
        text = " ".join(model.inv_vocab[t] for t in tokens if t != eos_id)
        if text not in best or logprob > best[text]:
            best[text] = logprob
    return sorted(best.items(), key=lambda t: (-t[1], t[0]))[:n]


@st.composite
def beam_cases(draw):
    """A small random generator, a context and n."""
    V = draw(st.integers(3, 30))  # vocabulary size, EOS included
    words = [f"w{i}" for i in range(V - 1)]
    if V > 3 and draw(st.booleans()):
        # a word that reads as none or two others: distinct token
        # sequences, one text
        words[-1] = draw(st.sampled_from(["", " ".join(words[:2])]))
    model = ToyGenerator({w: i for i, w in enumerate(words)}, d=8,
                         max_target_tokens=draw(st.integers(1, 10)),
                         seed=draw(st.integers(0, 2 ** 16)))
    logits = draw(st.sampled_from(["random", "peaked", "biased", "tied",
                                   "near_tied"]))
    if logits == "peaked":
        model.params["out"] *= 6.0
    elif logits == "biased":
        # a few tokens, EOS among them, win at every position
        model.params["bo"][...] = draw(st.lists(
            st.floats(-6.0, 6.0), min_size=V, max_size=V))
    elif logits == "tied":
        # every logit ties: the lower-id rule picks every token
        model.params["out"][...] = 0.0
    elif logits == "near_tied":
        # logits a few ulps apart, rising with the id: adding a beam's
        # log-probability can round two of them to one sum
        model.params["out"][...] = 0.0
        model.params["bo"][...] = draw(st.sampled_from(
            [1e-16, 1e-15, 1e-14])) * np.arange(V)
    context = draw(st.one_of(
        st.just(""),
        st.just("unknown words only"),
        st.lists(st.sampled_from(words), min_size=1, max_size=6).map(" ".join)))
    return model, context, draw(st.integers(1, 6))


def flat_generator(V, max_target_tokens, step=0.0):
    """Logits that ignore context and prefix: token i scores step * i."""
    model = ToyGenerator({f"w{i}": i for i in range(V - 1)}, d=8,
                         max_target_tokens=max_target_tokens, seed=0)
    model.params["out"][...] = 0.0
    model.params["bo"][...] = step * np.arange(V)
    return model


def one_text_two_sequences():
    """EOS and the empty word win every position, so [EOS] and
    [empty word, EOS] finish first and read as one text."""
    model = ToyGenerator({"": 0, "w1": 1}, d=8, max_target_tokens=6, seed=0)
    model.params["out"][...] = 0.0
    model.params["bo"][...] = [2.0, -6.0, 3.0]
    return model, "", 2


def greedy_decode(model, context):
    """The most probable token at every position (ties to the lower id),
    one `_step_forward` at a time, until EOS or the positions run out."""
    cw = model._context_term(model.context_vector(model._ids(tokenize(context))))
    prev, eos_id, tokens = model.vocab.get(TAG_RESP, 0), model.vocab[EOS], []
    for pos in range(model.max_target_tokens):
        prev = int(np.argmax(model._step_forward(np.asarray([prev]), pos, cw)["logp"][0]))
        tokens.append(prev)
        if prev == eos_id:
            break
    return " ".join(model.inv_vocab[t] for t in tokens if t != eos_id)


class TestDecodeNBest:

    @settings(max_examples=250, deadline=None)
    @given(beam_cases())
    # finished beams tie the live ones
    @example((flat_generator(3, 4), "", 5))
    # more tied tokens than the width: the lower ids go on
    @example((flat_generator(5, 3), "", 2))
    # two different log-probabilities added to one beam's score round to
    # one sum
    @example((flat_generator(3, 2, 1e-16), "", 1))
    @example(one_text_two_sequences())
    def test_equals_reference_beam(self, case):
        model, context, n = case
        assert (model.generate_nbest(context, n)
                == reference_nbest(model, context, n))

    def test_trained_equals_reference_beam(self, trained):
        model, examples = trained
        for e in examples:
            for n in (1, 3, 5):
                assert (model.generate_nbest(e.context, n)
                        == reference_nbest(model, e.context, n))

    def test_stops_before_last_position(self, trained, monkeypatch):
        model, examples = trained
        steps = []
        step = ToyGenerator._step_forward

        def counted(self, *args):
            steps.append(1)
            return step(self, *args)

        monkeypatch.setattr(ToyGenerator, "_step_forward", counted)
        for e in examples:
            steps.clear()
            decode_nbest(model, e.context, 4)
            assert 0 < len(steps) < model.max_target_tokens

    def test_n1_is_greedy(self, trained):
        model, examples = trained
        for e in examples:
            ctx = e.context
            assert decode_nbest(model, ctx, 1)[0][0] == greedy_decode(model, ctx)

    def test_sorted_dedup_finite(self, trained):
        model, examples = trained
        for e in examples[:5]:
            out = decode_nbest(model, e.context, 4)
            texts = [t for t, _ in out]
            logps = [lp for _, lp in out]
            assert len(set(texts)) == len(texts)
            assert logps == sorted(logps, reverse=True)
            assert all(math.isfinite(lp) and lp <= 0 for lp in logps)
