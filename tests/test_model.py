"""Model contracts: masked next-token distributions, chain-rule marginals,
and n-gram training."""

import numpy as np
import pytest

from conftest import make_instance

from lvr import (
    Alphabet,
    GreedyTokenizer,
    ModelError,
    TableModel,
    Vocabulary,
    train_ngram,
)


class TestNextTokenDist:
    def test_root_table(self, binary):
        dist = binary.model.next_token_dist(())
        np.testing.assert_allclose(dist, [0.1, 0.1, 0.5, 0.3], atol=1e-12)

    def test_conditional_table(self, binary):
        dist = binary.model.next_token_dist((2,))
        np.testing.assert_allclose(dist, [0.6, 0.0, 0.3, 0.1], atol=1e-12)

    def test_uniform_default_masks_to_valid(self, binary):
        # prefix (0,): only the token "1" continues validly
        dist = binary.model.next_token_dist((0,))
        np.testing.assert_allclose(dist, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_invalid_prefix_rejected(self, binary):
        with pytest.raises(ModelError):
            binary.model.next_token_dist((2, 1))

    def test_prefix_after_terminator_rejected(self):
        rng = np.random.default_rng(0)
        inst = make_instance(rng, with_eos=True)
        eos = inst.tokenizer.vocab.eos_id
        with pytest.raises(ModelError):
            inst.model.next_token_dist((eos,))

    def test_missing_entry_without_default(self, binary):
        model = TableModel(binary.tokenizer, {(): np.full(4, 0.25)}, default=None)
        with pytest.raises(ModelError):
            model.next_token_dist((0,))


class TestMarginal:
    def test_two_token_path(self, binary):
        assert abs(binary.model.marginal((2, 0)) - 0.30) < 1e-12

    def test_empty_prefix(self, binary):
        assert binary.model.marginal(()) == 1.0

    def test_rarer_path(self, binary):
        assert abs(binary.model.marginal((2, 3)) - 0.05) < 1e-12

    def test_invalid_path_is_zero(self, binary):
        assert binary.model.marginal((2, 1)) == 0.0

    def test_chain_rule_and_monotonicity(self):
        rng = np.random.default_rng(7)
        inst = make_instance(rng, n_symbols=2)
        seq = inst.tokenizer.encode(b"ab")
        for t in range(1, len(seq) + 1):
            head, full = seq[: t - 1], seq[:t]
            cond = inst.model.next_token_dist(head)[seq[t - 1]]
            assert inst.model.marginal(full) == inst.model.marginal(head) * cond
            assert inst.model.marginal(full) <= inst.model.marginal(head)


class TestDistributionInvariants:
    def test_normalized_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            inst = make_instance(rng, n_symbols=int(rng.integers(2, 4)))
            for prefix in [(), inst.tokenizer.encode(b"a"), inst.tokenizer.encode(b"ab")]:
                dist = inst.model.next_token_dist(prefix)
                assert np.all(dist >= 0)
                assert abs(dist.sum() - 1.0) < 1e-9

    def test_invalid_continuations_have_zero_probability(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            inst = make_instance(rng, n_symbols=2)
            for text in [b"", b"a", b"ab", b"ba"]:
                prefix = inst.tokenizer.encode(text)
                dist = inst.model.next_token_dist(prefix)
                for tid in range(len(inst.tokenizer.vocab)):
                    if not inst.tokenizer.is_valid(prefix + (tid,)):
                        assert dist[tid] == 0.0


class TestTableValidation:
    def test_negative_probability_rejected(self, binary):
        with pytest.raises(ModelError):
            TableModel(binary.tokenizer, {(): np.array([1.2, -0.2, 0.0, 0.0])})

    def test_unnormalized_entry_rejected(self, binary):
        with pytest.raises(ModelError):
            TableModel(binary.tokenizer, {(): np.array([0.3, 0.3, 0.3, 0.3])})

    def test_renormalize_optout_keeps_literal_rows(self, binary):
        model = TableModel(
            binary.tokenizer,
            {(): np.array([0.1, 0.1, 0.5, 0.3])},
            renormalize=False,
        )
        dist = model.next_token_dist(())
        assert list(dist) == [0.1, 0.1, 0.5, 0.3]


def _letters_tokenizer(chars: str) -> GreedyTokenizer:
    alphabet = Alphabet.of(chars, eos="$")
    singles = [bytes([s]) for s in sorted(alphabet.symbols)]
    return GreedyTokenizer(Vocabulary(singles, alphabet))


class TestNgram:
    def test_bigram_prefers_observed_transition(self):
        tok = _letters_tokenizer("ab")
        model = train_ngram([b"ab", b"ab"], tok, order=1, alpha=0.5)
        a = tok.vocab.id_of(b"a")
        b = tok.vocab.id_of(b"b")
        dist = model.next_token_dist((a,))
        assert dist[b] > dist[a]

    def test_heavy_smoothing_is_near_uniform(self):
        tok = _letters_tokenizer("ab")
        model = train_ngram([b"ab"], tok, order=1, alpha=1e9)
        dist = model.next_token_dist(())
        valid = dist[dist > 0]
        assert np.allclose(valid, valid[0], rtol=1e-6)

    def test_single_document_prefers_terminator(self):
        tok = _letters_tokenizer("ab")
        model = train_ngram([b"a"], tok, order=1, alpha=0.5)
        a = tok.vocab.id_of(b"a")
        dist = model.next_token_dist((a,))
        assert int(np.argmax(dist)) == tok.vocab.eos_id

    def test_empty_corpus_rejected(self):
        tok = _letters_tokenizer("ab")
        with pytest.raises(ModelError):
            train_ngram([], tok, order=1, alpha=0.5)

    def test_requires_terminator(self, binary):
        with pytest.raises(ModelError):
            train_ngram([b"01"], binary.tokenizer, order=1, alpha=0.5)
