"""Reduction engine: relative covers, marginal recursion, top-K truncation,
stepping, generation, and the naive-restriction baseline."""

import numpy as np
import pytest

from bruteforce import brute_relative_cover
from conftest import make_instance

from lvr import (
    GreedyTokenizer,
    NestedTokenizer,
    ReductionError,
    ReductionSession,
    SubTokenDistribution,
    TableModel,
    Vocabulary,
    byte_vocabulary,
    decode,
    naive_restriction_dist,
)
from lvr.oracle import original_prefix_prob_table


class TestSessionSetup:
    def test_seeded_with_empty_cover(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        assert session.prefix == ()
        assert session.cover_cache[()].sequences() == {()}
        assert session.prob_cache[()] == 1.0

    def test_zero_topk_rejected(self, binary):
        with pytest.raises(ReductionError):
            ReductionSession(binary.model, binary.nested, topk=0)

    def test_vocabulary_mismatch_rejected(self, binary):
        other = GreedyTokenizer(
            Vocabulary([b"0", b"1", b"00"], binary.tokenizer.vocab.alphabet)
        )
        nested = NestedTokenizer(other, binary.inner)
        with pytest.raises(ReductionError):
            ReductionSession(binary.model, nested)


class TestWorkedExample:
    """The binary two-table model, followed end to end."""

    def test_first_step_marginals(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        dist = session.next_subtoken_dist()
        np.testing.assert_allclose(dist.raw_marginals, [0.1, 0.1, 0.8], atol=1e-12)
        np.testing.assert_allclose(dist.probs, [0.1, 0.1, 0.8], atol=1e-12)

    def test_covers_built_alongside(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        session.step(2)
        assert session.cover_cache[(2,)].sequences() == {(2,), (3,)}

    def test_single_token_covers(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        for y, expected in [(0, {(0,)}), (1, {(1,)})]:
            assert session._pending[y].sequences() == expected

    def test_second_step_marginals_and_normalization(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        session.step(2)
        dist = session.next_subtoken_dist()
        np.testing.assert_allclose(dist.raw_marginals, [0.3, 0.3, 0.2], atol=1e-12)
        np.testing.assert_allclose(dist.probs, [0.375, 0.375, 0.25], atol=1e-12)

    def test_second_step_covers(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        session.step(2)
        session.next_subtoken_dist()
        assert session._pending[0].sequences() == {(2, 0)}
        assert session._pending[1].sequences() == {(3,)}
        assert session._pending[2].sequences() == {(2, 2), (2, 3)}

    def test_relative_cover_walk(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        assert session.relative_cover((2, 1)).sequences() == {(3,)}
        assert session.relative_cover((2, 2)).sequences() == {(2, 2), (2, 3)}
        assert session.relative_cover((2, 0)).sequences() == {(2, 0)}


class TestTopK:
    def test_exact_when_k_covers_vocab(self, binary):
        exact = ReductionSession(binary.model, binary.nested, topk=None)
        wide = ReductionSession(binary.model, binary.nested, topk=len(binary.tokenizer.vocab))
        d1 = exact.next_subtoken_dist()
        d2 = wide.next_subtoken_dist()
        assert list(d1.raw_marginals) == list(d2.raw_marginals)
        assert d2.dropped_mass == 0.0

    def test_truncation_after_exact_prefix(self, binary):
        # Walk to the prefix (00) exactly, then truncate to the single most
        # probable extension: the 00-bucket loses both of its extension
        # entries while the 1-bucket keeps its inherited cover element.
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        session.step(2)
        session.topk = 1
        dist = session.next_subtoken_dist()
        np.testing.assert_allclose(dist.raw_marginals, [0.3, 0.3, 0.0], atol=1e-12)
        assert abs(dist.dropped_mass - 0.2) < 1e-12

    def test_dropped_mass_monotone_in_k(self, binary):
        drops = []
        for k in [1, 2, 3, 4]:
            session = ReductionSession(binary.model, binary.nested, topk=k)
            session.next_subtoken_dist()
            session.step(2)
            drops.append(session.next_subtoken_dist().dropped_mass)
        assert drops == sorted(drops, reverse=True)
        assert drops[-1] == 0.0


class TestStep:
    def test_requires_computed_distribution(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        with pytest.raises(ReductionError):
            session.step(0)

    def test_zero_mass_refused(self, binary):
        model = TableModel(
            binary.tokenizer,
            {(): np.array([0.5, 0.0, 0.5, 0.0])},
            default=np.full(4, 0.25),
        )
        session = ReductionSession(model, binary.nested, topk=None)
        session.next_subtoken_dist()
        with pytest.raises(ReductionError):
            session.step(1)

    def test_sibling_covers_evicted(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        session.step(2)
        assert set(session.cover_cache) == {(2,)}

    def test_evicted_retokenization_marginal_recomputed(self, binary):
        # truncation can evict the canonical retokenization's cached
        # marginal; the next step must recover it by telescoping
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        session.step(2)
        reference = session.next_subtoken_dist().raw_marginals.copy()
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        session.step(2)
        del session.prob_cache[(2,)]
        recovered = session.next_subtoken_dist().raw_marginals
        np.testing.assert_allclose(recovered, reference, atol=1e-15)


class TestAgainstBruteForce:
    def test_worked_example_covers(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        for y_prefix in [(0,), (1,), (2,), (2, 0), (2, 1), (2, 2)]:
            assert session.relative_cover(y_prefix).sequences() == brute_relative_cover(
                binary.nested, y_prefix
            )

    def test_random_instances(self):
        # covers must equal the exhaustive enumeration, and the reported
        # marginal must equal the sum of model marginals over that cover
        rng = np.random.default_rng(11)
        for _ in range(8):
            inst = make_instance(rng, n_symbols=int(rng.integers(2, 4)))
            session = ReductionSession(inst.model, inst.nested, topk=None)
            dist = session.next_subtoken_dist()
            frontier = [
                (session.branch(y), (y,), float(dist.raw_marginals[y]))
                for y in range(len(inst.inner.vocab))
                if dist.raw_marginals[y] > 0
            ]
            eos = inst.inner.vocab.eos_id
            for depth in range(2):
                next_frontier = []
                for sess, y_prefix, reported in frontier:
                    brute = brute_relative_cover(inst.nested, y_prefix)
                    assert sess.cover_cache[y_prefix].sequences() == brute, y_prefix
                    brute_mass = sum(inst.model.marginal(seq) for seq in brute)
                    assert abs(reported - brute_mass) < 1e-12, y_prefix
                    if depth < 1 and y_prefix[-1] != eos:
                        d = sess.next_subtoken_dist()
                        for y in range(len(inst.inner.vocab)):
                            if d.raw_marginals[y] > 0:
                                next_frontier.append(
                                    (
                                        sess.branch(y),
                                        y_prefix + (y,),
                                        float(d.raw_marginals[y]),
                                    )
                                )
                frontier = next_frontier


class TestNaiveEquivalence:
    def test_bitwise_equal_along_generations(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            inst = make_instance(rng, n_symbols=int(rng.integers(2, 4)))
            size = len(inst.tokenizer.vocab)
            eff = ReductionSession(inst.model, inst.nested, topk=size)
            ref = ReductionSession(inst.model, inst.nested, topk=None)
            for _ in range(5):
                d_eff = eff.next_subtoken_dist()
                d_ref = ref.next_subtoken_dist_naive()
                assert list(d_eff.raw_marginals) == list(d_ref.raw_marginals)
                assert {y: c.sequences() for y, c in eff._pending.items()} == {
                    y: c.sequences() for y, c in ref._pending.items()
                }
                probs = d_eff.probs
                choice = int(rng.choice(len(probs), p=probs / probs.sum()))
                if d_eff.raw_marginals[choice] == 0:
                    break
                eff.step(choice)
                ref.step(choice)
                if choice == inst.inner.vocab.eos_id:
                    break


class TestByteLevelSpecialCase:
    def test_conditionals_match_text_ratios(self, binary):
        inner = GreedyTokenizer(byte_vocabulary(binary.tokenizer.vocab.alphabet))
        nested = NestedTokenizer(binary.tokenizer, inner)
        table = original_prefix_prob_table(binary.model, max_len=4)
        session = ReductionSession(binary.model, nested, topk=None)

        def walk(sess, text):
            dist = sess.next_subtoken_dist()
            for y in range(len(inner.vocab)):
                crumb = text + inner.vocab.surface(y)
                if len(crumb) > 4 or dist.raw_marginals[y] == 0:
                    continue
                expected = table[crumb] / table[text]
                assert abs(dist.probs[y] - expected) < 1e-9
                walk(sess.branch(y), crumb)

        walk(session, b"")


class TestGenerate:
    def test_greedy_tie_picks_lowest_id(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        session.step(2)
        out = session.generate(max_subtokens=1)
        assert out == (0,)  # 0.375 tie between tokens 0 and 1

    def test_zero_budget(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        assert session.generate(max_subtokens=0) == ()

    def test_sampling_reproducible(self, binary):
        outs = []
        for _ in range(2):
            session = ReductionSession(binary.model, binary.nested, topk=None)
            outs.append(session.generate(max_subtokens=5, decoding="sample", seed=99))
        assert outs[0] == outs[1]

    def test_stops_at_terminator(self):
        rng = np.random.default_rng(5)
        inst = make_instance(rng, with_eos=True)
        session = ReductionSession(inst.model, inst.nested, topk=None)
        out = session.generate(max_subtokens=64, decoding="sample", seed=1)
        eos = inst.inner.vocab.eos_id
        assert eos not in out[:-1]
        assert len(out) < 64 or out[-1] != eos


class _FixedDraw:
    """Stand-in generator whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _sample_once(monkeypatch, probs, u):
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _FixedDraw(u))
    probs = np.asarray(probs, dtype=float)
    dist = SubTokenDistribution(probs, probs, 0.0)
    stepped = []
    steps = list(decode(lambda: dist, stepped.append, None, 1, "sample"))
    assert stepped == [steps[0].chosen]
    return steps[0].chosen


class TestDecode:
    def test_draw_on_boundary_skips_zero_mass(self, monkeypatch):
        assert _sample_once(monkeypatch, [0.5, 0.0, 0.5], 0.5) == 2

    def test_largest_draw_stays_in_range(self, monkeypatch):
        u = 1.0 - 2.0**-53
        rng = np.random.default_rng(0)
        vectors = [[0.3, 0.7], [0.2, 0.8, 0.0], [1.0, 0.0, 0.0], [1 / 3] * 3]
        for _ in range(500):
            vec = rng.uniform(0.0, 1.0, 6) * (rng.uniform(size=6) < 0.6)
            if vec.sum() > 0:
                vectors.append(vec / vec.sum())
        for probs in vectors:
            chosen = _sample_once(monkeypatch, probs, u)
            assert chosen < len(probs)
            assert probs[chosen] > 0.0

    @pytest.mark.parametrize("max_steps", [0, 3])
    def test_unknown_mode_raises_before_any_step(self, max_steps):
        def next_dist():
            raise AssertionError("next_dist called")

        with pytest.raises(ReductionError, match="beam"):
            decode(next_dist, next_dist, None, max_steps, decoding="beam")

    def test_steps_record_each_choice_and_stop_after_terminator(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        # "00" (id 2, raw marginal 0.8) stands in for the terminator
        steps = list(decode(session.next_subtoken_dist, session.step, 2, 8))
        assert [(s.index, s.chosen) for s in steps] == [(0, 2)]
        np.testing.assert_allclose(steps[0].dist.raw_marginals, [0.1, 0.1, 0.8], atol=1e-12)
        assert session.prefix == (2,)
        steps = list(decode(session.next_subtoken_dist, session.step, None, 2))
        assert [s.index for s in steps] == [0, 1]
        assert session.prefix == (2,) + tuple(s.chosen for s in steps)


class TestNaiveRestriction:
    def test_root_distribution(self, binary):
        dist = naive_restriction_dist(binary.model, binary.nested, ())
        np.testing.assert_allclose(dist.probs, [1 / 7, 1 / 7, 5 / 7], atol=1e-12)

    def test_conditional_distribution(self, binary):
        dist = naive_restriction_dist(binary.model, binary.nested, (2,))
        np.testing.assert_allclose(dist.probs, [2 / 3, 0.0, 1 / 3], atol=1e-12)

    def test_identity_when_sub_vocab_is_full(self, binary):
        nested = NestedTokenizer(binary.tokenizer, binary.tokenizer)
        dist = naive_restriction_dist(binary.model, nested, ())
        np.testing.assert_allclose(
            dist.probs, binary.model.next_token_dist(()), atol=1e-15
        )
