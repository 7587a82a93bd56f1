"""Reduction engine: relative covers, marginal recursion, top-K truncation,
stepping, generation, and the naive-restriction baseline."""

import copy
import hashlib
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bruteforce import brute_relative_cover
from conftest import (
    has_followers,
    make_instance,
    mcv_instance,
    random_merge_tokenizer,
    spy_node_reads,
    wide_merge_tokenizer,
)
from test_model import _record_encodes

from lvr import (
    Alphabet,
    BpeTokenizer,
    GreedyTokenizer,
    ModelError,
    NestedTokenizer,
    ReductionError,
    ReductionSession,
    SubTokenDistribution,
    TableModel,
    Vocabulary,
    byte_vocabulary,
    decode,
    naive_restriction_dist,
    train_ngram,
)
from lvr import model as model_module
from lvr import reduction
from lvr.model import Node
from lvr.reduction import CoverEntry
from lvr.mcv import build_mcv
from lvr.oracle import (
    lossless_check,
    original_prefix_prob_table,
    reduced_prefix_prob_table,
    reduced_text_prefix_prob,
)


class TestSessionSetup:
    def test_seeded_with_empty_cover(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        assert session.prefix == ()
        assert session.cover_cache[()].entries == [CoverEntry((), (), 1.0)]
        assert session._pending is None  # no distribution yet

    def test_zero_topk_rejected(self, binary):
        with pytest.raises(ReductionError):
            ReductionSession(binary.model, binary.nested, topk=0)

    @pytest.mark.parametrize(
        "topk", [0, -1, 2.5, 3.0, True, "3", np.bool_(True), np.float32(3.0), np.int64(0)])
    def test_bad_topk_refused_at_construction_and_assignment(self, binary, topk):
        # K is fixed at construction: a bad one is refused there, and no K,
        # bad or good, may be assigned afterwards
        with pytest.raises(ReductionError, match="top-K must be an int"):
            ReductionSession(binary.model, binary.nested, topk=topk)
        session = ReductionSession(binary.model, binary.nested, topk=2)
        for k in (topk, None, 1):
            with pytest.raises(AttributeError):
                session.topk = k
        assert session.topk == 2
        assert ReductionSession(binary.model, binary.nested).topk is None
        single = ReductionSession(binary.model, binary.nested, topk=1)
        assert np.count_nonzero(single.next_subtoken_dist().raw_marginals) == 1

    @pytest.mark.parametrize("kind", [np.int64, np.int8, np.uint16])
    def test_numpy_integer_topk_stored_as_int(self, binary, kind):
        # |V| = 4: K = 2 truncates, K = 4 is exact mode
        session = ReductionSession(binary.model, binary.nested, topk=kind(2))
        assert type(session.topk) is int and session.topk == 2
        reference = ReductionSession(binary.model, binary.nested, topk=2)
        assert (session.next_subtoken_dist().raw_marginals.tolist()
                == reference.next_subtoken_dist().raw_marginals.tolist())
        assert ReductionSession(binary.model, binary.nested, topk=kind(4)).topk is None
        single = ReductionSession(binary.model, binary.nested, topk=kind(1))
        assert type(single.topk) is int and single.topk == 1

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
        session.next_subtoken_dist()
        session.step(2)
        with pytest.raises(ReductionError, match=r"\(0,\) does not extend the session prefix"):
            session.relative_cover((0,))


class TestTopK:
    def test_exact_when_k_covers_vocab(self, binary):
        exact = ReductionSession(binary.model, binary.nested, topk=None)
        wide = ReductionSession(binary.model, binary.nested, topk=len(binary.tokenizer.vocab))
        assert wide.topk is None
        d1 = exact.next_subtoken_dist()
        d2 = wide.next_subtoken_dist()
        assert list(d1.raw_marginals) == list(d2.raw_marginals)
        assert d2.dropped_mass == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_k_at_least_the_vocabulary_is_exact_mode(self, seed):
        # any K >= |V|, a numpy integer or an int, reads back as None and
        # gives the exact session's distributions bit for bit
        rng = np.random.default_rng(seed)
        inst = make_instance(rng, n_symbols=int(rng.integers(2, 4)),
                             n_multi=int(rng.integers(1, 5)), n_sub_multi=int(rng.integers(0, 2)))
        size = len(inst.model.vocab)
        built = ReductionSession(inst.model, inst.nested, topk=size + rng.integers(0, 3))
        at_size = ReductionSession(inst.model, inst.nested, topk=size)
        assert built.topk is None and at_size.topk is None
        exact = ReductionSession(inst.model, inst.nested, topk=None)
        sessions = (exact, built, at_size)
        for _ in range(16):
            want, *got = [s.next_subtoken_dist() for s in sessions]
            for d in got:
                assert d.raw_marginals.tolist() == want.raw_marginals.tolist()
                assert d.probs.tolist() == want.probs.tolist()
                assert (d.dropped_mass, d.exponent) == (want.dropped_mass, want.exponent) == (0.0, 0)
            y = int(rng.choice(len(want.probs), p=want.probs))
            for s in sessions:
                s.step(y)
            if y == inst.nested.vocab.eos_id:
                break

    def test_truncation_after_exact_prefix(self, binary):
        # At K=2 the root row, which puts no mass past 00 and 001, drops
        # nothing, so the prefix (00) is reached exactly.  The next step
        # truncates to the two most probable extensions, 0 and 00 (1 is
        # invalid after 00): the 00-bucket adds nothing for its extension
        # (00, 001), which the views still list with its exact marginal,
        # while the 1-bucket adds its inherited cover element (001).
        model = TableModel(
            binary.tokenizer,
            {(): np.array([0.0, 0.0, 0.5, 0.5]), (2,): np.array([0.6, 0.0, 0.3, 0.1])},
            default=np.full(4, 0.25),
        )
        session = ReductionSession(model, binary.nested, topk=2)
        exact = ReductionSession(model, binary.nested, topk=None)
        first = session.next_subtoken_dist()
        assert first.dropped_mass == 0.0
        assert first.raw_marginals.tolist() == exact.next_subtoken_dist().raw_marginals.tolist()
        session.step(2)
        assert session.cover_cache[(2,)].sequences() == {(2,), (3,)}
        dist = session.next_subtoken_dist()
        np.testing.assert_allclose(dist.raw_marginals, [0.3, 0.5, 0.15], atol=1e-12)
        assert abs(dist.dropped_mass - 0.05) < 1e-12
        marginals = {e.seq: e.marginal for e in session._pending[2].entries}
        assert marginals.keys() == {(2, 2), (2, 3)}
        np.testing.assert_allclose([marginals[2, 2], marginals[2, 3]], [0.15, 0.05], atol=1e-12)
        assert session._pending[1].sequences() == {(3,)}

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

    @pytest.mark.parametrize("y", [7, -1, 1.0, True])
    def test_out_of_range_refused_by_branch(self, binary, y):
        # branch and relative_cover refuse an id outside the sub-vocabulary,
        # or one that is no integer, as step does, rather than reach a
        # prefix with an empty cover or read True as 1
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        message = f"sub-token id {y} out of range"
        with pytest.raises(ReductionError, match=message):
            session.branch(y)
        for y_prefix in [(y,), (2, y)]:
            with pytest.raises(ReductionError, match=message):
                session.relative_cover(y_prefix)
        assert session.prefix == ()

    @pytest.mark.parametrize("y", [1.0, True])
    def test_id_that_is_no_integer_refused_by_step(self, binary, y):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        with pytest.raises(ReductionError, match=f"sub-token id {y} out of range"):
            session.step(y)
        assert session.prefix == ()

    def test_numpy_integer_steps(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        child, want = session.branch(np.int64(1)), session.branch(1)
        assert child.prefix == (1,)
        assert child.next_subtoken_dist().ptilde.tolist() == want.next_subtoken_dist().ptilde.tolist()
        session.step(np.int64(1))
        assert session.prefix == (1,)

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

    def test_unreachable_prefix_has_no_distribution(self, binary):
        # the text 00 spelled as two 0 sub-tokens: the inner encoding of 00
        # is the one sub-token 00, so no outer sequence re-encodes to (0, 0)
        # and every continuation has zero mass; branch takes a zero-mass
        # sub-token, but neither variant gives a distribution after it
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        child = session.branch(0)
        assert child.next_subtoken_dist().probs[0] == 0.0
        grandchild = child.branch(0)
        message = "no sub-token continuation has positive probability"
        for variant in (grandchild.next_subtoken_dist, grandchild.next_subtoken_dist_naive):
            with pytest.raises(ReductionError, match=message):
                variant()

    def test_sibling_covers_evicted(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        session.step(2)
        assert set(session.cover_cache) == {(2,)}

    def test_evicted_retokenization_marginal_recomputed(self, binary):
        # the root row ranks 001 above 00, so K=1 adds only (001,) to the
        # bucket of sub-token 00: the prefix's canonical retokenization (00,)
        # adds nothing, yet the cover still lists it with its exact marginal,
        # and the next step reads that marginal from the root's group; the
        # exact fallback recovers the exact session's marginals from it
        model = TableModel(
            binary.tokenizer,
            {(): np.array([0.1, 0.1, 0.3, 0.5]), (2,): np.array([0.6, 0.0, 0.3, 0.1])},
            default=np.full(4, 0.25),
        )
        session = ReductionSession(model, binary.nested, topk=1)
        session.next_subtoken_dist()
        session.step(2)
        cover = {e.seq: e.marginal for e in session.cover_cache[(2,)].entries}
        assert cover.keys() == {(2,), (3,)}
        np.testing.assert_allclose([cover[2,], cover[3,]], [0.3, 0.5], atol=1e-12)
        truncated = session.next_subtoken_dist().raw_marginals
        # on a copy, so that step still meets the truncated distribution
        recovered = copy.copy(session).next_subtoken_dist_naive().raw_marginals
        exact = ReductionSession(model, binary.nested, topk=None)
        exact.next_subtoken_dist()
        exact.step(2)
        reference = exact.next_subtoken_dist().raw_marginals
        assert recovered.tolist() == reference.tolist()
        # 00 after 00 has no mass under K=1, but step falls back onto it
        assert truncated[2] == 0.0 < reference[2]
        session.step(2)
        assert session.prefix == (2, 2)


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


def _reference_retokenization(nested, prefix):
    """The text round trip the session does not make: the outer encoding of
    the prefix's text if its nested encoding is the prefix, else ``None``."""
    retok = nested.outer.encode(nested.decode(prefix))
    return retok if nested.nested_encode(retok) == prefix else None


def _assert_cover_holds_retokenization(session, steps, seed):
    """At every step of a sampled generation, the step's retokenization is
    the reference round trip's and its base is ``model.marginal`` of it, bit
    for bit; without one, the step has no group.  No step encodes text
    outside a mask row fill or calls ``model.marginal``.  In exact mode the
    retokenization is also the one cover entry that ends at the prefix."""
    nested, model = session.nested, session.model
    marginal = model.marginal

    def checked_dist():
        prefix = session.prefix
        retok = _reference_retokenization(nested, prefix)
        with pytest.MonkeyPatch.context() as mp:
            encodes, marginals = _record_encodes(mp, nested.outer), []
            mp.setattr(model, "marginal", lambda ids: marginals.append(ids) or marginal(ids))
            group, _ = session._step_group(session.topk)
            dist = session.next_subtoken_dist()
        assert [text for inside, text in encodes if not inside] == [], prefix
        assert marginals == [], prefix
        assert (group is None) == (retok is None), prefix
        if retok is not None:
            assert tuple(group.node) == retok, prefix
            assert group.node is model.node(retok), prefix
            assert group.base == marginal(retok), prefix
        if session.topk is None:
            k = len(prefix)
            ends = [e.seq for e in session.cover_cache[prefix].entries if len(e.nested) == k]
            assert ends == ([] if retok is None else [retok]), prefix
        return dist

    eos = session.nested.vocab.eos_id
    for _ in decode(checked_dist, session.step, eos, steps, "sample", seed):
        pass


def _random_topk(rng, model, truncate):
    return rng.integers(1, len(model.vocab)) if truncate else None


class TestCoverHoldsRetokenization:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_random_greedy_instances(self, seed, truncate):
        rng = np.random.default_rng(seed)
        inst = make_instance(
            rng,
            n_symbols=int(rng.integers(2, 4)),
            n_multi=int(rng.integers(1, 5)),
            n_sub_multi=int(rng.integers(0, 2)),
        )
        topk = _random_topk(rng, inst.model, truncate)
        session = ReductionSession(inst.model, inst.nested, topk=topk)
        _assert_cover_holds_retokenization(session, 24, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_random_bpe_merge_lists(self, seed, truncate):
        rng = np.random.default_rng(seed)
        tokenizer = random_merge_tokenizer(rng)
        size = len(tokenizer.vocab)
        # see test_token_with_no_follower_is_refused
        assume(has_followers(tokenizer))
        vec = rng.uniform(0.05, 1.0, size)
        model = TableModel(tokenizer, {}, default=vec / vec.sum())
        inner = GreedyTokenizer(byte_vocabulary(tokenizer.vocab.alphabet))
        topk = _random_topk(rng, model, truncate)
        session = ReductionSession(model, NestedTokenizer(tokenizer, inner), topk=topk)
        _assert_cover_holds_retokenization(session, 24, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_random_mcv_instances(self, seed, truncate):
        # a BPE inner tokenizer can leave a prefix with no retokenization
        rng = np.random.default_rng(seed)
        model, nested = mcv_instance(rng)
        assume(has_followers(model.tokenizer))
        session = ReductionSession(model, nested, topk=_random_topk(rng, model, truncate))
        _assert_cover_holds_retokenization(session, 24, seed)

    def test_token_with_no_follower_is_refused(self):
        # merges a+a, a+b, a+c, b+aa and no terminator: the text "a" is
        # valid, but nothing may follow the token "a", so the model has no
        # mass there; the engine and the oracle both refuse it (documented
        # on LanguageModel)
        rng = np.random.default_rng(743)
        tokenizer = random_merge_tokenizer(rng)
        assert tokenizer.merges == ((0, 0), (0, 1), (0, 2), (1, 3))
        vec = rng.uniform(0.05, 1.0, len(tokenizer.vocab))
        default = vec / vec.sum()
        inner = GreedyTokenizer(byte_vocabulary(tokenizer.vocab.alphabet))
        model = TableModel(tokenizer, {}, default=default)
        session = ReductionSession(model, NestedTokenizer(tokenizer, inner), topk=None)
        session.next_subtoken_dist()
        session.step(inner.vocab.id_of(b"a"))
        with pytest.raises(ModelError, match="invalid continuations"):
            session.next_subtoken_dist()
        with pytest.raises(ModelError, match="invalid continuations"):
            original_prefix_prob_table(TableModel(tokenizer, {}, default=default), 3)

    def test_greedy_token_with_no_follower_is_refused(self):
        # greedy {a, b, aa, ab} over "ab" and no terminator: "a" is valid,
        # but a following "a" or "b" would be absorbed into "aa" or "ab"
        tokenizer = GreedyTokenizer(Vocabulary([b"a", b"b", b"aa", b"ab"], Alphabet.of("ab")))
        assert tokenizer.is_valid((0,)) and not tokenizer.valid_continuations((0,)).any()
        model = TableModel(tokenizer, {}, default=np.full(4, 0.25))
        with pytest.raises(ModelError, match="invalid continuations"):
            model.next_token_dist((0,))
        inner = GreedyTokenizer(byte_vocabulary(tokenizer.vocab.alphabet))
        session = ReductionSession(model, NestedTokenizer(tokenizer, inner), topk=None)
        session.next_subtoken_dist()
        session.step(inner.vocab.id_of(b"a"))
        with pytest.raises(ModelError, match="invalid continuations"):
            session.next_subtoken_dist()
        with pytest.raises(ModelError, match="invalid continuations"):
            original_prefix_prob_table(model, 3)


class TestTopKShortfall:
    # ROADMAP item 10's probe: top-K only drops cover entries, so along a
    # path its true marginals stay at or below the exact session's, and all
    # they miss was dropped at this step or an earlier one
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_shortfall_within_running_dropped_mass(self, seed):
        rng = np.random.default_rng(seed)
        inst = make_instance(
            rng,
            n_symbols=int(rng.integers(2, 4)),
            n_multi=int(rng.integers(1, 5)),
            n_sub_multi=int(rng.integers(0, 2)),
        )
        k = rng.integers(1, len(inst.model.vocab))
        topk = ReductionSession(inst.model, inst.nested, topk=k)
        exact = ReductionSession(inst.model, inst.nested, topk=None)
        dropped = 0.0  # D, the top-K session's dropped mass so far
        for _ in range(24):
            got, want = topk.next_subtoken_dist(), exact.next_subtoken_dist()
            dropped += got.dropped_mass
            assert np.all(got.ptilde <= want.ptilde), (k, topk.prefix)
            shortfall = float((want.ptilde - got.ptilde).sum())
            # the shortfall is a float sum of D's terms, so it may pass D by
            # a rounding: ratios up to 1.0000000000000018 are seen
            assert shortfall <= dropped * (1 + 1e-9), (k, topk.prefix, shortfall, dropped)
            y = int(rng.choice(len(got.probs), p=got.probs))
            topk.step(y)
            exact.step(y)
            if y == inst.nested.vocab.eos_id:
                break


def _assert_naive_equal_along_generation(rng, model, nested, steps):
    """At each step of a sampled generation, the efficient variant at
    K = |V| gives the naive variant's marginals bit for bit and its
    covers."""
    eff = ReductionSession(model, nested, topk=len(model.vocab))
    ref = ReductionSession(model, nested, topk=None)
    for _ in range(steps):
        d_eff = eff.next_subtoken_dist()
        d_ref = ref.next_subtoken_dist_naive()
        assert d_eff.raw_marginals.tolist() == d_ref.raw_marginals.tolist()
        assert {y: c.sequences() for y, c in eff._pending.items()} == {
            y: c.sequences() for y, c in ref._pending.items()
        }
        probs = d_eff.probs
        choice = int(rng.choice(len(probs), p=probs / probs.sum()))
        if d_eff.raw_marginals[choice] == 0:
            break
        eff.step(choice)
        ref.step(choice)
        if choice == nested.vocab.eos_id:
            break


class TestNaiveEquivalence:
    def test_bitwise_equal_along_generations(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            inst = make_instance(rng, n_symbols=int(rng.integers(2, 4)))
            _assert_naive_equal_along_generation(rng, inst.model, inst.nested, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bitwise_equal_over_mcv_inner(self, seed):
        # a BPE inner tokenizer: a sub-token heads several outer ids, and a
        # prefix the cover reaches may have no extension at all
        rng = np.random.default_rng(seed)
        model, nested = mcv_instance(rng)
        assume(has_followers(model.tokenizer))
        _assert_naive_equal_along_generation(rng, model, nested, 12)

    def test_bitwise_equal_under_rescaling(self, binary, monkeypatch):
        # a threshold that rescales at nearly every step: over 2,000 sampled
        # binary steps, far into the rescaled range, K = |V| and the naive
        # reference give the same scaled marginals and exponents, bit for bit
        monkeypatch.setattr(reduction, "_RESCALE_BELOW", 2.0)
        eff = ReductionSession(binary.model, binary.nested, topk=len(binary.model.vocab))
        ref = ReductionSession(binary.model, binary.nested, topk=None)

        def dist():
            d_eff, d_ref = eff.next_subtoken_dist(), ref.next_subtoken_dist_naive()
            assert d_eff.raw_marginals.tolist() == d_ref.raw_marginals.tolist()
            assert d_eff.exponent == d_ref.exponent
            return d_eff

        def step(chosen):
            eff.step(chosen)
            ref.step(chosen)

        steps = list(decode(dist, step, None, 2000, "sample", 1))
        assert len(steps) == 2000
        assert eff.exponent == ref.exponent < -2000


def _per_group_sums(nested, groups, ext) -> list[float]:
    """The sums of a step at the empty prefix as a Python loop over
    ``(σ, marginals)`` groups, oldest first, then the extensions as a group
    at the empty σ, each listing its entries by a scan of ``mapping``: every
    id whose re-encoding extends past σ, in ascending id, adds onto its next
    sub-token."""
    sums = [0.0] * len(nested.vocab)
    for sigma, marginals in [*groups, ((), ext.tolist())]:
        d = len(sigma)
        for x, m in enumerate(nested.mapping):
            if len(m) > d and m[:d] == sigma:
                sums[m[d]] += marginals[x]
    return sums


class TestScatterKernel:
    # Every string of one to three symbols over abc, re-encoded greedily
    # over a, b, c and ab: sub-token a heads 9 ids, ab 4, b and c 13 each.
    # A pairwise sum differs from the in-order one past 8 ids.
    alphabet = Alphabet.of("abc")
    outer = GreedyTokenizer(Vocabulary(
        [bytes(s) for n in (1, 2, 3) for s in itertools.product(b"abc", repeat=n)],
        alphabet,
    ))
    inner = GreedyTokenizer(Vocabulary([b"a", b"b", b"c", b"ab"], alphabet))
    nested = NestedTokenizer(outer, inner)
    model = TableModel(outer, {}, default=np.full(39, 1 / 39))
    value = st.one_of(st.just(0.0), st.floats(1e-300, 1.0))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(value, min_size=39, max_size=39),
        st.lists(st.tuples(st.integers(0, 38), st.integers(1, 3),
                           st.lists(value, min_size=39, max_size=39)), max_size=6),
    )
    def test_matches_per_group_loop(self, ext, picks):
        # cover groups at random trie nodes (one node twice, a node with no
        # id past it and an empty cover included), then every extension,
        # exact zeros included
        ext = np.array(ext)
        groups, cover = [], []
        for x, depth, marginals in picks:
            sigma = self.nested.mapping[x][:depth]
            at = self.nested.trie
            for y in sigma:
                at = self.nested.trie_child(at, y)
            groups.append((sigma, marginals))
            cover.append((at, reduction.CoverGroup(None, 1.0, np.array(marginals))))
        expected = _per_group_sums(self.nested, groups, ext)
        assume(sum(expected) > 0.0)
        session = ReductionSession(self.model, self.nested, topk=None)
        session.cover = cover
        group = reduction.CoverGroup(None, 1.0, ext.copy())
        session._step_group = lambda topk: (group, 0.0)
        assert session.next_subtoken_dist().raw_marginals.tolist() == expected


def _random_instance(rng) -> tuple[TableModel, NestedTokenizer]:
    """A ``make_instance`` greedy instance, a ``wide_merge_tokenizer`` BPE
    reduced to bytes under a table model whose default weights take three
    levels, so that top-K meets ties, or an ``mcv_instance``."""
    kind = rng.integers(3)
    if kind == 0:
        inst = make_instance(
            rng,
            n_symbols=int(rng.integers(2, 4)),
            n_multi=int(rng.integers(1, 5)),
            n_sub_multi=int(rng.integers(0, 2)),
        )
        return inst.model, inst.nested
    if kind == 2:
        return mcv_instance(rng)
    tokenizer = wide_merge_tokenizer(rng)
    vec = rng.integers(1, 4, len(tokenizer.vocab)).astype(float)
    model = TableModel(tokenizer, {}, default=vec / vec.sum())
    inner = GreedyTokenizer(byte_vocabulary(tokenizer.vocab.alphabet))
    return model, NestedTokenizer(tokenizer, inner)


def _cached_sums(session, pending) -> np.ndarray:
    """The raw marginals that the ``ext`` caches of ``pending`` groups add:
    each entry that ``_entries`` lists past the prefix adds its group's
    ``ext`` at its last id to its next sub-token's sum, in list order."""
    k, sums = len(session.prefix), [0.0] * len(session.nested.vocab)
    for at, g in pending:
        for e in session._entries([(at, g)], scaled=True):
            if len(e.nested) > k:
                sums[e.nested[k]] += g.ext.item(e.seq[-1])
    return np.array(sums)


class TestLazyBucketsMatchNaive:
    @settings(max_examples=90, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_entry_for_entry(self, seed, truncate):
        # On one session state every bucket the efficient step lists equals
        # the naive one entry for entry, marginals included, at any K.  At
        # K >= |V| the marginals the step adds are the naive ones bit for
        # bit; at K < |V| they are the groups' ext caches, and the step's
        # own is zero exactly at the extensions that top-K dropped: all but
        # the K most probable under the step's conditional (stable order,
        # lowest id on ties).
        rng = np.random.default_rng(seed)
        model, nested = _random_instance(rng)
        assume(has_followers(model.tokenizer))
        size = len(model.vocab)
        topk = rng.integers(1, size) if truncate else size
        session = ReductionSession(model, nested, topk=topk)
        for _ in range(8):
            ref = session.next_subtoken_dist_naive()
            naive = {y: c.entries for y, c in session._pending.items()}
            group, _ = session._step_group(None)
            dist = session.next_subtoken_dist()
            lazy = {y: c.entries for y, c in session._pending.items()}
            assert lazy == naive
            if topk == size:
                assert dist.raw_marginals.tolist() == ref.raw_marginals.tolist()
            else:
                pending = session._pending_groups
                assert dist.raw_marginals.tolist() == _cached_sums(session, pending).tolist()
                if group is not None:
                    group.ext[np.argsort(-group.node.dist, kind="stable")[topk:]] = 0.0
                    assert pending[-1][1].ext.tolist() == group.ext.tolist()
            choice = int(rng.choice(len(dist.probs), p=dist.probs))
            session.step(choice)
            if choice == nested.vocab.eos_id:
                break


def _reference_topk_step(session, topk):
    """The top-K step by its definition, made apart from the engine: a fresh
    stable sort of the step's conditional, every id past the first ``topk``
    dropped, and each pending entry's cached marginal added to its next
    sub-token's sum.  Returns ``(probs, raw_marginals, dropped_mass, ext)``,
    ``ext`` the step's own cache or ``None`` when the step has no group."""
    group, _ = session._step_group(None)
    pending, dropped, ext = session.cover, 0.0, None
    if group is not None:
        drop = np.argsort(-group.node.dist, kind="stable")[topk:]
        ext = group.ext
        dropped = float(ext[drop].sum())
        ext[drop] = 0.0
        pending = [*session.cover, (session.nested.trie, group)]
    raw = _cached_sums(session, pending)
    return raw / raw.sum(), raw, math.ldexp(dropped, session.exponent), ext


def _tree(model):
    """Every node of ``model``'s prefix tree."""
    stack = [model.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


class TestRankedTopK:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_steps_match_a_fresh_sort_of_the_conditional(self, seed):
        # Sessions on one model, each with its own K drawn once, branches
        # among them keeping their parent's K: every step equals the
        # reference bit for bit, whether its node's ranking is new, shared
        # with another node of the same distribution, or already on the
        # node.  K = |V| is exact mode.
        rng = np.random.default_rng(seed)
        model, nested = _random_instance(rng)
        assume(has_followers(model.tokenizer))
        size, eos = len(model.vocab), nested.vocab.eos_id
        sessions = [ReductionSession(model, nested, topk=rng.integers(1, size + 1))
                    for _ in range(3)]
        for _ in range(24):
            i = rng.integers(len(sessions))
            session = sessions[i]
            k = size if session.topk is None else session.topk
            probs, raw, dropped, ext = _reference_topk_step(session, k)
            dist = session.next_subtoken_dist()
            assert dist.probs.tolist() == probs.tolist()
            assert dist.raw_marginals.tolist() == raw.tolist()
            assert dist.dropped_mass == dropped
            pending = session._pending_groups
            if ext is None:
                assert len(pending) == len(session.cover)
            else:
                # exactly 0.0 at the reference's dropped ids, base * dist
                # elsewhere
                assert pending[-1][1].ext.tolist() == ext.tolist()
            y = int(rng.choice(len(dist.probs), p=dist.probs))
            if y == eos:
                sessions.pop(i)
                if not sessions:
                    break
            elif rng.random() < 0.3:
                sessions.append(session.branch(y))
                assert sessions[-1].topk == session.topk
            else:
                session.step(y)


class TestExactFallback:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_fallback_is_the_exact_distribution(self, seed):
        # A top-K session stepped along a path sampled from the exact
        # session on the same model: at every step its exact recompute
        # gives the exact session's probs and true marginals bit for bit,
        # and step accepts every sub-token of positive exact mass, top-K
        # having dropped it at this step, at an earlier one or not at all.
        rng = np.random.default_rng(seed)
        model, nested = _random_instance(rng)
        assume(has_followers(model.tokenizer))
        topk = ReductionSession(model, nested, topk=rng.integers(1, len(model.vocab)))
        exact = ReductionSession(model, nested, topk=None)
        for _ in range(24):
            want = exact.next_subtoken_dist()
            topk.next_subtoken_dist()
            got = copy.copy(topk).next_subtoken_dist_naive()
            assert got.probs.tolist() == want.probs.tolist(), topk.prefix
            assert got.ptilde.tolist() == want.ptilde.tolist(), topk.prefix
            for y in np.flatnonzero(want.raw_marginals).tolist():
                stepped = copy.copy(topk)
                stepped.step(y)
                assert stepped.prefix == topk.prefix + (y,)
            y = int(rng.choice(len(want.probs), p=want.probs))
            topk.step(y)
            exact.step(y)
            if y == nested.vocab.eos_id:
                break


def _views(view) -> dict:
    """The entries of each relative cover of a ``cover_cache`` or
    ``_pending`` view, by key."""
    return {key: cover.entries for key, cover in view.items()}


def _next_or_refusal(session):
    """The next distribution's probs and true marginals, or the refusal."""
    try:
        dist = session.next_subtoken_dist()
    except ReductionError as exc:
        return str(exc)
    return dist.probs.tolist(), dist.ptilde.tolist()


class TestTopKCarriesTheExactCover:
    # A top-K session, K drawn once, stepped along a path sampled from the
    # exact session on the same model: top-K zeroes only what a step adds,
    # so the cover it carries is the exact one.

    @staticmethod
    def _sessions(seed):
        rng = np.random.default_rng(seed)
        model, nested = _random_instance(rng)
        assume(has_followers(model.tokenizer))
        topk = ReductionSession(model, nested, topk=rng.integers(1, len(model.vocab)))
        return rng, topk, ReductionSession(model, nested, topk=None)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(74055678)  # at step 22 top-K has left every pending entry no mass
    def test_views_are_the_exact_sessions(self, seed):
        # cover_cache, _pending and relative_cover list the exact session's
        # entries, marginals included, bit for bit; a distribution top-K
        # left no mass is the exact one
        rng, topk, exact = self._sessions(seed)
        for _ in range(24):
            assert _views(topk.cover_cache) == _views(exact.cover_cache), topk.prefix
            want = exact.next_subtoken_dist()
            topk.next_subtoken_dist()
            assert _views(topk._pending) == _views(exact._pending), topk.prefix
            for y in np.flatnonzero(want.raw_marginals).tolist():
                y_prefix = exact.prefix + (y,)
                assert (topk.relative_cover(y_prefix).entries
                        == exact.relative_cover(y_prefix).entries), y_prefix
            y = int(rng.choice(len(want.probs), p=want.probs))
            topk.step(y)
            exact.step(y)
            if y == exact.nested.vocab.eos_id:
                break

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_branch_is_step_on_a_copy(self, seed):
        # for every sub-token of positive exact mass, whether or not top-K
        # left it any, branch gives the next distribution that step on a
        # copy gives, bit for bit, and leaves the parent's distribution
        rng, topk, exact = self._sessions(seed)
        eos = exact.nested.vocab.eos_id
        for _ in range(24):
            want = exact.next_subtoken_dist()
            last = topk.next_subtoken_dist()
            for y in np.flatnonzero(want.raw_marginals).tolist():
                if y == eos:
                    continue
                stepped = copy.copy(topk)
                stepped.step(y)
                branched = topk.branch(y)
                assert topk._last is last
                assert _next_or_refusal(branched) == _next_or_refusal(stepped), (topk.prefix, y)
            y = int(rng.choice(len(want.probs), p=want.probs))
            topk.step(y)
            exact.step(y)
            if y == eos:
                break


class TestRankingCounters:
    # Deterministic counters of the sorts that top-K makes, not clocks.

    @staticmethod
    def _count_sorts(monkeypatch) -> list[int]:
        """Patch the model's one sort so that each call appends the length
        of what it sorts; the engine sorts nothing itself."""
        sorts, descending = [], model_module._descending

        def spy(dist):
            sorts.append(len(dist))
            return descending(dist)

        class Numpy:
            @staticmethod
            def argsort(*args, **kwargs):
                raise AssertionError("the engine sorted")

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(model_module, "_descending", spy)
        monkeypatch.setattr(reduction, "np", Numpy())
        return sorts

    @staticmethod
    def _bytes_session(model, topk):
        nested = NestedTokenizer(
            model.tokenizer, GreedyTokenizer(byte_vocabulary(model.vocab.alphabet)))
        return ReductionSession(model, nested, topk=topk)

    def test_one_sort_per_distribution_and_none_warm(self, monkeypatch):
        model = _pinned_bpe_members()[0]
        topk = len(model.vocab) - 4
        sorts = self._count_sorts(monkeypatch)
        cold = [_generation_digest(self._bytes_session(model, topk), 60, s) for s in range(3)]
        dists = {id(n.dist) for n in _tree(model) if n.dist is not None}
        assert 0 < len(sorts) == len(model._rankings) <= len(dists)
        assert set(sorts) == {len(model.vocab)}
        sorts.clear()
        warm = [_generation_digest(self._bytes_session(model, topk), 60, s) for s in range(3)]
        assert warm == cold == BPE_DIGESTS[:3]
        assert sorts == []
        # nodes that share a distribution share its one read-only ranking
        by_dist = {}
        for node in _tree(model):
            if node.ranking is not None:
                by_dist.setdefault(id(node.dist), set()).add(id(node.ranking))
                assert not node.ranking.flags.writeable
        assert all(len(rankings) == 1 for rankings in by_dist.values())
        assert any(
            sum(n.ranking is not None and id(n.dist) == d for n in _tree(model)) > 1
            for d in by_dist
        )

    def test_exact_session_ranks_nothing(self, monkeypatch):
        model = _pinned_bpe_members()[0]
        sorts = self._count_sorts(monkeypatch)
        for seed in range(3):
            _generation_digest(self._bytes_session(model, None), 60, seed)
        assert sorts == []
        assert "_rankings" not in vars(model)
        assert all(node.ranking is None for node in _tree(model))


class TestOneEnumerator:
    def test_pending_builds_the_prefix_at_most_twice(self, monkeypatch):
        # _pending buckets one pass over the pending groups' entries, so a
        # read builds the prefix tuple for its length and for the entries,
        # not once per bucket
        model = _pinned_bpe_members()[0]
        inner = GreedyTokenizer(byte_vocabulary(model.vocab.alphabet))
        session = ReductionSession(model, NestedTokenizer(model.tokenizer, inner), topk=None)
        for y in b"th":
            session.next_subtoken_dist()
            session.step(inner.vocab.id_of(bytes([y])))
        session.next_subtoken_dist()
        reads = []
        prefix = ReductionSession.prefix.fget
        monkeypatch.setattr(ReductionSession, "prefix",
                            property(lambda s: reads.append(1) or prefix(s)))
        buckets = session._pending
        assert len(buckets) >= 3
        assert 0 < len(reads) <= 2


class TestOneGroupPerStep:
    def test_cold_generation(self, monkeypatch):
        # A step builds no cover entry object and at most one cover group,
        # made from its own extensions; an eager step builds one entry per
        # valid extension of every bucket.
        alphabet = Alphabet.of("abcd", eos="\x00")
        surfaces = [bytes([s]) for s in sorted(alphabet.symbols)]
        merges = []
        for a, b in [(b"a", b"b"), (b"c", b"d"), (b"ab", b"c"), (b"b", b"a"), (b"d", b"a"),
                     (b"ab", b"ab"), (b"cd", b"cd"), (b"a", b"a"), (b"c", b"b"),
                     (b"ba", b"d"), (b"abc", b"d"), (b"da", b"b"), (b"b", b"b")]:
            surfaces.append(a + b)
            merges.append((surfaces.index(a), surfaces.index(b)))
        tokenizer = BpeTokenizer(Vocabulary(surfaces, alphabet), merges)
        size = len(surfaces)
        vec = np.random.default_rng(3).uniform(0.05, 1.0, size)
        vec[0] = 0.0  # no terminator: the run lasts all 120 steps
        model = TableModel(tokenizer, {}, default=vec / vec.sum())
        nested = NestedTokenizer(tokenizer, GreedyTokenizer(byte_vocabulary(alphabet)))
        session = ReductionSession(model, nested, topk=None)
        entries, groups = [], []

        def counted(base, log):
            class Counted(base):
                __slots__ = ()

                def __new__(cls, *fields):
                    log.append(fields)
                    return super().__new__(cls, *fields)

            return Counted

        monkeypatch.setattr(reduction, "CoverEntry", counted(reduction.CoverEntry, entries))
        monkeypatch.setattr(reduction, "CoverGroup", counted(reduction.CoverGroup, groups))
        appended = 0

        def step(chosen):
            nonlocal appended
            k = len(session.prefix)
            made = len(groups)
            old = {id(g) for _, g in session.cover}
            session.step(chosen)
            new = [at for at, g in session.cover if id(g) not in old]
            assert len(new) <= 1 and len(groups) == made, k
            assert all(at.depth == 1 for at in new), k
            appended += len(new)

        steps = list(decode(session.next_subtoken_dist, step, None, 120, "sample", 0))
        assert len(steps) == 120
        assert entries == []
        assert 0 < appended <= len(groups) <= 120


    @pytest.mark.parametrize("empty_source, topk", [
        (False, None), (False, 1), (True, None), (True, 3),
    ])
    def test_one_scatter_per_pending_group(self, monkeypatch, empty_source, topk):
        # After each distribution the pending list is the cover, then at most
        # the step's own group at the trie root, and the step makes one
        # np.bincount call over the ys and marginals of every pending group
        # whose trie node lists ids, in that order; a step with no
        # retokenization lists none for it.
        if empty_source:
            model, nested = TestEmptySource.model, TestEmptySource.nested
        else:
            inst = make_instance(np.random.default_rng(5), n_symbols=2)
            model, nested = inst.model, inst.nested
        scattered = []
        bincount = np.bincount

        class Numpy:
            @staticmethod
            def bincount(ys, weights, minlength):
                scattered.append((ys, weights))
                return bincount(ys, weights, minlength=minlength)

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(reduction, "np", Numpy())
        no_group = 0
        for seed in range(3):
            session = ReductionSession(model, nested, topk=topk)

            def dist():
                nonlocal no_group
                scattered.clear()
                out = session.next_subtoken_dist()
                cover, pending = session.cover, session._pending_groups
                n = len(cover)
                assert all(p is c for p, c in zip(pending, cover))
                assert n <= len(pending) <= n + 1
                assert all(at is nested.trie for at, _ in pending[n:])
                no_group += len(pending) == n
                listed = [(at.ys, g.ext[at.ids]) for at, g in pending if at.ids.size]
                assert len(scattered) == 1
                ys, weights = scattered[0]
                assert ys.tolist() == [y for a, _ in listed for y in a.tolist()]
                assert weights.tolist() == [v for _, b in listed for v in b.tolist()]
                return out

            for _ in decode(dist, session.step, nested.vocab.eos_id, 40, "sample", seed):
                pass
        assert (no_group > 0) == empty_source


class TestGroupedCover:
    def test_groups_copy_no_prefix(self, binary):
        # Over 1,000 greedy steps, the session passes the model nodes, never
        # tuples; a group holds no tuple, only the node of the
        # retokenization its step extended, the very node the step passed
        # to the model; and no more groups live than the longest
        # re-encoding has sub-tokens, so no step copies a prefix per entry.
        session = ReductionSession(binary.model, binary.nested, topk=None)
        longest = max(len(m) for m in binary.nested.mapping)
        calls = []
        next_token_dist = binary.model.next_token_dist

        def spy(prefix):
            calls.append(prefix)
            return next_token_dist(prefix)

        binary.model.next_token_dist = spy
        live = []

        def step(chosen):
            session.step(chosen)
            for at, g in session.cover:
                assert not any(isinstance(f, tuple) for f in g)
                assert any(g.node is c for c in calls[-longest:]), len(session.prefix)
                assert not any(isinstance(f, tuple) for f in at)
            live.append(len(session.cover))

        steps = list(decode(session.next_subtoken_dist, step, None, 1000))
        assert len(steps) == 1000
        assert all(isinstance(c, Node) for c in calls)
        assert 0 < max(live) <= longest


class TestLongGeneration:
    # The README binary model's marginals pass below the smallest double
    # near step 880.  Digests of the first 800 steps' chosen ids and probs
    # bytes, sampled with seeds 0, 1, 2, recorded on the engine before it
    # rescaled its cover.
    DIGESTS_800 = ["0b0eb2d2d404114e", "b437efc807689dce", "ed88f5ce8ea8b137"]

    @staticmethod
    def _run(binary, steps, seed):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        return session, list(decode(session.next_subtoken_dist, session.step, None, steps,
                                    "sample", seed))

    def test_5000_steps(self, binary):
        for seed, want in enumerate(self.DIGESTS_800):
            session, steps = self._run(binary, 5000, seed)
            assert len(steps) == 5000
            digest = hashlib.sha256()
            for s in steps[:800]:
                digest.update(s.dist.probs.tobytes())
                digest.update(s.chosen.to_bytes(4, "little"))
            assert digest.hexdigest()[:16] == want, seed
            # the true marginal of the prefix is below 2**-5600
            assert session.exponent < -5600
            assert all(s.dist.raw_marginals.sum() >= 2.0**-512 for s in steps)

    def test_log2_normalizer_is_the_prefix_log_mass(self, binary):
        # with no terminator, the marginals after a prefix sum to its mass,
        # the product of the chosen conditionals; the float normalizer
        # underflows to 0 near step 880, its log2 stays finite
        _, steps = self._run(binary, 5000, 0)
        running = 0.0
        for s in steps:
            assert math.isfinite(s.dist.log2_normalizer)
            assert math.isclose(s.dist.log2_normalizer, running, rel_tol=1e-9, abs_tol=1e-12)
            running += math.log2(s.dist.probs[s.chosen])
        assert steps[-1].dist.normalizer == 0.0 and running < -5600

    def test_rescaling_is_exact(self, binary, monkeypatch):
        # without rescaling the first 800 steps choose the same ids, and
        # their raw marginals are the rescaled ones times 2**exponent, bit
        # for bit; the exponent moves only after a marginal below the
        # threshold
        _, scaled = self._run(binary, 800, 4)
        monkeypatch.setattr(reduction, "_RESCALE_BELOW", 0.0)
        _, plain = self._run(binary, 800, 4)
        assert [s.chosen for s in scaled] == [s.chosen for s in plain]
        assert {s.dist.exponent for s in plain} == {0}
        assert scaled[-1].dist.exponent < 0
        for a, b in zip(scaled, plain):
            assert np.ldexp(a.dist.raw_marginals, a.dist.exponent).tolist() == (
                b.dist.raw_marginals.tolist())
            assert a.dist.probs.tobytes() == b.dist.probs.tobytes()
        for a, b in zip(scaled, scaled[1:]):
            if b.dist.exponent != a.dist.exponent:
                assert plain[a.index].dist.raw_marginals[a.chosen] < 2.0**-511

    def test_model_and_mask_keys_stay_bounded(self, binary, monkeypatch):
        # a step reads the model's raw row, its context and a new node's
        # mask from at most the last two tokens of the prefix, however long
        # it grows: every read of a node builds at most two tokens
        model, tokenizer = binary.model, binary.tokenizer
        calls = {"raw": [], "context": [], "mask": []}
        for owner, name, log in [(model, "raw_next_token_dist", "raw"),
                                 (model, "model_context", "context"),
                                 (tokenizer, "mask_context", "mask")]:
            def spy(prefix, orig=getattr(owner, name), log=calls[log]):
                out = orig(prefix)
                log.append(out)
                return out

            monkeypatch.setattr(owner, name, spy)
        reads = []
        iterate = Node.__iter__
        monkeypatch.setattr(Node, "__iter__", lambda node: reads.append(len(node)) or iterate(node))
        with spy_node_reads(reads):
            session, steps = self._run(binary, 5000, 0)
        assert len(steps) == 5000
        assert len(calls["mask"]) >= 3000 and len(calls["context"]) >= 3000
        assert 0 < len(calls["raw"]) <= 9
        assert len(reads) >= len(calls["mask"]) and max(reads) <= 2
        for log in (calls["mask"], calls["context"]):
            assert all(type(k) is tuple and len(k) <= 2 or k is TableModel._DEFAULT_ROW
                       for k in log)

    @pytest.mark.parametrize("topk, threshold", [(None, None), (2, 2.0)])
    def test_true_values_unscale_each_scaled_one(self, binary, monkeypatch, topk, threshold):
        # ptilde and dropped_mass are math.ldexp of each scaled value, bit
        # for bit, subnormal ones too: over a sampled output whose true
        # marginals pass below the smallest normal double, and under a
        # threshold that rescales at nearly every step with top-K dropping
        # mass; the scaled dropped mass is the step's own sum of what its
        # ranking drops
        if threshold is not None:
            monkeypatch.setattr(reduction, "_RESCALE_BELOW", threshold)
        session = ReductionSession(binary.model, binary.nested, topk=topk)
        scaled = []

        def dist():
            group, _ = session._step_group(None)
            drop = [] if topk is None else session.model.ranking(group.node)[topk:]
            scaled.append(float(group.ext[drop].sum()))
            return session.next_subtoken_dist()

        steps = list(decode(dist, session.step, None, 2000, "sample", 1))
        assert steps[-1].dist.exponent < 0
        subnormal = dropped = 0
        for s, mass in zip(steps, scaled, strict=True):
            d = s.dist
            true = [math.ldexp(v, d.exponent) for v in d.raw_marginals.tolist()]
            assert d.ptilde.tolist() == true
            assert d.dropped_mass == math.ldexp(mass, d.exponent)
            assert d.exponent or d.ptilde is d.raw_marginals
            subnormal += any(0.0 < v < sys.float_info.min for v in true)
            dropped += d.dropped_mass > 0.0
        assert subnormal if topk is None else dropped

    def test_oracle_reads_true_marginals(self, binary, monkeypatch):
        # a threshold that rescales at nearly every step changes no value
        # that the reduced table or the per-text cover route reports
        texts = [b"0010", b"1101", b"00000001"]

        def reports():
            session = ReductionSession(binary.model, binary.nested, topk=None)
            return (reduced_prefix_prob_table(session, 8),
                    [reduced_text_prefix_prob(session, t) for t in texts])

        plain = reports()
        monkeypatch.setattr(reduction, "_RESCALE_BELOW", 2.0)
        _, steps = self._run(binary, 8, 0)
        assert steps[-1].dist.exponent < 0
        assert reports() == plain

    def test_pending_reads_true_marginals(self, binary, monkeypatch):
        # the buckets a reader sees hold true marginals: equal, entry for
        # entry, under a threshold that rescales at every step
        def buckets():
            session = ReductionSession(binary.model, binary.nested, topk=None)
            seen = []

            def step(chosen):
                seen.append(session._pending)
                session.step(chosen)

            list(decode(session.next_subtoken_dist, step, None, 8, "sample", 0))
            return seen, session.exponent

        plain, exponent = buckets()
        monkeypatch.setattr(reduction, "_RESCALE_BELOW", 2.0)
        scaled, scaled_exponent = buckets()
        assert exponent == 0 and scaled_exponent < 0
        assert len(scaled) == 8 and scaled == plain

    def test_zero_mass_branch_keeps_its_scale(self, binary, monkeypatch):
        # a branch onto a sub-token with no mass rescales nothing, even
        # under a threshold that every positive marginal is below
        monkeypatch.setattr(reduction, "_RESCALE_BELOW", 2.0)
        session = ReductionSession(binary.model, binary.nested, topk=None)
        for y in (2, 0):
            session.next_subtoken_dist()
            session.step(y)
        dist = session.next_subtoken_dist()
        exponent = session.exponent
        zero = [y for y, m in enumerate(dist.raw_marginals) if m == 0.0]
        assert zero
        for y in zero:
            child = session.branch(y)
            assert child.exponent == exponent
            kept = {id(g) for _, g in session._pending_groups}
            assert all(id(g) in kept for _, g in child.cover)
        for y in np.flatnonzero(dist.raw_marginals).tolist():
            e = math.frexp(dist.raw_marginals[y])[1]
            assert session.branch(y).exponent == exponent + e


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

    def test_all_mass_removed_is_refused(self, binary):
        # every root token but 001, which the sub-vocabulary lacks, has 0
        model = TableModel(binary.tokenizer, {(): np.array([0.0, 0.0, 0.0, 1.0])})
        with pytest.raises(ReductionError, match="restriction removed all probability mass"):
            naive_restriction_dist(model, binary.nested, ())

    def test_identity_when_sub_vocab_is_full(self, binary):
        nested = NestedTokenizer(binary.tokenizer, binary.tokenizer)
        dist = naive_restriction_dist(binary.model, nested, ())
        np.testing.assert_allclose(
            dist.probs, binary.model.next_token_dist(()), atol=1e-15
        )


def _generation_digest(session, steps, seed) -> str:
    """sha256 over a sampled generation's chosen ids and every step's
    ``raw_marginals`` bytes."""
    digest = hashlib.sha256()

    def dist():
        d = session.next_subtoken_dist()
        digest.update(d.raw_marginals.tobytes())
        return d

    for s in decode(dist, session.step, session.nested.vocab.eos_id, steps, "sample", seed):
        digest.update(s.chosen.to_bytes(4, "little"))
    return digest.hexdigest()[:16]


def _pinned_bpe_members():
    """Two order-2 BPE n-grams over one alphabet with a terminator, sharing
    most merges, some of them whole words, trained on one seeded corpus."""
    alphabet = Alphabet.of(" aehinorst", eos="$")
    shared = [(b"t", b"h"), (b"h", b"e"), (b"th", b"e"), (b"e", b"r"), (b"a", b"n"),
              (b"i", b"n"), (b"s", b"t"), (b"r", b"e"), (b"o", b"n"), (b"e", b" "),
              (b"the", b" "), (b"st", b"a"), (b"er", b" "), (b"o", b"r"), (b"a", b"r"),
              (b"the", b"n"), (b"the", b"re"), (b"o", b"the"), (b"n", b"or"),
              (b"nor", b"th"), (b"s", b"h"), (b"sh", b"ar"), (b"st", b"on"),
              (b"ston", b"e"), (b"he", b"ar"), (b"hear", b"t"), (b"e", b"ar"),
              (b"ear", b"th"), (b"t", b"r"), (b"tr", b"a"), (b"tra", b"in")]
    words = "the then there other north shore stone heart earth train notes share".split()
    rng = np.random.default_rng(4242)
    corpus = [" ".join(words[i] for i in rng.integers(len(words), size=60)).encode()
              for _ in range(3)]
    members = []
    for extra in ([(b"i", b"s"), (b"r", b"a")], [(b"n", b"o"), (b"h", b"a")]):
        surfaces = [bytes([s]) for s in sorted(alphabet.symbols)]
        merges = []
        for a, b in shared + extra:
            if a + b not in surfaces:
                surfaces.append(a + b)
            merges.append((surfaces.index(a), surfaces.index(b)))
        tokenizer = BpeTokenizer(Vocabulary(surfaces, alphabet), merges)
        members.append(train_ngram(corpus, tokenizer, order=2, alpha=0.1))
    return members


class TestPinnedDigests:
    # Digests of sampled generations, recorded on the per-entry cover
    # engine that the grouped cover replaced.  They pin the chosen ids and
    # every step's raw marginals bit for bit, independently of the
    # session's naive variant.  The BPE runs change if a group's extensions
    # are summed per sub-token before they join the carried sums (a
    # per-group ``np.bincount``, pairwise or ``reduceat``), if a group's
    # entries are, or if extensions are added before carried entries.
    def test_greedy_exact(self):
        inst = make_instance(np.random.default_rng(11), n_symbols=3, n_multi=16, n_sub_multi=4)
        got = [_generation_digest(ReductionSession(inst.model, inst.nested, topk=None), 60, s)
               for s in range(3)]
        assert got == GREEDY_DIGESTS

    def test_bpe_ngram_to_bytes_truncated(self):
        model = _pinned_bpe_members()[0]
        nested = NestedTokenizer(
            model.tokenizer, GreedyTokenizer(byte_vocabulary(model.vocab.alphabet)))
        topk = len(model.vocab) - 4
        got = [_generation_digest(ReductionSession(model, nested, topk=topk), 60, s)
               for s in range(4)]
        assert got == BPE_DIGESTS

    def test_mcv_member(self):
        members = _pinned_bpe_members()
        _, common = build_mcv([m.tokenizer for m in members])
        nested = NestedTokenizer(members[0].tokenizer, common)
        assert len(common.vocab) < len(members[0].vocab)
        got = [_generation_digest(ReductionSession(members[0], nested, topk=None), 40, s)
               for s in range(3)]
        assert got == MCV_DIGESTS


GREEDY_DIGESTS = ["233d16dd2dab73b0", "de390408ddc3ba38", "df3006dfd794490d"]
BPE_DIGESTS = ["a5835baedbe9310a", "c38aab7e19fda55f", "2317aa25c6e39e8e", "53061ff305e4eca5"]
MCV_DIGESTS = ["48c7c6d95da735ad", "3242fd4524efbe9a", "3459f5a172eb9445"]


class TestEmptySource:
    # Outer BPE over abc with merges b+c then a+b; the inner BPE merges a+b
    # only.  After sub-tokens a, b no valid outer sequence ends: (a, bc)
    # re-encodes to a, b, c, and (ab,) to the one sub-token ab.  So a step
    # there has no retokenization and no extensions (source (ii) is empty).
    alphabet = Alphabet.of("abc")
    outer = BpeTokenizer(
        Vocabulary([b"a", b"b", b"c", b"bc", b"ab"], alphabet), [(1, 2), (0, 1)])
    inner = BpeTokenizer(Vocabulary([b"a", b"b", b"c", b"ab"], alphabet), [(0, 1)])
    model = TableModel(outer, {}, default=np.full(5, 0.2))
    nested = NestedTokenizer(outer, inner)

    def test_step_after_a_b(self):
        session = ReductionSession(self.model, self.nested, topk=None)
        for y in (0, 1):
            session.next_subtoken_dist()
            session.step(y)
        assert session._step_group(session.topk) == (None, 0.0)
        assert session.next_subtoken_dist().raw_marginals.tolist() == [0.0, 0.0, 0.05, 0.0]
        assert session.cover_cache[(0, 1)].sequences() == {(0, 3)}

    def test_lossless(self):
        report = lossless_check(self.model, self.nested, max_len=6)
        assert report.passed and report.max_discrepancy == 0.0

    @pytest.mark.parametrize("topk", [1, 2, 3, None])
    def test_sampled_digests(self, topk):
        # Recorded on the engine that re-encoded the prefix's text when no
        # cover entry ended at it.  At K=1 and K=2 ties keep the lowest ids,
        # so bc never follows a and no run reaches an empty source; the K=3
        # and exact runs reach it.
        got, empty = [], 0
        for seed in range(3):
            session = ReductionSession(self.model, self.nested, topk=topk)
            step_group = session._step_group

            def counted(topk):
                nonlocal empty
                out = step_group(topk)
                empty += out[0] is None
                return out

            session._step_group = counted
            got.append(_generation_digest(session, 40, seed))
        assert got == EMPTY_SOURCE_DIGESTS[topk]
        assert (empty > 0) == (topk not in (1, 2))


EMPTY_SOURCE_DIGESTS = {
    1: ["fc767d6c9cdd98a7", "fc767d6c9cdd98a7", "fc767d6c9cdd98a7"],
    2: ["892efc44ad6a296e", "00dc9c49d74e7a5a", "20c10ee2173ff5c9"],
    3: ["63db1bde3e0d5021", "51068d650f6ee507", "dfb4e37470521dc9"],
    None: ["38b0e3980856d28e", "22d593b5e676e4ab", "455c8407d5411f87"],
}
