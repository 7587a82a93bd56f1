"""Reduction engine: relative covers, marginal recursion, top-K truncation,
stepping, generation, and the naive-restriction baseline."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruteforce import brute_relative_cover
from conftest import has_followers, make_instance, random_merge_tokenizer, wide_merge_tokenizer

from lvr import (
    Alphabet,
    BpeTokenizer,
    CoverEntry,
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
)
from lvr import reduction
from lvr.mcv import build_mcv
from lvr.oracle import original_prefix_prob_table


class TestSessionSetup:
    def test_seeded_with_empty_cover(self, binary):
        session = ReductionSession(binary.model, binary.nested, topk=None)
        assert session.prefix == ()
        assert session.cover_cache[()].entries == [CoverEntry((), (), 1.0)]

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
        # the root row ranks 001 above 00, so K=1 keeps only (001,) in the
        # bucket of sub-token 00: the prefix's canonical retokenization (00,)
        # is not in its cover, and the next step recovers its marginal by
        # telescoping
        model = TableModel(
            binary.tokenizer,
            {(): np.array([0.1, 0.1, 0.3, 0.5]), (2,): np.array([0.6, 0.0, 0.3, 0.1])},
            default=np.full(4, 0.25),
        )
        session = ReductionSession(model, binary.nested, topk=1)
        session.next_subtoken_dist()
        session.step(2)
        assert session.cover_cache[(2,)].sequences() == {(3,)}
        session.topk = None
        recovered = session.next_subtoken_dist().raw_marginals
        exact = ReductionSession(model, binary.nested, topk=None)
        exact.next_subtoken_dist()
        exact.step(2)
        reference = exact.next_subtoken_dist().raw_marginals
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


def _assert_cover_holds_retokenization(session, steps, seed):
    """At every step of an exact sampled generation, exactly one cover entry
    ends at the prefix, and it is the canonical retokenization that the
    step extends."""

    def checked_dist():
        k = len(session.prefix)
        ends = [e for e in session.cover_cache[session.prefix].entries if len(e.nested) == k]
        retok = session.nested.outer.encode(session.nested.decode(session.prefix))
        assert [e.seq for e in ends] == [retok], session.prefix
        assert session._prologue()[1] == retok
        return session.next_subtoken_dist()

    eos = session.nested.vocab.eos_id
    for _ in decode(checked_dist, session.step, eos, steps, "sample", seed):
        pass


class TestCoverHoldsRetokenization:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_greedy_instances(self, seed):
        rng = np.random.default_rng(seed)
        inst = make_instance(
            rng,
            n_symbols=int(rng.integers(2, 4)),
            n_multi=int(rng.integers(1, 5)),
            n_sub_multi=int(rng.integers(0, 2)),
        )
        session = ReductionSession(inst.model, inst.nested, topk=None)
        _assert_cover_holds_retokenization(session, 24, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_bpe_merge_lists(self, seed):
        rng = np.random.default_rng(seed)
        tokenizer = random_merge_tokenizer(rng)
        size = len(tokenizer.vocab)
        # see test_token_with_no_follower_is_refused
        assume(has_followers(tokenizer))
        vec = rng.uniform(0.05, 1.0, size)
        model = TableModel(tokenizer, {}, default=vec / vec.sum())
        inner = GreedyTokenizer(byte_vocabulary(tokenizer.vocab.alphabet))
        session = ReductionSession(model, NestedTokenizer(tokenizer, inner), topk=None)
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


def _mcv_instance(rng) -> tuple[TableModel, NestedTokenizer]:
    """A ``random_merge_tokenizer`` reduced onto its common vocabulary with
    a second draw (``build_mcv``), a BPE inner tokenizer, under a table
    model whose default weights take three levels."""
    tokenizer = random_merge_tokenizer(rng)
    _, common = build_mcv([tokenizer, random_merge_tokenizer(rng)])
    vec = rng.integers(1, 4, len(tokenizer.vocab)).astype(float)
    model = TableModel(tokenizer, {}, default=vec / vec.sum())
    return model, NestedTokenizer(tokenizer, common)


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
        model, nested = _mcv_instance(rng)
        assume(has_followers(model.tokenizer))
        _assert_naive_equal_along_generation(rng, model, nested, 12)


def _per_group_sums(nested, cover, ext) -> list[float]:
    """The sums of a step at the empty prefix as a Python loop: each
    sub-token's carried entries in cover order, then its ``by_first``
    group's extensions in ascending id."""
    sums = [0.0] * len(nested.vocab)
    for e in cover:
        sums[nested.mapping[e.x][-e.end]] += e.marginal
    for y, xs in nested.by_first.items():
        for x in xs:
            sums[y] += float(ext[x])
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
        st.lists(st.tuples(st.integers(0, 38), st.integers(1, 3), value), max_size=12),
    )
    def test_matches_per_group_loop(self, ext, picks):
        # carried entries in random bins, repeats and an empty cover
        # included, then every extension, exact zeros included
        ext = np.array(ext)
        cover = [
            reduction.CompactEntry((), x, min(end, len(self.nested.mapping[x])), marginal, None)
            for x, end, marginal in picks
        ]
        expected = _per_group_sums(self.nested, cover, ext)
        assume(sum(expected) > 0.0)
        session = ReductionSession(self.model, self.nested, topk=None)
        session._prologue = lambda: (cover, (), ext.copy(), np.ones(39, dtype=bool), None)
        assert session.next_subtoken_dist().raw_marginals.tolist() == expected


def _random_instance(rng) -> tuple[TableModel, NestedTokenizer]:
    """A ``make_instance`` greedy instance, a ``wide_merge_tokenizer`` BPE
    reduced to bytes under a table model whose default weights take three
    levels, so that top-K meets ties, or an ``_mcv_instance``."""
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
        return _mcv_instance(rng)
    tokenizer = wide_merge_tokenizer(rng)
    vec = rng.integers(1, 4, len(tokenizer.vocab)).astype(float)
    model = TableModel(tokenizer, {}, default=vec / vec.sum())
    inner = GreedyTokenizer(byte_vocabulary(tokenizer.vocab.alphabet))
    return model, NestedTokenizer(tokenizer, inner)


class TestLazyBucketsMatchNaive:
    @settings(max_examples=90, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_entry_for_entry(self, seed, truncate):
        # On one session state: at K >= |V| every bucket the efficient step
        # builds equals the naive one entry for entry and the marginals are
        # bit-identical; at K < |V| a bucket is the naive one without the
        # extensions that top-K dropped (stable order, lowest id on ties).
        rng = np.random.default_rng(seed)
        model, nested = _random_instance(rng)
        assume(has_followers(model.tokenizer))
        size = len(model.vocab)
        topk = int(rng.integers(1, size)) if truncate else size
        session = ReductionSession(model, nested, topk=topk)
        for _ in range(8):
            ref = session.next_subtoken_dist_naive()
            naive = {y: c.entries for y, c in session._pending.items()}
            ext = session._prologue()[2]
            kept = set(np.argsort(-ext, kind="stable")[:topk].tolist())
            carried = set(session.cover_cache[session.prefix].entries)
            dist = session.next_subtoken_dist()
            lazy = {y: c.entries for y, c in session._pending.items()}
            if topk == size:
                assert dist.raw_marginals.tolist() == ref.raw_marginals.tolist()
                assert lazy == naive
            else:
                expected = {
                    y: [e for e in entries if e in carried or e.seq[-1] in kept]
                    for y, entries in naive.items()
                }
                assert lazy == {y: entries for y, entries in expected.items() if entries}
            choice = int(rng.choice(len(dist.probs), p=dist.probs))
            session.step(choice)
            if choice == nested.vocab.eos_id:
                break


class TestCoverEntriesOnlyForTheChosenBucket:
    def test_cold_generation(self, monkeypatch):
        # A step records extension ids per sub-token and builds cover
        # entries for the bucket it steps into only.  An eager step builds
        # one per valid extension of every bucket.
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
        built = []

        class Counted(reduction.CompactEntry):
            __slots__ = ()

            def __new__(cls, *fields):
                built.append(fields)
                return super().__new__(cls, *fields)

        monkeypatch.setattr(reduction, "CompactEntry", Counted)
        chosen_bucket_extensions = 0

        def step(chosen):
            nonlocal chosen_bucket_extensions
            old = {id(e) for e in session.cover}
            session.step(chosen)
            chosen_bucket_extensions += sum(1 for e in session.cover if id(e) not in old)

        steps = list(decode(session.next_subtoken_dist, step, None, 120, "sample", 0))
        assert len(steps) == 120
        assert 0 < len(built) <= chosen_bucket_extensions


class TestCompactCover:
    def test_entries_copy_no_prefix(self, binary):
        # Over 1,000 greedy steps, the entries built in one step share one
        # head tuple (the step's retokenization) and hold no other tuple
        # longer than the longest re-encoding, so no entry copies a prefix.
        session = ReductionSession(binary.model, binary.nested, topk=None)
        longest = max(len(m) for m in binary.nested.mapping)

        def step(chosen):
            old = {id(e) for e in session.cover}
            session.step(chosen)
            heads = set()
            for e in session.cover:
                long = [f for f in e if isinstance(f, tuple) and len(f) > longest]
                assert len(long) <= 1, (session.prefix, e)
                if long and id(e) not in old:
                    heads.add(id(long[0]))
            assert len(heads) <= 1, len(session.prefix)

        steps = list(decode(session.next_subtoken_dist, step, None, 1000))
        assert len(steps) == 1000


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
