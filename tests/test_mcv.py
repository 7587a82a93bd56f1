"""Common-vocabulary construction: surface intersection, merge restriction,
and the associated BPE tokenizer."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import has_followers, wide_merge_tokenizer

from lvr import (
    Alphabet,
    BpeTokenizer,
    GreedyTokenizer,
    NestedTokenizer,
    TableModel,
    TokenizationError,
    Vocabulary,
    build_mcv,
    intersect_vocabs,
    restrict_merges,
)
from lvr.oracle import lossless_check


def bpe(surfaces, merges, alphabet):
    vocab = Vocabulary(surfaces, alphabet)
    return BpeTokenizer(vocab, [(vocab.id_of(a), vocab.id_of(b)) for a, b in merges])


ABCD = Alphabet.of("abcd")
SINGLES = [b"a", b"b", b"c", b"d"]


class TestIntersectVocabs:
    def test_surface_intersection(self):
        v1 = Vocabulary(SINGLES + [b"ab", b"abc"], ABCD)
        v2 = Vocabulary(SINGLES + [b"ab", b"abd"], ABCD)
        out = intersect_vocabs([v1, v2])
        assert set(out.surfaces) == set(SINGLES) | {b"ab"}

    def test_idempotent(self):
        v = Vocabulary(SINGLES + [b"ab"], ABCD)
        assert intersect_vocabs([v, v]).surfaces == v.surfaces

    def test_ids_follow_first_vocabulary_order(self):
        v1 = Vocabulary([b"ab"] + SINGLES, ABCD)
        v2 = Vocabulary(SINGLES + [b"ab"], ABCD)
        out = intersect_vocabs([v1, v2])
        assert out.surfaces[0] == b"ab"

    def test_complete_inputs_give_complete_output(self):
        v1 = Vocabulary(SINGLES + [b"ab"], ABCD)
        v2 = Vocabulary(SINGLES + [b"cd"], ABCD)
        assert intersect_vocabs([v1, v2]).complete

    def test_missing_single_symbol_rejected(self):
        v1 = Vocabulary([b"a", b"b", b"ab"], Alphabet.of("ab"))
        v2 = Vocabulary([b"a", b"c"], Alphabet.of("ac"))
        with pytest.raises(TokenizationError):
            intersect_vocabs([v1, v2])

    def test_needs_two(self):
        v = Vocabulary(SINGLES, ABCD)
        with pytest.raises(TokenizationError):
            intersect_vocabs([v])


class TestRestrictMerges:
    def test_kept_when_product_survives(self):
        t1 = bpe(SINGLES + [b"ab"], [(b"a", b"b")], ABCD)
        common = Vocabulary(SINGLES + [b"ab"], ABCD)
        assert restrict_merges(t1, common) == [
            (common.id_of(b"a"), common.id_of(b"b"))
        ]

    def test_dropped_when_product_excluded(self):
        t1 = bpe(SINGLES + [b"ab"], [(b"a", b"b")], ABCD)
        common = Vocabulary(SINGLES, ABCD)
        assert restrict_merges(t1, common) == []

    def test_dropped_when_operand_excluded(self):
        # merges: a+b -> ab, ab+c -> abc; the second merge's product "abc"
        # survives the intersection but its operand "ab" does not.
        t1 = bpe(
            SINGLES + [b"ab", b"abc"],
            [(b"a", b"b"), (b"ab", b"c")],
            ABCD,
        )
        t2 = bpe(SINGLES + [b"abc"], [], ABCD)
        result, tokenizer = build_mcv([t1, t2])
        assert set(result.vocab.surfaces) == set(SINGLES) | {b"abc"}
        assert result.merges == []
        # the restricted tokenizer still round-trips, it just can't reach abc
        assert tokenizer.decode(tokenizer.encode(b"abc")) == b"abc"

    def test_inert_merges_retained(self):
        # "ab" is in the intersection but unreachable there (its own merge
        # was dropped); the merge consuming it stays in the list and simply
        # never fires.
        t1 = bpe(
            SINGLES + [b"ab", b"abc"],
            [(b"a", b"b"), (b"ab", b"c")],
            ABCD,
        )
        common = Vocabulary(SINGLES + [b"ab", b"abc"], ABCD)
        kept = restrict_merges(t1, common)
        assert len(kept) == 2


class TestBuildMcv:
    # case -> (the tokenizers, a fragment of the TokenizationError)
    REFUSED = {
        "one tokenizer": (lambda: [bpe(SINGLES + [b"ab"], [(b"a", b"b")], ABCD)],
                          "need at least two tokenizers"),
        # the intersection would be complete over the first alphabet
        "two alphabets": (lambda: [bpe([b"a", b"b"], [], Alphabet.of("ab")),
                                   bpe([b"a", b"b", b"c"], [], Alphabet.of("abc"))],
                          "share one alphabet"),
        "greedy first": (lambda: [GreedyTokenizer(Vocabulary(SINGLES, ABCD)),
                                  bpe(SINGLES + [b"ab"], [(b"a", b"b")], ABCD)],
                         "tokenizer 0 is a GreedyTokenizer, not a BpeTokenizer"),
        # only the first tokenizer's merges are read, so this list built a
        # common vocabulary
        "greedy second": (lambda: [bpe(SINGLES + [b"ab"], [(b"a", b"b")], ABCD),
                                   GreedyTokenizer(Vocabulary(SINGLES, ABCD))],
                          "tokenizer 1 is a GreedyTokenizer, not a BpeTokenizer"),
    }

    @pytest.mark.parametrize("case", REFUSED)
    def test_refused(self, case):
        tokenizers, fragment = self.REFUSED[case]
        with pytest.raises(TokenizationError, match=fragment):
            build_mcv(tokenizers())

    def test_identical_tokenizers_unchanged(self):
        t1 = bpe(SINGLES + [b"ab", b"cd"], [(b"a", b"b"), (b"c", b"d")], ABCD)
        t2 = bpe(SINGLES + [b"ab", b"cd"], [(b"a", b"b"), (b"c", b"d")], ABCD)
        _, merged = build_mcv([t1, t2])
        for text in [b"abcd", b"aabbccdd", b"dcba"]:
            assert merged.encode(text) == t1.encode(text)

    def test_disjoint_multibyte_tokens_fall_back_to_bytes(self):
        t1 = bpe(SINGLES + [b"ab"], [(b"a", b"b")], ABCD)
        t2 = bpe(SINGLES + [b"cd"], [(b"c", b"d")], ABCD)
        result, merged = build_mcv([t1, t2])
        assert set(result.vocab.surfaces) == set(SINGLES)
        assert all(len(result.vocab.surface(t)) == 1 for t in merged.encode(b"abcd"))

    def test_order_preserved_as_subsequence(self):
        t1 = bpe(
            SINGLES + [b"ab", b"cd", b"abcd"],
            [(b"a", b"b"), (b"c", b"d"), (b"ab", b"cd")],
            ABCD,
        )
        t2 = bpe(SINGLES + [b"ab", b"cd"], [(b"a", b"b"), (b"c", b"d")], ABCD)
        result, _ = build_mcv([t1, t2])
        source_surfaces = [
            (t1.vocab.surface(a), t1.vocab.surface(b)) for a, b in t1.merges
        ]
        kept_surfaces = [
            (result.vocab.surface(a), result.vocab.surface(b))
            for a, b in result.merges
        ]
        it = iter(source_surfaces)
        assert all(pair in it for pair in kept_surfaces)

    def test_compression_between_first_and_byte_level(self):
        rng = np.random.default_rng(41)
        corpus = bytes(rng.choice([97, 98, 99, 100], p=[0.4, 0.3, 0.2, 0.1], size=1024).tolist())
        t1 = bpe(
            SINGLES + [b"ab", b"ba", b"abc"],
            [(b"a", b"b"), (b"b", b"a"), (b"ab", b"c")],
            ABCD,
        )
        t2 = bpe(SINGLES + [b"ab", b"cd"], [(b"a", b"b"), (b"c", b"d")], ABCD)
        _, merged = build_mcv([t1, t2])
        per_byte = lambda tok: len(tok.encode(corpus)) / len(corpus)
        assert per_byte(t1) <= per_byte(merged) <= 1.0

    def test_round_trip_random_texts(self):
        rng = np.random.default_rng(43)
        t1 = bpe(SINGLES + [b"ab", b"abc"], [(b"a", b"b"), (b"ab", b"c")], ABCD)
        t2 = bpe(SINGLES + [b"ab", b"abd"], [(b"a", b"b"), (b"ab", b"d")], ABCD)
        _, merged = build_mcv([t1, t2])
        for _ in range(200):
            text = bytes(rng.choice([97, 98, 99, 100], size=rng.integers(0, 32)).tolist())
            assert merged.decode(merged.encode(text)) == text


def _member_pair(rng) -> tuple[BpeTokenizer, BpeTokenizer]:
    """Two ``wide_merge_tokenizer`` draws over one alphabet."""
    first = wide_merge_tokenizer(rng)
    while True:
        second = wide_merge_tokenizer(rng)
        if second.vocab.alphabet.symbols == first.vocab.alphabet.symbols:
            return first, second


class TestLosslessOverMcv:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(29)
    def test_members_reduced_onto_their_common_vocabulary(self, seed):
        # A sub-token prefix that the cover reaches need not be the nested
        # encoding of any valid member sequence; no extension starts there
        # and the step is the carried cover entries alone.
        rng = np.random.default_rng(seed)
        members = _member_pair(rng)
        _, common = build_mcv(members)
        for member in members:
            size = len(member.vocab)
            vec = rng.uniform(0.05, 1.0, size)
            if not has_followers(member):
                continue
            model = TableModel(member, {}, default=vec / vec.sum())
            report = lossless_check(model, NestedTokenizer(member, common), max_len=4)
            assert report.passed, report.max_discrepancy
