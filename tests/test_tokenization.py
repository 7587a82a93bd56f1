"""Tokenizer behavior: decoding, greedy and BPE encoding, validity, and the
nested (per-token re-encoding) tokenizer."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    binary_instance,
    learned_merge_tokenizer,
    make_instance,
    mcv_instance,
    random_merge_tokenizer,
    spy_node_reads,
    wide_merge_tokenizer,
)

from lvr import (
    Alphabet,
    BpeTokenizer,
    DeterministicTokenizer,
    GreedyTokenizer,
    LanguageModel,
    NestedTokenizer,
    TokenizationError,
    Vocabulary,
    byte_vocabulary,
    tokenization,
)


class TestDecode:
    def test_concatenates_surfaces(self, binary):
        assert binary.tokenizer.decode((2, 1)) == b"001"

    def test_empty_sequence(self, binary):
        assert binary.tokenizer.decode(()) == b""

    def test_single_token(self, binary):
        assert binary.tokenizer.decode((3,)) == b"001"

    def test_unknown_id(self, binary):
        with pytest.raises(TokenizationError):
            binary.tokenizer.decode((99,))

    @pytest.mark.parametrize("tid", [1.0, True, np.bool_(False), "1", None])
    def test_id_that_is_no_integer(self, binary, tid):
        with pytest.raises(TokenizationError, match="unknown token id"):
            binary.tokenizer.vocab.surface(tid)

    def test_homomorphism(self, binary):
        dec = binary.tokenizer.decode
        assert dec((2, 1, 0)) == dec((2,)) + dec((1, 0))


class TestGreedyEncode:
    def test_longest_match_wins(self, binary):
        assert binary.tokenizer.encode(b"001") == (3,)

    def test_sub_vocabulary_split(self, binary):
        # "000" under {0, 1, 00}: longest match "00", then "0"
        assert binary.inner.encode(b"000") == (2, 0)

    def test_empty_text(self, binary):
        assert binary.tokenizer.encode(b"") == ()

    def test_unmatchable_symbol(self, binary):
        with pytest.raises(TokenizationError):
            binary.tokenizer.encode(b"2")

    def test_incomplete_vocabulary_rejected(self):
        vocab = Vocabulary([b"0", b"00"], Alphabet.of("01"))
        with pytest.raises(TokenizationError):
            GreedyTokenizer(vocab)


class TestBpeEncode:
    @staticmethod
    def make(surfaces, merges, alphabet=b"ab"):
        vocab = Vocabulary(surfaces, Alphabet.of(alphabet))
        ids = [(vocab.id_of(a), vocab.id_of(b)) for a, b in merges]
        return BpeTokenizer(vocab, ids), vocab

    def test_single_forced_merge(self):
        tok, vocab = self.make([b"a", b"b", b"ab"], [(b"a", b"b")])
        assert tok.encode(b"ab") == (vocab.id_of(b"ab"),)

    def test_no_merges(self):
        tok, vocab = self.make([b"a", b"b"], [])
        assert tok.encode(b"ab") == (vocab.id_of(b"a"), vocab.id_of(b"b"))

    def test_merge_loop(self):
        tok, vocab = self.make([b"a", b"b", b"ab"], [(b"a", b"b")])
        assert tok.encode(b"aab") == (vocab.id_of(b"a"), vocab.id_of(b"ab"))

    def test_rank_order(self):
        # (b,c) outranks (a,b): "abc" becomes a + bc
        tok, vocab = self.make(
            [b"a", b"b", b"c", b"ab", b"bc"],
            [(b"b", b"c"), (b"a", b"b")],
            alphabet=b"abc",
        )
        assert tok.encode(b"abc") == (vocab.id_of(b"a"), vocab.id_of(b"bc"))

    def test_lower_rank_reopened_by_merge(self):
        # merging (c,d) first creates the pair (x, cd) of rank 0
        tok, vocab = self.make(
            [b"x", b"c", b"d", b"cd", b"xcd"],
            [(b"x", b"cd"), (b"c", b"d")],
            alphabet=b"xcd",
        )
        assert tok.encode(b"xcd") == (vocab.id_of(b"xcd"),)

    def test_product_missing_from_vocab(self):
        vocab = Vocabulary([b"a", b"b"], Alphabet.of("ab"))
        with pytest.raises(TokenizationError):
            BpeTokenizer(vocab, [(0, 1)])

    @pytest.mark.parametrize("merge", [(0.9, 1.2), ("1", "0"), (0, 1.0), (np.float64(1), 0),
                                       (None, 1), (False, True), (0, True), (0, 4),
                                       (0, 1, 1), (0,), 5])
    def test_merge_ids_must_be_integers(self, merge):
        # an id that is not an integer in range is refused naming its rank;
        # the float (0.9, 1.2) was read as (0, 1), the string ("1", "0") as
        # (1, 0) and the bools (False, True) as (0, 1); a merge that is not
        # a pair raised a bare ValueError or TypeError from unpacking
        vocab = Vocabulary([b"a", b"b", b"ab", b"ba"], Alphabet.of("ab"))
        with pytest.raises(TokenizationError, match="merge 1: ids must be integers"):
            BpeTokenizer(vocab, [(0, 1), merge])

    def test_numpy_integer_merge_ids(self):
        vocab = Vocabulary([b"a", b"b", b"ab"], Alphabet.of("ab"))
        merges = BpeTokenizer(vocab, [(np.int64(0), np.uint8(1))]).merges
        assert merges == ((0, 1),) and all(type(t) is int for t in merges[0])


class TestValidity:
    def test_shadowed_split_is_invalid(self, binary):
        assert not binary.tokenizer.is_valid((2, 1))  # "001" re-encodes as one token

    def test_encoder_output_is_valid(self, binary):
        assert binary.tokenizer.is_valid((3,))

    def test_empty_is_valid(self, binary):
        assert binary.tokenizer.is_valid(())

    def test_valid_continuations_mask(self, binary):
        mask = binary.tokenizer.valid_continuations((2,))
        assert list(mask) == [True, False, True, True]


class TestNested:
    def test_token_reencoded_in_sub_vocab(self, binary):
        assert binary.nested.nested_encode((3,)) == (2, 1)

    def test_stable_token(self, binary):
        assert binary.nested.nested_encode((2,)) == (2,)

    def test_single_symbols_map_to_themselves(self, binary):
        assert binary.nested.nested_encode((0, 1)) == (0, 1)

    def test_text_encoding_composes(self, binary):
        assert binary.nested.encode(b"001") == (2, 1)
        assert binary.nested.encode(b"0") == (0,)
        assert binary.nested.encode(b"") == ()

    def test_decode_preserved(self, binary):
        for seq in [(3,), (2, 0), (2, 3)]:
            nested = binary.nested.nested_encode(seq)
            assert binary.nested.decode(nested) == binary.tokenizer.decode(seq)

    @pytest.mark.parametrize("ids", [(True,), (2, 1.0), (-1,), (4,)])
    def test_unknown_id_refused(self, binary, ids):
        with pytest.raises(TokenizationError, match=f"unknown token id {ids[-1]}$"):
            binary.nested.nested_encode(ids)

    def test_sub_vocab_must_be_subset(self, binary):
        stranger = GreedyTokenizer(
            Vocabulary([b"0", b"1", b"01"], Alphabet.of("01"))
        )
        with pytest.raises(TokenizationError):
            NestedTokenizer(binary.tokenizer, stranger)


class TestByteVocabulary:
    def test_single_symbols_only(self):
        vocab = byte_vocabulary(Alphabet.of("01"))
        assert vocab.surfaces == (b"0", b"1")
        assert vocab.complete

    def test_full_alphabet(self):
        assert len(byte_vocabulary(Alphabet.bytes())) == 256


class TestConstructorRefusals:
    # case -> (a constructor call, a fragment of its TokenizationError)
    CASES = {
        "alphabet without symbols": (lambda: Alphabet(frozenset()), "alphabet must be nonempty"),
        "alphabet symbol past 255": (lambda: Alphabet(frozenset({97, 256})), "byte values"),
        "terminator outside the symbols": (
            lambda: Alphabet(frozenset({97}), eos=36), "terminator symbol must belong"),
        "two-symbol terminator": (lambda: Alphabet.of("ab", eos="$$"), "single symbol"),
        "vocabulary without surfaces": (lambda: Vocabulary([]), "vocabulary must be nonempty"),
        "surface outside the alphabet": (
            lambda: Vocabulary([b"a", b"b", b"c"], Alphabet.of("ab")), "outside the alphabet"),
        "BPE over an incomplete vocabulary": (
            lambda: BpeTokenizer(Vocabulary([b"a", b"ab"], Alphabet.of("ab")), []),
            "BPE tokenizer requires a complete vocabulary"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refused(self, case):
        build, fragment = self.CASES[case]
        with pytest.raises(TokenizationError, match=fragment):
            build()


class TestVocabularyInvariants:
    def test_duplicate_surfaces_rejected(self):
        with pytest.raises(TokenizationError):
            Vocabulary([b"0", b"0"], Alphabet.of("01"))

    def test_empty_surface_rejected(self):
        with pytest.raises(TokenizationError):
            Vocabulary([b"0", b""], Alphabet.of("01"))

    def test_terminator_not_embeddable(self):
        with pytest.raises(TokenizationError):
            Vocabulary([b"a", b"$", b"a$"], Alphabet.of("a", eos="$"))

    def test_eos_id_resolved(self):
        vocab = Vocabulary([b"a", b"$"], Alphabet.of("a", eos="$"))
        assert vocab.eos_id == vocab.id_of(b"$")


# -- round-trip properties ---------------------------------------------------

binary_texts = st.text(alphabet="01", max_size=32).map(str.encode)


@given(binary_texts)
def test_greedy_round_trip(text):
    inst = binary_instance()
    assert inst.tokenizer.decode(inst.tokenizer.encode(text)) == text


@given(binary_texts)
def test_greedy_canonical_validity(text):
    inst = binary_instance()
    assert inst.tokenizer.is_valid(inst.tokenizer.encode(text))


def _toy_byte_bpe() -> BpeTokenizer:
    vocab_surfaces = [bytes([b]) for b in range(256)] + [b"th", b"he", b"the", b" t"]
    vocab = Vocabulary(vocab_surfaces, Alphabet.bytes())
    merges = [
        (vocab.id_of(b"t"), vocab.id_of(b"h")),
        (vocab.id_of(b"h"), vocab.id_of(b"e")),
        (vocab.id_of(b"th"), vocab.id_of(b"e")),
        (vocab.id_of(b" "), vocab.id_of(b"t")),
    ]
    return BpeTokenizer(vocab, merges)


@settings(max_examples=60)
@given(st.binary(max_size=48))
def test_bpe_round_trip(data):
    tok = _toy_byte_bpe()
    assert tok.decode(tok.encode(data)) == data


@settings(max_examples=60)
@given(st.binary(max_size=48))
def test_bpe_canonical_validity(data):
    tok = _toy_byte_bpe()
    assert tok.is_valid(tok.encode(data))


@given(binary_texts, binary_texts)
def test_decode_homomorphic_over_concatenation(a, b):
    inst = binary_instance()
    ea, eb = inst.tokenizer.encode(a), inst.tokenizer.encode(b)
    assert inst.tokenizer.decode(ea + eb) == a + b


def _reference_bpe(tokenizer, text):
    """Plain quadratic merge loop: repeatedly apply the lowest-ranked
    applicable merge at its leftmost occurrence."""
    pair_rank = {}
    vocab = tokenizer.vocab
    for rank, (a, b) in enumerate(tokenizer.merges):
        product = vocab.surface(a) + vocab.surface(b)
        pair_rank.setdefault((a, b), (rank, vocab.id_of(product)))
    tok = [vocab.id_of(bytes([c])) for c in text]
    while True:
        best = None
        for i in range(len(tok) - 1):
            hit = pair_rank.get((tok[i], tok[i + 1]))
            if hit is not None and (best is None or hit[0] < best[0]):
                best = (hit[0], i, hit[1])
        if best is None:
            break
        _, i, pid = best
        tok[i : i + 2] = [pid]
    return tuple(tok)


def test_bpe_matches_reference_on_random_merge_lists():
    rng = np.random.default_rng(77)
    symbols = b"abc"
    for _ in range(12):
        tokenizer = random_merge_tokenizer(rng)
        for _ in range(40):
            text = bytes(rng.choice(list(symbols), size=rng.integers(0, 24)).tolist())
            assert tokenizer.encode(text) == _reference_bpe(tokenizer, text), (
                tokenizer.merges,
                text,
            )


def _with_separator(tokenizer):
    """The same merge list over the tokenizer's alphabet plus ``_``, which
    only its own single-byte surface contains."""
    vocab = tokenizer.vocab
    symbols = bytes(sorted(vocab.alphabet.symbols)) + b"_"
    return BpeTokenizer(
        Vocabulary(vocab.surfaces + (b"_",), Alphabet.of(symbols)), tokenizer.merges
    )


@st.composite
def _chunked_texts(draw):
    """A random merge list, ordered or not, plus texts of a few words joined
    by the separator, so chunks recur within and across texts.  When a
    draw from 0..3 gives 0 (19% of 200 examples, as hypothesis draws them),
    each text has 60 to 80 words, hundreds of bytes, well past
    ``_CHUNK_BYTES``, so :meth:`BpeTokenizer.encode` finds its chunks with
    array operations; otherwise it has at most 8 words, mostly below it."""
    make = wide_merge_tokenizer if draw(st.booleans()) else random_merge_tokenizer
    base = make(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    letters = bytes(sorted(base.vocab.alphabet.symbols)).decode()
    words = draw(st.lists(st.text(letters, max_size=8).map(str.encode),
                          min_size=1, max_size=4))
    count = (60, 80) if draw(st.integers(0, 3)) == 0 else (0, 8)
    text = st.lists(st.sampled_from(words), min_size=count[0], max_size=count[1])
    texts = draw(st.lists(text.map(b"_".join), min_size=1, max_size=4))
    return _with_separator(base), texts


@settings(max_examples=200, deadline=None)
@given(_chunked_texts())
def test_bpe_chunked_encode_matches_reference(case):
    tokenizer, texts = case
    expected = [_reference_bpe(tokenizer, text) for text in texts]
    assert [tokenizer.encode(text) for text in texts] == expected, tokenizer.merges
    # again, now from the memo
    assert [tokenizer.encode(text) for text in texts] == expected, tokenizer.merges


def _ab_separated():
    vocab = Vocabulary([b"a", b"b", b"_", b"ab", b"aa"], Alphabet.of("ab_"))
    return BpeTokenizer(vocab, [(0, 1), (0, 0)])


_SHORT, _LONG = 8, tokenization._CHUNK_BYTES + 8


# The texts cut at "b_" and "_a" right beside a merge of a and b, so a chunk
# end one byte off splits that merge; "aa" and "ab" are never cut.
@pytest.mark.parametrize("text", [
    b"",
    b"a",
    *[(b"ab_" * 20)[:n] for n in range(tokenization._CHUNK_BYTES - 1,
                                       tokenization._CHUNK_BYTES + 3)],
    *[b"_" + b"ab" * (n // 2) for n in (_SHORT, _LONG)],  # a cut at the first pair
    *[b"ab" * (n // 2) + b"_" for n in (_SHORT, _LONG)],  # a cut at the last pair
    *[b"a" * n + b"b" for n in (_SHORT, _LONG)],  # no cut at all
], ids=repr)
def test_bpe_chunk_ends_match_reference(text):
    tokenizer = _ab_separated()
    expected = _reference_bpe(tokenizer, text)
    assert tokenizer.encode(text) == expected
    assert tokenizer.encode(text) == expected  # again, now from the memo


def test_bpe_unknown_byte_named_after_memoized_chunks():
    tokenizer = _ab_separated()
    assert tokenizer.encode(b"ab_ab") == (3, 2, 3)
    # the chunk ab is memoized; c is the first byte without a token, in a
    # short text and in one split by array lookups
    for text in (b"ab_abc_ab\x07", b"ab_" * tokenization._CHUNK_BYTES + b"abc_ab\x07"):
        with pytest.raises(TokenizationError, match="^no single-symbol token for byte 0x63$"):
            tokenizer.encode(text)


def test_bpe_chunk_memo_is_bounded(monkeypatch):
    text = b"_".join(b"a" * n for n in range(1, 41))
    tokenizer = _ab_separated()
    assert tokenizer.encode(text) == _reference_bpe(tokenizer, text)
    assert set(tokenizer._chunks) == {b"_"} | {
        b"a" * n for n in range(1, tokenization._CHUNK_BYTES + 1)
    }
    monkeypatch.setattr(tokenization, "_CHUNK_ENTRIES", 3)
    tokenizer = _ab_separated()
    for _ in range(2):
        assert tokenizer.encode(text) == _reference_bpe(tokenizer, text)
        assert len(tokenizer._chunks) == 3


def _assert_masks_match_validity(tokenizer, text):
    """The bounded-context mask equals the full re-encode of every one-token
    extension, at every prefix of the text's encoding."""
    ids = tokenizer.encode(text)
    for n in range(len(ids) + 1):
        prefix = ids[:n]
        expected = [tokenizer.is_valid(prefix + (x,)) for x in range(len(tokenizer.vocab))]
        assert tokenizer.valid_continuations(prefix).tolist() == expected, (prefix, text)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.text(alphabet="abc", max_size=20).map(str.encode))
def test_bpe_bigram_masks_match_validity(seed, text):
    tokenizer = random_merge_tokenizer(np.random.default_rng(seed))
    _assert_masks_match_validity(tokenizer, text)


def _assert_rows_match_reencoding(tokenizer):
    """The BPE row fill equals the generic re-encoding fill at ``()`` and
    after every token that encodes to itself."""
    size = len(tokenizer.vocab)
    for context in [()] + [(t,) for t in range(size) if tokenizer.is_valid((t,))]:
        expected = DeterministicTokenizer.mask_row(tokenizer, context).tolist()
        assert tokenizer.valid_continuations(context).tolist() == expected, (
            tokenizer.merges,
            context,
        )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bpe_rows_match_reencoding_on_wide_merge_lists(seed):
    _assert_rows_match_reencoding(wide_merge_tokenizer(np.random.default_rng(seed)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_bpe_canonical_flags_match_self_encoding(seed, wide):
    # the flags are computed in rank order from the merge list; a token is
    # canonical iff it encodes to itself
    make = wide_merge_tokenizer if wide else random_merge_tokenizer
    tokenizer = make(np.random.default_rng(seed))
    trees = tokenizer._merge_trees
    assume(trees is not None)
    expected = [tokenizer.encode(surf) == (tid,)
                for tid, surf in enumerate(tokenizer.vocab.surfaces)]
    assert trees.canonical.tolist() == expected, tokenizer.merges


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bpe_rows_match_reencoding_on_learned_merge_lists(seed):
    # learned lists are ordered, so every row comes from the blocked
    # followers, through spines several merges deep
    tokenizer = learned_merge_tokenizer(np.random.default_rng(seed))
    trees = tokenizer._merge_trees
    assert trees is not None, tokenizer.merges
    expected = [tokenizer.encode(surf) == (tid,)
                for tid, surf in enumerate(tokenizer.vocab.surfaces)]
    assert trees.canonical.tolist() == expected, tokenizer.merges
    _assert_rows_match_reencoding(tokenizer)


def _tree_depth(tokenizer) -> int:
    depth = {}
    for a, b in tokenizer.merges:
        depth[tokenizer._pair_rank[(a, b)][1]] = 1 + max(depth.get(a, 0), depth.get(b, 0))
    return max(depth.values(), default=0)


def test_learned_merge_lists_are_long_and_deep():
    tokenizers = [learned_merge_tokenizer(np.random.default_rng(seed)) for seed in range(20)]
    assert all(20 <= len(t.merges) <= 80 for t in tokenizers)
    assert min(map(_tree_depth, tokenizers)) >= 4


def test_wide_merge_lists_are_ordered_and_not():
    ordered = {
        wide_merge_tokenizer(np.random.default_rng(seed))._merge_trees is not None
        for seed in range(40)
    }
    assert ordered == {True, False}


def _abcd():
    return BpeTokenizer(
        Vocabulary(
            [b"a", b"b", b"c", b"d", b"ab", b"cd", b"abc", b"da"], Alphabet.of("abcd")
        ),
        [(0, 1), (2, 3), (4, 2), (3, 0)],
    )


def _not_ordered():
    # (b, a) is merged three times and baa is made by two merges
    surfaces = "a b aa ba baa bb bab bbaa bbaabaa bbbbaa aabbbbaa aaaa".split()
    merges = [(0, 0), (1, 0), (1, 0), (1, 0), (3, 0), (1, 1), (3, 1),
              (5, 2), (7, 4), (5, 7), (2, 9), (1, 2), (2, 2)]
    vocab = Vocabulary([s.encode() for s in surfaces], Alphabet.of("ab"))
    return BpeTokenizer(vocab, merges)


def _two_blockers():
    # after ab, (b, c) of rank 0 sits below b's rank 1 and (ab, c) of rank 3
    # at the top; ca consumes c at rank 2, so only the lower rank blocks ca
    vocab = Vocabulary([b"a", b"b", b"c", b"bc", b"ab", b"ca", b"abc"], Alphabet.of("abc"))
    return BpeTokenizer(vocab, [(1, 2), (0, 1), (2, 0), (4, 2)])


def _bytes_only():
    # no merge takes a multi-byte part; after a, (a, b) of rank 0 blocks b
    # and ba, and (a, a) of rank 2 blocks a and aa but not ab, which
    # consumes its a at rank 0
    vocab = Vocabulary([b"a", b"b", b"ab", b"ba", b"aa"], Alphabet.of("ab"))
    return BpeTokenizer(vocab, [(0, 1), (1, 0), (0, 0)])


def _b_bb():
    return BpeTokenizer(Vocabulary([b"b", b"bb"], Alphabet.of("b")), [(0, 0)])


@pytest.mark.parametrize(
    "build, context, token, ordered",
    [
        # bbb encodes as bb b: of two equal-rank pairs the leftmost merges
        (_b_bb, (0,), 1, True),
        # the spine rule alone accepts bb + bbaabaa, which encodes as bbbbaa baa
        (_not_ordered, (5,), 8, False),
        # ab + c encodes as abc
        (_abcd, (4,), 2, True),
        # ab + ca encodes as a bc a
        (_two_blockers, (4,), 5, True),
        # a + aa encodes as aa a
        (_bytes_only, (0,), 4, True),
    ],
    ids=["tie-rule", "not-ordered-fallback", "abc-from-ab-and-c", "lowest-rank-blocks",
         "merges-of-bytes-only"],
)
def test_bpe_row_edge_cases(build, context, token, ordered):
    tokenizer = build()
    assert tokenizer.is_valid(context) and tokenizer.is_valid((token,))
    assert not tokenizer.valid_continuations(context)[token]
    assert (tokenizer._merge_trees is not None) == ordered
    _assert_rows_match_reencoding(tokenizer)


def test_bpe_rows_without_merges():
    # ab is in the vocabulary, but no merge makes it
    tokenizer = BpeTokenizer(Vocabulary([b"a", b"b", b"ab"], Alphabet.of("ab")), [])
    assert tokenizer._merge_trees is not None
    assert tokenizer.valid_continuations((0,)).tolist() == [True, True, False]
    assert not tokenizer.mask_row((2,)).any()
    _assert_rows_match_reencoding(tokenizer)


@st.composite
def _greedy_cases(draw):
    if draw(st.booleans()):
        tokenizer = binary_instance().tokenizer
    else:
        tokenizer = make_instance(
            np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
            n_symbols=draw(st.integers(2, 3)),
            with_eos=draw(st.booleans()),
            n_multi=draw(st.integers(1, 4)),
            max_surface=draw(st.integers(2, 4)),
        ).tokenizer
    symbols = sorted(tokenizer.vocab.alphabet.symbols)
    return tokenizer, bytes(draw(st.lists(st.sampled_from(symbols), max_size=16)))


@settings(max_examples=150, deadline=None)
@given(_greedy_cases())
def test_greedy_window_masks_match_validity(case):
    _assert_masks_match_validity(*case)


@st.composite
def _greedy_vocab_and_text(draw):
    """A complete greedy vocabulary over up to three symbols, with or without
    a ``$`` terminator, multi-symbol surfaces in random id order, and a text
    that may hold ``z``, a symbol no surface matches."""
    content = "abc"[: draw(st.integers(1, 3))]
    alphabet = Alphabet.of(content, eos="$" if draw(st.booleans()) else None)
    multis = draw(st.lists(st.text(content, min_size=2, max_size=5), unique=True, max_size=8))
    surfaces = [bytes([s]) for s in sorted(alphabet.symbols)] + [m.encode() for m in multis]
    vocab = Vocabulary(draw(st.permutations(surfaces)), alphabet)
    symbols = sorted(alphabet.symbols) + [ord("z")]
    return vocab, bytes(draw(st.lists(st.sampled_from(symbols), max_size=24)))


def _reference_greedy(vocab, text):
    """Greedy by definition: at each offset, the longest of all surfaces
    that the text continues with."""
    out, pos = [], 0
    while pos < len(text):
        matches = [s for s in vocab.surfaces if text.startswith(s, pos)]
        if not matches:
            raise TokenizationError(
                f"no token matches text at offset {pos} (symbol {text[pos]:#04x})"
            )
        best = max(matches, key=len)
        out.append(vocab.index[best])
        pos += len(best)
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(_greedy_vocab_and_text())
def test_greedy_encode_matches_definition(case):
    vocab, text = case
    tokenizer = GreedyTokenizer(vocab)
    try:
        expected = _reference_greedy(vocab, text)
    except TokenizationError as exc:
        with pytest.raises(TokenizationError) as raised:
            tokenizer.encode(text)
        assert str(raised.value) == str(exc)
    else:
        assert tokenizer.encode(text) == expected


def test_make_instance_rejects_impossible_surface_count():
    # two symbols have only four distinct two-symbol surfaces
    with pytest.raises(ValueError):
        make_instance(np.random.default_rng(0), n_symbols=2, max_surface=2, n_multi=5)


def _trie_instance(rng, kind) -> NestedTokenizer:
    """A greedy instance, a ``wide_merge_tokenizer`` BPE reduced to bytes,
    or an ``mcv_instance`` (a BPE inner tokenizer)."""
    if kind == 0:
        return make_instance(
            rng,
            n_symbols=int(rng.integers(2, 4)),
            n_multi=int(rng.integers(1, 6)),
            n_sub_multi=int(rng.integers(0, 3)),
        ).nested
    if kind == 1:
        tokenizer = wide_merge_tokenizer(rng)
        inner = GreedyTokenizer(byte_vocabulary(tokenizer.vocab.alphabet))
        return NestedTokenizer(tokenizer, inner)
    return mcv_instance(rng)[1]


def _scan_mapping(mapping, sigma):
    """Brute-force trie node of ``sigma``: the ids whose re-encoding extends
    past it, ascending, their next sub-tokens, and the id re-encoding to it
    exactly (or -1)."""
    d = len(sigma)
    ids = [x for x, m in enumerate(mapping) if len(m) > d and m[:d] == sigma]
    exact = [x for x, m in enumerate(mapping) if m == sigma]
    assert len(exact) <= 1
    return ids, [mapping[x][d] for x in ids], exact[0] if exact else -1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2),
       st.lists(st.lists(st.integers(0, 2**16), max_size=8), max_size=10))
def test_reencoding_trie_matches_mapping(seed, kind, paths):
    # Random sub-token paths (mostly along some re-encoding, sometimes off
    # every one) reach trie nodes that each equal a scan of ``mapping``;
    # the memo then holds only such nodes, at most one per prefix of a
    # re-encoding and the root.
    nested = _trie_instance(np.random.default_rng(seed), kind)
    mapping, size = nested.mapping, len(nested.vocab)

    def check(node, sigma):
        ids, ys, exact = _scan_mapping(mapping, sigma)
        assert node.depth == len(sigma)
        assert node.ids.tolist() == ids and node.ys.tolist() == ys, sigma
        assert node.exact == exact, sigma
        assert node.split == {y: [x for x, z in zip(ids, ys) if z == y] for y in ys}, sigma
        return ys

    for path in paths:
        node, sigma = nested.trie, ()
        ys = check(node, sigma)
        for r in path:
            nexts = sorted(set(ys))
            y = nexts[r // 4 % len(nexts)] if nexts and r % 4 else r // 4 % size
            child = nested.trie_child(node, y)
            if y not in nexts:
                assert child is None, sigma + (y,)
                break
            node, sigma = child, sigma + (y,)
            ys = check(node, sigma)

    count = 0
    stack = [(nested.trie, ())]
    while stack:
        node, sigma = stack.pop()
        check(node, sigma)
        count += 1
        stack.extend((child, sigma + (y,)) for y, child in node.children.items())
    assert count <= sum(map(len, mapping)) + 1


@st.composite
def _window_cases(draw):
    """A greedy case, or a wide merge list with a text over its alphabet."""
    if draw(st.booleans()):
        return draw(_greedy_cases())
    tokenizer = wide_merge_tokenizer(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    symbols = sorted(tokenizer.vocab.alphabet.symbols)
    return tokenizer, bytes(draw(st.lists(st.sampled_from(symbols), max_size=24)))


def _mask_window(tokenizer):
    """How many trailing tokens decide a prefix's mask: the last token for
    BPE, the last longest-surface-minus-one tokens for greedy."""
    return (1 if isinstance(tokenizer, BpeTokenizer)
            else max(map(len, tokenizer.vocab.surfaces)) - 1)


@settings(max_examples=150, deadline=None)
@given(_window_cases())
def test_mask_context_fits_the_mask_window(case):
    # every prefix of an encoding is valid, and its last mask-window tokens
    # give the same mask context as the whole prefix
    tokenizer, text = case
    bound = _mask_window(tokenizer)
    ids = tokenizer.encode(text)
    for n in range(len(ids) + 1):
        prefix = ids[:n]
        window = prefix[max(0, n - bound):]
        assert tokenizer.mask_context(window) == tokenizer.mask_context(prefix), (prefix, bound)


def test_generic_mask_window_is_the_whole_prefix():
    # the generic rule, which the nested tokenizer keeps, has no window: the
    # mask context of a prefix is all of it, from a tuple or a model node
    nested = binary_instance().nested
    assert not hasattr(DeterministicTokenizer, "mask_window")
    assert not hasattr(nested, "mask_window")
    prefix = nested.encode(b"0010010")
    assert len(prefix) > 1
    assert nested.mask_context(prefix) == prefix
    assert nested.mask_context(LanguageModel(nested).node(prefix)) == prefix


@settings(max_examples=150, deadline=None)
@given(_window_cases())
def test_a_node_has_the_mask_context_of_its_prefix(case):
    # every prefix of an encoding up to a terminator is valid and has a
    # model node; the node gives the same mask context and the same row as
    # its tuple, reading no more than the last token (BPE) or the last
    # longest-surface-minus-one tokens (greedy), and the generic rule keeps
    # the whole prefix from either
    tokenizer, text = case
    bound = _mask_window(tokenizer)
    model = LanguageModel(tokenizer)
    ids = tokenizer.encode(text.split(b"$")[0])
    for n in range(len(ids) + 1):
        prefix = ids[:n]
        node = model.node(prefix)
        reads = []
        with spy_node_reads(reads):
            context = tokenizer.mask_context(node)
        assert context == tokenizer.mask_context(prefix), prefix
        assert type(context) is tuple and context == prefix[n - len(context):]
        assert reads and max(reads) <= bound, (prefix, reads)
        row = tokenizer.valid_continuations(node)
        assert row is tokenizer.valid_continuations(prefix) is node.mask, prefix
        assert DeterministicTokenizer.mask_context(tokenizer, node) == prefix


def test_greedy_single_byte_surfaces_have_an_empty_mask_context():
    # the context is zero tokens wide: node[-0:] would be the whole prefix
    tokenizer = GreedyTokenizer(byte_vocabulary(Alphabet.of("ab")))
    prefix = tokenizer.encode(b"abbaab")
    node = LanguageModel(tokenizer).node(prefix)
    assert len(node) == 6
    reads = []
    with spy_node_reads(reads):
        assert tokenizer.mask_context(node) == ()
    assert max(reads, default=0) == 0
    assert tokenizer.mask_context(prefix) == ()
    assert node.mask is tokenizer.valid_continuations(())


@pytest.mark.parametrize(
    "value, size, want",
    [(0, 1, True), (3, 4, True), (np.int64(3), 4, True), (np.uint8(0), 1, True),
     (4, 4, False), (-1, 4, False), (2**70, 4, False), (True, 4, False), (False, 4, False),
     (np.bool_(True), 4, False), (1.0, 4, False), (np.float64(1), 4, False), ("1", 4, False),
     (None, 4, False), (0, 0, False)],
)
def test_is_token_id(value, size, want):
    # the one rule every id check in the library uses
    assert tokenization.is_token_id(value, size) == want
