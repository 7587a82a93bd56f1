"""Model contracts: masked next-token distributions, chain-rule marginals,
and n-gram training."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import binary_instance, make_instance, wide_merge_tokenizer

from lvr import (
    Alphabet,
    BpeTokenizer,
    DeterministicTokenizer,
    GreedyTokenizer,
    LanguageModel,
    ModelError,
    NestedTokenizer,
    NgramModel,
    ReductionError,
    ReductionSession,
    TableModel,
    TokenizationError,
    Vocabulary,
    byte_vocabulary,
    train_ngram,
)
from lvr.model import Node


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
        for _ in range(2):
            with pytest.raises(ModelError, match="no table entry"):
                model.next_token_dist((0,))

    def test_missing_entry_names_a_long_prefix_whole(self, binary):
        # without a default the raw row is keyed on the whole prefix, so the
        # refusal names all of it, not the last longest-key-plus-one tokens
        model = TableModel(binary.tokenizer, {(2,): np.full(4, 0.25)}, default=None)
        assert model.context_window is None
        for prefix in [(1, 1, 1), (2, 0, 1, 1), (1,)]:
            with pytest.raises(ModelError, match=re.escape(f"prefix {prefix} and") + " no default$"):
                model.next_token_dist(prefix)
        assert model.next_token_dist((2,)).sum() == pytest.approx(1.0)

    def test_refusal_is_not_shared(self, binary):
        # (0,) and (2, 0) share the default row and the mask context (0,);
        # after "0" the default's mass falls on "0" and "00", both invalid
        model = TableModel(binary.tokenizer, {}, default=np.array([0.5, 0.0, 0.5, 0.0]))
        assert model.model_context((0,)) is model.model_context((2, 0))
        assert model.node((0,)).mask is model.node((2, 0)).mask
        for prefix in [(0,), (2, 0), (0,)]:
            with pytest.raises(ModelError, match=re.escape(f"continuations of {prefix}") + "$"):
                model.next_token_dist(prefix)


class TestMarginal:
    def test_two_token_path(self, binary):
        assert abs(binary.model.marginal((2, 0)) - 0.30) < 1e-12

    def test_empty_prefix(self, binary):
        assert binary.model.marginal(()) == 1.0

    def test_rarer_path(self, binary):
        assert abs(binary.model.marginal((2, 3)) - 0.05) < 1e-12

    def test_invalid_path_is_zero(self, binary):
        assert binary.model.marginal((2, 1)) == 0.0

    @pytest.mark.parametrize("ids", [(-1,), (4,), (2, -1)])
    def test_unknown_id_raises(self, binary, ids):
        with pytest.raises(TokenizationError, match="unknown token id"):
            binary.model.marginal(ids)

    def test_chain_rule_and_monotonicity(self):
        rng = np.random.default_rng(7)
        inst = make_instance(rng, n_symbols=2)
        seq = inst.tokenizer.encode(b"ab")
        for t in range(1, len(seq) + 1):
            head, full = seq[: t - 1], seq[:t]
            cond = inst.model.next_token_dist(head)[seq[t - 1]]
            assert inst.model.marginal(full) == inst.model.marginal(head) * cond
            assert inst.model.marginal(full) <= inst.model.marginal(head)


def _outcome(call):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", call())
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc), str(exc))


def _telescoping(model, ids, dist=None):
    """The chain rule over ``dist(prefix)``, by default tuple calls looked
    up from the model's root, one per token."""
    dist = dist or model.next_token_dist
    ids = tuple(ids)
    eos = model.vocab.eos_id
    p = 1.0
    for s, tok in enumerate(ids):
        if eos is not None and s > 0 and ids[s - 1] == eos:
            return 0.0
        if not 0 <= tok < len(model.vocab):
            raise TokenizationError(f"unknown token id {tok}")
        cond = dist(ids[:s])[tok]
        if cond == 0.0:
            return 0.0
        p *= cond
    return p


def _count_walks(monkeypatch) -> list[int]:
    """Record the length of every non-empty prefix looked up from a model's
    root, that is passed to ``node`` (:meth:`LanguageModel.child` steps one
    token past a node without it)."""
    walked = []
    node = LanguageModel.node

    def counted(model, prefix):
        if len(prefix):
            walked.append(len(prefix))
        return node(model, prefix)

    monkeypatch.setattr(LanguageModel, "node", counted)
    return walked


class TestMarginalWalk:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_telescoping_product_on_a_fresh_model(self, seed):
        # random id sequences: encodings (positive paths), invalid ones
        # (exact zeros), ones running past the terminator, and ids out of
        # range at any position
        rng = np.random.default_rng(seed)
        inst = make_instance(rng, n_symbols=int(rng.integers(2, 4)))
        size = len(inst.tokenizer.vocab)
        symbols = sorted(inst.tokenizer.vocab.alphabet.symbols)
        for _ in range(12):
            text = bytes(int(s) for s in rng.choice(symbols, int(rng.integers(0, 6))))
            ids = list(inst.tokenizer.encode(text))
            for _ in range(int(rng.integers(0, 3))):
                ids.insert(int(rng.integers(len(ids) + 1)), int(rng.integers(-1, size + 1)))
            walked, reference = _fresh(inst.model), _fresh(inst.model)
            assert _outcome(lambda: walked.marginal(ids)) == _outcome(
                lambda: _telescoping(reference, ids)
            ), ids

    def test_walks_no_prefix(self, monkeypatch):
        # each conditional is read through the previous prefix's node
        inst = binary_instance()
        ids = inst.tokenizer.encode(b"0010110" * 30)
        reference = _telescoping(_fresh(inst.model), ids)
        walked = _count_walks(monkeypatch)
        assert 0.0 < inst.model.marginal(ids) == reference
        assert sum(walked) == 0


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


def tree_nodes(model):
    """``(prefix, node)`` of every node of the model's prefix tree."""
    stack = [((), model.root)]
    while stack:
        key, node = stack.pop()
        yield key, node
        stack.extend((key + (t,), child) for t, child in node.children.items())


def filled_nodes(model):
    """``(prefix, dist)`` of each node of the model's prefix tree whose
    distribution is computed."""
    return ((key, node.dist) for key, node in tree_nodes(model) if node.dist is not None)


def computed_nodes(model) -> int:
    """Nodes of the model's prefix tree whose distribution is computed."""
    return sum(1 for _ in filled_nodes(model))


def _record_encodes(monkeypatch, tokenizer) -> list[tuple[bool, bytes]]:
    """Record ``(inside_fill, text)`` for every ``tokenizer.encode`` call,
    where ``inside_fill`` says whether a mask row fill made it."""
    encode, fill = tokenizer.encode, tokenizer.valid_continuations
    filling, calls = [], []

    def counted_fill(prefix):
        filling.append(prefix)
        try:
            return fill(prefix)
        finally:
            filling.pop()

    def counted_encode(text):
        calls.append((bool(filling), text))
        return encode(text)

    monkeypatch.setattr(tokenizer, "encode", counted_encode)
    monkeypatch.setattr(tokenizer, "valid_continuations", counted_fill)
    return calls


class TestMaskCache:
    @staticmethod
    def _bpe_model():
        alphabet = Alphabet.of("abcd")
        surfaces = [b"a", b"b", b"c", b"d", b"ab", b"cd", b"abc", b"da"]
        vocab = Vocabulary(surfaces, alphabet)
        merges = [(0, 1), (2, 3), (4, 2), (3, 0)]
        tokenizer = BpeTokenizer(vocab, merges)
        rng = np.random.default_rng(8)
        vec = rng.uniform(0.1, 1.0, len(vocab))
        model = TableModel(tokenizer, {}, default=vec / vec.sum())
        inner = GreedyTokenizer(byte_vocabulary(alphabet))
        return model, NestedTokenizer(tokenizer, inner)

    def test_bpe_mask_cache_bounded_by_vocabulary(self):
        # masks key on the last token, so a long generation adds at most one
        # row per token plus the empty context, on the tokenizer
        model, nested = self._bpe_model()
        session = ReductionSession(model, nested, topk=None)
        assert len(session.generate(120, decoding="sample", seed=0)) == 120
        assert computed_nodes(model) > len(model.vocab) + 1
        assert len(model.tokenizer._rows) <= len(model.vocab) + 1

    def test_bpe_rows_need_no_reencoding(self, monkeypatch):
        # the merge list is ordered, so rows come from merge trees: over a
        # cold generation the only encodes inside valid_continuations are
        # the one-off check that each token encodes to itself
        model, nested = self._bpe_model()
        calls = _record_encodes(monkeypatch, model.tokenizer)
        session = ReductionSession(model, nested, topk=None)
        assert len(session.generate(120, decoding="sample", seed=0)) == 120
        assert len(model.tokenizer._rows) > 2
        assert sum(inside for inside, _ in calls) <= len(model.vocab)

    @pytest.mark.parametrize("build", ["bpe", "greedy"])
    def test_rows_belong_to_the_tokenizer(self, build, monkeypatch):
        # a second model over the same tokenizer reuses every row the first
        # one's generation filled, and cannot write to them
        if build == "bpe":
            model, nested = self._bpe_model()
        else:
            inst = binary_instance()
            model, nested = inst.model, inst.nested
        first = ReductionSession(model, nested, topk=None).generate(
            60, decoding="sample", seed=0
        )
        fills = []
        mask_row = model.tokenizer.mask_row
        monkeypatch.setattr(
            model.tokenizer, "mask_row", lambda ctx: fills.append(ctx) or mask_row(ctx)
        )
        second = _fresh(model)
        replay = ReductionSession(second, nested, topk=None).generate(
            60, decoding="sample", seed=0
        )
        assert replay == first
        assert computed_nodes(second) > 2
        assert fills == []
        row = second.valid_mask(())
        assert row is model.root.mask
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = not row[0]

    def test_warm_replay_encodes_nothing(self, monkeypatch):
        # an exact step takes the prefix's retokenization from its cover, so
        # once the model has cached every prefix, a replay never re-encodes
        model, nested = self._bpe_model()
        first = ReductionSession(model, nested, topk=None).generate(
            120, decoding="sample", seed=0
        )
        calls = _record_encodes(monkeypatch, model.tokenizer)
        replay = ReductionSession(model, nested, topk=None).generate(
            120, decoding="sample", seed=0
        )
        assert replay == first
        assert calls == []


def _fresh(model: TableModel) -> TableModel:
    return TableModel(model.tokenizer, model.entries, model.default)


def _must_raise(tokenizer, prefix) -> bool:
    """The reference for next_token_dist's refusals, by re-encoding: a
    terminator anywhere, an invalid prefix, or a valid one that nothing may
    follow (the restriction in LanguageModel's docstring)."""
    eos = tokenizer.vocab.eos_id
    if eos is not None and eos in prefix:
        return True
    if not tokenizer.is_valid(prefix):
        return True
    return not DeterministicTokenizer.mask_row(tokenizer, prefix).any()


def _random_prefixes(rng, tokenizer, count):
    """Encodings of random texts over the whole alphabet, terminator
    included, some with a random token appended or one token replaced."""
    symbols = sorted(tokenizer.vocab.alphabet.symbols)
    size = len(tokenizer.vocab)
    for _ in range(count):
        text = bytes(int(s) for s in rng.choice(symbols, int(rng.integers(0, 7))))
        ids = list(tokenizer.encode(text))
        if not ids or rng.random() < 0.5:
            ids.append(int(rng.integers(size)))
        if rng.random() < 0.3:
            ids[int(rng.integers(len(ids)))] = int(rng.integers(size))
        yield tuple(ids)


def _assert_refuses_exactly_invalid(model: TableModel, rng) -> None:
    # each prefix on a cold model (every step validated on the walk from
    # the root) and on one whose parent is cached (one mask read)
    tokenizer = model.tokenizer
    for prefix in _random_prefixes(rng, tokenizer, 20):
        cold, warm = _fresh(model), _fresh(model)
        if prefix and not _must_raise(tokenizer, prefix[:-1]):
            warm.next_token_dist(prefix[:-1])
            assert warm.node(prefix[:-1]).dist is not None
        if _must_raise(tokenizer, prefix):
            for m in (cold, warm):
                with pytest.raises(ModelError):
                    m.next_token_dist(prefix)
        else:
            assert np.array_equal(cold.next_token_dist(prefix), warm.next_token_dist(prefix))


class TestParentMaskValidation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_refuses_exactly_invalid_bpe_prefixes(self, seed):
        rng = np.random.default_rng(seed)
        tokenizer = wide_merge_tokenizer(rng)
        vec = rng.uniform(0.05, 1.0, len(tokenizer.vocab))
        _assert_refuses_exactly_invalid(
            TableModel(tokenizer, {}, default=vec / vec.sum()), rng
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_refuses_exactly_invalid_greedy_prefixes(self, seed):
        rng = np.random.default_rng(seed)
        inst = make_instance(
            rng, n_symbols=int(rng.integers(2, 4)), n_multi=int(rng.integers(1, 5))
        )
        _assert_refuses_exactly_invalid(inst.model, rng)

    @pytest.mark.parametrize("warm", [False, True], ids=["uncached", "cached"])
    @pytest.mark.parametrize("tid", [-1, 4])
    def test_out_of_range_id(self, binary, tid, warm):
        # every binary token may start a text, so the root's mask is all
        # True: reading it at -1 would accept the prefix
        if warm:
            binary.model.next_token_dist(())
        with pytest.raises(TokenizationError):
            binary.model.next_token_dist((tid,))
        if warm:
            binary.model.next_token_dist((2,))
        with pytest.raises(TokenizationError):
            binary.model.next_token_dist((2, tid))

    def test_cold_bpe_generation_encodes_no_text(self, monkeypatch):
        model, nested = TestMaskCache._bpe_model()
        calls = _record_encodes(monkeypatch, model.tokenizer)
        session = ReductionSession(model, nested, topk=None)
        assert len(session.generate(120, decoding="sample", seed=0)) == 120
        assert sum(len(text) for inside, text in calls if not inside) == 0

    def test_cold_binary_generation_encodes_no_text(self, monkeypatch):
        inst = binary_instance()
        calls = _record_encodes(monkeypatch, inst.tokenizer)
        session = ReductionSession(inst.model, inst.nested, topk=None)
        assert len(session.generate(1000)) == 1000
        assert computed_nodes(inst.model) >= 1000
        assert sum(len(text) for inside, text in calls if not inside) == 0


def _reference_dist(model, key):
    """``("ok", dist)`` or the refusal ``("raised", type, message)`` that
    ``model.next_token_dist(key)`` must give, by re-encoding: the raw row
    masked by the generic ``mask_row`` over the whole prefix, normalized."""
    tokenizer = model.tokenizer
    eos = tokenizer.vocab.eos_id
    if eos is not None and eos in key:
        return ("raised", ModelError, "cannot continue a terminated sequence")
    for t in key:
        if not 0 <= t < len(tokenizer.vocab):
            return ("raised", TokenizationError, f"unknown token id {t}")
    if not tokenizer.is_valid(key):
        return ("raised", ModelError, f"prefix {key} is not a valid token sequence")
    mask = DeterministicTokenizer.mask_row(tokenizer, key)
    out = np.where(mask, model.raw_next_token_dist(key), 0.0)
    total = out.sum()
    if total <= 0.0:
        return (
            "raised", ModelError, f"all probability mass fell on invalid continuations of {key}"
        )
    return ("ok", out / total)


def _assert_node_refuses_like_reference(model, rng) -> None:
    """``node`` and ``valid_mask`` on random prefixes, on a fresh model or on
    one that has seen earlier prefixes, refuse exactly as ``_reference_dist``
    does before its fill, and otherwise give the reference mask row."""
    tokenizer = model.tokenizer
    for key in _random_prefixes(rng, tokenizer, 20):
        want = _reference_dist(model, key)
        refused = want[0] == "raised" and "probability mass" not in want[2]
        for call in (lambda m: m.node(key).mask, lambda m: m.valid_mask(key)):
            got = _outcome(lambda: call(_fresh(model) if rng.random() < 0.5 else model))
            if refused:
                assert got == want, (key, got, want)
            else:
                row = DeterministicTokenizer.mask_row(tokenizer, key)
                assert got[0] == "ok" and np.array_equal(got[1], row), (key, got)


def _assert_no_encode_outside_fills(model, rng) -> None:
    """Tuple calls on random prefixes, each on a fresh model (no parent
    computed) or on one that has seen earlier prefixes, make no ``encode``
    call outside mask row fills."""
    prefixes = list(_random_prefixes(rng, model.tokenizer, 20))
    with pytest.MonkeyPatch.context() as patch:
        calls = _record_encodes(patch, model.tokenizer)
        for key in prefixes:
            target = _fresh(model) if rng.random() < 0.5 else model
            _outcome(lambda: target.next_token_dist(key))
    assert [text for inside, text in calls if not inside] == []


def _bpe_table(rng) -> TableModel:
    tokenizer = wide_merge_tokenizer(rng)
    vec = rng.uniform(0.05, 1.0, len(tokenizer.vocab))
    return TableModel(tokenizer, {}, default=vec / vec.sum())


def _greedy_table(rng) -> TableModel:
    return make_instance(
        rng, n_symbols=int(rng.integers(2, 4)), n_multi=int(rng.integers(1, 5))
    ).model


def _ngram_instance(rng, kind, order) -> tuple[NgramModel, NestedTokenizer]:
    """An n-gram of ``order`` trained by ``train_ngram`` on random texts over
    a random greedy vocabulary (reduced onto a random sub-vocabulary) or a
    random BPE with a terminator (reduced onto its symbols)."""
    if kind == "greedy":
        inst = make_instance(
            rng,
            n_symbols=int(rng.integers(2, 4)),
            n_multi=int(rng.integers(1, 5)),
            n_sub_multi=int(rng.integers(0, 2)),
        )
        tokenizer, nested = inst.tokenizer, inst.nested
    else:
        bpe = wide_merge_tokenizer(rng)
        symbols = bytes(sorted(bpe.vocab.alphabet.symbols))
        vocab = Vocabulary([*bpe.vocab.surfaces, b"$"], Alphabet.of(symbols, eos="$"))
        tokenizer = BpeTokenizer(vocab, bpe.merges)
        nested = NestedTokenizer(tokenizer, GreedyTokenizer(byte_vocabulary(vocab.alphabet)))
    alphabet = tokenizer.vocab.alphabet
    symbols = sorted(alphabet.symbols - {alphabet.eos})
    corpus = [
        bytes(int(s) for s in rng.choice(symbols, int(rng.integers(0, 12))))
        for _ in range(int(rng.integers(1, 8)))
    ]
    alpha = float(rng.uniform(0.05, 1.0))
    return train_ngram(corpus, tokenizer, order, alpha), nested


def _greedy_ngram(rng) -> NgramModel:
    return _ngram_instance(rng, "greedy", int(rng.integers(1, 4)))[0]


def _bpe_ngram(rng) -> NgramModel:
    return _ngram_instance(rng, "bpe", int(rng.integers(1, 4)))[0]


class TestNodeValidation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([_bpe_table, _greedy_table]))
    def test_refusals_match_reference(self, seed, build):
        rng = np.random.default_rng(seed)
        _assert_node_refuses_like_reference(build(rng), rng)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([_bpe_table, _greedy_table]))
    def test_tuple_calls_encode_nothing_outside_fills(self, seed, build):
        rng = np.random.default_rng(seed)
        _assert_no_encode_outside_fills(build(rng), rng)


def _reference_or_raise(model, key):
    want = _reference_dist(model, key)
    if want[0] == "raised":
        raise want[1](want[2])
    return want[1]


def _same(got, want) -> bool:
    if got[0] != want[0]:
        return False
    if got[0] == "raised":
        return got == want
    return np.array_equal(got[1], want[1])


def _assert_tree_matches_reference(model, nested, rng) -> None:
    """Interleave tuple calls on random prefixes (mostly with an uncached
    parent), on extensions of computed prefixes (by one token, with a
    cached parent, or two, with an uncached one; by tuple and, for one
    token, by ``child`` of the computed prefix's node), session steps,
    ``marginal`` and ``valid_mask``; then check every node of the tree."""
    tokenizer = model.tokenizer
    size = len(tokenizer.vocab)
    computed: list[tuple] = []
    session = ReductionSession(model, nested, topk=None)

    def check(key, call):
        got, want = _outcome(call), _reference_dist(model, key)
        assert _same(got, want), (key, got, want)
        if got[0] == "ok" and key not in computed:
            computed.append(key)

    for _ in range(40):
        op = int(rng.integers(6))
        if op == 0 or not computed:
            key = next(_random_prefixes(rng, tokenizer, 1))
            check(key, lambda: model.next_token_dist(key))
        elif op in (1, 2):
            base = computed[int(rng.integers(len(computed)))]
            tail = [int(t) for t in rng.integers(-1, size + 1, int(rng.integers(1, 3)))]
            key = base + tuple(tail)
            if op == 2 and len(tail) == 1:
                check(key, lambda: model.next_token_dist(model.child(model.node(base), tail[0])))
            else:
                check(key, lambda: model.next_token_dist(key))
        elif op == 3 and session is not None:
            try:
                dist = session.next_subtoken_dist()
                session.step(int(rng.choice(len(dist.probs), p=dist.probs)))
            except (ModelError, ReductionError):
                session = None
        elif op == 4:
            ids = next(_random_prefixes(rng, tokenizer, 1))
            got = _outcome(lambda: model.marginal(ids))
            assert got == _outcome(
                lambda: _telescoping(model, ids, lambda key: _reference_or_raise(model, key))
            ), ids
        else:
            key = computed[int(rng.integers(len(computed)))]
            assert np.array_equal(
                model.valid_mask(key), DeterministicTokenizer.mask_row(tokenizer, key)
            )

    seen, stack = set(), [((), model.root)]
    while stack:
        key, node = stack.pop()
        assert tokenizer.is_valid(key), key
        assert np.array_equal(node.mask, DeterministicTokenizer.mask_row(tokenizer, key)), key
        if node.dist is not None:
            seen.add(key)
            assert _same(("ok", node.dist), _reference_dist(model, key)), key
        stack.extend((key + (t,), child) for t, child in node.children.items())
    assert set(computed) <= seen


class TestPrefixTree:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_greedy_instances_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        inst = make_instance(
            rng,
            n_symbols=int(rng.integers(2, 4)),
            n_multi=int(rng.integers(1, 5)),
            n_sub_multi=int(rng.integers(0, 2)),
        )
        _assert_tree_matches_reference(inst.model, inst.nested, rng)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bpe_instances_match_reference(self, seed):
        # no terminator: a token whose followers merges absorb is a valid
        # prefix with no mass after it, refused by tuple calls and sessions
        rng = np.random.default_rng(seed)
        tokenizer = wide_merge_tokenizer(rng)
        vec = rng.uniform(0.05, 1.0, len(tokenizer.vocab))
        model = TableModel(tokenizer, {}, default=vec / vec.sum())
        inner = GreedyTokenizer(byte_vocabulary(tokenizer.vocab.alphabet))
        _assert_tree_matches_reference(model, NestedTokenizer(tokenizer, inner), rng)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from(["greedy", "bpe"]))
    def test_ngram_instances_match_reference(self, seed, order, kind):
        rng = np.random.default_rng(seed)
        _assert_tree_matches_reference(*_ngram_instance(rng, kind, order), rng)

    def test_cold_binary_generation_walks_no_prefix(self, monkeypatch):
        # every step reaches its retokenization by one child read from the
        # node in its cover group; a lookup from the root walks the whole
        # prefix
        inst = binary_instance()
        walked = _count_walks(monkeypatch)
        session = ReductionSession(inst.model, inst.nested, topk=None)
        assert len(session.generate(1000)) == 1000
        assert computed_nodes(inst.model) >= 1000
        assert sum(walked) == 0


class TestNodeIsItsSequence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([_bpe_table, _greedy_table]))
    def test_node_rebuilds_the_prefix_that_reached_it(self, seed, build):
        # through LanguageModel.node on random prefixes (refusals skipped),
        # and then over every node of the tree
        rng = np.random.default_rng(seed)
        model = build(rng)
        for key in _random_prefixes(rng, model.tokenizer, 20):
            got = _outcome(lambda: model.node(key))
            if got[0] == "ok":
                node = got[1]
                assert tuple(node) == key and len(node) == len(key), key
                assert node.tail(None) == key
                for n in range(len(key) + 2):
                    assert node.tail(n) == key[max(0, len(key) - n):], (key, n)
        for key, node in tree_nodes(model):
            assert tuple(node) == key and node.depth == len(key)
            if key:
                assert node.token == key[-1] and node.parent.children[node.token] is node
            else:
                assert node is model.root and node.parent is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from(["greedy", "bpe"]))
    def test_session_nodes_rebuild_their_retokenization(self, seed, order, kind):
        # the node each step passes to the model, reached by child reads
        # from its cover, is the prefix's canonical retokenization
        rng = np.random.default_rng(seed)
        model, nested = _ngram_instance(rng, kind, order)
        session = ReductionSession(model, nested, topk=None)
        calls = []
        next_token_dist = model.next_token_dist

        def spy(prefix):
            calls.append((prefix, session.prefix))
            return next_token_dist(prefix)

        model.next_token_dist = spy
        session.generate(30, decoding="sample", seed=seed)
        del model.next_token_dist
        assert calls
        for node, prefix in calls:
            retok = nested.outer.encode(nested.decode(prefix))
            assert isinstance(node, Node), prefix
            assert tuple(node) == retok and len(node) == len(retok), prefix
            assert model.node(retok) is node, prefix


def _assert_shared_by_key(model, rng) -> None:
    """On random prefixes, prefixes of one model context have equal raw
    rows, and two filled nodes hold one array iff their (model context,
    mask context) keys are equal."""
    tokenizer = model.tokenizer
    for key in _random_prefixes(rng, tokenizer, 30):
        _outcome(lambda: model.next_token_dist(key))
    filled = list(filled_nodes(model))
    for a, dist_a in filled:
        for b, dist_b in filled:
            same_context = model.model_context(a) == model.model_context(b)
            if same_context:
                assert np.array_equal(model.raw_next_token_dist(a), model.raw_next_token_dist(b))
            same_key = same_context and tokenizer.mask_context(a) == tokenizer.mask_context(b)
            assert (dist_a is dist_b) == same_key, (a, b)


class TestSharedDistributions:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([_bpe_table, _greedy_table, _greedy_ngram, _bpe_ngram]),
    )
    def test_nodes_share_exactly_by_key(self, seed, build):
        rng = np.random.default_rng(seed)
        _assert_shared_by_key(build(rng), rng)

    def test_binary_outputs_hold_few_arrays(self):
        # one distribution per (default row or table key, mask row), however
        # long the outputs; 800 steps stay short of the underflow near 880
        inst = binary_instance()
        for seed in range(20):
            session = ReductionSession(inst.model, inst.nested, topk=None)
            assert len(session.generate(800, decoding="sample", seed=seed)) == 800
        filled = list(filled_nodes(inst.model))
        assert len(filled) >= 15000
        assert len({id(dist) for _, dist in filled}) <= 9

    @pytest.mark.parametrize("kind", ["greedy", "bpe"])
    def test_ngram_arrays_match_distinct_keys(self, kind):
        model, nested = _ngram_instance(np.random.default_rng(7), kind, 2)
        for seed in range(20):
            ReductionSession(model, nested, topk=None).generate(60, decoding="sample", seed=seed)
        filled = list(filled_nodes(model))
        keys = {(model.model_context(p), model.tokenizer.mask_context(p)) for p, _ in filled}
        assert len({id(dist) for _, dist in filled}) == len(keys) < len(filled)

    def test_model_without_context_shares_nothing(self, binary):
        # a model that overrides no model_context may read its whole prefix
        class ByLength(LanguageModel):
            def raw_next_token_dist(self, prefix):
                vec = np.arange(1.0, 5.0) + len(prefix)
                return vec / vec.sum()

        model = ByLength(binary.tokenizer)
        ReductionSession(model, binary.nested, topk=None).generate(50, decoding="sample", seed=0)
        filled = list(filled_nodes(model))
        assert len({id(dist) for _, dist in filled}) == len(filled) >= 50
        for key, dist in filled:
            assert _same(("ok", dist), _reference_dist(model, key)), key


class TestTableValidation:
    def test_negative_probability_rejected(self, binary):
        with pytest.raises(ModelError):
            TableModel(binary.tokenizer, {(): np.array([1.2, -0.2, 0.0, 0.0])})

    def test_unnormalized_entry_rejected(self, binary):
        with pytest.raises(ModelError):
            TableModel(binary.tokenizer, {(): np.array([0.3, 0.3, 0.3, 0.3])})


class TestTableLookup:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_row_is_entry_or_default(self, seed, with_default):
        # prefixes up to three tokens longer than the longest key, so the
        # length shortcut is taken and skipped
        rng = np.random.default_rng(seed)
        binary = binary_instance()
        size = len(binary.tokenizer.vocab)

        def row():
            vec = rng.uniform(0.05, 1.0, size)
            return vec / vec.sum()

        def prefix(length):
            return tuple(int(t) for t in rng.integers(0, size, length))

        entries = {prefix(int(rng.integers(0, 4))): row() for _ in range(int(rng.integers(0, 6)))}
        default = row() if with_default else None
        model = TableModel(binary.tokenizer, entries, default=default)
        probes = list(model.entries) + [prefix(int(rng.integers(0, 7))) for _ in range(20)]
        for key in probes:
            want = model.entries.get(key, model.default)
            if want is None:
                with pytest.raises(ModelError, match="no table entry"):
                    model.raw_next_token_dist(key)
            else:
                assert model.raw_next_token_dist(key) is want


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

    def test_document_with_terminator_rejected(self):
        tok = _letters_tokenizer("ab")
        with pytest.raises(ModelError, match="corpus document contains the terminator"):
            train_ngram([b"ab", b"a$b"], tok, order=1, alpha=0.5)

    @pytest.mark.parametrize(
        "order, alpha, message",
        [(0, 0.5, "order must be at least 1"),
         (1, float("nan"), "smoothing constant must be positive and finite"),
         (2, float("inf"), "smoothing constant must be positive and finite"),
         (1, 0.0, "smoothing constant must be positive and finite")],
    )
    def test_bad_order_or_alpha_refused_before_encoding(self, order, alpha, message):
        tok = _letters_tokenizer("ab")
        calls = []
        tok.encode = lambda text: calls.append(text) or GreedyTokenizer.encode(tok, text)
        with pytest.raises(ModelError, match=message):
            train_ngram([b"ab"] * 5, tok, order=order, alpha=alpha)
        assert calls == []
        with pytest.raises(ModelError, match=message):
            NgramModel(tok, order, alpha, {})


def _reference_counts(corpus, tokenizer, order):
    """The per-token counting loop ``train_ngram`` replaced: one row update
    per token, rows made on first use."""
    eos = tokenizer.vocab.eos_id
    counts = {}
    for doc in corpus:
        ids = tokenizer.encode(doc) + (eos,)
        for i, tok in enumerate(ids):
            context = ids[max(0, i - order) : i]
            row = counts.get(context)
            if row is None:
                row = counts.setdefault(context, np.zeros(len(tokenizer.vocab)))
            row[tok] += 1.0
    return counts


def _counting_tokenizers():
    alphabet = Alphabet.of("abc", eos="$")
    surfaces = [b"$", b"a", b"b", b"c", b"ab", b"ca", b"abc", b"bb"]
    vocab = Vocabulary(surfaces, alphabet)
    merges = [(1, 2), (3, 1), (4, 3), (2, 2)]
    return {"bpe": BpeTokenizer(vocab, merges), "greedy": GreedyTokenizer(vocab)}


@pytest.mark.parametrize("kind", ["bpe", "greedy"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_ngram_counts_match_per_token_loop(kind, order):
    tokenizer = _counting_tokenizers()[kind]
    rng = np.random.default_rng(order)
    corpus = [b"", b"a", b"ab"] + [
        bytes(rng.choice(list(b"abc"), size=int(rng.integers(0, 30))).tolist())
        for _ in range(30)
    ]
    counts = train_ngram(corpus, tokenizer, order=order, alpha=0.5).counts
    expected = _reference_counts(corpus, tokenizer, order)
    assert list(counts) == list(expected)
    for context, row in expected.items():
        assert counts[context].dtype == row.dtype
        assert counts[context].tobytes() == row.tobytes(), context
