"""Oracle behavior: cover enumeration, the two independent prefix-probability
routes, terminator bookkeeping, and the lossless check itself."""

import ast
import math
import tracemalloc
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import chain, recursive_walk
from conftest import (
    binary_instance,
    has_followers,
    make_instance,
    nan_at_root,
    random_merge_tokenizer,
)

from lvr import (
    Alphabet,
    BudgetExceededError,
    GreedyTokenizer,
    LanguageModel,
    ModelError,
    NestedTokenizer,
    ReductionError,
    ReductionSession,
    TableModel,
    Vocabulary,
    byte_vocabulary,
    lossless_check,
    minimal_cover,
    reduced_text_prefix_prob,
    text_prefix_prob,
    text_prefix_prob_exhaustive,
)
from lvr import oracle
from lvr.oracle import (
    original_prefix_prob_table,
    reduced_prefix_prob_table,
)
from lvr.reduction import naive_restriction_dist


class TestMinimalCover:
    def test_shared_prefix_text(self, binary):
        assert set(minimal_cover(binary.tokenizer, b"00")) == {(2,), (3,)}

    def test_empty_text(self, binary):
        assert minimal_cover(binary.tokenizer, b"") == [()]

    def test_single_symbol(self, binary):
        assert set(minimal_cover(binary.tokenizer, b"1")) == {(1,)}

    def test_overhang_text(self, binary):
        assert set(minimal_cover(binary.tokenizer, b"000")) == {(2, 0), (2, 2), (2, 3)}

    def test_nested_tokenizer_cover(self, binary):
        # covers under the nested tokenization drive the reduced-side oracle
        assert set(minimal_cover(binary.nested, b"000")) == {(2, 0), (2, 2)}


class TestTextPrefixProb:
    def test_worked_value(self, binary):
        assert abs(text_prefix_prob(binary.model, binary.tokenizer, b"000") - 0.5) < 1e-12

    def test_empty_text(self, binary):
        assert text_prefix_prob(binary.model, binary.tokenizer, b"") == 1.0
        # both routes answer without a visit
        assert text_prefix_prob(binary.model, binary.tokenizer, b"", budget=0) == 1.0
        assert text_prefix_prob_exhaustive(binary.model, b"", budget=0) == 1.0

    def test_single_cover_element(self, binary):
        assert abs(text_prefix_prob(binary.model, binary.tokenizer, b"001") - 0.3) < 1e-12

    def test_routes_agree_on_random_instances(self):
        # texts over every symbol, the terminator included: at the end of a
        # text it is a finished output, in the middle no output has the text
        rng = np.random.default_rng(17)
        ended = inside = 0
        for _ in range(6):
            n = int(rng.integers(2, 4))
            inst = make_instance(rng, n_symbols=n)
            eos = inst.tokenizer.vocab.alphabet.eos
            symbols = [bytes([s]) for s in sorted(inst.tokenizer.vocab.alphabet.symbols)]
            texts = [b""]
            for _ in range(3):
                texts = [t + c for t in texts for c in symbols]
                for t in texts:
                    via_cover = text_prefix_prob(inst.model, inst.tokenizer, t)
                    via_tree = text_prefix_prob_exhaustive(inst.model, t)
                    assert abs(via_cover - via_tree) < 1e-12
                    if eos in t[:-1]:
                        assert via_cover == via_tree == 0.0
                        inside += 1
                    elif t.endswith(bytes([eos])):
                        assert via_tree > 0.0
                        ended += 1
        assert ended and inside


class TestReducedTextPrefixProb:
    def _session(self, binary):
        return ReductionSession(binary.model, binary.nested, topk=None)

    def test_worked_value(self, binary):
        assert abs(reduced_text_prefix_prob(self._session(binary), b"000") - 0.5) < 1e-12

    def test_empty_text(self, binary):
        assert reduced_text_prefix_prob(self._session(binary), b"") == 1.0

    def test_single_token_text(self, binary):
        assert abs(reduced_text_prefix_prob(self._session(binary), b"1") - 0.1) < 1e-12

    def test_walk_stops_at_a_zero_marginal(self, binary):
        # the root gives "1" no mass, so each cover sequence of "10" stops at
        # its first sub-token; stepping on would reach a prefix with none
        model = TableModel(binary.tokenizer, {(): np.array([0.5, 0.0, 0.25, 0.25])},
                           default=np.full(4, 0.25))
        session = ReductionSession(model, binary.nested, topk=None)
        assert set(minimal_cover(binary.nested, b"10")) == {(1, 0), (1, 2)}
        assert reduced_text_prefix_prob(session, b"10") == 0.0
        assert text_prefix_prob(model, binary.tokenizer, b"10") == 0.0

    def test_leaves_the_session_as_it_was(self, binary):
        session = self._session(binary)
        for text, want in [(b"000", 0.5), (b"", 1.0), (b"1", 0.1)]:
            assert abs(reduced_text_prefix_prob(session, text) - want) < 1e-12
            assert (session.prefix, session.cover, session.exponent) == ((), [], 0)


_ROUTES = {
    "table": lambda session: reduced_prefix_prob_table(session, max_len=2),
    "cover": lambda session: reduced_text_prefix_prob(session, b"0"),
}


class TestSessionRefusals:
    # both session oracles read the reduced model from the start, exactly
    @pytest.mark.parametrize("route", sorted(_ROUTES))
    def test_stepped_session_is_refused(self, binary, route):
        # stepped onto sub-token 0, the table would give P("0") = 0.0
        session = ReductionSession(binary.model, binary.nested, topk=None)
        session.next_subtoken_dist()
        session.step(0)
        with pytest.raises(ValueError, match="fresh"):
            _ROUTES[route](session)

    @pytest.mark.parametrize("route", sorted(_ROUTES))
    def test_truncated_session_is_refused(self, binary, route):
        vocab_size = len(binary.model.vocab)
        with pytest.raises(ValueError, match="exact"):
            _ROUTES[route](ReductionSession(binary.model, binary.nested, topk=vocab_size - 1))
        exact = _ROUTES[route](ReductionSession(binary.model, binary.nested, topk=None))
        # K >= |V| is exact mode
        for k in (vocab_size, vocab_size + 3, np.int64(vocab_size)):
            full = _ROUTES[route](ReductionSession(binary.model, binary.nested, topk=k))
            assert full == exact
        # K is fixed at construction, so a truncated session stays refused
        truncated = ReductionSession(binary.model, binary.nested, topk=1)
        with pytest.raises(AttributeError):
            truncated.topk = vocab_size
        with pytest.raises(ValueError, match="exact"):
            _ROUTES[route](truncated)


class TestIndependentWitness:
    # the oracle certifies the engine, so it shares none of its cover logic
    @staticmethod
    def _imports(path):
        tree = ast.parse(Path(path).read_text())
        return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]

    def test_oracle_takes_only_the_session_and_the_baseline(self):
        names = set()
        for node in self._imports(oracle.__file__):
            if isinstance(node, ast.ImportFrom) and node.module in ("reduction", "lvr.reduction"):
                names |= {alias.name for alias in node.names}
            else:
                assert not any(a.name.endswith("reduction") for a in node.names)
        assert names == {"ReductionSession", "naive_restriction_dist"}

    def test_bruteforce_imports_nothing_from_the_engine(self):
        for node in self._imports(Path(__file__).with_name("bruteforce.py")):
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            modules += [alias.name for alias in node.names]
            assert not any(m.split(".")[-1] == "reduction" for m in modules), ast.dump(node)


class TestTables:
    def test_tables_match_per_text_routes(self, binary):
        # the tree route is one walk, so the cover route is the independent
        # witness: the binary model, random greedy instances with and
        # without a terminator, and BPE reduced to bytes
        rng = np.random.default_rng(41)
        instances = [(binary.tokenizer, binary.model, binary.nested)]
        for i in range(30):
            if i % 3 == 2:
                tokenizer = random_merge_tokenizer(rng)
                vec = rng.uniform(0.05, 1.0, len(tokenizer.vocab))
                model = TableModel(tokenizer, {}, default=vec / vec.sum())
                inner = GreedyTokenizer(byte_vocabulary(tokenizer.vocab.alphabet))
                instances.append((tokenizer, model, NestedTokenizer(tokenizer, inner)))
            else:
                inst = make_instance(rng, n_symbols=int(rng.integers(2, 4)), with_eos=i % 3 == 0)
                instances.append((inst.tokenizer, inst.model, inst.nested))
        checked = 0
        for tokenizer, model, nested in instances:
            if not has_followers(tokenizer):
                continue
            table = original_prefix_prob_table(model, max_len=3)
            for text, value in table.items():
                assert abs(value - text_prefix_prob(model, tokenizer, text)) < 1e-12
            session = ReductionSession(model, nested, topk=None)
            reduced = reduced_prefix_prob_table(session, max_len=3)
            for text, value in reduced.items():
                assert abs(value - reduced_text_prefix_prob(session, text)) < 1e-12
            checked += 1
        assert checked >= 20

    def test_prefix_additivity_with_terminator(self):
        rng = np.random.default_rng(29)
        inst = make_instance(rng, n_symbols=2, with_eos=True)
        table = original_prefix_prob_table(inst.model, max_len=4)
        eos = bytes([inst.tokenizer.vocab.alphabet.eos])
        content = [b"a", b"b"]
        for text in [b"", b"a", b"ab", b"ba", b"aab"]:
            continued = sum(table[text + c] for c in content)
            terminated = text_prefix_prob(inst.model, inst.tokenizer, text + eos)
            assert abs(table[text] - (continued + terminated)) < 1e-12


class TestLosslessCheck:
    def test_passes_on_worked_example(self, binary):
        report = lossless_check(binary.model, binary.nested, max_len=3, tol=1e-9)
        assert report.passed
        assert report.max_discrepancy < 1e-12

    def test_identity_reduction_trivially_lossless(self, binary):
        identity = NestedTokenizer(binary.tokenizer, binary.tokenizer)
        report = lossless_check(binary.model, identity, max_len=3, tol=1e-9)
        assert report.passed

    def test_naive_restriction_is_lossy(self, binary):
        report = lossless_check(binary.model, binary.nested, max_len=3, method="naive")
        assert not report.passed
        assert report.max_discrepancy > 1e-3

    @pytest.mark.parametrize("method", ["reduction", "naive"])
    def test_texts_built_once_per_check(self, binary, monkeypatch, method):
        # both tables walk one text list; rows and visits are those of the
        # two tables run on their own
        built = []
        all_texts = oracle._all_texts
        monkeypatch.setattr(
            oracle, "_all_texts", lambda *args: built.append(args) or all_texts(*args)
        )
        report = lossless_check(binary.model, binary.nested, max_len=4, method=method)
        assert len(built) == 1
        first, second = oracle._Budget(None), oracle._Budget(None)
        original = original_prefix_prob_table(binary.model, 4, first)
        if method == "reduction":
            session = ReductionSession(binary.model, binary.nested, topk=None)
            reduced = reduced_prefix_prob_table(session, 4, second)
        else:
            reduced = oracle.naive_restriction_prefix_prob_table(
                binary.model, binary.nested, 4, second
            )
        assert report.rows == [(t, original[t], reduced[t]) for t in sorted(original)]
        assert report.budget_used == first.used + second.used
        assert len(built) == 3

    def test_a_nan_row_fails_the_check(self, binary, monkeypatch):
        # max() over the discrepancies skipped a NaN after the first row,
        # so this report passed with a maximum of 0.0
        nan_at_root(monkeypatch)
        report = lossless_check(binary.model, binary.nested, max_len=3)
        assert math.isnan({t: r for t, _, r in report.rows}[b"1"])
        assert math.isnan(report.max_discrepancy)
        assert not report.passed

    def test_unknown_method_refused(self, binary):
        with pytest.raises(ValueError, match="unknown method 'x'"):
            lossless_check(binary.model, binary.nested, max_len=2, method="x")

    def test_report_rows_are_per_text(self, binary):
        report = lossless_check(binary.model, binary.nested, max_len=2)
        assert {row[0] for row in report.rows} == {b"", b"0", b"1", b"00", b"01", b"10", b"11"}
        doc = report.to_json_dict()
        assert len(doc["rows"]) == len(report.rows)


class TestBudget:
    def test_tiny_budget_refused(self, binary):
        with pytest.raises(BudgetExceededError):
            lossless_check(binary.model, binary.nested, max_len=3, budget=5)

    def test_env_override(self, binary, monkeypatch):
        monkeypatch.setenv("LVR_ENUM_BUDGET", "5")
        with pytest.raises(BudgetExceededError):
            lossless_check(binary.model, binary.nested, max_len=3)

    def test_text_count_refused_before_texts_are_built(self, binary):
        # 2**19 - 1 texts of length <= 18: refused by count, allocating
        # nothing like the tens of megabytes the texts would take
        for run in (
            lambda: lossless_check(binary.model, binary.nested, max_len=18, budget=1000),
            lambda: original_prefix_prob_table(binary.model, max_len=18, budget=1000),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceededError, match="524287 texts"):
                    run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    def test_enumeration_budget_charged(self, binary):
        with pytest.raises(BudgetExceededError):
            minimal_cover(binary.tokenizer, b"0000", budget=3)


def _outcome(walk, limit=None) -> tuple[str, int]:
    """``repr`` of what ``walk(budget)`` returns, or of the refusal it
    raises, and the visits charged to the budget.  The naive restriction
    refuses a prefix whose retokenization puts no mass on a sub-token."""
    budget = oracle._Budget(limit)
    try:
        out = repr(walk(budget))
    except (BudgetExceededError, ModelError, ReductionError) as exc:
        out = f"{type(exc).__name__}: {exc}"
    return out, budget.used


def _generic_tree(rng):
    """A random tree over ``a`` and ``b``: surfaces of one to three
    symbols and maybe a terminator ``$``, weights fixed by the path that
    are positive, zero, negative or NaN, and a random prefix-closed set of
    texts of length <= 5."""
    surfaces = [bytes(rng.choice(list(b"ab"), int(rng.integers(1, 4))).tolist())
                for _ in range(int(rng.integers(1, 6)))]
    eos = None
    if rng.random() < 0.5:
        surfaces.append(b"$")
        eos = len(surfaces) - 1
    seed = int(rng.integers(2**32))

    def expand(path):
        draw = np.random.default_rng([seed, len(path), *path])
        weights = draw.uniform(0.0, 0.6, len(surfaces))
        kind = draw.integers(0, 8, len(surfaces))
        weights[kind == 0] = 0.0
        weights[kind == 1] = -0.25
        weights[kind == 2] = np.nan
        return weights

    max_len = int(rng.integers(0, 6))
    picked = [bytes(t) for n in range(max_len + 1) for t in product(b"ab", repeat=n)
              if rng.random() < 0.6]
    texts = sorted({t[:n] for t in picked for n in range(len(t) + 1)} | {b""})
    vocab = SimpleNamespace(surfaces=surfaces, eos_id=eos)
    return ((), expand, lambda s, y, w: s + (y,)), vocab, texts


def _model_routes(rng) -> dict:
    """Each route of the oracle on a random greedy or BPE instance, with
    the recursive reference walk of the same tree: ``name -> (oracle,
    reference, n_texts)``, the first two functions of the budget.  A table
    refuses a budget below its ``n_texts`` texts before it walks."""
    if rng.random() < 0.6:
        inst = make_instance(rng, n_symbols=int(rng.integers(2, 4)),
                             with_eos=bool(rng.random() < 0.5))
        model, nested = inst.model, inst.nested
    else:
        tokenizer = random_merge_tokenizer(rng)
        vec = rng.uniform(0.05, 1.0, len(tokenizer.vocab))
        model = TableModel(tokenizer, {}, default=vec / vec.sum())
        inner = GreedyTokenizer(byte_vocabulary(tokenizer.vocab.alphabet))
        nested = NestedTokenizer(tokenizer, inner)
    max_len = int(rng.integers(0, 4))
    texts = oracle._all_texts(model.vocab, max_len, oracle._Budget(None))
    symbols = sorted(model.vocab.alphabet.symbols)
    text = bytes(rng.choice(symbols, int(rng.integers(1, 5))).tolist())
    prefixes = [text[:n] for n in range(len(text) + 1)]

    def fresh():
        return ReductionSession(model, nested, topk=None)

    def session_tree(session):
        return session, lambda s: s.next_subtoken_dist().ptilde, lambda s, y, w: s.branch(y)

    def naive(prefix):
        return naive_restriction_dist(model, nested, prefix).probs

    return {
        "original": (
            lambda b: original_prefix_prob_table(model, max_len, b),
            lambda b: recursive_walk(chain(model.next_token_dist), model.vocab, texts, b),
            len(texts),
        ),
        "reduced": (
            lambda b: reduced_prefix_prob_table(fresh(), max_len, b),
            lambda b: recursive_walk(session_tree(fresh()), nested.vocab, texts, b),
            len(texts),
        ),
        "naive": (
            lambda b: oracle.naive_restriction_prefix_prob_table(model, nested, max_len, b),
            lambda b: recursive_walk(chain(naive), nested.vocab, texts, b),
            len(texts),
        ),
        "exhaustive": (
            lambda b: text_prefix_prob_exhaustive(model, text, b),
            lambda b: recursive_walk(chain(model.next_token_dist), model.vocab, prefixes,
                                     b)[text],
            0,
        ),
    }


class TestWalkMatchesRecursion:
    # the oracle's walk is a loop over an explicit stack; the recursive
    # walk it replaced is kept as the reference, and both must visit,
    # charge and add in the same order: equal reprs (NaN included), equal
    # visits, and a refusal at the same visit under a smaller budget
    @staticmethod
    def _same(ours, reference, rng, n_texts: int = 0) -> None:
        out, used = _outcome(ours)
        assert (out, used) == _outcome(reference)
        if used <= n_texts:
            return
        limit = int(rng.integers(n_texts, used))
        small = _outcome(ours, limit)
        assert small == _outcome(reference, limit)
        assert small[0].startswith("BudgetExceededError: enumeration exceeded")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_generic_trees(self, seed):
        rng = np.random.default_rng(seed)
        tree, vocab, texts = _generic_tree(rng)
        self._same(lambda b: oracle._walk(tree, vocab, texts, b),
                   lambda b: recursive_walk(tree, vocab, texts, b), rng)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_model_routes(self, seed):
        rng = np.random.default_rng(seed)
        for ours, reference, n_texts in _model_routes(rng).values():
            self._same(ours, reference, rng, n_texts)


class TestDeepTexts:
    def test_a_3000_byte_text_is_the_marginal(self):
        # the recursive walk reached Python's recursion limit here
        alphabet = Alphabet.of("ab")
        tokenizer = GreedyTokenizer(Vocabulary([b"a", b"b"], alphabet))
        model = TableModel(tokenizer, {}, default=np.array([0.999, 0.001]))
        assert text_prefix_prob_exhaustive(model, b"a" * 3000) == model.marginal((0,) * 3000)

    def test_model_routes_walk_by_node(self, monkeypatch):
        # each descent is one child of a node, never a prefix looked up
        # from the root
        looked_up = []
        node = LanguageModel.node
        monkeypatch.setattr(LanguageModel, "node",
                            lambda model, prefix: looked_up.append(len(prefix))
                            or node(model, prefix))
        model = binary_instance().model
        original_prefix_prob_table(model, 6)
        text_prefix_prob_exhaustive(model, b"0010010001")
        assert looked_up == []
        # the counter sees the tuple route of the reference
        recursive_walk(chain(model.next_token_dist), model.vocab, [b"", b"0"],
                       oracle._Budget(None))
        assert looked_up
