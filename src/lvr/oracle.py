"""Brute-force text-distribution oracles.

Everything here computes probabilities of the form "the generated text
starts with these bytes" by exhaustive enumeration, independently of the
reduction engine's cover recursion, so the engine can be certified against
it on small instances.  Two routes share no code.  The cover route sums
marginals over the enumerated minimal cover of a text: the model's, or the
engine's unnormalized ones over covers under the nested tokenizer.  The
tree route is one walk, :func:`_walk`, over the tree of a generator, adding
each extension's probability to the texts it first covers; it walks the
model's token tree, the reduction session's sub-token tree (weighted by
the engine's unnormalized marginals) and the naive-restriction baseline's.
The tables are tested against the cover route, so a defect in either route
or in the engine shows up as a discrepancy.

All enumerations charge a shared budget (default 2e6 visits, overridable
via the ``LVR_ENUM_BUDGET`` environment variable) and refuse to run past
it; a table refuses more texts than the budget before building them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .errors import BudgetExceededError
from .files import escape_bytes
from .model import LanguageModel
from .reduction import ReductionSession, naive_restriction_dist
from .tokenization import DeterministicTokenizer, NestedTokenizer, TokenSeq, Vocabulary

DEFAULT_ENUM_BUDGET = 2_000_000


def enumeration_budget() -> int:
    raw = os.environ.get("LVR_ENUM_BUDGET")
    return int(raw) if raw else DEFAULT_ENUM_BUDGET


class _Budget:
    def __init__(self, limit: int | None):
        self.limit = limit if limit is not None else enumeration_budget()
        self.used = 0
        self._texts: dict[tuple, list[bytes]] = {}  # (alphabet, max_len) -> texts

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                f"enumeration exceeded the budget of {self.limit} visits"
            )

    def texts(self, vocab: Vocabulary, max_len: int) -> list[bytes]:
        """:func:`_all_texts`, built once per alphabet and length, so the
        tables of one check share one list."""
        key = (vocab.alphabet, max_len)
        if key not in self._texts:
            self._texts[key] = _all_texts(vocab, max_len, self)
        return self._texts[key]


def _as_budget(budget: "int | _Budget | None") -> _Budget:
    return budget if isinstance(budget, _Budget) else _Budget(budget)


def minimal_cover(
    tokenizer: DeterministicTokenizer, text: bytes, budget: int | _Budget | None = None
) -> list[TokenSeq]:
    """All valid token sequences that cover ``text`` and only just: dropping
    the last token leaves a proper prefix of ``text``.

    Enumerated exhaustively; decoded lengths never exceed ``len(text) - 1``
    plus one token surface.  The empty text is covered by the empty
    sequence alone.
    """
    if text == b"":
        return [()]
    bud = _as_budget(budget)
    surfaces = tokenizer.vocab.surfaces
    found: list[TokenSeq] = []

    def rec(seq: TokenSeq, decoded: bytes) -> None:
        for tid, surf in enumerate(surfaces):
            bud.tick()
            nd = decoded + surf
            if len(nd) >= len(text):
                if nd.startswith(text) and tokenizer.is_valid(seq + (tid,)):
                    found.append(seq + (tid,))
            elif text.startswith(nd):
                rec(seq + (tid,), nd)

    rec((), b"")
    return found


def text_prefix_prob(
    model: LanguageModel,
    tokenizer: DeterministicTokenizer,
    text: bytes,
    budget: int | _Budget | None = None,
) -> float:
    """Probability that the decoded output starts with ``text``: the sum of
    the model's marginals over the enumerated minimal cover."""
    return sum(model.marginal(seq) for seq in minimal_cover(tokenizer, text, budget))


def text_prefix_prob_exhaustive(
    model: LanguageModel, text: bytes, budget: int | _Budget | None = None
) -> float:
    """Same quantity by direct token-tree enumeration: walk every
    positive-probability token sequence until its decoding first extends
    ``text``, never past the terminator, accumulating chain-rule
    marginals.  Shares no code with the cover route."""
    if text == b"":
        return 1.0
    prefixes = [text[:n] for n in range(len(text) + 1)]
    return _walk(_chain(model.next_token_dist), model.vocab, prefixes, budget)[text]


def reduced_text_prefix_prob(
    session_factory: Callable[[], ReductionSession],
    text: bytes,
    budget: int | _Budget | None = None,
) -> float:
    """Text-prefix probability under the reduced model: enumerate the
    minimal cover of ``text`` with the nested tokenizer, then sum the
    engine's unnormalized marginals over it.

    Sessions must be exact (no top-K truncation) for the result to be a
    true probability.
    """
    probe = session_factory()
    if probe.topk is not None and probe.topk < len(probe.model.vocab):
        raise ValueError("reduced-model oracle requires exact (untruncated) sessions")
    cover = minimal_cover(probe.nested, text, budget)
    total = 0.0
    for ys in cover:
        total += _session_marginal(session_factory(), ys)
    return total


def _session_marginal(session: ReductionSession, ys: TokenSeq) -> float:
    if not ys:
        return 1.0
    for i, y in enumerate(ys):
        dist = session.next_subtoken_dist()
        raw = float(dist.raw_marginals[y])
        if raw <= 0.0:
            return 0.0
        if i + 1 == len(ys):
            return math.ldexp(raw, dist.exponent)
        session.step(y)
    raise AssertionError("unreachable")


# -- the tree route -------------------------------------------------------
#
# The per-text oracles above cost an enumeration per call.  The tables
# compute prefix probabilities for *every* text up to a length in a single
# walk, which is what the randomized acceptance suites run on.


def _all_texts(vocab: Vocabulary, max_len: int, budget: _Budget) -> list[bytes]:
    """Every terminator-free text of length <= ``max_len``, shortest first;
    more texts than the budget's limit are refused before any is built."""
    symbols = sorted(s for s in vocab.alphabet.symbols if s != vocab.alphabet.eos)
    count = sum(len(symbols) ** n for n in range(max_len + 1))
    if count > budget.limit:
        raise BudgetExceededError(
            f"{count} texts of length <= {max_len} exceed the budget {budget.limit}"
        )
    return [bytes(t) for n in range(max_len + 1) for t in product(symbols, repeat=n)]


def _walk(
    tree, vocab: Vocabulary, texts: list[bytes], budget: int | _Budget | None
) -> dict[bytes, float]:
    """Prefix probability of each of ``texts`` under a generator over
    ``vocab``, by one depth-first walk of its tree ``(root, expand, child)``.

    ``expand(state)`` is the absolute probability of each one-step extension
    of ``state``, indexed by id; ``child(state, y, weight)`` makes the state
    of extension ``y``.  Each extension costs one budget visit; one of
    weight > 0 adds its weight to every text its decoding first covers, and
    is descended into only while that decoding is not terminated and is a
    text shorter than the longest: ``texts`` are closed under prefixes, so
    this is a proper prefix of a text.  The empty text has probability 1.
    """
    root, expand, child = tree
    bud = _as_budget(budget)
    found = dict.fromkeys(texts, 0.0)
    found[b""] = 1.0
    longest = max(map(len, found))
    surfaces, eos = vocab.surfaces, vocab.eos_id

    def rec(state, decoded: bytes) -> None:
        weights = expand(state)
        bud.tick(len(weights))
        lo = len(decoded)
        for y, w in enumerate(weights.tolist()):
            if w <= 0.0:
                continue
            nd = decoded + surfaces[y]
            for n in range(lo + 1, min(len(nd), longest) + 1):
                t = nd[:n]
                if t in found:
                    found[t] += w
            if len(nd) < longest and nd in found and y != eos:
                rec(child(state, y, w), nd)

    rec(root, b"")
    return found


def _chain(cond: Callable[[TokenSeq], np.ndarray]):
    """Tree of an autoregressive generator with conditionals ``cond(prefix)``;
    a state is ``(prefix, probability)``."""
    return ((), 1.0), lambda s: s[1] * cond(s[0]), lambda s, y, w: (s[0] + (y,), w)


def original_prefix_prob_table(
    model: LanguageModel, max_len: int, budget: int | _Budget | None = None
) -> dict[bytes, float]:
    """Token-tree walk of the original model: prefix probability of every
    terminator-free text of length <= ``max_len``."""
    bud = _as_budget(budget)
    texts = bud.texts(model.vocab, max_len)
    return _walk(_chain(model.next_token_dist), model.vocab, texts, bud)


def reduced_prefix_prob_table(
    session: ReductionSession, max_len: int, budget: int | _Budget | None = None
) -> dict[bytes, float]:
    """Sub-token-tree walk of the reduced model, using the engine's
    unnormalized marginals, scaled back by their exponent; the session must
    be fresh and exact.  Each descended sub-token is one
    :meth:`ReductionSession.branch`."""
    bud = _as_budget(budget)
    texts = bud.texts(session.model.vocab, max_len)

    def expand(s: ReductionSession) -> np.ndarray:
        dist = s.next_subtoken_dist()
        if dist.exponent:
            return np.ldexp(dist.raw_marginals, dist.exponent)
        return dist.raw_marginals

    tree = (session, expand, lambda s, y, w: s.branch(y))
    return _walk(tree, session.nested.vocab, texts, bud)


def naive_restriction_prefix_prob_table(
    model: LanguageModel,
    nested: NestedTokenizer,
    max_len: int,
    budget: int | _Budget | None = None,
) -> dict[bytes, float]:
    """Text-prefix probabilities of the naive-restriction baseline, treating
    it as an autoregressive generator over the sub-vocabulary."""
    bud = _as_budget(budget)
    texts = bud.texts(model.vocab, max_len)
    tree = _chain(lambda prefix: naive_restriction_dist(model, nested, prefix).probs)
    return _walk(tree, nested.vocab, texts, bud)


@dataclass
class PrefixProbReport:
    """Per-text comparison of original vs reduced prefix probabilities."""

    instance: str
    method: str
    max_len: int
    tolerance: float
    rows: list[tuple[bytes, float, float]]  # (text, original, reduced)
    max_discrepancy: float
    passed: bool
    budget_used: int

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "method": self.method,
            "max_len": self.max_len,
            "tolerance": self.tolerance,
            "max_discrepancy": self.max_discrepancy,
            "passed": self.passed,
            "budget_used": self.budget_used,
            "rows": [
                {
                    "text": escape_bytes(text),
                    "original": orig,
                    "reduced": red,
                    "discrepancy": abs(orig - red),
                }
                for text, orig, red in self.rows
            ],
        }


def lossless_check(
    model: LanguageModel,
    nested: NestedTokenizer,
    max_len: int,
    tol: float = 1e-9,
    budget: int | _Budget | None = None,
    method: str = "reduction",
    instance: str = "",
) -> PrefixProbReport:
    """Compare original and reduced text-prefix probabilities for every
    terminator-free text up to ``max_len``.

    ``method="reduction"`` checks the exact reduction engine (this is the
    lossless claim); ``method="naive"`` substitutes the naive-restriction
    baseline, which is expected to fail.  Raises ``BudgetExceededError``
    instead of starting an enumeration larger than the budget.
    """
    if method not in ("reduction", "naive"):
        raise ValueError(f"unknown method {method!r}")
    bud = _as_budget(budget)
    original = original_prefix_prob_table(model, max_len, bud)
    if method == "reduction":
        session = ReductionSession(model, nested, topk=None)
        reduced = reduced_prefix_prob_table(session, max_len, bud)
    else:
        reduced = naive_restriction_prefix_prob_table(model, nested, max_len, bud)
    rows = [(t, float(original[t]), float(reduced[t])) for t in sorted(original)]
    max_disc = max(abs(o - r) for _, o, r in rows)
    return PrefixProbReport(
        instance=instance,
        method=method,
        max_len=max_len,
        tolerance=tol,
        rows=rows,
        max_discrepancy=max_disc,
        passed=bool(max_disc <= tol),
        budget_used=bud.used,
    )
