"""Brute-force text-distribution oracles.

Everything here computes probabilities of the form "the generated text
starts with these bytes" by exhaustive enumeration, independently of the
reduction engine's cover recursion, so the engine can be certified against
it on small instances.  Two routes share no code.  The cover route sums
marginals over the enumerated minimal cover of a text: the model's, or the
engine's unnormalized ones over covers under the nested tokenizer.  The
tree route is one walk, :func:`_walk`, a loop over the tree of a generator
that adds each extension's probability to the texts it first covers; it
walks the model's token tree node by node, the reduction session's
sub-token tree (weighted by the engine's unnormalized marginals) and the
naive-restriction baseline's.
The tables are tested against the cover route, so a defect in either route
or in the engine shows up as a discrepancy.

All enumerations charge a shared budget (default 2e6 visits, overridable
via the ``LVR_ENUM_BUDGET`` environment variable) and refuse to run past
it; a table refuses more texts than the budget before building them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
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
    """``LVR_ENUM_BUDGET``, a non-negative integer; unset or empty is the default."""
    raw = os.environ.get("LVR_ENUM_BUDGET") or str(DEFAULT_ENUM_BUDGET)
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"LVR_ENUM_BUDGET must be a non-negative integer, not {raw!r}")
    return int(raw)


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
    tree = _chain(model.next_token_dist, model.root, model.child)
    return _walk(tree, model.vocab, prefixes, budget)[text]


def _require_fresh_exact(session: ReductionSession) -> None:
    """Refuse a session that has stepped or that top-K truncates: its
    marginals are not the reduced model's from the empty text."""
    if session.prefix:
        raise ValueError("reduced-model oracle requires a fresh session (empty prefix)")
    if session.topk is not None:
        raise ValueError("reduced-model oracle requires an exact (untruncated) session")


def reduced_text_prefix_prob(
    session: ReductionSession,
    text: bytes,
    budget: int | _Budget | None = None,
) -> float:
    """Text-prefix probability under the reduced model: enumerate the
    minimal cover of ``text`` with the nested tokenizer, then sum the
    engine's true marginals ``p~`` over it.  Each cover sequence is walked
    from ``session`` by :meth:`ReductionSession.branch`, which leaves the
    session where it was; the session must be fresh and exact.
    """
    _require_fresh_exact(session)
    total = 0.0
    for ys in minimal_cover(session.nested, text, budget):
        walker, p = session, 1.0
        for y in ys:
            p = walker.next_subtoken_dist().ptilde.item(y)
            if p <= 0.0:
                break
            walker = walker.branch(y)
        total += p
    return total


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
    text shorter than the longest.  ``texts`` must be closed under prefixes
    (every caller's are): an extension's scan stops at its first new
    prefix that is not a text.  The empty text has probability 1.  A frame
    of the stack resumes its iterator of extensions after each child, so
    the order is a recursive walk's, and depth costs no Python recursion.
    """
    root, expand, child = tree
    bud = _as_budget(budget)
    found = dict.fromkeys(texts, 0.0)
    found[b""] = 1.0
    longest = max(map(len, found))
    surfaces, eos = vocab.surfaces, vocab.eos_id
    weights = expand(root)
    bud.tick(len(weights))
    stack = [(root, b"", 0, enumerate(weights.tolist()))]
    while stack:
        state, decoded, depth, extensions = stack[-1]
        first = depth + 1  # length of an extension's first new prefix
        for y, w in extensions:
            if w <= 0.0:  # not `not w > 0.0`: a NaN weight is added
                continue
            nd = decoded + surfaces[y]
            n = len(nd)
            if n == first:
                if nd not in found:
                    continue
                found[nd] += w
            else:
                for m in range(first, n + 1):
                    t = nd[:m]
                    if t not in found:
                        n = longest  # nd is no text either: no descent
                        break
                    found[t] += w
            if n < longest and y != eos:
                state = child(state, y, w)
                weights = expand(state)
                bud.tick(len(weights))
                stack.append((state, nd, n, enumerate(weights.tolist())))
                break
        else:
            stack.pop()
    return found


def _chain(cond: Callable[..., np.ndarray], root=(), child=lambda p, y: p + (y,)):
    """Tree of an autoregressive generator with conditionals ``cond(prefix)``;
    a state is ``(prefix, probability)``, the prefix a tuple or, given a
    model's ``root`` and ``child``, its node, stepped to without a walk
    from the root."""
    return (root, 1.0), lambda s: s[1] * cond(s[0]), lambda s, y, w: (child(s[0], y), w)


def original_prefix_prob_table(
    model: LanguageModel, max_len: int, budget: int | _Budget | None = None
) -> dict[bytes, float]:
    """Token-tree walk of the original model: prefix probability of every
    terminator-free text of length <= ``max_len``."""
    bud = _as_budget(budget)
    texts = bud.texts(model.vocab, max_len)
    tree = _chain(model.next_token_dist, model.root, model.child)
    return _walk(tree, model.vocab, texts, bud)


def reduced_prefix_prob_table(
    session: ReductionSession, max_len: int, budget: int | _Budget | None = None
) -> dict[bytes, float]:
    """Sub-token-tree walk of the reduced model, using the engine's true
    unnormalized marginals ``p~``; the session must be fresh and exact.
    Each descended sub-token is one :meth:`ReductionSession.branch`."""
    _require_fresh_exact(session)
    bud = _as_budget(budget)
    texts = bud.texts(session.model.vocab, max_len)
    tree = (session, lambda s: s.next_subtoken_dist().ptilde, lambda s, y, w: s.branch(y))
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
    """Per-text comparison of original vs reduced prefix probabilities;
    the fields are in the order of the JSON document, ``rows`` last."""

    instance: str
    method: str
    max_len: int
    tolerance: float
    max_discrepancy: float
    passed: bool
    budget_used: int
    rows: list[tuple[bytes, float, float]]  # (text, original, reduced)

    def to_json_dict(self) -> dict:
        """Every field by name, each row's text escaped and its discrepancy
        added; a number that is not finite is ``None``, JSON's ``null``."""
        def finite(x: float) -> float | None:
            return x if math.isfinite(x) else None

        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["max_discrepancy"] = finite(self.max_discrepancy)
        doc["rows"] = [
            {"text": escape_bytes(text), "original": finite(orig), "reduced": finite(red),
             "discrepancy": finite(abs(orig - red))}
            for text, orig, red in self.rows
        ]
        return doc


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
    baseline, which is expected to fail.  The maximum discrepancy is NaN,
    and the check fails, if any row's is not finite.  Raises
    ``BudgetExceededError`` instead of starting an enumeration larger than
    the budget.
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
    discs = [abs(o - r) for _, o, r in rows]
    max_disc = max(discs) if all(map(math.isfinite, discs)) else math.nan
    return PrefixProbReport(
        instance=instance,
        method=method,
        max_len=max_len,
        tolerance=tol,
        max_discrepancy=max_disc,
        passed=bool(max_disc <= tol),
        budget_used=bud.used,
        rows=rows,
    )
