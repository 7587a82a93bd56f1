"""Autoregressive next-token-distribution sources at desk scale.

A model returns, for a valid token prefix, one probability vector over its
whole vocabulary in a single call.  Every emitted distribution is validity
masked: continuations that the encoder could never produce get probability
exactly 0.  Distributions are plain float64 numpy arrays.

Two concrete models are provided: a hand-written conditional table and an
additively-smoothed n-gram trained on a corpus.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from typing import Hashable, Sequence

import numpy as np

from .errors import ModelError, TokenizationError
from .tokenization import DeterministicTokenizer, TokenSeq


class Node:
    """One valid prefix in a model's cache: its validity mask and its masked
    distribution (``None`` until computed), both shared read-only arrays, and
    the nodes of its one-token extensions by id.  It does not store its prefix."""

    __slots__ = ("dist", "mask", "children")

    def __init__(self, mask: np.ndarray):
        self.mask = mask
        self.dist: np.ndarray | None = None
        self.children: dict[int, Node] = {}


class LanguageModel:
    """Base class: subclasses supply the raw (unmasked) conditional table.

    Valid prefixes are cached in a prefix tree rooted at :attr:`root`, one
    :class:`Node` per valid prefix, reached only through :meth:`node`.  A
    node is added once its prefix is validated, with its mask: ``p + (x,)``
    is valid iff ``p`` is valid and ``p``'s mask admits ``x``, so no prefix
    is re-encoded to validate it.  The mask is the tokenizer's memoized
    row (:meth:`DeterministicTokenizer.valid_continuations`), shared with
    every other model over that tokenizer.  The tree grows by one node per
    valid prefix reached, ancestors included, and is never pruned, but its
    nodes share one distribution per (:meth:`model_context`, mask) pair.

    A valid prefix must have at least one valid continuation.  A vocabulary
    with no terminator in which every follower of some token would be
    absorbed into a longer token breaks this (BPE merges a+a, a+b, a+c over
    ``abc``, or greedy {a, b, aa, ab} over ``ab``): after that token every
    continuation is masked out, so :meth:`next_token_dist` raises
    :class:`ModelError` there, and so do a reduction session and
    ``original_prefix_prob_table`` that reach it.
    """

    def __init__(self, tokenizer: DeterministicTokenizer):
        self.tokenizer = tokenizer

    @property
    def vocab(self):
        return self.tokenizer.vocab

    def raw_next_token_dist(self, prefix: TokenSeq) -> np.ndarray:
        raise NotImplementedError

    def model_context(self, prefix: TokenSeq) -> Hashable | None:
        """Key that fixes ``raw_next_token_dist(prefix)``; ``None`` shares nothing."""
        return None

    @cached_property
    def root(self) -> Node:
        """Node of the empty prefix, built on first use: construction builds no mask."""
        return Node(self.tokenizer.valid_continuations(()))

    @cached_property
    def _dists(self) -> dict[tuple[Hashable, int], np.ndarray]:
        return {}  # (model context, id of the mask) -> masked distribution

    def node(self, prefix: Sequence[int], parent: Node | None = None) -> Node:
        """Tree node of the valid prefix ``prefix``, added with its missing
        ancestors on first use.  ``parent``, when given, must be the node of
        ``prefix[:-1]``: a known prefix is then one child read, whatever its
        length; without it the tree is walked from the root.  Each missing
        step is validated by its parent node's mask.  A refusal names the
        first of: a terminator among the missing steps, an unknown id among
        them (:class:`TokenizationError`), a step the mask refuses.
        """
        if parent is not None:
            node = parent.children.get(prefix[-1])
            if node is not None:
                return node
            start = len(prefix) - 1
        else:
            parent, start = self.root, 0
            for t in prefix:
                node = parent.children.get(t)
                if node is None:
                    break
                parent, start = node, start + 1
            else:
                return parent
        key = tuple(prefix)
        new = key[start:]
        if self.vocab.eos_id in new:
            raise ModelError("cannot continue a terminated sequence")
        size = len(parent.mask)
        for x in new:
            if not 0 <= x < size:
                raise TokenizationError(f"unknown token id {x}")
        for x in new:
            if not parent.mask[x]:
                raise ModelError(f"prefix {key} is not a valid token sequence")
            start += 1
            mask = self.tokenizer.valid_continuations(key[:start])
            parent.children[x] = node = Node(mask)
            parent = node
        return node

    def valid_mask(self, prefix: Sequence[int]) -> np.ndarray:
        """Boolean validity mask of a valid prefix's node: entry ``x`` is
        True iff ``prefix + (x,)`` is valid.  It is the tokenizer's read-only
        row for the prefix's mask context, one array per context across all
        models over the tokenizer (at most ``|V| + 1`` of them for BPE).
        """
        return self.node(prefix).mask

    def next_token_dist(
        self, prefix: Sequence[int], parent: Node | None = None
    ) -> np.ndarray:
        """Masked distribution over the full vocabulary, renormalized over
        the valid continuations, in one call.

        The prefix must be valid and must not contain the terminator; it is
        reached or added by :meth:`node`, with ``parent`` passed on.  Its
        distribution is computed once per (model context, mask) pair, and the
        returned array is read-only and shared.  Refusals are not stored.
        """
        node = self.node(prefix, parent)
        if node.dist is not None:
            return node.dist
        key = tuple(prefix)
        context = self.model_context(key)
        # The fill reads the raw row, fixed by the model context, and the mask.
        # A mask is a read-only row that its node keeps alive (nodes are never
        # freed), so its id names one row; rows are interned per mask context.
        memo = None if context is None else (context, id(node.mask))
        out = self._dists.get(memo)
        if out is None:
            raw = np.asarray(self.raw_next_token_dist(key), dtype=float)
            out = np.where(node.mask, raw, 0.0)
            total = out.sum()
            if total <= 0.0:
                raise ModelError(
                    f"all probability mass fell on invalid continuations of {key}"
                )
            out = out / total
            out.setflags(write=False)
            if memo is not None:
                self._dists[memo] = out
        node.dist = out
        return out

    def marginal(self, ids: Sequence[int]) -> float:
        """Probability that a generated sequence starts with ``ids``,
        computed as the telescoping product of conditionals.

        The empty prefix has marginal 1.  A sequence that continues past the
        terminator, or whose conditional chain hits an exact zero, has
        marginal 0 without further model queries.  An id out of range raises
        :class:`TokenizationError`, as :meth:`node` does.  Each conditional is
        read through the node of the previous prefix, so the tree is walked
        once.
        """
        ids = tuple(ids)
        eos, size = self.vocab.eos_id, len(self.vocab)
        p = 1.0
        parent = None  # node of ids[:s - 1]
        for s, tok in enumerate(ids):
            if eos is not None and s > 0 and ids[s - 1] == eos:
                return 0.0
            if not 0 <= tok < size:
                raise TokenizationError(f"unknown token id {tok}")
            cond = self.next_token_dist(ids[:s], parent)[tok]
            if cond == 0.0:
                return 0.0
            p *= cond
            parent = self.root if s == 0 else parent.children[ids[s - 1]]
        return p


def _check_probs(vec: np.ndarray, size: int, what: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (size,):
        raise ModelError(f"{what}: expected {size} probabilities, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)) or np.any(vec < 0):
        raise ModelError(f"{what}: probabilities must be finite and non-negative")
    if abs(vec.sum() - 1.0) > 1e-6:
        raise ModelError(f"{what}: probabilities sum to {vec.sum()}, not 1")
    return vec


class TableModel(LanguageModel):
    """Next-token distributions read from an explicit prefix-keyed table.

    Prefixes absent from the table fall back to the declared default
    distribution, so small hand-written models stay closed under extension.
    The table is fixed at construction.
    """

    _DEFAULT_ROW = object()  # model context of every prefix the default serves

    def __init__(
        self,
        tokenizer: DeterministicTokenizer,
        entries: dict[TokenSeq, np.ndarray],
        default: np.ndarray | None = None,
    ):
        super().__init__(tokenizer)
        size = len(tokenizer.vocab)
        self.entries = {
            tuple(k): _check_probs(v, size, f"table entry {tuple(k)}")
            for k, v in entries.items()
        }
        self.default = (
            _check_probs(default, size, "default distribution")
            if default is not None
            else None
        )
        # a prefix longer than every key is not hashed to miss the table
        self._longest = max(map(len, self.entries), default=-1)

    def model_context(self, prefix: TokenSeq) -> Hashable:
        """The prefix if it is a table key, else the default row's key."""
        if len(prefix) <= self._longest and prefix in self.entries:
            return prefix
        return self._DEFAULT_ROW

    def raw_next_token_dist(self, prefix: TokenSeq) -> np.ndarray:
        context = self.model_context(prefix)
        if context is not self._DEFAULT_ROW:
            return self.entries[context]
        if self.default is None:
            raise ModelError(f"no table entry for prefix {prefix} and no default")
        return self.default


class NgramModel(LanguageModel):
    """Additively-smoothed n-gram over token ids.

    ``order`` is the number of conditioning tokens (order 1 is a bigram
    model).  Conditionals are ``(count + alpha) / (total + alpha * |V|)``,
    masked to valid continuations afterwards.
    """

    def __init__(
        self,
        tokenizer: DeterministicTokenizer,
        order: int,
        alpha: float,
        counts: dict[TokenSeq, np.ndarray],
    ):
        if order < 1:
            raise ModelError("n-gram order must be at least 1")
        if not 0 < alpha < math.inf:
            raise ModelError("smoothing constant must be positive and finite")
        super().__init__(tokenizer)
        self.order = order
        self.alpha = alpha
        self.counts = counts

    def model_context(self, prefix: TokenSeq) -> TokenSeq:
        """The last ``order`` tokens, all that the conditional reads."""
        return prefix[-self.order :]

    def raw_next_token_dist(self, prefix: TokenSeq) -> np.ndarray:
        counts = self.counts.get(self.model_context(prefix))
        size = len(self.vocab)
        if counts is None:
            counts = np.zeros(size)
        return (counts + self.alpha) / (counts.sum() + self.alpha * size)


def train_ngram(
    corpus: list[bytes],
    tokenizer: DeterministicTokenizer,
    order: int,
    alpha: float,
) -> NgramModel:
    """Count n-grams over the encoded corpus, one terminator appended per
    document.  ``counts`` lists contexts in order of first occurrence."""
    counts: dict[TokenSeq, np.ndarray] = {}
    model = NgramModel(tokenizer, order, alpha, counts)  # refuses before encoding
    if not corpus:
        raise ModelError("training corpus is empty")
    eos = tokenizer.vocab.eos_id
    if eos is None:
        raise ModelError("n-gram training requires a vocabulary with a terminator")
    grams: Counter[TokenSeq] = Counter()  # context + (token,) -> count
    for doc in corpus:
        ids = tokenizer.encode(doc)
        if eos in ids:
            raise ModelError("corpus document contains the terminator symbol")
        ids += (eos,)
        # the first ``order`` tokens have shorter contexts
        grams.update([ids[: i + 1] for i in range(min(order, len(ids)))])
        grams.update(zip(*[ids[j:] for j in range(order + 1)]))
    for context in dict.fromkeys(g[:-1] for g in grams):
        counts[context] = np.zeros(len(tokenizer.vocab))
    for gram, n in grams.items():
        counts[gram[:-1]][gram[-1]] = n
    return model
