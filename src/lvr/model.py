"""Autoregressive next-token-distribution sources at desk scale.

A model returns, for a valid token prefix, one probability vector over its
whole vocabulary in a single call.  Every emitted distribution is validity
masked: continuations that the encoder could never produce get probability
exactly 0.  Distributions are plain float64 numpy arrays.

Two concrete models are provided: a hand-written conditional table and an
additively-smoothed n-gram trained on a corpus, whose counts are sparse rows
(:class:`NgramCounts`).
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from functools import cached_property
from typing import Hashable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ModelError, TokenizationError
from .tokenization import DeterministicTokenizer, TokenSeq, is_token_id


class Node:
    """One valid prefix in a model's cache, and the sequence it stands for:
    ``len(node)`` is its length, and ``node[i:]`` (``i`` may be negative) and
    iteration build its tokens by walking ``parent`` links, in O(tokens
    built).  It holds its validity mask, its masked distribution and that
    distribution's ranking (each ``None`` until computed), all shared
    read-only arrays, the nodes of its one-token extensions by id, its
    parent's node (``None`` at the root), the token that extends the parent
    (``-1`` at the root) and its length ``depth``."""

    __slots__ = ("dist", "ranking", "mask", "children", "parent", "token", "depth")

    def __init__(self, mask: np.ndarray, parent: Node | None = None, token: int = -1):
        self.mask = mask
        self.dist: np.ndarray | None = None
        self.ranking: np.ndarray | None = None
        self.children: dict[int, Node] = {}
        self.parent = parent
        self.token = token
        self.depth: int = 0 if parent is None else parent.depth + 1

    def __len__(self) -> int:
        return self.depth

    def __iter__(self) -> Iterator[int]:
        return iter(self[:])

    def __getitem__(self, index: slice) -> TokenSeq:
        if type(index) is not slice or index.stop is not None or index.step is not None:
            raise TypeError(f"a node takes only node[i:], not {index!r}")
        n = self.depth - index.indices(self.depth)[0]
        out = []
        node = self
        while n:
            out.append(node.token)
            node = node.parent
            n -= 1
        out.reverse()
        return tuple(out)


def _descending(dist: np.ndarray) -> np.ndarray:
    """The ids of ``dist`` in descending order, ties lower id first, as
    ``np.argsort(-dist, kind="stable")`` gives them without its Python
    wrapper (about 1 of 6.5 us at |V| = 346, 2-vCPU Xeon)."""
    return (-dist).argsort(kind="stable")


class LanguageModel:
    """Base class: subclasses supply the raw (unmasked) conditional table.

    Valid prefixes are cached in a prefix tree rooted at :attr:`root`, one
    :class:`Node` per valid prefix, made only by :meth:`child` (one token
    past a node); :meth:`node` walks a token sequence by :meth:`child` from
    the root.  A node is added once its prefix is validated, with its mask:
    ``p + (x,)`` is valid iff ``p`` is valid and ``p``'s mask admits ``x``,
    so no prefix is re-encoded to validate it.  The mask is the tokenizer's
    memoized row (:meth:`DeterministicTokenizer.valid_continuations`) for
    the node, shared with every other model over that tokenizer.  The tree
    grows by one node per valid prefix reached, ancestors included, and is
    never pruned (a node and its parent refer to each other, so the tree is
    freed with the model by the cyclic collector), but its nodes share one
    distribution per (:meth:`model_context`, mask) pair, and one
    :meth:`ranking` per distribution, made only when a caller asks for it.

    Each step that adds a node, and :meth:`marginal`, checks its id with
    :func:`is_token_id`.  A step onto a node already added is a dict read,
    unchecked so as not to cost every oracle step: it finds the child by
    ``==``, so once ``(1,)`` has a node, ``node((True,))`` returns it.

    The hooks :meth:`model_context`, :meth:`raw_next_token_dist` and the
    tokenizer's ``mask_context`` get a prefix as a tuple or a :class:`Node`,
    read it only by ``len``, iteration and ``p[i:]``, and return a hashable
    key or a row, never the node.

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

    def raw_next_token_dist(self, prefix: TokenSeq | Node) -> np.ndarray:
        raise NotImplementedError

    def model_context(self, prefix: TokenSeq | Node) -> Hashable | None:
        """Key that fixes ``raw_next_token_dist(prefix)``; ``None`` shares nothing."""
        return None

    @cached_property
    def root(self) -> Node:
        """Node of the empty prefix, built on first use: construction builds no mask."""
        return Node(self.tokenizer.valid_continuations(()))

    @cached_property
    def _dists(self) -> dict[tuple[Hashable, int], np.ndarray]:
        return {}  # (model context, id of the mask) -> masked distribution

    @cached_property
    def _rankings(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        # id of a distribution -> (that distribution, its ranking); holding
        # the distribution keeps its id from naming another array
        return {}

    def node(self, prefix: Sequence[int]) -> Node:
        """Tree node of the valid prefix ``prefix``, a walk of :meth:`child`
        from the root: it adds the missing nodes or refuses the first bad step."""
        node = self.root
        for x in prefix:
            node = self.child(node, x)
        return node

    def child(self, node: Node, x: int) -> Node:
        """Node of ``node``'s prefix extended by ``x``, the one place a node
        is checked and made: a child read once added, else refused if ``x``
        is the terminator, is no token id (:class:`TokenizationError`) or
        is refused by the mask (naming ``node``'s prefix plus ``x``)."""
        out = node.children.get(x)
        if out is not None:
            return out
        if x == self.vocab.eos_id:
            raise ModelError("cannot continue a terminated sequence")
        if not is_token_id(x, len(node.mask)):
            raise TokenizationError(f"unknown token id {x}")
        if not node.mask[x]:
            raise ModelError(f"prefix {(*node, x)} is not a valid token sequence")
        out = Node(None, node, x)
        out.mask = self.tokenizer.valid_continuations(out)
        node.children[x] = out
        return out

    def valid_mask(self, prefix: Sequence[int]) -> np.ndarray:
        """Boolean validity mask of a valid prefix's node: entry ``x`` is
        True iff ``prefix + (x,)`` is valid.  It is the tokenizer's read-only
        row for the prefix's mask context, one array per context across all
        models over the tokenizer (at most ``|V| + 1`` of them for BPE).
        """
        return self.node(prefix).mask

    def next_token_dist(self, prefix: Sequence[int] | Node) -> np.ndarray:
        """Masked distribution over the full vocabulary, renormalized over
        the valid continuations, in one call.

        The prefix must be valid and must not contain the terminator; it is
        either this model's :class:`Node` of it (see :meth:`child`), used as
        it is, or a sequence reached or added by :meth:`node`.  Its
        distribution is computed once per (model context, mask) pair, and
        the returned array is read-only and shared.  Refusals are not stored.
        """
        node = prefix if isinstance(prefix, Node) else self.node(prefix)
        if node.dist is not None:
            return node.dist
        context = self.model_context(node)
        # The fill reads the raw row, fixed by the model context, and the mask.
        # A mask is a read-only row that its node keeps alive (nodes are never
        # freed), so its id names one row; rows are interned per mask context.
        memo = None if context is None else (context, id(node.mask))
        out = self._dists.get(memo)
        if out is None:
            raw = np.asarray(self.raw_next_token_dist(node), dtype=float)
            out = np.where(node.mask, raw, 0.0)
            total = out.sum()
            if total <= 0.0:
                raise ModelError(
                    f"all probability mass fell on invalid continuations of {tuple(node)}"
                )
            out = out / total
            out.setflags(write=False)
            if memo is not None:
                self._dists[memo] = out
        node.dist = out
        return out

    def ranking(self, node: Node) -> np.ndarray:
        """The ids of :meth:`next_token_dist` of ``node`` in descending
        order of probability, ties lower id first, as
        ``np.argsort(-dist, kind="stable")`` gives them.

        The ranking is made once per distribution array, so nodes that
        share a distribution share it, and it is read-only; a node keeps it
        once asked.  A model that is never asked allocates no ranking memo.
        """
        if node.ranking is None:
            dist = node.dist if node.dist is not None else self.next_token_dist(node)
            held = self._rankings.get(id(dist))
            if held is None:
                order = _descending(dist)
                order.flags.writeable = False
                held = self._rankings[id(dist)] = (dist, order)
            node.ranking = held[1]
        return node.ranking

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
        node = self.root  # node of ids[:s]
        for s, tok in enumerate(ids):
            if eos is not None and s > 0 and ids[s - 1] == eos:
                return 0.0
            if not is_token_id(tok, size):
                raise TokenizationError(f"unknown token id {tok}")
            if s > 0:
                node = self.child(node, ids[s - 1])
            cond = self.next_token_dist(node)[tok]
            if cond == 0.0:
                return 0.0
            p *= cond
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
    The table is fixed at construction, which refuses a key whose ids are
    not integers in ``[0, |V|)`` with :class:`ModelError`.  A prefix longer
    than every key reads the default row, or is refused without one, so
    only a prefix no longer than the longest key is read whole to look it
    up; a refusal names the whole prefix.
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
        self.entries = {}
        for key, probs in entries.items():
            key = tuple(key)
            if not all(is_token_id(t, size) for t in key):
                raise ModelError(f"table entry {key}: token ids must be integers in [0, {size})")
            self.entries[key] = _check_probs(probs, size, f"table entry {key}")
        self.default = (
            _check_probs(default, size, "default distribution")
            if default is not None
            else None
        )
        # a prefix longer than every key is not hashed to miss the table
        self._longest = max(map(len, self.entries), default=-1)

    def model_context(self, prefix: TokenSeq | Node) -> Hashable:
        """The prefix's tuple if it is a table key, else the default row's key."""
        if len(prefix) <= self._longest:
            key = tuple(prefix)
            if key in self.entries:
                return key
        return self._DEFAULT_ROW

    def raw_next_token_dist(self, prefix: TokenSeq | Node) -> np.ndarray:
        context = self.model_context(prefix)
        if context is not self._DEFAULT_ROW:
            return self.entries[context]
        if self.default is None:
            raise ModelError(f"no table entry for prefix {tuple(prefix)} and no default")
        return self.default


def _token_ids(ids: list, size: int) -> np.ndarray:
    """``ids`` as an intp array, where ``-1`` stands for each one that is
    not a token id (:func:`is_token_id`).  A list of ints that numpy reads
    as an intp vector is checked in one pass, any other one id at a time."""
    array = np.array(ids) if set(map(type, ids)) <= {int} else None
    if array is None or array.dtype != np.intp:
        return np.array([i if is_token_id(i, size) else -1 for i in ids], dtype=np.intp)
    return np.where((array >= 0) & (array < size), array, -1)


class NgramCounts:
    """An n-gram's counts, built and checked once: one sparse row per context.

    ``NgramCounts(size, grams)`` counts ``grams``, a map from a context
    followed by one token id to a count, over ``size`` (|V|) ids.  Row ``r``
    belongs to the ``r``-th context in order of first occurrence among the
    keys and holds the ids seen after it in ascending order,
    ``indices[indptr[r]:indptr[r + 1]]``, with their counts at the same
    positions of ``data``: one CSR over contexts in shared read-only arrays,
    so the counts keep 16 B per distinct n-gram and, per context, a dict
    entry and its row's total, whatever |V| is.  ``counts[context]`` is the
    ``(indices, data)`` views of its row, and iteration lists the contexts
    in row order.

    The map's keys are unique, so the CSR's structure holds by construction
    and only the values are checked: a size that is not a non-negative int
    (``True`` is none), an empty gram, any id of a gram, context included,
    that is not a token id (:func:`is_token_id`; ``(True, 2)`` would count
    for context ``(1,)``) and a count that is not a finite, non-negative,
    scalar number raise :class:`ModelError`, naming the first bad gram's
    context in row order.
    A model takes the counts as they are.
    """

    def __init__(self, size: int, grams: Mapping[TokenSeq, float]):
        if not (type(size) is int or isinstance(size, np.integer)) or size < 0:
            raise ModelError(f"n-gram counts need a vocabulary size, a non-negative int: {size!r}")
        if () in grams:
            raise ModelError("an n-gram needs at least one token")
        self._rows: dict[TokenSeq, int] = {}  # context -> row
        rows = self._rows
        row = np.array([rows.setdefault(g[:-1], len(rows)) for g in grams], dtype=np.intp)
        try:
            data = np.array(list(grams.values()), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ModelError(f"n-gram counts must be numbers: {exc}") from None
        if data.shape != row.shape:
            raise ModelError("n-gram counts must be scalar numbers")
        # every id of every gram, its context's too
        lengths = np.fromiter(map(len, grams), dtype=np.intp, count=len(grams))
        ends = np.cumsum(lengths)
        flat = _token_ids(list(itertools.chain.from_iterable(grams)), size)
        ids = flat[ends - 1]
        problems = [
            (f"token id outside [0, {size}) or not an integer",
             np.minimum.reduceat(flat, ends - lengths) < 0),
            ("count not finite and non-negative", ~(np.isfinite(data) & (data >= 0))),
        ]
        bad = np.flatnonzero(np.logical_or.reduce([found for _, found in problems]))
        if len(bad):
            i = bad[np.argmin(row[bad])]  # a bad gram of the first bad row
            context = next(itertools.islice(grams, i, None))[:-1]
            what = "; ".join(name for name, found in problems if found[i])
            raise ModelError(f"n-gram counts of context {context}: {what}")
        order = np.lexsort((ids, row))
        self.size = int(size)
        self.indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(np.bincount(row, minlength=len(rows)), out=self.indptr[1:])
        self.indices = ids[order]
        self.data = data[order]
        # each row's total, summed in row order
        self.totals = np.bincount(row[order], weights=self.data, minlength=len(rows))
        for array in (self.indptr, self.indices, self.data, self.totals):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TokenSeq]:
        return iter(self._rows)

    def __getitem__(self, context: TokenSeq) -> tuple[np.ndarray, np.ndarray]:
        row = self._rows[context]
        start, stop = self.indptr[row], self.indptr[row + 1]
        return self.indices[start:stop], self.data[start:stop]

    def smoothed(self, context: TokenSeq, alpha: float) -> np.ndarray:
        """The context's dense row ``(count + alpha) / (total + alpha * size)``,
        a new array; an unseen context counts nothing.  Integer counts whose
        totals stay below 2**53 sum exactly in any order, so the row then
        equals that formula over a dense row of counts bit for bit."""
        out = np.empty(self.size)
        out.fill(alpha)
        row = self._rows.get(context)
        total = 0.0
        if row is not None:
            start, stop = self.indptr[row], self.indptr[row + 1]
            out[self.indices[start:stop]] += self.data[start:stop]
            total = self.totals[row]
        out /= total + alpha * self.size
        return out


def _check_ngram_params(order: int, alpha: float) -> None:
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 1:
        raise ModelError(f"n-gram order must be at least 1, an int and no bool: {order!r}")
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not 0 < alpha < math.inf:
        raise ModelError(
            f"smoothing constant must be positive and finite, a real and no bool: {alpha!r}")


class NgramModel(LanguageModel):
    """Additively-smoothed n-gram over token ids.

    ``order`` is the number of conditioning tokens (order 1 is a bigram
    model), the most :meth:`model_context` reads.  Conditionals are
    ``(count + alpha) / (total + alpha * |V|)``, masked to valid
    continuations afterwards.  ``counts`` is an :class:`NgramCounts` over
    this vocabulary, taken as it is: its fixed state grows with the
    distinct n-grams, not with contexts times |V|.  A context's dense row
    is built only when :meth:`next_token_dist` misses its memo, which still
    keeps one dense distribution per (context, mask) pair.
    """

    def __init__(
        self,
        tokenizer: DeterministicTokenizer,
        order: int,
        alpha: float,
        counts: NgramCounts,
    ):
        _check_ngram_params(order, alpha)
        if not isinstance(counts, NgramCounts):
            raise ModelError(f"n-gram counts must be NgramCounts, not {type(counts).__name__}")
        if counts.size != len(tokenizer.vocab):
            raise ModelError(
                f"n-gram counts cover {counts.size} token ids, "
                f"the vocabulary has {len(tokenizer.vocab)}"
            )
        # the denominator of every row; x / inf would be an all-zero row
        if not math.isfinite(counts.totals.max(initial=0.0) + alpha * counts.size):
            raise ModelError("n-gram count total plus smoothing constant times |V| overflows")
        super().__init__(tokenizer)
        self.order = order
        self.alpha = alpha
        self.counts = counts

    def model_context(self, prefix: TokenSeq | Node) -> TokenSeq:
        """The last ``order`` tokens, all that the conditional reads."""
        return tuple(prefix[-self.order :])

    def raw_next_token_dist(self, prefix: TokenSeq | Node) -> np.ndarray:
        return self.counts.smoothed(self.model_context(prefix), self.alpha)


def train_ngram(
    corpus: list[bytes],
    tokenizer: DeterministicTokenizer,
    order: int,
    alpha: float,
) -> NgramModel:
    """Count n-grams over the encoded corpus, one terminator appended per
    document, into ``NgramCounts(|V|, grams)``: its contexts are in order of
    first occurrence, and it holds no |V|-long array."""
    _check_ngram_params(order, alpha)  # refuses before encoding
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
    counts = NgramCounts(len(tokenizer.vocab), grams)
    return NgramModel(tokenizer, order, alpha, counts)
