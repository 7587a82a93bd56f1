"""Autoregressive next-token-distribution sources at desk scale.

A model returns, for a valid token prefix, one probability vector over its
whole vocabulary in a single call.  Every emitted distribution is validity
masked: continuations that the encoder could never produce get probability
exactly 0.  Distributions are plain float64 numpy arrays.

Two concrete models are provided: a hand-written conditional table and an
additively-smoothed n-gram trained on a corpus.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ModelError, TokenizationError
from .tokenization import DeterministicTokenizer, TokenSeq


class LanguageModel:
    """Base class: subclasses supply the raw (unmasked) conditional table.

    A valid prefix must have at least one valid continuation.  A BPE model
    with no terminator whose merges absorb every follower of some token
    breaks this: after that token every continuation is masked out, so
    :meth:`next_token_dist` raises :class:`ModelError` there, and so do a
    reduction session and ``original_prefix_prob_table`` that reach it.
    """

    def __init__(self, tokenizer: DeterministicTokenizer, renormalize: bool = True):
        self.tokenizer = tokenizer
        self.renormalize = renormalize
        # prefix -> (masked distribution, validity mask)
        self._dist_cache: dict[TokenSeq, tuple[np.ndarray, np.ndarray]] = {}
        # mask context (see DeterministicTokenizer.mask_context) -> mask
        self._mask_cache: dict[TokenSeq, np.ndarray] = {}

    @property
    def vocab(self):
        return self.tokenizer.vocab

    def raw_next_token_dist(self, prefix: TokenSeq) -> np.ndarray:
        raise NotImplementedError

    def valid_mask(self, prefix: Sequence[int]) -> np.ndarray:
        """Cached boolean validity mask for one-token continuations of a
        valid prefix: entry ``x`` is True iff ``prefix + (x,)`` is valid.

        A prefix whose distribution is cached returns the mask stored beside
        it, which is also how :meth:`next_token_dist` validates that
        prefix's children; otherwise masks are cached by the tokenizer's
        mask context, so the cache holds one entry per distinct context (at
        most ``|V| + 1`` for BPE).
        """
        key = tuple(prefix)
        hit = self._dist_cache.get(key)
        if hit is not None:
            return hit[1]
        context = self.tokenizer.mask_context(key)
        mask = self._mask_cache.get(context)
        if mask is None:
            mask = self.tokenizer.valid_continuations(context)
            mask.setflags(write=False)
            self._mask_cache[context] = mask
        return mask

    def next_token_dist(self, prefix: Sequence[int]) -> np.ndarray:
        """Masked distribution over the full vocabulary, in one call.

        The prefix must be valid and must not contain the terminator; the
        returned array is cached and read-only.  ``p + (x,)`` is valid iff
        ``p`` is valid and ``p``'s mask admits ``x``, so when ``p`` is
        cached the check is one lookup and nothing is re-encoded.  Any
        other prefix is checked by re-encoding it whole.
        """
        key = tuple(prefix)
        hit = self._dist_cache.get(key)
        if hit is not None:
            return hit[0]
        eos = self.vocab.eos_id
        parent = self._dist_cache.get(key[:-1]) if key else None
        if parent is None:
            if eos is not None and eos in key:
                raise ModelError("cannot continue a terminated sequence")
            valid = self.tokenizer.is_valid(key)
        else:
            # a cached parent was validated and holds no terminator, so its
            # mask decides the new prefix without re-encoding it
            x = key[-1]
            if x == eos:
                raise ModelError("cannot continue a terminated sequence")
            if not 0 <= x < len(parent[1]):
                raise TokenizationError(f"unknown token id {x}")
            valid = parent[1][x]
        if not valid:
            raise ModelError(f"prefix {key} is not a valid token sequence")
        raw = np.asarray(self.raw_next_token_dist(key), dtype=float)
        mask = self.valid_mask(key)
        out = np.where(mask, raw, 0.0)
        total = out.sum()
        if total <= 0.0:
            raise ModelError(
                f"all probability mass fell on invalid continuations of {key}"
            )
        if self.renormalize:
            out = out / total
        out.setflags(write=False)
        self._dist_cache[key] = (out, mask)
        return out

    def marginal(self, ids: Sequence[int]) -> float:
        """Probability that a generated sequence starts with ``ids``,
        computed as the telescoping product of conditionals.

        The empty prefix has marginal 1.  A sequence that continues past the
        terminator, or whose conditional chain hits an exact zero, has
        marginal 0 without further model queries.
        """
        ids = tuple(ids)
        eos = self.vocab.eos_id
        p = 1.0
        for s, tok in enumerate(ids):
            if eos is not None and s > 0 and ids[s - 1] == eos:
                return 0.0
            cond = self.next_token_dist(ids[:s])[tok]
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
    ``renormalize=False`` keeps masked entries exactly as written (zeros are
    inserted but nothing is rescaled).
    """

    def __init__(
        self,
        tokenizer: DeterministicTokenizer,
        entries: dict[TokenSeq, np.ndarray],
        default: np.ndarray | None = None,
        renormalize: bool = True,
    ):
        super().__init__(tokenizer, renormalize=renormalize)
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

    def raw_next_token_dist(self, prefix: TokenSeq) -> np.ndarray:
        hit = self.entries.get(prefix)
        if hit is not None:
            return hit
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
        if alpha <= 0:
            raise ModelError("smoothing constant must be positive")
        super().__init__(tokenizer, renormalize=True)
        self.order = order
        self.alpha = alpha
        self.counts = counts

    def raw_next_token_dist(self, prefix: TokenSeq) -> np.ndarray:
        context = prefix[-self.order :] if self.order else ()
        counts = self.counts.get(context)
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
    document."""
    if not corpus:
        raise ModelError("training corpus is empty")
    eos = tokenizer.vocab.eos_id
    if eos is None:
        raise ModelError("n-gram training requires a vocabulary with a terminator")
    size = len(tokenizer.vocab)
    counts: dict[TokenSeq, np.ndarray] = {}
    for doc in corpus:
        ids = tokenizer.encode(doc)
        if eos in ids:
            raise ModelError("corpus document contains the terminator symbol")
        ids = ids + (eos,)
        for i, tok in enumerate(ids):
            context = ids[max(0, i - order) : i]
            row = counts.get(context)
            if row is None:
                row = counts.setdefault(context, np.zeros(size))
            row[tok] += 1.0
    return NgramModel(tokenizer, order, alpha, counts)
