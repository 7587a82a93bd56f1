"""Shared fixtures: the binary worked-example model and randomized desk-scale
instances (complete greedy vocabulary, validity-masked table model, complete
sub-vocabulary)."""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

from lvr import (
    Alphabet,
    BpeTokenizer,
    GreedyTokenizer,
    NestedTokenizer,
    ReductionSession,
    TableModel,
    Vocabulary,
)
from lvr.mcv import build_mcv
from lvr.model import Node

LETTERS = b"abcdefgh"


class Instance(NamedTuple):
    model: TableModel
    tokenizer: GreedyTokenizer
    inner: GreedyTokenizer
    nested: NestedTokenizer


def binary_instance() -> Instance:
    """The 4-token binary model with two hand-written conditional tables:
    V = {0, 1, 00, 001} reduced onto {0, 1, 00}."""
    alphabet = Alphabet.of("01")
    vocab = Vocabulary([b"0", b"1", b"00", b"001"], alphabet)
    sub = Vocabulary([b"0", b"1", b"00"], alphabet)
    tokenizer = GreedyTokenizer(vocab)
    inner = GreedyTokenizer(sub)
    model = TableModel(
        tokenizer,
        {
            (): np.array([0.1, 0.1, 0.5, 0.3]),
            (2,): np.array([0.6, 0.0, 0.3, 0.1]),
        },
        default=np.full(4, 0.25),
    )
    return Instance(model, tokenizer, inner, NestedTokenizer(tokenizer, inner))


def restriction_dead_end() -> tuple[TableModel, NestedTokenizer]:
    """BPE over ``abc`` with merges a+a, a+c, b+b, a+b, reduced to bytes: after
    the token ``a`` only ``bb`` may follow, so the naive restriction of that
    prefix keeps no mass."""
    vocab = Vocabulary([b"a", b"b", b"c", b"aa", b"ac", b"bb", b"ab"], Alphabet.of(b"abc"))
    tokenizer = BpeTokenizer(vocab, [(0, 0), (0, 2), (1, 1), (0, 1)])
    model = TableModel(tokenizer, {}, default=np.array([0.1, 0.2, 0.1, 0.1, 0.2, 0.2, 0.1]))
    inner = GreedyTokenizer(Vocabulary([b"a", b"b", b"c"], vocab.alphabet))
    return model, NestedTokenizer(tokenizer, inner)


@pytest.fixture
def binary() -> Instance:
    return binary_instance()


def _random_positive_dist(rng: np.random.Generator, size: int) -> np.ndarray:
    vec = rng.uniform(0.05, 1.0, size)
    return vec / vec.sum()


def make_instance(
    rng: np.random.Generator,
    n_symbols: int = 2,
    with_eos: bool = True,
    n_multi: int = 3,
    max_surface: int = 3,
    n_sub_multi: int = 1,
) -> Instance:
    """Random instance: complete greedy vocabulary over a small alphabet
    (plus an optional ``$`` terminator), a table model with random positive
    conditionals for depth-0/1 prefixes and a random default, and a random
    complete sub-vocabulary."""
    content = LETTERS[:n_symbols]
    alphabet = Alphabet.of(content, eos="$" if with_eos else None)
    singles = [bytes([s]) for s in sorted(alphabet.symbols)]
    distinct = sum(n_symbols**length for length in range(2, max_surface + 1))
    if n_multi > distinct:
        raise ValueError(
            f"n_multi={n_multi} exceeds the {distinct} distinct multi-symbol surfaces"
        )
    multis: list[bytes] = []
    while len(multis) < n_multi:
        length = int(rng.integers(2, max_surface + 1))
        surf = bytes(content[rng.integers(len(content))] for _ in range(length))
        if surf not in multis:
            multis.append(surf)
    vocab = Vocabulary(singles + multis, alphabet)
    chosen = [multis[i] for i in rng.permutation(len(multis))[:n_sub_multi]]
    sub = Vocabulary(singles + sorted(chosen), alphabet)
    tokenizer = GreedyTokenizer(vocab)
    inner = GreedyTokenizer(sub)
    size = len(vocab)
    entries = {(): _random_positive_dist(rng, size)}
    for tid in range(size):
        entries[(tid,)] = _random_positive_dist(rng, size)
    model = TableModel(
        tokenizer, entries, default=_random_positive_dist(rng, size)
    )
    return Instance(model, tokenizer, inner, NestedTokenizer(tokenizer, inner))


def random_merge_tokenizer(rng) -> BpeTokenizer:
    """BPE over ``abc`` with up to six random merges, duplicate merges and
    products already in the vocabulary included."""
    symbols = b"abc"
    surfaces = [bytes([s]) for s in symbols]
    merges = []
    for _ in range(int(rng.integers(1, 7))):
        a, b = rng.integers(0, len(surfaces), size=2)
        product = surfaces[a] + surfaces[b]
        if len(product) > 6:
            continue
        if product not in surfaces:
            surfaces.append(product)
        merges.append((int(a), int(b)))
    return BpeTokenizer(Vocabulary(surfaces, Alphabet.of(symbols)), merges)


def wide_merge_tokenizer(rng) -> BpeTokenizer:
    """BPE over two to four symbols with up to 15 random merges and
    surfaces of at most 8 bytes.  Up to two extra multi-byte tokens may sit
    in the vocabulary before any merge makes them, and merges may repeat a
    pair or a product, so some lists are ordered and some are not."""
    symbols = b"abcd"[: int(rng.integers(2, 5))]
    surfaces = [bytes([s]) for s in symbols]
    for _ in range(int(rng.integers(0, 3))):
        picks = rng.integers(0, len(symbols), size=int(rng.integers(2, 5)))
        extra = bytes(symbols[i] for i in picks)
        if extra not in surfaces:
            surfaces.append(extra)
    merges = []
    for _ in range(int(rng.integers(1, 16))):
        a, b = rng.integers(0, len(surfaces), size=2)
        product = surfaces[a] + surfaces[b]
        if len(product) > 8:
            continue
        if product not in surfaces:
            surfaces.append(product)
        merges.append((int(a), int(b)))
    return BpeTokenizer(Vocabulary(surfaces, Alphabet.of(symbols)), merges)


def learned_merge_tokenizer(rng) -> BpeTokenizer:
    """BPE with 20 to 80 merges over three or four symbols, learned from a
    random corpus of repeated words: each merge joins the most frequent
    adjacent pair whose product is new, so every list is ordered, and
    frequent words become deep merge trees."""
    symbols = list(b"abcd"[: int(rng.integers(3, 5))])
    words = [bytes(rng.choice(symbols, size=int(rng.integers(2, 9))).tolist())
             for _ in range(int(rng.integers(4, 13)))]
    weights = 1.0 / np.arange(1, len(words) + 1)
    picks = rng.choice(len(words), size=150, p=weights / weights.sum())
    units = [bytes([c]) for c in b"".join(words[i] for i in picks)]
    surfaces = [bytes([s]) for s in symbols]
    merges: list[tuple[int, int]] = []
    for _ in range(int(rng.integers(20, 81))):
        fresh = [(n, pair) for pair, n in Counter(zip(units, units[1:])).items()
                 if n > 1 and pair[0] + pair[1] not in surfaces]
        if not fresh:
            break
        _, (left, right) = max(fresh)
        merges.append((surfaces.index(left), surfaces.index(right)))
        surfaces.append(left + right)
        out, i = [], 0
        while i < len(units):  # leftmost occurrences first
            if units[i : i + 2] == [left, right]:
                out.append(left + right)
                i += 2
            else:
                out.append(units[i])
                i += 1
        units = out
    return BpeTokenizer(Vocabulary(surfaces, Alphabet.of(bytes(symbols))), merges)


def has_followers(tokenizer) -> bool:
    """Every token has a valid continuation.  Without a terminator, merges
    can absorb every follower of a token ("a" after a+a, a+b and a+c over
    ``abc``), and a model has no mass after it (see ``LanguageModel``)."""
    return all(
        tokenizer.valid_continuations((t,)).any() for t in range(len(tokenizer.vocab))
    )


def mcv_instance(rng) -> tuple[TableModel, NestedTokenizer]:
    """A ``random_merge_tokenizer`` reduced onto its common vocabulary with
    a second draw (``build_mcv``), a BPE inner tokenizer, under a table
    model whose default weights take three levels."""
    tokenizer = random_merge_tokenizer(rng)
    _, common = build_mcv([tokenizer, random_merge_tokenizer(rng)])
    vec = rng.integers(1, 4, len(tokenizer.vocab)).astype(float)
    model = TableModel(tokenizer, {}, default=vec / vec.sum())
    return model, NestedTokenizer(tokenizer, common)


def spy_node_reads(reads: list[int]):
    """Patch :class:`Node` so each ``node[i:]`` (iteration included) logs
    how many tokens it built into ``reads``."""
    getitem = Node.__getitem__

    def spy(node, index):
        out = getitem(node, index)
        reads.append(len(out))
        return out

    return mock.patch.object(Node, "__getitem__", spy)


def nan_at_root(monkeypatch) -> None:
    """Patch :class:`ReductionSession` so the distribution of a fresh
    session gives sub-token 1 a NaN marginal; what a session keeps, and
    every branch of it, is unchanged."""
    real = ReductionSession.next_subtoken_dist

    def patched(session):
        dist = real(session)
        if session.prefix:
            return dist
        raw = dist.raw_marginals.copy()
        raw[1] = math.nan
        return dataclasses.replace(dist, raw_marginals=raw)

    monkeypatch.setattr(ReductionSession, "next_subtoken_dist", patched)
