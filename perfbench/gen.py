"""Seeded input generators for the benchmark.

Nothing here is timed: the generators produce plain data (word corpora,
merge lists as surface pairs, conditional tables), and the workloads build
the toolkit's objects from that data inside their timed set-up.

- ``sample_corpus``: seeded documents of words drawn from a fixed word list
  under a Zipf law over a fixed ranking, so every seed yields text of the
  same statistics.
- ``learn_merges``: a small BPE merge learner over word units (each word
  with its trailing space), most frequent pair first, ties to the smallest
  pair; it never merges across a word boundary.
- ``greedy_instance``: a random greedy-tokenizer instance in the style of
  ``tests/conftest.py::make_instance``.
- ``BINARY``: the README's binary toy model.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import numpy as np

# A fixed word list; its letters, the space and the NUL terminator make the
# byte alphabet.
WORDS = (
    "the of and to in is that for it as with was on be at by this had not are "
    "but from or have an they which one you were her all she there would their "
    "we him been has when who will more no if out so said what up its about "
    "into than them can only other new some time could these two may then do "
    "first any my now such like our over man me even most made after also did "
    "many before must through back years where much your way well down should "
    "because each just those people how too little state good very make world "
    "still own see men work long get here between both life being under never "
    "day same another know while last might us great old year off come since "
    "against go came right used take three states himself few house use during "
    "without again place american around however home small found thought went "
    "say part once general high upon school every does got united left number "
    "course war until always away something fact though water less public put "
    "think almost hand enough far took head yet government system better set "
    "told nothing night end why called didn eyes find going look asked later "
    "knew point next city business give group toward young let room president"
).split()
LETTERS = sorted({c for w in WORDS for c in w})


def alphabet_symbols() -> bytes:
    """Content symbols of the generated texts: the letters and the space."""
    return ("".join(LETTERS) + " ").encode()


def sample_corpus(
    rng: np.random.Generator, n_docs: int, words_per_doc: int, ranking: int = 0,
    zipf: float = 1.1,
) -> list[bytes]:
    """``n_docs`` documents of ``words_per_doc`` words drawn by ``rng``; word
    frequencies follow a Zipf law over a fixed ranking of the word list
    (``ranking`` picks one of several fixed rankings, whatever the seed)."""
    order = np.random.default_rng(ranking).permutation(len(WORDS))
    weights = 1.0 / np.arange(1, len(WORDS) + 1) ** zipf
    weights /= weights.sum()
    docs = []
    for _ in range(n_docs):
        picks = rng.choice(len(WORDS), size=words_per_doc, p=weights)
        docs.append(" ".join(WORDS[order[i]] for i in picks).encode())
    return docs


def learn_merges(corpus: list[bytes], n_merges: int) -> list[tuple[bytes, bytes]]:
    """BPE merges learned over word units, as (left, right) surface pairs in
    rank order.  Stops early when no pair occurs twice."""
    units: Counter[tuple[bytes, ...]] = Counter()
    for doc in corpus:
        for word in doc.split(b" "):
            units[tuple(bytes([b]) for b in b" " + word)] += 1
    merges: list[tuple[bytes, bytes]] = []
    while len(merges) < n_merges:
        pairs: Counter[tuple[bytes, bytes]] = Counter()
        for unit, count in units.items():
            for pair in zip(unit, unit[1:]):
                pairs[pair] += count
        if not pairs:
            break
        best_count = max(pairs.values())
        if best_count < 2:
            break
        best = min(p for p, c in pairs.items() if c == best_count)
        merges.append(best)
        merged: Counter[tuple[bytes, ...]] = Counter()
        for unit, count in units.items():
            out: list[bytes] = []
            i = 0
            while i < len(unit):
                if i + 1 < len(unit) and (unit[i], unit[i + 1]) == best:
                    out.append(unit[i] + unit[i + 1])
                    i += 2
                else:
                    out.append(unit[i])
                    i += 1
            merged[tuple(out)] += count
        units = merged
    return merges


def bpe_surfaces(
    symbols: bytes, eos: bytes, merges: list[tuple[bytes, bytes]]
) -> list[bytes]:
    """Vocabulary surfaces: the single symbols (terminator included), then
    each merge product in rank order."""
    surfaces = [bytes([s]) for s in sorted(set(symbols) | set(eos))]
    seen = set(surfaces)
    for left, right in merges:
        if left + right not in seen:
            seen.add(left + right)
            surfaces.append(left + right)
    return surfaces


class GreedySpec(NamedTuple):
    """Plain data for one random greedy instance."""

    content: bytes
    vocab: list[bytes]
    sub: list[bytes]
    entries: dict[tuple[int, ...], np.ndarray]
    default: np.ndarray


def _positive_dist(rng: np.random.Generator, size: int) -> np.ndarray:
    vec = rng.uniform(0.05, 1.0, size)
    return vec / vec.sum()


def greedy_instance(
    rng: np.random.Generator,
    probs_rng: np.random.Generator,
    n_symbols: int,
    n_multi: int,
    max_surface: int,
    n_sub_multi: int,
) -> GreedySpec:
    """Complete greedy vocabulary over a small alphabet plus the ``$``
    terminator and a random complete sub-vocabulary, drawn by ``rng``;
    random positive conditionals for depth-0/1 prefixes and a random
    default, drawn by ``probs_rng``."""
    content = b"abcdefgh"[:n_symbols]
    singles = [bytes([s]) for s in sorted(set(content) | {ord("$")})]
    multis: list[bytes] = []
    while len(multis) < n_multi:
        length = int(rng.integers(2, max_surface + 1))
        surf = bytes(content[rng.integers(len(content))] for _ in range(length))
        if surf not in multis:
            multis.append(surf)
    vocab = singles + multis
    chosen = [multis[i] for i in rng.permutation(len(multis))[:n_sub_multi]]
    sub = singles + sorted(chosen)
    size = len(vocab)
    entries = {(): _positive_dist(probs_rng, size)}
    for tid in range(size):
        entries[(tid,)] = _positive_dist(probs_rng, size)
    return GreedySpec(content, vocab, sub, entries, _positive_dist(probs_rng, size))


# README binary toy model: V = {0, 1, 00, 001} reduced onto {0, 1, 00}.
BINARY = GreedySpec(
    content=b"01",
    vocab=[b"0", b"1", b"00", b"001"],
    sub=[b"0", b"1", b"00"],
    entries={
        (): np.array([0.1, 0.1, 0.5, 0.3]),
        (2,): np.array([0.6, 0.0, 0.3, 0.1]),
    },
    default=np.full(4, 0.25),
)
