"""Maximal common vocabulary across BPE tokenizers.

Given N BPE tokenizers, the common vocabulary is the surface-level
intersection of their vocabularies, and its tokenizer reuses the first
tokenizer's merge list filtered down to merges that stay inside the
intersection.  The result is a complete BPE tokenizer over the shared
alphabet, usable as the inner tokenizer of a nested reduction for every
member model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import TokenizationError
from .tokenization import BpeTokenizer, Vocabulary


@dataclass
class McvResult:
    """Common vocabulary and its merge list, restricted from the first
    tokenizer's."""

    vocab: Vocabulary
    merges: list[tuple[int, int]]


def intersect_vocabs(vocabs: Sequence[Vocabulary]) -> Vocabulary:
    """Surface-level intersection, with ids reassigned densely in the first
    vocabulary's order.

    Fails if the intersection is missing a single-symbol token for some
    alphabet symbol: the resulting vocabulary could not encode all texts.
    """
    if len(vocabs) < 2:
        raise TokenizationError("need at least two vocabularies to intersect")
    first = vocabs[0]
    common = set(first.surfaces)
    for other in vocabs[1:]:
        common &= set(other.surfaces)
    surfaces = [s for s in first.surfaces if s in common]
    vocab = Vocabulary(surfaces, first.alphabet)
    if not vocab.complete:
        missing = [
            f"{s:#04x}"
            for s in sorted(first.alphabet.symbols)
            if bytes([s]) not in vocab.index
        ]
        raise TokenizationError(
            f"intersection is missing single-symbol tokens for {', '.join(missing)}"
        )
    return vocab


def restrict_merges(
    tokenizer: BpeTokenizer, common: Vocabulary
) -> list[tuple[int, int]]:
    """Order-preserving filter of the tokenizer's merge list.

    A merge survives when its concatenated product is a common surface and
    both operand tokens are themselves common surfaces; a merge whose
    operand fell out of the intersection could emit tokens outside the
    common vocabulary mid-encode, so it is dropped even if its product
    survived.  Merges that survive but whose operands are unreachable are
    kept: they never fire and are harmless.
    """
    source = tokenizer.vocab
    kept: list[tuple[int, int]] = []
    for a, b in tokenizer.merges:
        left = source.surface(a)
        right = source.surface(b)
        if (
            left in common.index
            and right in common.index
            and left + right in common.index
        ):
            kept.append((common.index[left], common.index[right]))
    return kept


def build_mcv(tokenizers: Sequence[BpeTokenizer]) -> tuple[McvResult, BpeTokenizer]:
    """Common vocabulary plus its associated BPE tokenizer."""
    if len(tokenizers) < 2:
        raise TokenizationError("need at least two tokenizers")
    for i, tok in enumerate(tokenizers):
        if not isinstance(tok, BpeTokenizer):
            raise TokenizationError(f"tokenizer {i} is a {type(tok).__name__}, not a BpeTokenizer")
    alphabet = tokenizers[0].vocab.alphabet
    for tok in tokenizers[1:]:
        if tok.vocab.alphabet.symbols != alphabet.symbols:
            raise TokenizationError("tokenizers must share one alphabet")
    vocab = intersect_vocabs([t.vocab for t in tokenizers])
    merges = restrict_merges(tokenizers[0], vocab)
    return McvResult(vocab, merges), BpeTokenizer(vocab, merges)
