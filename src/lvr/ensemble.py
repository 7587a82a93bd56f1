"""Combining reduced models over a shared sub-vocabulary.

Members are reduction sessions whose nested tokenizers all target the same
sub-vocabulary; each step combines their next-sub-token distributions with
uniform weights (product of experts, or mixture of experts) and then steps
every member with the same chosen sub-token.

The union-vocabulary baseline is also provided: member distributions are
zero-extended onto the union of the vocabularies instead of being reduced,
which under a product combination can collapse to an all-zero vector; that
failure is raised, never smoothed over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EnsembleError, LvrError, ZeroProductError
from .model import LanguageModel
from .reduction import ReductionSession, SubTokenDistribution, decode
from .tokenization import DeterministicTokenizer, TokenSeq, Vocabulary


def poe_combine(dists: Sequence[np.ndarray]) -> np.ndarray:
    """Product of experts with uniform weights: elementwise product,
    renormalized.  An all-zero product is an error carrying each member's
    support size."""
    if not dists:
        raise EnsembleError("nothing to combine")
    out = np.array(dists[0], dtype=float)
    for d in dists[1:]:
        out = out * np.asarray(d, dtype=float)
    total = out.sum()
    if total <= 0.0:
        raise ZeroProductError(
            "product of member distributions has empty support",
            supports=[int(np.count_nonzero(d)) for d in dists],
        )
    return out / total


def moe_combine(dists: Sequence[np.ndarray]) -> np.ndarray:
    """Mixture of experts with uniform weights: elementwise mean."""
    if not dists:
        raise EnsembleError("nothing to combine")
    out = np.mean(np.stack([np.asarray(d, dtype=float) for d in dists]), axis=0)
    return out / out.sum()


_COMBINERS = {"poe": poe_combine, "moe": moe_combine}


@dataclass
class EnsembleSpec:
    """Lock-step ensemble of reduction sessions over one sub-vocabulary."""

    members: list[ReductionSession]
    mode: str = "poe"

    def __post_init__(self):
        if not self.members:
            raise EnsembleError("ensemble needs at least one member")
        if self.mode not in _COMBINERS:
            raise EnsembleError(f"unknown ensemble mode {self.mode!r}")
        shared = self.members[0].nested.vocab.surfaces
        for m in self.members[1:]:
            if m.nested.vocab.surfaces != shared:
                raise EnsembleError("members must share one sub-vocabulary")

    def next_dist(self) -> SubTokenDistribution:
        dists = [m.next_subtoken_dist() for m in self.members]
        probs = _COMBINERS[self.mode]([d.probs for d in dists])
        return SubTokenDistribution(
            probs=probs,
            raw_marginals=probs,
            dropped_mass=max(math.ldexp(d.dropped_mass, d.exponent) for d in dists),
        )

    def step(self, chosen: int) -> None:
        for i, m in enumerate(self.members):
            try:
                m.step(chosen)
            except LvrError as exc:
                raise EnsembleError(
                    f"member {i} failed to step onto sub-token {chosen}: {exc}"
                ) from exc


def ensemble_generate(
    spec: EnsembleSpec,
    max_subtokens: int,
    decoding: str = "greedy",
    seed: int | None = None,
) -> TokenSeq:
    """Generate sub-tokens by combining member distributions each step and
    stepping all members with the same choice; see :func:`decode`."""
    return tuple(s.chosen for s in decode(
        spec.next_dist, spec.step, spec.members[0].nested.vocab.eos_id,
        max_subtokens, decoding, seed))


def union_vocab(vocabs: Sequence[Vocabulary]) -> Vocabulary:
    """Union of vocabularies by surface, first vocabulary's order first."""
    surfaces: list[bytes] = []
    seen: set[bytes] = set()
    for vocab in vocabs:
        for surf in vocab.surfaces:
            if surf not in seen:
                seen.add(surf)
                surfaces.append(surf)
    return Vocabulary(surfaces, vocabs[0].alphabet)


def union_baseline_dist(
    members: Sequence[tuple[LanguageModel, DeterministicTokenizer]],
    union: Vocabulary,
    prefix: Sequence[int],
    mode: str = "poe",
) -> np.ndarray:
    """Union-vocabulary baseline: each member retokenizes the prefix text in
    its own vocabulary, computes its next-token distribution, and
    zero-extends it onto the union; the extended vectors are then combined.

    In product mode the members' supports may be disjoint, in which case
    the documented zero-product error is raised.
    """
    if mode not in _COMBINERS:
        raise EnsembleError(f"unknown ensemble mode {mode!r}")
    text = union.decode(tuple(prefix))
    extended: list[np.ndarray] = []
    for model, tokenizer in members:
        retok = tokenizer.encode(text)
        dist = model.next_token_dist(retok)
        lifted = np.zeros(len(union))
        for uid, surf in enumerate(union.surfaces):
            tid = tokenizer.vocab.index.get(surf)
            if tid is not None:
                lifted[uid] = dist[tid]
        extended.append(lifted)
    return _COMBINERS[mode](extended)
