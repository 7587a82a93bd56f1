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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EnsembleError, LvrError, ZeroProductError
from .model import LanguageModel
from .reduction import ReductionSession, SubTokenDistribution, _lift, decode
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


def _check_mode(mode: str) -> None:
    """Refuse a mode that ``_COMBINERS`` has no combiner for."""
    if mode not in _COMBINERS:
        raise EnsembleError(f"unknown ensemble mode {mode!r}")


@dataclass
class EnsembleSpec:
    """Lock-step ensemble of reduction sessions over one sub-vocabulary."""

    members: list[ReductionSession]
    mode: str = "poe"

    def __post_init__(self):
        if not self.members:
            raise EnsembleError("ensemble needs at least one member")
        _check_mode(self.mode)
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
            dropped_mass=max(d.dropped_mass for d in dists),
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
    if not vocabs:
        raise EnsembleError("cannot take the union of an empty list of vocabularies")
    surfaces = dict.fromkeys(surf for vocab in vocabs for surf in vocab.surfaces)
    return Vocabulary(surfaces, vocabs[0].alphabet)


def union_baseline_dist(
    members: Sequence[tuple[LanguageModel, DeterministicTokenizer]],
    union: Vocabulary,
    prefix: Sequence[int],
    mode: str = "poe",
) -> np.ndarray:
    """Union-vocabulary baseline: each member retokenizes the prefix text in
    its own vocabulary, computes its next-token distribution, and lifts it
    onto the union (0.0 at each surface the member lacks); the lifted
    vectors are then combined.

    In product mode the members' supports may be disjoint, in which case
    the documented zero-product error is raised.
    """
    _check_mode(mode)
    text = union.decode(tuple(prefix))
    lifted = [_lift(model.next_token_dist(tokenizer.encode(text)), tokenizer.vocab, union)
              for model, tokenizer in members]
    return _COMBINERS[mode](lifted)
