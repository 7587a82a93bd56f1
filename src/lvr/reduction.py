"""Lossless reduction of a token-level model onto a sub-vocabulary.

A :class:`ReductionSession` turns a model over V plus a nested tokenizer
onto V_sub into a next-sub-token-distribution source over V_sub.  The
unnormalized value ``p~(y)`` it reports for each sub-token is the exact
marginal probability (under the original model) that the emitted sub-token
stream extends the current prefix by ``y``; normalizing these marginals
gives the reduced conditional distribution.

The marginals are assembled from the *relative cover* of the prefix: the
valid outer-token sequences whose per-token re-encodings just reach past it.
Each step combines two sources:

  (i)  cover entries whose re-encoding already extends past the prefix,
       bucketed by their next sub-token, and
  (ii) one-token extensions of the prefix's canonical retokenization,
       bucketed by the first sub-token of the added token's re-encoding.

Only source (ii) touches the model, with exactly one distribution call per
step; entry marginals are extended incrementally, never recomputed.  The
efficient variant restricts source (ii) to the top-K most probable
extensions and reports the marginal mass it dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ReductionError
from .model import LanguageModel
from .tokenization import NestedTokenizer, TokenSeq

DEFAULT_TOP_K = 300


class CoverEntry(NamedTuple):
    """One relative-cover element: a valid outer-token sequence, its nested
    (sub-token) encoding, and its cached marginal probability."""

    seq: TokenSeq
    nested: TokenSeq
    marginal: float


@dataclass
class RelativeCover:
    """Relative cover of one sub-token prefix."""

    entries: list[CoverEntry] = field(default_factory=list)

    def sequences(self) -> set[TokenSeq]:
        return {e.seq for e in self.entries}


@dataclass
class SubTokenDistribution:
    """Normalized next-sub-token distribution plus diagnostics: the raw
    (unnormalized) marginals and the marginal mass dropped by top-K
    truncation."""

    probs: np.ndarray
    raw_marginals: np.ndarray
    dropped_mass: float

    @property
    def normalizer(self) -> float:
        return float(self.raw_marginals.sum())


class ReductionSession:
    """Stateful reducer: a sampled sub-token prefix, the cover cache for the
    current prefix, and a marginal-probability cache.

    ``topk=None`` requests exact mode (every extension considered);
    otherwise only the K most probable one-token extensions of the canonical
    retokenization enter the cover at each step.  The attribute is read at
    each distribution computation, so it may be changed between steps.

    A session is a single-owner mutable object.  Several sessions may share
    one model and tokenizer, but a model is not immutable: every new prefix
    it is queried on adds entries to its distribution and mask caches.
    """

    def __init__(
        self,
        model: LanguageModel,
        nested: NestedTokenizer,
        topk: int | None = DEFAULT_TOP_K,
    ):
        if nested.outer.vocab.surfaces != model.vocab.surfaces:
            raise ReductionError(
                "nested tokenizer's outer vocabulary does not match the model's"
            )
        if topk is not None and topk < 1:
            raise ReductionError("top-K must be at least 1 (or None for exact mode)")
        self.model = model
        self.nested = nested
        self.topk = topk
        self.prefix: TokenSeq = ()
        self.cover_cache: dict[TokenSeq, RelativeCover] = {
            (): RelativeCover([CoverEntry((), (), 1.0)])
        }
        self.prob_cache: dict[TokenSeq, float] = {(): 1.0}
        self._pending: dict[int, RelativeCover] | None = None
        self._last: SubTokenDistribution | None = None

    # -- per-step computation ------------------------------------------------

    def _canonical_retokenization(self) -> TokenSeq:
        retok = self.nested.outer.encode(self.nested.decode(self.prefix))
        if self.nested.nested_encode(retok) != self.prefix:
            raise ReductionError(
                f"prefix {self.prefix} is not reproduced by re-encoding its text; "
                "the recursion is undefined for this prefix"
            )
        return retok

    def _prologue(self):
        cover = self.cover_cache[self.prefix]
        retok = self._canonical_retokenization()
        base = self.prob_cache.get(retok)
        if base is None:
            # Only reachable when top-K truncation evicted the entry.
            base = self.model.marginal(retok)
            self.prob_cache[retok] = base
        cond = self.model.next_token_dist(retok)
        ext = base * cond
        cache = self.prob_cache
        for x in range(len(ext)):
            cache[retok + (x,)] = float(ext[x])
        return cover, retok, ext, self.model.valid_mask(retok)

    def _finish(self, sums: np.ndarray, pending, dropped: float) -> SubTokenDistribution:
        total = sums.sum()
        if total <= 0.0:
            raise ReductionError("no sub-token continuation has positive probability")
        dist = SubTokenDistribution(sums / total, sums, dropped)
        self._pending = pending
        self._last = dist
        return dist

    def next_subtoken_dist(self) -> SubTokenDistribution:
        """Efficient variant: one pass over the cover, one pass over the
        top-K extensions."""
        cover, retok, ext, valid = self._prologue()
        k = len(self.prefix)
        sums = np.zeros(len(self.nested.vocab))
        pending: dict[int, RelativeCover] = {}
        for e in cover.entries:
            if len(e.nested) > k:
                y = e.nested[k]
                bucket = pending.get(y)
                if bucket is None:
                    bucket = pending[y] = RelativeCover()
                bucket.entries.append(e)
                sums[y] += e.marginal
        size = len(ext)
        if self.topk is not None and self.topk < size:
            order = np.argsort(-ext, kind="stable")
            candidates = np.sort(order[: self.topk]).tolist()
            dropped = float(ext[order[self.topk :]].sum())
        else:
            candidates = range(size)
            dropped = 0.0
        mapping = self.nested.mapping
        for x in candidates:
            if not valid[x]:
                continue
            first = mapping[x][0]
            entry = CoverEntry(retok + (x,), self.prefix + mapping[x], float(ext[x]))
            bucket = pending.get(first)
            if bucket is None:
                bucket = pending[first] = RelativeCover()
            bucket.entries.append(entry)
            sums[first] += entry.marginal
        return self._finish(sums, pending, dropped)

    def next_subtoken_dist_naive(self) -> SubTokenDistribution:
        """Reference variant: for every sub-token, scan the whole cover and
        the whole vocabulary.  Always exact; bit-identical to the efficient
        variant run with K >= |V|."""
        cover, retok, ext, valid = self._prologue()
        k = len(self.prefix)
        mapping = self.nested.mapping
        sums = np.zeros(len(self.nested.vocab))
        pending: dict[int, RelativeCover] = {}
        for y in range(len(self.nested.vocab)):
            collected = 0.0
            entries: list[CoverEntry] = []
            for e in cover.entries:
                if len(e.nested) > k and e.nested[k] == y:
                    entries.append(e)
                    collected += e.marginal
            for x in range(len(ext)):
                if mapping[x][0] == y and valid[x]:
                    entry = CoverEntry(
                        retok + (x,), self.prefix + mapping[x], float(ext[x])
                    )
                    entries.append(entry)
                    collected += entry.marginal
            if entries:
                pending[y] = RelativeCover(entries)
            sums[y] = collected
        return self._finish(sums, pending, 0.0)

    # -- state transitions ---------------------------------------------------

    def _adopt(self, chosen: int) -> None:
        pending = self._pending or {}
        new_prefix = self.prefix + (chosen,)
        new_cover = pending.get(chosen) or RelativeCover()
        pruned: dict[TokenSeq, float] = {(): 1.0}
        for e in new_cover.entries:
            pruned[e.seq] = e.marginal
        retok = self.nested.outer.encode(self.nested.decode(new_prefix))
        if retok in self.prob_cache:
            pruned[retok] = self.prob_cache[retok]
        self.prefix = new_prefix
        self.cover_cache = {new_prefix: new_cover}
        self.prob_cache = pruned
        self._pending = None
        self._last = None

    def step(self, chosen: int) -> None:
        """Commit to a sub-token: extend the prefix, keep its cover, evict
        the unselected siblings' covers and unreachable marginals."""
        if self._last is None or self._pending is None:
            raise ReductionError("compute a distribution before stepping")
        if not 0 <= chosen < len(self._last.raw_marginals):
            raise ReductionError(f"sub-token id {chosen} out of range")
        if self._last.raw_marginals[chosen] <= 0.0:
            raise ReductionError(
                f"sub-token {chosen} has zero probability after the current prefix"
            )
        self._adopt(chosen)

    def branch(self, chosen: int) -> "ReductionSession":
        """Child session advanced by one sub-token, leaving this session
        untouched; requires a computed distribution, like :meth:`step`."""
        if self._last is None or self._pending is None:
            raise ReductionError("compute a distribution before branching")
        # shallow copy; _adopt rebinds the shared caches, never mutates them
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._adopt(chosen)
        return clone

    def relative_cover(self, y_prefix: Sequence[int]) -> RelativeCover:
        """Relative cover of a sub-token prefix extending the current one,
        computing (and discarding) any intermediate distributions needed."""
        y_prefix = tuple(y_prefix)
        hit = self.cover_cache.get(y_prefix)
        if hit is not None:
            return hit
        if y_prefix[: len(self.prefix)] != self.prefix:
            raise ReductionError(
                f"{y_prefix} does not extend the session prefix {self.prefix}"
            )
        walker = self
        rest = y_prefix[len(self.prefix) :]
        for i, y in enumerate(rest):
            walker.next_subtoken_dist()
            if i + 1 == len(rest):
                assert walker._pending is not None
                return walker._pending.get(y) or RelativeCover()
            walker = walker.branch(y)
        raise AssertionError("unreachable")

    def generate(
        self,
        max_subtokens: int,
        decoding: str = "greedy",
        seed: int | None = None,
    ) -> TokenSeq:
        """Generate sub-tokens until the terminator or the budget; see
        :func:`decode`."""
        return tuple(s.chosen for s in decode(
            self.next_subtoken_dist, self.step, self.nested.vocab.eos_id,
            max_subtokens, decoding, seed))


class Step(NamedTuple):
    """One committed decoding step: its index, the chosen sub-token, and the
    distribution it was chosen from."""

    index: int
    chosen: int
    dist: SubTokenDistribution


def decode(
    next_dist: Callable[[], SubTokenDistribution],
    step: Callable[[int], None],
    eos: int | None,
    max_steps: int,
    decoding: str = "greedy",
    seed: int | None = None,
) -> Iterator[Step]:
    """Auto-regressive decoding from any next-distribution source, such as a
    :class:`ReductionSession` or an ensemble of them.

    Each step calls ``next_dist()``, picks a sub-token, commits it with
    ``step(chosen)`` and then yields a :class:`Step`.  Decoding stops after
    the terminator ``eos`` or after ``max_steps`` steps.  Greedy decoding
    breaks probability ties by lowest token id; sampling draws by inverse
    CDF from ``np.random.default_rng(seed)`` and is reproducible run to run.
    An unknown ``decoding`` raises at the call, before any step.
    """
    if decoding not in ("greedy", "sample"):
        raise ReductionError(f"unknown decoding mode {decoding!r}")
    rng = np.random.default_rng(seed) if decoding == "sample" else None

    def steps() -> Iterator[Step]:
        for index in range(max_steps):
            dist = next_dist()
            if rng is None:
                chosen = int(np.argmax(dist.probs))
            else:
                cum = np.cumsum(dist.probs)
                chosen = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            step(chosen)
            yield Step(index, chosen, dist)
            if chosen == eos:
                return

    return steps()


def naive_restriction_dist(
    model: LanguageModel, nested: NestedTokenizer, prefix: Sequence[int]
) -> SubTokenDistribution:
    """Lossy baseline: retokenize the prefix text with the outer tokenizer,
    zero out next-token probabilities outside the sub-vocabulary, and
    renormalize.  Diagnostics carry the restricted (unrenormalized) vector
    and the mass removed by the restriction."""
    prefix = tuple(prefix)
    retok = nested.outer.encode(nested.decode(prefix))
    cond = model.next_token_dist(retok)
    outer_index = nested.outer.vocab.index
    sub = np.zeros(len(nested.vocab))
    for sid, surf in enumerate(nested.vocab.surfaces):
        sub[sid] = cond[outer_index[surf]]
    total = sub.sum()
    if total <= 0.0:
        raise ReductionError("restriction removed all probability mass")
    return SubTokenDistribution(sub / total, sub, float(cond.sum() - total))
