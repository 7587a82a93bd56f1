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
  (ii) one-token extensions of the prefix's canonical retokenization (the
       one cover entry whose re-encoding ends exactly at the prefix),
       bucketed by the first sub-token of the added token's re-encoding.
       When no valid outer sequence ends at the prefix (an inner tokenizer
       such as a common BPE vocabulary can split a token's re-encoding
       where no outer sequence ends), this source is empty.

Only source (ii) touches the model, with exactly one distribution call per
step; entry marginals are extended incrementally, never recomputed, and in
either mode the session re-encodes no text: the retokenization and its
marginal are read from the cover.  A session is exact unless made with a
K below |V|: that lossy baseline carries the exact cover but adds only
the top-K most probable extensions of source (ii), the first K ids of the
model's ranking of the step's conditional (:meth:`LanguageModel.ranking`,
made once per distribution), and reports the marginal mass it dropped.

The cover is one *group* per step with extensions: the model tree node of
the step's retokenization (the next step reaches its own by one child
lookup, never hashing or copying a prefix) and its marginal, a cache of
its extensions' marginals, and a node of the nested tokenizer's
re-encoding trie that lists which entries reach past the prefix, onto which
sub-token, and which one ends at it.  Source (ii) is one more such group, at
the trie root, which lists every outer id under its re-encoding's first
sub-token.  A step adds every pending group's marginals (an extension's is
an exact ``0.0`` if invalid or top-K-dropped) with one unbuffered
``np.bincount``, the cover's oldest first and its own last; in input order,
as the naive reference adds in an exact session.  Stepping moves each
pending group one trie edge and conses the sub-token onto a shared chain:
no per-entry object, and no tuple that grows with the prefix.

Marginals fall geometrically with the prefix, so a session keeps its cover's
marginals, and reports ``p~``, as the true values times ``2**-exponent``
(see :data:`_RESCALE_BELOW`); each distribution carries the exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ReductionError
from .model import LanguageModel, Node
from .tokenization import NestedTokenizer, ReencodingNode, TokenSeq, Vocabulary, is_token_id

_NO_IDS, _NO_VALUES = np.zeros(0, dtype=np.intp), np.zeros(0)

# When the chosen sub-token's marginal m = f * 2**e (0.5 <= f < 1) falls
# below this, _adopt multiplies the cover it keeps by 2**-e.  A power of two
# scales every normal number exactly, so each later sum and quotient is the
# unscaled one times the same power, bit for bit, and ``probs`` do not move.
# The kept cover sums to m, so each step starts from a cover total
# M >= 2**-511, and a product base * conditional made in it stays normal
# (>= 2**-1022) while (base / M) * conditional >= 2**-511: the square root
# of the smallest normal leaves that ratio as many binades as it leaves M.
# Nothing scaled exceeds 2 / m <= 2**1023 while m is normal.
_RESCALE_BELOW = 2.0**-511


class CoverEntry(NamedTuple):
    """One relative-cover element: a valid outer-token sequence, its nested
    (sub-token) encoding and its marginal; goes with ROADMAP item 1."""

    seq: TokenSeq
    nested: TokenSeq
    marginal: float


class CoverGroup(NamedTuple):
    """The cover entries one step added: ``tuple(node) + (x,)`` for each
    outer id ``x`` that ``node.mask`` admits, with marginal ``base *
    node.dist[x]`` in the session's scale, where ``node`` is the model's
    tree node of the step's retokenization and ``base`` its marginal.
    ``ext`` caches those products, exact zeros where top-K dropped them."""

    node: Node
    base: float
    ext: np.ndarray


@dataclass
class RelativeCover:
    """Relative cover of one sub-token prefix; goes with ROADMAP item 1."""

    entries: list[CoverEntry] = field(default_factory=list)

    def sequences(self) -> set[TokenSeq]:
        return {e.seq for e in self.entries}


@dataclass
class SubTokenDistribution:
    """Normalized next-sub-token distribution plus diagnostics: the raw
    (unnormalized) marginals, the true values times ``2**-exponent``, and
    the true marginal mass dropped by top-K truncation.  The true raw
    marginals, which may underflow to 0, are ``ptilde``."""

    probs: np.ndarray
    raw_marginals: np.ndarray
    dropped_mass: float
    exponent: int = 0

    @property
    def ptilde(self) -> np.ndarray:
        """The true raw marginals: ``raw_marginals`` itself at exponent 0."""
        if self.exponent:
            return np.ldexp(self.raw_marginals, self.exponent)
        return self.raw_marginals

    @property
    def normalizer(self) -> float:
        """The true sum of the raw marginals, which may underflow to 0."""
        return math.ldexp(float(self.raw_marginals.sum()), self.exponent)

    @property
    def log2_normalizer(self) -> float:
        """``log2`` of :attr:`normalizer`, finite where it underflows; by the
        sum's mantissa, so the same bit for bit however the cover is scaled."""
        mantissa, power = math.frexp(float(self.raw_marginals.sum()))
        return math.log2(mantissa) + (power + self.exponent)


class ReductionSession:
    """Stateful reducer: a sampled sub-token prefix and its relative cover,
    the only store of marginals.

    ``topk=None``, the default, is exact mode (every extension considered),
    and so is any K >= |V|, which :attr:`topk` reads back as ``None``;
    otherwise only the K most probable one-token extensions of the canonical
    retokenization, by the model's conditional with ties kept in ascending
    id, add their marginals at each step.  K is fixed at construction, and
    a branch keeps it; where top-K leaves no mass it falls back to exact.

    The cover is a list of ``(trie node, CoverGroup)`` pairs, oldest first:
    each step with extensions appends its group, kept while some of its
    re-encodings run on.  The node (see :meth:`NestedTokenizer.trie_child`)
    is that of the sub-tokens the group's re-encodings covered since.  A
    distribution sums one pending list, the cover plus the step's own group
    at the trie root, and stepping moves that list.  The readers
    (:attr:`cover_cache`, :meth:`relative_cover` and ``_pending``) and the
    slow reference :meth:`next_subtoken_dist_naive` share one enumerator,
    ``_entries``, of the exact cover's :class:`CoverEntry` records;
    ``cover_cache`` and ``_pending`` stay because the benchmark tracer reads
    them.  The groups' marginals are the true ones times ``2**-exponent``.

    The prefix is kept as a chain of ``(rest, sub-token)`` pairs that
    branches share; :attr:`prefix` builds its tuple on each read.

    A session is a single-owner mutable object.  Several sessions may share
    one model and tokenizer, but neither is immutable: every new prefix the
    model is queried on adds a node to its prefix tree, and every new trie
    position a cover group reaches adds one to the tokenizer's memo.
    """

    def __init__(
        self,
        model: LanguageModel,
        nested: NestedTokenizer,
        topk: int | None = None,
    ):
        if nested.outer.vocab.surfaces != model.vocab.surfaces:
            raise ReductionError(
                "nested tokenizer's outer vocabulary does not match the model's"
            )
        if topk is not None:
            if not (type(topk) is int or isinstance(topk, np.integer)) or topk < 1:
                raise ReductionError(f"top-K must be an int of at least 1 or None, not {topk!r}")
            topk = None if topk >= len(model.vocab) else int(topk)
        self.model = model
        self.nested = nested
        self._topk = topk
        # the prefix, last sub-token outermost; None is the empty prefix
        self._chain: tuple | None = None
        self.exponent = 0
        # the relative cover; the empty prefix's, the empty sequence alone, is
        # implicit
        self.cover: list[tuple[ReencodingNode, CoverGroup]] = []
        # the last distribution and the groups it summed, which the next
        # step moves
        self._last: SubTokenDistribution | None = None
        self._pending_groups: list[tuple[ReencodingNode, CoverGroup]] = []

    @property
    def topk(self) -> int | None:
        """K, fixed at construction and stored as an ``int``, or ``None``
        for exact mode.  Anything but an integer of at least 1 (a ``bool``
        is none) raises :class:`ReductionError` in the constructor."""
        return self._topk

    @property
    def prefix(self) -> TokenSeq:
        """The sub-tokens stepped so far, a new tuple on each read."""
        out = []
        link = self._chain
        while link is not None:
            link, y = link
            out.append(y)
        return tuple(reversed(out))

    def _entries(self, groups, scaled: bool = False) -> Iterator[CoverEntry]:
        """The :class:`CoverEntry` records of ``(trie node, group)`` pairs,
        in list order and ascending id within a group: every id the node
        lists (one reaching past the prefix, or ``at.exact``) that the
        group's node admits, with marginal ``base * node.dist[x]``, not
        ``ext``'s.  Marginals are true unless ``scaled``."""
        mapping, prefix = self.nested.mapping, self.prefix
        exponent = 0 if scaled else self.exponent
        for at, g in groups:
            xs = sorted([*at.ids.tolist(), at.exact]) if at.exact >= 0 else at.ids.tolist()
            # the node's prefix and the covered sub-tokens, built once
            seq, head = tuple(g.node), prefix[: len(prefix) - at.depth]
            for x in xs:
                if g.node.mask[x]:
                    yield CoverEntry(seq + (x,), head + mapping[x],
                                     math.ldexp(g.base * g.node.dist.item(x), exponent))

    def _cover(self) -> RelativeCover:
        """The relative cover of the prefix, built from the groups."""
        if self._chain is None:
            return RelativeCover([CoverEntry((), (), 1.0)])
        return RelativeCover(list(self._entries(self.cover)))

    @property
    def cover_cache(self) -> dict[TokenSeq, RelativeCover]:
        """A new ``{prefix: relative cover}`` dict over the one cover the
        session keeps, for readers; writing to it changes nothing.  Goes
        with ROADMAP item 1."""
        return {self.prefix: self._cover()}

    # -- per-step computation ------------------------------------------------

    def _step_group(self, topk: int | None) -> tuple[CoverGroup | None, float]:
        """The step's group, the one-token extensions of the prefix's
        canonical retokenization, and the marginal mass top-K zeroed in its
        ``ext``; no group when no valid outer sequence ends at the prefix."""
        if self._chain is None:
            node, base = self.model.root, 1.0
        else:
            # The prefix's canonical retokenization R, if it exists, is in a
            # live group: R[:-1] was an earlier step's, whose group has since
            # followed mapping[R[-1]] down the trie, whether or not top-K
            # zeroed R's marginal in that group's `ext`.
            for at, g in self.cover:
                x = at.exact
                if x >= 0 and g.node.mask[x]:
                    base = g.base * g.node.dist.item(x)
                    node = self.model.child(g.node, x)
                    break
            else:  # no R: source (ii) is empty
                return None, 0.0
        ext = base * self.model.next_token_dist(node)
        dropped = 0.0
        if topk is not None:
            # base * dist is monotone in dist, so ext[drop] holds the values
            # a sort of ext would give, in the same order
            drop = self.model.ranking(node)[topk:]
            dropped = float(ext[drop].sum())
            ext[drop] = 0.0  # the step's own array, not the model's
        return CoverGroup(node, base, ext), dropped

    def _finish(self, raw, dropped, pending, exact: bool = True) -> SubTokenDistribution:
        total = np.add.reduce(raw)  # raw.sum() without its Python wrapper
        if total <= 0.0:
            if not exact:  # top-K zeroed every entry, here or earlier
                return self.next_subtoken_dist_naive()
            raise ReductionError("no sub-token continuation has positive probability")
        self._last = SubTokenDistribution(
            raw / total, raw, math.ldexp(dropped, self.exponent), self.exponent)
        self._pending_groups = pending
        return self._last

    def next_subtoken_dist(self) -> SubTokenDistribution:
        """Efficient variant: one scatter-add of every pending group's
        ``ext``, oldest first and the step's own last, each over the ids its
        trie node lists.  ``ext`` is exactly ``0.0`` at every invalid id, so
        each sub-token adds its carried entries in cover order and then
        every id whose re-encoding starts with it, in ascending id, as
        :meth:`next_subtoken_dist_naive` does, with exact zeros between;
        top-K's zeros are all that tells the two apart."""
        group, dropped = self._step_group(self._topk)
        ys, values = [], []
        for at, g in self.cover:
            if at.ids.size:
                ys.append(at.ys)
                values.append(g.ext[at.ids])
        if group is None:
            pending = self.cover
        else:
            # the step's group sits at the trie root, which lists every
            # outer id, ascending, under its re-encoding's first sub-token
            pending = [*self.cover, (self.nested.trie, group)]
            ys.append(self.nested.trie.ys)
            values.append(group.ext)
        # One unbuffered pass in input order, as the naive loop adds.  Most
        # sampled binary steps scatter one group (573 of 880), and passing it
        # unconcatenated saves about 1.2 of 13 us per step (2-vCPU Xeon).
        if len(ys) == 1:
            ys, values = ys[0], values[0]
        else:
            ys, values = np.concatenate(ys or [_NO_IDS]), np.concatenate(values or [_NO_VALUES])
        raw = np.bincount(ys, values, minlength=len(self.nested.vocab))
        return self._finish(raw, dropped, pending, self._topk is None)

    def next_subtoken_dist_naive(self) -> SubTokenDistribution:
        """Reference variant: enumerate every pending entry, the cover's
        and then the step's extensions in ascending id, and add each one's
        marginal to its next sub-token's sum.  Always exact: the efficient
        variant's bits in an exact session, and top-K's fallback."""
        group, _ = self._step_group(None)
        pending = self.cover if group is None else [*self.cover, (self.nested.trie, group)]
        k, sums = len(self.prefix), [0.0] * len(self.nested.vocab)
        for e in self._entries(pending, scaled=True):
            if len(e.nested) > k:
                sums[e.nested[k]] += e.marginal
        return self._finish(np.array(sums), 0.0, pending)

    @property
    def _pending(self) -> dict[int, RelativeCover] | None:
        """The last distribution's pending entries, exact at any K, in a
        non-empty bucket per next sub-token, for readers such as tests and
        tracers; ``None`` before a distribution is computed.  Goes with
        ROADMAP item 1."""
        if self._last is None:
            return None
        k, buckets = len(self.prefix), {}
        for e in self._entries(self._pending_groups):
            if len(e.nested) > k:
                buckets.setdefault(e.nested[k], []).append(e)
        return {y: RelativeCover(buckets[y]) for y in sorted(buckets)}

    # -- state transitions ---------------------------------------------------

    def _checked(self, chosen: int, action: str) -> SubTokenDistribution:
        """The last distribution, once ``chosen`` is a sub-token of it; the
        exact one, recomputed, if top-K left ``chosen`` no mass."""
        if self._last is None:
            raise ReductionError(f"compute a distribution before {action}")
        if not is_token_id(chosen, len(self._last.raw_marginals)):
            raise ReductionError(f"sub-token id {chosen} out of range")
        if self._topk is not None and self._last.raw_marginals.item(chosen) <= 0.0:
            # a mixture can pick `chosen` on another source's mass after
            # top-K dropped every entry reaching it, here or earlier
            return self.next_subtoken_dist_naive()
        return self._last

    def _adopt(self, chosen: int) -> None:
        """Move every pending group, the step's last, one trie edge along
        ``chosen``, dropping those that no re-encoding continues, and
        rescale the groups kept if ``chosen``'s marginal is positive and
        below :data:`_RESCALE_BELOW`, into new arrays (a branch onto a
        zero-mass sub-token keeps its scale)."""
        child = self.nested.trie_child
        moved = [(child(at, chosen), g) for at, g in self._pending_groups]
        cover = [(at, g) for at, g in moved if at is not None]
        m = self._last.raw_marginals.item(chosen)
        if 0.0 < m < _RESCALE_BELOW:
            e = math.frexp(m)[1]
            cover = [(at, CoverGroup(g.node, math.ldexp(g.base, -e), np.ldexp(g.ext, -e)))
                     for at, g in cover]
            self.exponent += e
        self.cover = cover
        self._chain = (self._chain, chosen)
        self._last, self._pending_groups = None, []

    def step(self, chosen: int) -> None:
        """Commit to a sub-token: extend the prefix, keep its cover, evict
        the unselected siblings' covers.

        A sub-token with zero mass is refused, after a top-K session has
        recomputed the exact distribution (times a power of two)."""
        last = self._checked(chosen, "stepping")
        if last.raw_marginals.item(chosen) <= 0.0:
            raise ReductionError(f"sub-token {chosen} has zero probability "
                                 "after the current prefix")
        self._adopt(chosen)

    def branch(self, chosen: int) -> "ReductionSession":
        """Child session advanced by one sub-token, leaving this session
        untouched; :meth:`step` on a copy, falling back alike, except that
        a zero-mass sub-token is taken."""
        # shallow copy; _checked and _adopt rebind the shared state, never mutate it
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._checked(chosen, "branching")
        clone._adopt(chosen)
        return clone

    def relative_cover(self, y_prefix: Sequence[int]) -> RelativeCover:
        """Relative cover of a sub-token prefix extending the current one,
        computing (and discarding) any intermediate distributions needed."""
        y_prefix = tuple(y_prefix)
        if y_prefix[: len(self.prefix)] != self.prefix:
            raise ReductionError(f"{y_prefix} does not extend the session prefix "
                                 f"{self.prefix}")
        walker = self
        for y in y_prefix[len(self.prefix) :]:
            walker.next_subtoken_dist()
            walker = walker.branch(y)
        return walker._cover()

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


def _lift(dist: np.ndarray, source: Vocabulary, target: Vocabulary) -> np.ndarray:
    """The lift of ``dist``, over ``source``, onto ``target``: each target
    surface's probability, 0.0 where ``source`` lacks the surface.  Both
    lossy baselines move distributions with it."""
    index = source.index
    return np.array([dist[index[surf]] if surf in index else 0.0 for surf in target.surfaces])


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
    sub = _lift(cond, nested.outer.vocab, nested.vocab)
    total = sub.sum()
    if total <= 0.0:
        raise ReductionError("restriction removed all probability mass")
    return SubTokenDistribution(sub / total, sub, float(cond.sum() - total))
