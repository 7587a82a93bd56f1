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
exact mode the session re-encodes no text.  Each cover entry carries the
model's tree node of its sequence minus the last token, so the call reaches
the retokenization through that node and never hashes the prefix.  The
efficient variant restricts source (ii) to the top-K most probable
extensions and reports the marginal mass it dropped.

A step sums each sub-token's carried entries in cover order, then scatters
every extension (an exact ``0.0`` if invalid or top-K-dropped) onto its
first sub-token with one unbuffered ``np.add.at``, which adds in input order,
so every sum makes the naive reference's additions in its order, bit for
bit.  It builds cover entries only
for the bucket it steps into, picking that bucket's extension ids with the
step's mask.  Those entries hold no prefix: each keeps the step's
retokenization tuple by reference (shared by its siblings), its last outer
token and the sub-token offset where its re-encoding ends, so a step copies
one retokenization tuple and one prefix tuple whatever the cover's size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ReductionError
from .model import LanguageModel, Node
from .tokenization import NestedTokenizer, TokenSeq

DEFAULT_TOP_K = 300


class CoverEntry(NamedTuple):
    """One relative-cover element: a valid outer-token sequence, its nested
    (sub-token) encoding, its cached marginal probability, and the model's
    tree node of ``seq[:-1]`` (``None`` for the empty sequence)."""

    seq: TokenSeq
    nested: TokenSeq
    marginal: float
    parent: Node | None = None


class CompactEntry(NamedTuple):
    """The cover entry a session keeps: sequence ``head + (x,)`` (``head``
    alone when ``x`` is ``None``, the empty sequence's entry), whose
    re-encoding ``mapping[x]`` ends at sub-token offset ``end``.  ``head``
    is the retokenization the entry extended, shared with its siblings; the
    next sub-token after a prefix of length ``k < end`` is
    ``mapping[x][k - end]``."""

    head: TokenSeq
    x: int | None
    end: int
    marginal: float
    parent: Node | None


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
    """Stateful reducer: a sampled sub-token prefix and its relative cover,
    the only store of marginals.

    ``topk=None`` requests exact mode (every extension considered);
    otherwise only the K most probable one-token extensions of the canonical
    retokenization enter the cover at each step.  The attribute is read at
    each distribution computation, so it may be changed between steps.

    The cover is a list of :class:`CompactEntry`; :attr:`cover_cache`,
    :meth:`relative_cover` and ``_pending`` turn entries into
    :class:`CoverEntry` records for readers.  A distribution computation
    keeps, per sub-token, the carried cover entries, and for the extensions
    the step's mask and marginals; :meth:`step` builds the chosen
    sub-token's cover entries from them and drops the rest.  The model call
    of a step passes the retokenization's parent node, taken from its cover
    entry, and every new entry is stamped with the retokenization's node, so
    no step looks a prefix up from the model's root.

    A session is a single-owner mutable object.  Several sessions may share
    one model and tokenizer, but a model is not immutable: every new prefix
    it is queried on adds a node to its prefix tree.
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
        # relative cover of the prefix
        self.cover: list[CompactEntry] = [CompactEntry((), None, 0, 1.0, None)]
        # the last distribution's buckets: carried cover entries by
        # sub-token, the extension groups by first sub-token and the mask
        # that admits them, the retokenization they extend, their marginals,
        # and the retokenization's tree node
        self._buckets = None
        self._last: SubTokenDistribution | None = None

    def _view(self, entries: list[CompactEntry]) -> RelativeCover:
        """``entries`` as :class:`CoverEntry` records; each entry's
        re-encoding starts within the prefix."""
        mapping, prefix = self.nested.mapping, self.prefix
        out = []
        for e in entries:
            if e.x is None:
                out.append(CoverEntry(e.head, (), e.marginal, e.parent))
                continue
            m = mapping[e.x]
            out.append(CoverEntry(
                e.head + (e.x,), prefix[: e.end - len(m)] + m, e.marginal, e.parent))
        return RelativeCover(out)

    @property
    def cover_cache(self) -> dict[TokenSeq, RelativeCover]:
        """A new ``{prefix: relative cover}`` dict over the one cover the
        session keeps, for readers; writing to it changes nothing."""
        return {self.prefix: self._view(self.cover)}

    # -- per-step computation ------------------------------------------------

    def _prologue(self):
        cover = self.cover
        k = len(self.prefix)
        for e in cover:
            if e.end == k:
                retok = e.head if e.x is None else e.head + (e.x,)
                base, parent = e.marginal, e.parent
                break
        else:
            # No cover entry ends at the prefix.  The only valid outer
            # sequence that could is the encoding of the prefix's text: when
            # its nested encoding is the prefix, top-K truncation dropped its
            # entry and its marginal is recomputed; otherwise no valid
            # sequence ends here and source (ii) is empty.
            retok = self.nested.outer.encode(self.nested.decode(self.prefix))
            if self.nested.nested_encode(retok) != self.prefix:
                size = len(self.model.vocab)
                return cover, retok, np.zeros(size), np.zeros(size, dtype=bool), None
            base, parent = self.model.marginal(retok), self.model.node(retok[:-1])
        ext = base * self.model.next_token_dist(retok, parent)
        # the call added the node; only the empty sequence has no parent
        node = parent.children[retok[-1]] if parent is not None else self.model.root
        return cover, retok, ext, node.mask, node

    def _finish(self, raw: np.ndarray, dropped: float, buckets) -> SubTokenDistribution:
        total = raw.sum()
        if total <= 0.0:
            raise ReductionError("no sub-token continuation has positive probability")
        dist = SubTokenDistribution(raw / total, raw, dropped)
        self._buckets = buckets
        self._last = dist
        return dist

    def next_subtoken_dist(self) -> SubTokenDistribution:
        """Efficient variant: one pass over the cover, then one scatter-add
        of the extensions.  ``ext`` is exactly ``0.0`` at every invalid id,
        and top-K zeroes the ids it drops, so each sub-token adds every id
        of its ``by_first`` group, in ascending id after its carried
        entries, as :meth:`next_subtoken_dist_naive` does; its cover entries
        are built only for a bucket that is read (see :meth:`_bucket`)."""
        cover, retok, ext, valid, node = self._prologue()
        k = len(self.prefix)
        mapping = self.nested.mapping
        carried: dict[int, list[CompactEntry]] = {}
        for e in cover:
            if e.end > k:
                y = mapping[e.x][k - e.end]
                group = carried.get(y)
                if group is None:
                    carried[y] = [e]
                else:
                    group.append(e)
        raw = np.zeros(len(self.nested.vocab))
        for y, group in carried.items():
            total = 0.0
            for e in group:
                total += e.marginal
            raw[y] = total
        size = len(ext)
        if self.topk is not None and self.topk < size:
            order = np.argsort(-ext, kind="stable")
            top, drop = order[: self.topk], order[self.topk :]
            dropped = float(ext[drop].sum())
            ext[drop] = 0.0  # the step's own array, not the model's
            kept = np.zeros(size, dtype=bool)
            kept[top] = valid[top]
            valid = kept
        else:
            dropped = 0.0
        # unbuffered, in input order, as the naive loop adds (+0.0 is exact)
        np.add.at(raw, self.nested.first, ext)
        return self._finish(raw, dropped, (carried, self.nested.by_first, valid, retok, ext, node))

    def next_subtoken_dist_naive(self) -> SubTokenDistribution:
        """Reference variant: for every sub-token, scan the whole cover and
        the whole vocabulary, building every cover entry.  Always exact;
        bit-identical to the efficient variant run with K >= |V|."""
        cover, retok, ext, valid, node = self._prologue()
        k = len(self.prefix)
        mapping = self.nested.mapping
        sums = [0.0] * len(self.nested.vocab)
        buckets: dict[int, list[CompactEntry]] = {}
        for y in range(len(self.nested.vocab)):
            collected = 0.0
            entries: list[CompactEntry] = []
            for e in cover:
                if e.end > k and mapping[e.x][k - e.end] == y:
                    entries.append(e)
                    collected += e.marginal
            for x in range(len(ext)):
                if mapping[x][0] == y and valid[x]:
                    entry = CompactEntry(
                        retok, x, k + len(mapping[x]), float(ext[x]), node)
                    entries.append(entry)
                    collected += entry.marginal
            if entries:
                buckets[y] = entries
            sums[y] = collected
        return self._finish(np.array(sums), 0.0, (buckets, {}, valid, retok, None, node))

    def _bucket(self, y: int) -> list[CompactEntry]:
        """Relative cover of ``prefix + (y,)`` from the last distribution:
        bucket ``y``'s carried entries, then the entries of its extensions
        that the step's mask admits, built here, sharing the retokenization
        tuple and stamped with its node."""
        carried, groups, valid, retok, ext, node = self._buckets
        k, mapping = len(self.prefix), self.nested.mapping
        return carried.get(y, []) + [
            CompactEntry(retok, x, k + len(mapping[x]), ext.item(x), node)
            for x in groups.get(y, ()) if valid[x]
        ]

    @property
    def _pending(self) -> dict[int, RelativeCover] | None:
        """Every non-empty bucket of the last distribution, built, for
        readers such as tests and tracers; ``None`` before a distribution is
        computed."""
        if self._last is None:
            return None
        carried, groups = self._buckets[:2]
        buckets = {y: self._bucket(y) for y in sorted(carried.keys() | groups.keys())}
        return {y: self._view(b) for y, b in buckets.items() if b}

    # -- state transitions ---------------------------------------------------

    def _adopt(self, chosen: int) -> None:
        self.cover = self._bucket(chosen)
        self.prefix = self.prefix + (chosen,)
        self._buckets = self._last = None

    def step(self, chosen: int) -> None:
        """Commit to a sub-token: extend the prefix, keep its cover, evict
        the unselected siblings' covers.

        A sub-token with zero mass is refused, unless top-K dropped mass at
        this step: the step is then recomputed exactly once and checked
        again."""
        if self._last is None:
            raise ReductionError("compute a distribution before stepping")
        if not 0 <= chosen < len(self._last.raw_marginals):
            raise ReductionError(f"sub-token id {chosen} out of range")
        if self._last.raw_marginals[chosen] <= 0.0 and self._last.dropped_mass > 0.0:
            # a caller such as a mixture can pick `chosen` on another
            # source's mass after top-K dropped every extension reaching it
            topk, self.topk = self.topk, None
            try:
                self.next_subtoken_dist()
            finally:
                self.topk = topk
        if self._last.raw_marginals[chosen] <= 0.0:
            raise ReductionError(
                f"sub-token {chosen} has zero probability after the current prefix"
            )
        self._adopt(chosen)

    def branch(self, chosen: int) -> "ReductionSession":
        """Child session advanced by one sub-token, leaving this session
        untouched; requires a computed distribution, like :meth:`step`."""
        if self._last is None:
            raise ReductionError("compute a distribution before branching")
        # shallow copy; _adopt rebinds the shared state, never mutates it
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._adopt(chosen)
        return clone

    def relative_cover(self, y_prefix: Sequence[int]) -> RelativeCover:
        """Relative cover of a sub-token prefix extending the current one,
        computing (and discarding) any intermediate distributions needed."""
        y_prefix = tuple(y_prefix)
        if y_prefix == self.prefix:
            return self._view(self.cover)
        if y_prefix[: len(self.prefix)] != self.prefix:
            raise ReductionError(
                f"{y_prefix} does not extend the session prefix {self.prefix}"
            )
        walker = self
        rest = y_prefix[len(self.prefix) :]
        for i, y in enumerate(rest):
            walker.next_subtoken_dist()
            if i + 1 == len(rest):
                return walker._view(walker._bucket(y))
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
