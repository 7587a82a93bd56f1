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
marginal are read from the cover.  The efficient variant restricts source
(ii) to the top-K most probable extensions and reports the marginal mass it
dropped.

The cover is one *group* per step with extensions: the step's
retokenization and its marginal, its model tree node (the next call reaches
the retokenization by one child lookup, never hashing the prefix), its
extensions' marginals and kept mask, and a node of the nested tokenizer's
re-encoding trie that lists which entries reach past the prefix, onto which
sub-token, and which one ends at it.  A step adds each group's marginals
with one unbuffered ``np.add.at``, oldest first, then every extension (an
exact ``0.0`` if invalid or top-K-dropped) onto its first sub-token; in
input order, as the naive reference adds, bit for bit.  Stepping moves each
group one trie edge and appends the step's group: no per-entry object, and
one retokenization tuple and one prefix tuple copied per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ReductionError
from .model import LanguageModel, Node
from .tokenization import NestedTokenizer, ReencodingNode, TokenSeq

DEFAULT_TOP_K = 300


class CoverEntry(NamedTuple):
    """One relative-cover element: a valid outer-token sequence, its nested
    (sub-token) encoding, its cached marginal probability, and the model's
    tree node of ``seq[:-1]`` (``None`` for the empty sequence)."""

    seq: TokenSeq
    nested: TokenSeq
    marginal: float
    parent: Node | None = None


class CoverGroup(NamedTuple):
    """The cover entries one step added: ``retok + (x,)`` for each outer id
    ``x`` that ``kept`` admits, with marginal ``ext[x]`` and the model's tree
    node ``parent`` of ``retok``.  ``retok`` has marginal ``base``, and
    ``retok + (x,)`` has ``base * parent.dist[x]`` even if top-K dropped it.
    Never written once made."""

    retok: TokenSeq
    base: float
    parent: Node
    ext: np.ndarray
    kept: np.ndarray


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

    The cover is a list of ``(trie node, CoverGroup)`` pairs, oldest first:
    each step with extensions appends its group, kept while some of its
    re-encodings run on.  The node (see :meth:`NestedTokenizer.trie_child`)
    is that of the sub-tokens the group's re-encodings covered since.  :attr:`cover_cache`,
    :meth:`relative_cover` and ``_pending`` enumerate :class:`CoverEntry`
    records from the groups for readers; ``cover_cache`` and ``_pending``
    stay because the benchmark tracer reads them.

    A session is a single-owner mutable object.  Several sessions may share
    one model and tokenizer, but neither is immutable: every new prefix the
    model is queried on adds a node to its prefix tree, and every new trie
    position a cover group reaches adds one to the tokenizer's memo.
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
        # the relative cover; the empty prefix's, the empty sequence alone, is
        # implicit
        self.cover: list[tuple[ReencodingNode, CoverGroup]] = []
        # the last distribution and its extensions' group (None if none)
        self._group: CoverGroup | None = None
        self._last: SubTokenDistribution | None = None

    def _entries(self, members) -> RelativeCover:
        """:class:`CoverEntry` records of ``(trie node, group, ascending
        outer ids)`` triples, for the ids each group keeps."""
        mapping, prefix = self.nested.mapping, self.prefix
        return RelativeCover([
            CoverEntry(g.retok + (x,), prefix[: len(prefix) - at.depth] + mapping[x],
                       g.ext.item(x), g.parent)
            for at, g, xs in members for x in xs if g.kept[x]
        ])

    def _groups(self) -> list[tuple[ReencodingNode, CoverGroup]]:
        """The cover, then the last distribution's group at the trie root."""
        group = self._group
        return self.cover if group is None else [*self.cover, (self.nested.trie, group)]

    def _bucket(self, y: int) -> RelativeCover:
        """Relative cover of ``prefix + (y,)`` from the last distribution:
        the carried entries whose next sub-token is ``y``, then the step's
        extensions whose re-encoding starts with ``y``."""
        return self._entries((at, g, at.split.get(y, ())) for at, g in self._groups())

    @property
    def cover_cache(self) -> dict[TokenSeq, RelativeCover]:
        """A new ``{prefix: relative cover}`` dict over the one cover the
        session keeps, for readers; writing to it changes nothing."""
        if not self.prefix:
            return {(): RelativeCover([CoverEntry((), (), 1.0, None)])}
        return {self.prefix: self._entries(
            (at, g, sorted({*at.ids.tolist(), at.exact} - {-1})) for at, g in self.cover)}

    # -- per-step computation ------------------------------------------------

    def _prologue(self):
        """The step's retokenization and its marginal, its extensions'
        marginals, the mask of extensions that enter the cover, and the
        retokenization's node; the retokenization and the node are ``None``
        when no valid outer sequence ends at the prefix."""
        if not self.prefix:
            retok, base, parent = (), 1.0, None
        else:
            # The prefix's canonical retokenization R, if it exists, is in a
            # live group: R[:-1] was an earlier step's, whose group has since
            # followed mapping[R[-1]] down the trie.  The mask, not `kept`,
            # admits R[-1], so an entry that top-K dropped is found too.
            for at, g in self.cover:
                x = at.exact
                if x >= 0 and g.parent.mask[x]:
                    retok, parent = g.retok + (x,), g.parent
                    base = g.base * parent.dist.item(x)
                    break
            else:  # no R: source (ii) is empty
                size = len(self.model.vocab)
                return None, 0.0, np.zeros(size), np.zeros(size, dtype=bool), None
        ext = base * self.model.next_token_dist(retok, parent)
        # the call added the node; only the empty sequence has no parent
        node = parent.children[retok[-1]] if parent is not None else self.model.root
        return retok, base, ext, node.mask, node

    def _finish(self, raw, dropped, retok, base, ext, kept, node) -> SubTokenDistribution:
        total = raw.sum()
        if total <= 0.0:
            raise ReductionError("no sub-token continuation has positive probability")
        dist = SubTokenDistribution(raw / total, raw, dropped)
        self._group = None if node is None else CoverGroup(retok, base, node, ext, kept)
        self._last = dist
        return dist

    def next_subtoken_dist(self) -> SubTokenDistribution:
        """Efficient variant: one scatter-add per cover group, oldest first,
        each over the ids its trie node lists, then one of the extensions.
        ``ext`` is exactly ``0.0`` at every invalid id, and top-K zeroes the
        ids it drops, so each sub-token adds its carried entries in cover
        order and then every id whose re-encoding starts with it, in
        ascending id, as :meth:`next_subtoken_dist_naive` does, with exact
        zeros between."""
        retok, base, ext, valid, node = self._prologue()
        raw = np.zeros(len(self.nested.vocab))
        for at, g in self.cover:
            if at.ids.size:
                np.add.at(raw, at.ys, g.ext[at.ids])
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
        np.add.at(raw, self.nested.trie.ys, ext)
        return self._finish(raw, dropped, retok, base, ext, valid, node)

    def next_subtoken_dist_naive(self) -> SubTokenDistribution:
        """Reference variant: for every sub-token, scan every cover entry
        and the whole vocabulary.  Always exact; bit-identical to the
        efficient variant run with K >= |V|."""
        retok, base, ext, valid, node = self._prologue()
        k, mapping = len(self.prefix), self.nested.mapping
        cover = self.cover_cache[self.prefix].entries
        sums = [0.0] * len(self.nested.vocab)
        for y in range(len(sums)):
            collected = 0.0
            for e in cover:
                if len(e.nested) > k and e.nested[k] == y:
                    collected += e.marginal
            for x in range(len(ext)):
                if mapping[x][0] == y and valid[x]:
                    collected += float(ext[x])
            sums[y] = collected
        return self._finish(np.array(sums), 0.0, retok, base, ext, valid, node)

    @property
    def _pending(self) -> dict[int, RelativeCover] | None:
        """Every non-empty bucket of the last distribution, built, for
        readers such as tests and tracers; ``None`` before a distribution is
        computed."""
        if self._last is None:
            return None
        ys = set().union(*(at.split for at, _ in self._groups()))
        return {y: b for y in sorted(ys) if (b := self._bucket(y)).entries}

    # -- state transitions ---------------------------------------------------

    def _adopt(self, chosen: int) -> None:
        """Move every group, the step's last, one trie edge along ``chosen``,
        dropping those that no re-encoding continues."""
        child = self.nested.trie_child
        moved = [(child(at, chosen), g) for at, g in self._groups()]
        self.cover = [(at, g) for at, g in moved if at is not None]
        self.prefix = self.prefix + (chosen,)
        self._group = self._last = None

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
        if y_prefix[: len(self.prefix)] != self.prefix:
            raise ReductionError(
                f"{y_prefix} does not extend the session prefix {self.prefix}"
            )
        walker = self
        for y in y_prefix[len(self.prefix) :]:
            walker.next_subtoken_dist()
            walker = walker.branch(y)
        return walker.cover_cache[y_prefix]

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
