"""Byte-level texts, vocabularies, and deterministic tokenizers.

A text is a ``bytes`` value over a configurable alphabet (the full 256-byte
alphabet by default, or a toy alphabet such as ``{0, 1}``).  A vocabulary is
an ordered list of distinct, nonempty byte-string surfaces; token ids are
dense indices into that list.  Two encoder families are provided (greedy
longest-match and BPE merge-list), plus the nested tokenizer that re-encodes
each token's surface with a sub-vocabulary tokenizer.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import TokenizationError

TokenSeq = tuple[int, ...]

_NO_IDS = np.zeros(0, dtype=np.intp)  # ids and ys of every trie node with no id past σ

# bounds of a BPE tokenizer's chunk memo: entries, and bytes per chunk
_CHUNK_ENTRIES = 4096
_CHUNK_BYTES = 32


@dataclass(frozen=True)
class Alphabet:
    """Set of byte values texts may use, with an optional reserved terminator.

    The terminator symbol, when present, may only appear as the surface of
    the dedicated end-of-sequence token; no other token surface may contain
    it.
    """

    symbols: frozenset[int]
    eos: int | None = None

    def __post_init__(self):
        if not self.symbols:
            raise TokenizationError("alphabet must be nonempty")
        if any(not 0 <= s <= 255 for s in self.symbols):
            raise TokenizationError("alphabet symbols must be byte values")
        if self.eos is not None and self.eos not in self.symbols:
            raise TokenizationError("terminator symbol must belong to the alphabet")

    @classmethod
    def bytes(cls, eos: int | None = None) -> "Alphabet":
        """Full 256-byte alphabet (the default for real tokenizers)."""
        return cls(frozenset(range(256)), eos=eos)

    @classmethod
    def of(cls, chars: str | bytes, eos: str | bytes | None = None) -> "Alphabet":
        """Toy alphabet built from the given characters."""
        data = chars.encode() if isinstance(chars, str) else bytes(chars)
        symbols = set(data)
        eos_val = None
        if eos is not None:
            eos_b = eos.encode() if isinstance(eos, str) else bytes(eos)
            if len(eos_b) != 1:
                raise TokenizationError("terminator must be a single symbol")
            eos_val = eos_b[0]
            symbols.add(eos_val)
        return cls(frozenset(symbols), eos=eos_val)

    def contains_text(self, text: bytes) -> bool:
        return all(b in self.symbols for b in text)


class Vocabulary:
    """Ordered set of tokens; each token is ``(id, surface)`` with the id
    equal to the surface's position in the list.

    Surfaces are pairwise-distinct nonempty byte strings.  The vocabulary is
    *complete* when every alphabet symbol occurs as a single-byte surface;
    completeness is what makes an encoder total on all texts.
    """

    def __init__(self, surfaces: Iterable[bytes], alphabet: Alphabet | None = None):
        self.surfaces: tuple[bytes, ...] = tuple(bytes(s) for s in surfaces)
        self.alphabet = alphabet if alphabet is not None else Alphabet.bytes()
        if not self.surfaces:
            raise TokenizationError("vocabulary must be nonempty")
        self.index: dict[bytes, int] = {}
        for tid, surf in enumerate(self.surfaces):
            if not surf:
                raise TokenizationError(f"token {tid} has an empty surface")
            if surf in self.index:
                raise TokenizationError(f"duplicate token surface {surf!r}")
            if not self.alphabet.contains_text(surf):
                raise TokenizationError(
                    f"token surface {surf!r} uses symbols outside the alphabet"
                )
            self.index[surf] = tid
        eos = self.alphabet.eos
        if eos is not None:
            for surf in self.surfaces:
                if eos in surf and surf != bytes([eos]):
                    raise TokenizationError(
                        f"surface {surf!r} contains the terminator symbol"
                    )
        self.eos_id: int | None = (
            self.index.get(bytes([eos])) if eos is not None else None
        )
        self.complete: bool = all(
            bytes([s]) in self.index for s in self.alphabet.symbols
        )

    def __len__(self) -> int:
        return len(self.surfaces)

    def surface(self, tid: int) -> bytes:
        if not 0 <= tid < len(self.surfaces):
            raise TokenizationError(f"unknown token id {tid}")
        return self.surfaces[tid]

    def id_of(self, surface: bytes) -> int:
        try:
            return self.index[surface]
        except KeyError:
            raise TokenizationError(f"unknown token surface {surface!r}") from None

    def decode(self, ids: Sequence[int]) -> bytes:
        """Concatenate surfaces; the decoder is a homomorphism and
        ``decode(()) == b""``."""
        return b"".join(self.surface(t) for t in ids)


def byte_vocabulary(alphabet: Alphabet) -> Vocabulary:
    """The single-symbol vocabulary over an alphabet, in symbol order: the
    byte-level special case of a sub-vocabulary."""
    return Vocabulary([bytes([s]) for s in sorted(alphabet.symbols)], alphabet)


class DeterministicTokenizer:
    """Encoder/decoder pair; ``decode(encode(t)) == t`` for every text."""

    vocab: Vocabulary
    # Most tokens :meth:`mask_context` keeps: a valid prefix's last
    # ``mask_window`` tokens have its mask.  ``None`` (the generic rule)
    # keeps the whole prefix.
    mask_window: int | None = None

    def encode(self, text: bytes) -> TokenSeq:
        raise NotImplementedError

    def decode(self, ids: Sequence[int]) -> bytes:
        return self.vocab.decode(ids)

    def is_valid(self, ids: Sequence[int]) -> bool:
        """True iff re-encoding the decoded surface reproduces ``ids``
        exactly; these are precisely the sequences the encoder can emit."""
        ids = tuple(ids)
        return self.encode(self.decode(ids)) == ids

    def mask_context(self, prefix: Sequence[int]) -> TokenSeq:
        """Shortest suffix of a valid prefix that has the same validity mask
        as the whole prefix.  The generic rule keeps the whole prefix;
        encoders whose tokens depend on bounded context return less."""
        return tuple(prefix)

    def valid_continuations(self, prefix: Sequence[int]) -> np.ndarray:
        """Boolean mask over the vocabulary: entry ``x`` is True iff
        ``prefix + (x,)`` is a valid sequence.

        ``prefix`` must itself be valid: the mask is computed by
        :meth:`mask_row` from its :meth:`mask_context` alone, which is exact
        for valid prefixes only.  Rows are memoized by mask context and
        returned read-only, so every caller shares one array per context.
        """
        context = self.mask_context(prefix)
        row = self._rows.get(context)
        if row is None:
            row = self.mask_row(context)
            row.setflags(write=False)
            self._rows[context] = row
        return row

    @functools.cached_property
    def _rows(self) -> dict[TokenSeq, np.ndarray]:
        """Mask context -> row, filled by :meth:`valid_continuations`."""
        return {}

    def mask_row(self, context: TokenSeq) -> np.ndarray:
        """Validity mask after ``context``, a :meth:`mask_context` result.

        The generic fill re-encodes ``context`` followed by each token, |V|
        encodes per row.  It stays the reference that faster fills are
        tested against.
        """
        decoded = self.decode(context)
        mask = np.zeros(len(self.vocab), dtype=bool)
        for tid, surf in enumerate(self.vocab.surfaces):
            mask[tid] = self.encode(decoded + surf) == context + (tid,)
        return mask


class GreedyTokenizer(DeterministicTokenizer):
    """Greedy forward matching: repeatedly consume the longest vocabulary
    surface that prefixes the remaining text, looking its prefixes up in
    the vocabulary index from ``max_surface_len`` bytes down to one.  Its
    ``mask_window`` is ``max_surface_len - 1`` tokens: :meth:`mask_context`
    keeps tokens within that many bytes of the end, at least a byte each."""

    def __init__(self, vocab: Vocabulary):
        if not vocab.complete:
            raise TokenizationError("greedy tokenizer requires a complete vocabulary")
        self.vocab = vocab
        self._max_surface_len = max(len(s) for s in vocab.surfaces)
        self.mask_window = self._max_surface_len - 1

    def mask_context(self, prefix: Sequence[int]) -> TokenSeq:
        """The trailing tokens that start within ``max_surface_len - 1``
        bytes of the end.  A token starting earlier was matched against text
        that appending cannot change, so it stays as it is."""
        prefix = tuple(prefix)
        budget = self._max_surface_len - 1
        surfaces = self.vocab.surfaces
        start = len(prefix)
        while start > 0 and len(surfaces[prefix[start - 1]]) <= budget:
            start -= 1
            budget -= len(surfaces[prefix[start]])
        return prefix[start:]

    def encode(self, text: bytes) -> TokenSeq:
        out: list[int] = []
        pos = 0
        n = len(text)
        index = self.vocab.index
        while pos < n:
            for end in range(min(pos + self._max_surface_len, n), pos, -1):
                tid = index.get(text[pos:end])
                if tid is not None:
                    break
            else:
                raise TokenizationError(
                    f"no token matches text at offset {pos} (symbol {text[pos]:#04x})"
                )
            out.append(tid)
            pos = end
        return tuple(out)


class _MergeTrees(NamedTuple):
    """Index of an ordered BPE merge list for :meth:`BpeTokenizer.mask_row`."""

    canonical: np.ndarray  # token -> encodes to itself
    producer: dict[int, tuple[int, int, int]]  # product -> (left, right, rank)
    by_left: dict[int, tuple[np.ndarray, np.ndarray]]  # left -> (rights, ranks)
    holder: np.ndarray  # left-spine entries: the token whose spine it is,
    node: np.ndarray  # the node on that spine,
    node_rank: np.ndarray  # and the rank of the merge that consumed the node


class BpeTokenizer(DeterministicTokenizer):
    """Byte-pair encoding: start from single-symbol tokens and repeatedly
    apply the lowest-ranked applicable merge, leftmost occurrence first among
    equal ranks, until no merge applies.

    :meth:`encode` splits the text between adjacent bytes that occur
    together inside no surface and encodes each chunk alone, memoizing up
    to ``_CHUNK_ENTRIES`` chunks of at most ``_CHUNK_BYTES`` bytes.  The
    split is exact for every merge list, ordered or not: a merge's product
    is a surface (the constructor refuses any other), so no merge crosses
    such a pair, and each side's merges fire in the same (rank, leftmost)
    order as they would on that side alone.  Its ``mask_window`` is one
    token (see :meth:`mask_context`).
    """

    mask_window = 1

    def __init__(self, vocab: Vocabulary, merges: Sequence[tuple[int, int]]):
        if not vocab.complete:
            raise TokenizationError("BPE tokenizer requires a complete vocabulary")
        self.vocab = vocab
        self.merges: tuple[tuple[int, int], ...] = tuple(
            (int(a), int(b)) for a, b in merges
        )
        self._single = {s[0]: i for i, s in enumerate(vocab.surfaces) if len(s) == 1}
        # (left, right) -> (rank, product id); first occurrence wins on dupes.
        self._pair_rank: dict[tuple[int, int], tuple[int, int]] = {}
        for rank, (a, b) in enumerate(self.merges):
            product = vocab.surface(a) + vocab.surface(b)
            pid = vocab.index.get(product)
            if pid is None:
                raise TokenizationError(
                    f"merge {rank} produces {product!r}, not in the vocabulary"
                )
            self._pair_rank.setdefault((a, b), (rank, pid))
        # byte pairs (as first << 8 | second) that occur inside a surface
        self._joins = {a << 8 | b for s in vocab.surfaces for a, b in zip(s, s[1:])}
        self._chunks: dict[bytes, TokenSeq] = {}  # chunk -> ids, bounded

    def mask_context(self, prefix: Sequence[int]) -> TokenSeq:
        """The last token: BPE canonicality is a bigram property, so a valid
        prefix extended by ``x`` is valid iff its last token and ``x`` are
        (Vieira et al., 2025, *Language Models over Canonical Byte-Pair
        Encodings*)."""
        return tuple(prefix[-1:])

    def mask_row(self, context: TokenSeq) -> np.ndarray:
        """Bigram row after ``context`` (``()`` or one token), read off merge
        trees instead of re-encoding (Vieira et al., 2025, *Language Models
        over Canonical Byte-Pair Encodings*).

        The rule is exact when the merge list is *ordered*: every merge has
        a product that no other merge has (hence also its own pair), and
        each of its two parts is a single byte or the product of a merge of
        lower rank.  Then every token has one merge tree.  Its right spine
        is the token, its right child, and so on down to a byte; the left
        spine likewise with left children.  Each spine node carries the rank
        of the merge that consumed it, infinite for the token itself.  A
        token ``x`` may follow ``a`` iff ``x`` encodes to itself and no merge
        ``(u, v)`` of rank ``r`` has ``u`` on the right spine of ``a`` and
        ``v`` on the left spine of ``x`` with ``r < rank_a(u)`` and
        ``r <= rank_x(v)``.  The bounds differ because equal ranks merge
        leftmost first: the pair across the boundary lies right of the
        merge that consumes ``u`` and left of the one that consumes ``v``.

        A merge list that is not ordered uses the generic re-encoding fill.
        """
        trees = self._merge_trees
        if trees is None:
            return super().mask_row(context)
        if not context:
            return trees.canonical.copy()
        (u,) = context
        if not trees.canonical[u]:
            return np.zeros(len(self.vocab), dtype=bool)
        # limit[v]: lowest rank r of a merge (u, v) with u on the right
        # spine and r < rank_a(u); it blocks x if rank_x(v) >= r.  The rank
        # len(self.merges) stands for infinity.
        limit = np.full(len(self.vocab), len(self.merges) + 1)
        consumed = len(self.merges)
        while True:
            if u in trees.by_left:
                vs, ranks = trees.by_left[u]
                k = int(np.searchsorted(ranks, consumed))
                limit[vs[:k]] = np.minimum(limit[vs[:k]], ranks[:k])
            if u not in trees.producer:
                break
            _, u, consumed = trees.producer[u]
        mask = trees.canonical.copy()
        mask[trees.holder[trees.node_rank >= limit[trees.node]]] = False
        return mask

    @functools.cached_property
    def _merge_trees(self) -> "_MergeTrees | None":
        """Merge trees of an ordered merge list (see :meth:`mask_row`), or
        None.  Built on the first row request, not at construction."""
        surfaces = self.vocab.surfaces
        producer: dict[int, tuple[int, int, int]] = {}
        by_left: dict[int, tuple[list[int], list[int]]] = {}
        # canonical[t]: t encodes to itself.  A byte does; a product of
        # (a, b) at rank r does iff a and b do and no other merge across
        # their boundary blocks it: the row rule below, with both tops
        # consumed at r.
        canonical = [len(surf) == 1 for surf in surfaces]
        for rank, (a, b) in enumerate(self.merges):
            product = self._pair_rank[(a, b)][1]
            if product in producer:
                return None
            if any(len(surfaces[p]) > 1 and p not in producer for p in (a, b)):
                return None
            producer[product] = (a, b, rank)
            vs, ranks = by_left.setdefault(a, ([], []))
            vs.append(b)
            ranks.append(rank)
            if canonical[a] and canonical[b]:
                canonical[product] = not self._crossed(producer, a, b, rank)
        canonical = np.array(canonical)
        # one (token, node, rank consumed) triple per left-spine node of
        # every token that encodes to itself
        holder, node, node_rank = [], [], []
        for x in np.flatnonzero(canonical).tolist():
            v, consumed = x, len(self.merges)
            while True:
                holder.append(x)
                node.append(v)
                node_rank.append(consumed)
                if v not in producer:
                    break
                v, _, consumed = producer[v]
        return _MergeTrees(
            canonical=canonical,
            producer=producer,
            by_left={
                u: (np.array(vs, dtype=np.int64), np.array(ranks, dtype=np.int64))
                for u, (vs, ranks) in by_left.items()
            },
            holder=np.array(holder, dtype=np.int64),
            node=np.array(node, dtype=np.int64),
            node_rank=np.array(node_rank, dtype=np.int64),
        )

    def _crossed(self, producer, a: int, b: int, rank: int) -> bool:
        """Whether a merge ``(u, v)`` of rank ``r`` with ``u`` on the right
        spine of ``a`` and ``v`` on the left spine of ``b`` fires in the
        encoding of their concatenation before the merge of ``rank`` joins
        them: ``r < rank_a(u)`` and ``r <= rank_b(v)`` (see :meth:`mask_row`),
        with both tops consumed at ``rank``."""
        right, u, consumed = [], a, rank
        while True:
            right.append((u, consumed))
            if u not in producer:
                break
            _, u, consumed = producer[u]
        v, v_consumed = b, rank
        while True:
            for u, u_consumed in right:
                hit = self._pair_rank.get((u, v))
                if hit is not None and hit[0] < u_consumed and hit[0] <= v_consumed:
                    return True
            if v not in producer:
                return False
            v, _, v_consumed = producer[v]

    def encode(self, text: bytes) -> TokenSeq:
        chunks, joins = self._chunks, self._joins
        out: list[int] = []
        start = 0
        # the pair (last byte, -1) is in no surface: it ends the last chunk
        for end, (a, b) in enumerate(zip(text, chain(text[1:], (-1,))), 1):
            if a << 8 | b not in joins:
                chunk = text[start:end]
                out += chunks.get(chunk) or self._encode_chunk(chunk)
                start = end
        return tuple(out)

    def _encode_chunk(self, chunk: bytes) -> TokenSeq:
        """Heap merge loop over one chunk, memoized within the memo's bounds."""
        tok = [self._single.get(c) for c in chunk]
        if None in tok:
            bad = chunk[tok.index(None)]
            raise TokenizationError(f"no single-symbol token for byte {bad:#04x}")
        n = len(tok)
        pair_rank = self._pair_rank
        heap = []
        for i in range(n - 1):
            hit = pair_rank.get((tok[i], tok[i + 1]))
            if hit is not None:
                heap.append((hit[0], i))
        heapq.heapify(heap)
        nxt = list(range(1, n)) + [-1]
        prv = list(range(-1, n - 1))
        alive = [True] * n
        while heap:
            rank, pos = heapq.heappop(heap)
            if not alive[pos]:
                continue
            right = nxt[pos]
            if right < 0:
                continue
            hit = pair_rank.get((tok[pos], tok[right]))
            if hit is None or hit[0] != rank:
                continue  # stale entry
            tok[pos] = hit[1]
            alive[right] = False
            after = nxt[right]
            nxt[pos] = after
            if after >= 0:
                prv[after] = pos
                new = pair_rank.get((tok[pos], tok[after]))
                if new is not None:
                    heapq.heappush(heap, (new[0], pos))
            before = prv[pos]
            if before >= 0:
                new = pair_rank.get((tok[before], tok[pos]))
                if new is not None:
                    heapq.heappush(heap, (new[0], before))
        ids = tuple(t for t, live in zip(tok, alive) if live)
        if len(chunk) <= _CHUNK_BYTES and len(self._chunks) < _CHUNK_ENTRIES:
            self._chunks[chunk] = ids
        return ids


class ReencodingNode(NamedTuple):
    """Node of a nested tokenizer's re-encoding trie for a sub-token sequence
    σ of length ``depth``: the outer ids whose re-encoding extends past σ,
    ascending, with each one's next sub-token (``ids``, ``ys``), the id that
    re-encodes to σ itself (``exact``, or -1), the ids grouped by next
    sub-token (``split``), and the children built so far."""

    depth: int
    ids: np.ndarray
    ys: np.ndarray
    exact: int
    split: dict[int, list[int]]
    children: dict[int, ReencodingNode]


class NestedTokenizer(DeterministicTokenizer):
    """Composition of an outer tokenizer over V with an inner tokenizer over
    a sub-vocabulary: encode with the outer tokenizer, then re-encode each
    token's surface with the inner one.

    This is itself a deterministic tokenizer over the sub-vocabulary, so it
    plugs directly into the cover-enumeration oracle.

    ``trie`` is the root of a trie over the re-encodings ``mapping``; every
    other node is built on first use (:meth:`trie_child`) and memoized, so
    reduction sessions over this tokenizer add nodes as they step.  A node
    exists only for a prefix of some re-encoding: at most
    ``sum(map(len, mapping)) + 1`` nodes.
    """

    def __init__(self, outer: DeterministicTokenizer, inner: DeterministicTokenizer):
        for surf in inner.vocab.surfaces:
            if surf not in outer.vocab.index:
                raise TokenizationError(
                    f"sub-vocabulary surface {surf!r} is not an outer token"
                )
        self.outer = outer
        self.inner = inner
        self.vocab = inner.vocab  # the vocabulary this tokenizer emits
        # Per-token re-encoding of each outer surface.
        self.mapping: tuple[TokenSeq, ...] = tuple(
            inner.encode(surf) for surf in outer.vocab.surfaces
        )
        # every outer id; ys[x] = mapping[x][0], the sub-token a one-token
        # extension lands on and where a step's scatter-add puts x's mass
        self.trie = self._trie_node(range(len(self.mapping)), 0)

    def _trie_node(self, xs: Iterable[int], depth: int) -> ReencodingNode:
        """The node at ``depth`` over ``xs``, the ascending ids whose
        re-encoding starts with its σ: one pass, and no new arrays if no
        re-encoding extends past σ."""
        exact, ids, ys, split = -1, [], [], {}
        for x in xs:
            m = self.mapping[x]
            if len(m) == depth:
                exact = x
            else:
                ids.append(x)
                ys.append(m[depth])
                split.setdefault(m[depth], []).append(x)
        if not ids:
            return ReencodingNode(depth, _NO_IDS, _NO_IDS, exact, split, {})
        ids, ys = np.array(ids, dtype=np.intp), np.array(ys, dtype=np.intp)
        return ReencodingNode(depth, ids, ys, exact, split, {})

    def trie_child(self, node: ReencodingNode, y: int) -> ReencodingNode | None:
        """The trie node of σ + (y,), built on first use; ``None`` if no
        re-encoding extends σ by ``y``."""
        child = node.children.get(y)
        if child is None and y in node.split:
            child = node.children[y] = self._trie_node(node.split[y], node.depth + 1)
        return child

    def nested_encode(self, outer_ids: Sequence[int]) -> TokenSeq:
        """Concatenated per-token re-encodings; preserves decode."""
        out: list[int] = []
        for t in outer_ids:
            if not 0 <= t < len(self.mapping):
                raise TokenizationError(f"unknown token id {t}")
            out.extend(self.mapping[t])
        return tuple(out)

    def encode(self, text: bytes) -> TokenSeq:
        return self.nested_encode(self.outer.encode(text))
