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
from typing import Iterable, NamedTuple, Sequence, Sized

import numpy as np

from .errors import TokenizationError

TokenSeq = tuple[int, ...]

_NO_IDS = np.zeros(0, dtype=np.intp)  # ids and ys of every trie node with no id past σ

# bounds of a BPE tokenizer's chunk memo: entries, and bytes per chunk; a
# longer text finds its chunks by array lookups
_CHUNK_ENTRIES = 4096
_CHUNK_BYTES = 32


def is_token_id(value: object, size: int) -> bool:
    """Whether ``value`` is an int or a numpy integer in ``[0, size)``: a
    token id of a ``size``-token vocabulary, unlike ``True`` or ``1.0``."""
    return (type(value) is int or isinstance(value, np.integer)) and 0 <= value < size


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
        if not is_token_id(tid, len(self.surfaces)):
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
        encoders whose tokens depend on bounded context slice less off its
        end.  ``prefix`` may be a model's node (see :class:`LanguageModel`)."""
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
    the vocabulary index from ``max_surface_len`` bytes down to one."""

    def __init__(self, vocab: Vocabulary):
        if not vocab.complete:
            raise TokenizationError("greedy tokenizer requires a complete vocabulary")
        self.vocab = vocab
        self._max_surface_len = max(len(s) for s in vocab.surfaces)

    def mask_context(self, prefix: Sequence[int]) -> TokenSeq:
        """The trailing tokens that start within ``max_surface_len - 1``
        bytes of the end, hence among that many last tokens (each is a byte
        or more).  A token starting earlier was matched against text that
        appending cannot change, so it stays as it is."""
        budget = self._max_surface_len - 1
        prefix = tuple(prefix[-budget:]) if budget else ()
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
    """Validity rows of an ordered BPE merge list (see
    :meth:`BpeTokenizer.mask_row`) as one CSR over tokens."""

    canonical: np.ndarray  # token -> encodes to itself
    start: np.ndarray  # token a -> offset of its followers in ``blocked``
    blocked: np.ndarray  # the ids whose step after a some merge blocks


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each index of ``range(lo[i], hi[i])``, ``i`` by ``i``, with its ``i``:
    ``(owners, indices)``."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    return owner, np.arange(len(owner)) + (lo - np.cumsum(counts) + counts)[owner]


def _byte_pairs(data: bytes) -> np.ndarray:
    """Each adjacent byte pair of nonempty ``data`` as ``first << 8 | second``:
    a big-endian uint16 view of the bytes at stride 1, with no copy."""
    return np.ndarray((len(data) - 1,), dtype=">u2", buffer=data, strides=(1,))


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
    order as they would on that side alone.  The pairs are read from one
    65,536-entry table built at construction, flagging each byte pair that
    occurs inside no surface: a text of more than ``_CHUNK_BYTES`` bytes
    looks all its pairs up at once with array operations, a shorter one
    byte by byte in Python, which costs less below about 40 bytes.
    """

    def __init__(self, vocab: Vocabulary, merges: Sequence[tuple[int, int]]):
        if not vocab.complete:
            raise TokenizationError("BPE tokenizer requires a complete vocabulary")
        self.vocab = vocab
        merges, size, surfaces = tuple(merges), len(vocab), vocab.surfaces
        for rank, merge in enumerate(merges):
            if not (isinstance(merge, Sized) and len(merge) == 2
                    and all(is_token_id(t, size) for t in merge)):
                raise TokenizationError(
                    f"merge {rank}: ids must be integers in [0, {size}), two per merge, "
                    f"not {merge!r}")
        self.merges: tuple[tuple[int, int], ...] = tuple((int(a), int(b)) for a, b in merges)
        self._single = {s[0]: i for i, s in enumerate(surfaces) if len(s) == 1}
        # (left, right) -> (rank, product id); first occurrence wins on dupes.
        self._pair_rank: dict[tuple[int, int], tuple[int, int]] = {}
        for rank, (a, b) in enumerate(self.merges):
            product = surfaces[a] + surfaces[b]  # ids checked above
            pid = vocab.index.get(product)
            if pid is None:
                raise TokenizationError(
                    f"merge {rank} produces {product!r}, not in the vocabulary"
                )
            self._pair_rank.setdefault((a, b), (rank, pid))
        # byte pair (as first << 8 | second) -> 1 if it occurs inside no
        # surface; the pairs of the joined surfaces minus those across a seam
        joined = b"".join(surfaces)
        inside = np.ones(len(joined) - 1, dtype=bool)
        inside[np.cumsum([len(s) for s in surfaces[:-1]], dtype=np.intp) - 1] = False
        self._cuts = bytearray(b"\x01") * (1 << 16)
        np.frombuffer(self._cuts, dtype=bool)[_byte_pairs(joined)[inside]] = False
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

        :meth:`_merge_trees` lists, for each ``a``, the ``x`` that some such
        merge blocks, so a row is the ``canonical`` flags with
        ``blocked[start[a]:start[a + 1]]`` cleared, and all False after an
        ``a`` that does not encode to itself.  A merge list that is not
        ordered uses the generic re-encoding fill.
        """
        trees = self._merge_trees
        if trees is None:
            return super().mask_row(context)
        if not context:
            return trees.canonical.copy()
        (a,) = context
        if not trees.canonical[a]:
            return np.zeros(len(self.vocab), dtype=bool)
        mask = trees.canonical.copy()
        mask[trees.blocked[trees.start[a]:trees.start[a + 1]]] = False
        return mask

    @functools.cached_property
    def _merge_trees(self) -> "_MergeTrees | None":
        """Canonical flags and blocked followers of an ordered merge list
        (see :meth:`mask_row`), or None.  Built on the first row request,
        not at construction, by array operations over the ``M`` merges:

        - every token's spines as ``(holder, node, rank consumed)`` entries,
          filled depth by depth, ``M`` standing for the holder's infinity;
        - for each right-spine entry ``(a, u, l)``, the merges ``(u, v)`` of
          rank ``r < l``, keeping the lowest ``r`` per ``(a, v)``;
        - canonicality, in one pass in rank order: a byte encodes to
          itself, and the product of ``(a, b)`` at rank ``r`` does iff
          ``a`` and ``b`` do and no left-spine entry ``(b, v, c)`` has an
          ``(a, v)`` rank at most ``min(c, r - 1)``: with both tops
          consumed at ``r``, every other spine node is consumed below it,
          so the bound ``r`` is all that changes;
        - the CSR: each ``(a, v, r)`` joined with the left-spine entries
          ``(x, v, c)`` that have ``c >= r``.
        """
        size, count = len(self.vocab), len(self.merges)
        width = count + 1  # a key's rank digit, 0..M
        pairs = np.array(self.merges, dtype=np.int64).reshape(count, 2)
        product = [self._pair_rank[m][1] for m in self.merges]
        if len(set(product)) < count:
            return None
        rank_of = np.full(size, -1)  # token -> rank of the merge making it
        rank_of[product] = np.arange(count)
        multi = np.array([len(surf) > 1 for surf in self.vocab.surfaces])
        part_rank = rank_of[pairs]
        if np.any(multi[pairs] & ((part_rank < 0) | (part_rank >= np.arange(count)[:, None]))):
            return None
        children = np.zeros((size, 2), dtype=np.int64)
        children[product] = pairs
        spines = []  # left, then right
        for side in (0, 1):
            holder = node = np.arange(size)
            consumed = np.full(size, count)
            depths = [(holder, node, consumed)]
            while (made := rank_of[node] >= 0).any():
                holder, node = holder[made], node[made]
                consumed, node = rank_of[node], children[node, side]
                depths.append((holder, node, consumed))
            spines.append([np.concatenate(column) for column in zip(*depths)])
        (x_of, v_of, c_of), (a_of, u_of, l_of) = spines
        # Stable argsorts and sorted keys, not np.unique, the default sort
        # kind or floor division: their first calls grow resident memory.
        # The merges of left u below rank l are a range of (left, rank).
        by_left = np.argsort(pairs[:, 0], kind="stable")
        owner, at = _ranges(*np.searchsorted(
            pairs[by_left, 0] * width + by_left, [u_of * width, u_of * width + l_of]))
        a, rank = a_of[owner], by_left[at]
        v = pairs[rank, 1]
        order = np.argsort((a * size + v) * width + rank, kind="stable")
        a, v, rank = a[order], v[order], rank[order]
        lowest = np.diff(a * size + v, prepend=-1) != 0  # the lowest rank per (a, v)
        a, v, rank = a[lowest], v[lowest], rank[lowest]
        keys = (a * size + v) * width + rank  # sorted
        # merge r is crossed iff some (a, v) key of its pair has a rank
        # below r and at most the rank consuming v on b's left spine
        in_order = np.argsort(x_of, kind="stable")  # left-spine entries by holder
        firsts = np.searchsorted(x_of[in_order], np.arange(size + 1))
        merge, at = _ranges(firsts[pairs[:, 1]], firsts[pairs[:, 1] + 1])
        at = in_order[at]
        query = (pairs[merge, 0] * size + v_of[at]) * width
        bound = query + np.minimum(c_of[at], merge - 1) + 1
        crossed = np.zeros(count, dtype=bool)
        crossed[merge[np.searchsorted(keys, query) < np.searchsorted(keys, bound)]] = True
        canonical = (~multi).tolist()
        for (left, right), made, cross in zip(self.merges, product, crossed.tolist()):
            if canonical[left] and canonical[right]:
                canonical[made] = not cross
        # left-spine entries of node v consumed at c >= r are a range of
        # (node, rank consumed); the join keeps the (a, v) order, so it
        # lists the blocked followers a by a
        by_node = np.argsort(v_of * width + c_of, kind="stable")
        lo, hi = np.searchsorted((v_of * width + c_of)[by_node],
                                 [v * width + rank, (v + 1) * width])
        _, at = _ranges(lo, hi)
        offsets = np.concatenate(([0], np.cumsum(hi - lo)))
        return _MergeTrees(
            canonical=np.array(canonical),
            start=offsets[np.searchsorted(a, np.arange(size + 1))],
            blocked=x_of[by_node[at]],
        )

    def encode(self, text: bytes) -> TokenSeq:
        if not text:
            return ()
        cuts = self._cuts
        if len(text) > _CHUNK_BYTES:  # past here array lookups beat the loop
            ends = (np.flatnonzero(np.frombuffer(cuts, dtype=bool)[_byte_pairs(text)])
                    + 1).tolist()
        else:
            ends = [end for end, (a, b) in enumerate(zip(text, text[1:]), 1)
                    if cuts[a << 8 | b]]
        ends.append(len(text))
        chunks, out, start = self._chunks, [], 0
        for end in ends:
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
            if not is_token_id(t, len(self.mapping)):
                raise TokenizationError(f"unknown token id {t}")
            out.extend(self.mapping[t])
        return tuple(out)

    def encode(self, text: bytes) -> TokenSeq:
        return self.nested_encode(self.outer.encode(text))
