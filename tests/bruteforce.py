"""Test-side brute-force enumerators, kept independent of the engine's
cover recursion so they can certify it."""

from __future__ import annotations

from lvr import NestedTokenizer


def brute_relative_cover(nested: NestedTokenizer, y_prefix: tuple[int, ...]) -> set:
    """Exhaustive relative cover: every valid outer sequence whose nested
    encoding has ``y_prefix`` as a prefix while its parent's does not.

    Enumerates outer sequences whose nested encodings track ``y_prefix``
    sub-token by sub-token, then validity-checks each candidate with the
    outer encoder.
    """
    if not y_prefix:
        return {()}
    k = len(y_prefix)
    outer = nested.outer
    mapping = nested.mapping
    found: set[tuple[int, ...]] = set()

    def rec(seq: tuple[int, ...], nested_so_far: tuple[int, ...]) -> None:
        # invariant: nested_so_far is a proper prefix of y_prefix
        for tid in range(len(outer.vocab)):
            grown = nested_so_far + mapping[tid]
            if len(grown) >= k:
                if grown[:k] == y_prefix and outer.is_valid(seq + (tid,)):
                    found.add(seq + (tid,))
            elif grown == y_prefix[: len(grown)]:
                rec(seq + (tid,), grown)

    rec((), ())
    return found


def recursive_walk(tree, vocab, texts: list[bytes], budget) -> dict[bytes, float]:
    """Reference for the oracle's tree walk: the same depth-first walk of
    ``(root, expand, child)`` written as a recursion, one call per descended
    extension, scanning every new prefix of an extension up to the longest
    text.  ``vocab`` needs ``surfaces`` and ``eos_id``; ``budget.tick(n)``
    is charged ``len(weights)`` per expanded state and may raise.  It
    reaches Python's recursion limit on texts of about 1,000 tokens."""
    root, expand, child = tree
    found = dict.fromkeys(texts, 0.0)
    found[b""] = 1.0
    longest = max(map(len, found))
    surfaces, eos = vocab.surfaces, vocab.eos_id

    def rec(state, decoded: bytes) -> None:
        weights = expand(state)
        budget.tick(len(weights))
        lo = len(decoded)
        for y, w in enumerate(weights.tolist()):
            if w <= 0.0:
                continue
            nd = decoded + surfaces[y]
            for n in range(lo + 1, min(len(nd), longest) + 1):
                t = nd[:n]
                if t in found:
                    found[t] += w
            if len(nd) < longest and nd in found and y != eos:
                rec(child(state, y, w), nd)

    rec(root, b"")
    return found


def chain(cond):
    """Tree of an autoregressive generator with conditionals ``cond(prefix)``,
    ``prefix`` a tuple of ids; a state is ``(prefix, probability)``."""
    return ((), 1.0), lambda s: s[1] * cond(s[0]), lambda s, y, w: (s[0] + (y,), w)
