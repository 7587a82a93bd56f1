"""Spans around the toolkit's public functions, recorded from outside.

``Tracer.install()`` replaces each function listed in ``_targets`` with a
wrapper that records a span (name, start, end, parent span, output id) in
memory and bumps the counters that belong to that boundary; ``uninstall()``
puts the originals back.  Nothing inside ``src/lvr`` is changed.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Encodes made inside ``valid_continuations`` are not
traced (there are |V| of them per call); that call's time is its own.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from pathlib import Path

import decode as dec
from lvr import ensemble, mcv, model, oracle, reduction, tokenization

LAYERS = ("tokenization", "model", "reduction", "ensemble", "mcv", "oracle", "decode")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.output: list[int] = []
        self._stack: list[int] = []
        self.output_id = -1
        self.paused_depth = 0
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._prefixes: set[tuple[int, tuple[int, ...]]] = set()
        self._models: dict[int, object] = {}  # keeps ids in ``_prefixes`` unique
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def _open(self, code: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.output.append(self.output_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Run the block untraced (used around set-up)."""
        self.paused_depth += 1
        try:
            yield
        finally:
            self.paused_depth -= 1

    def _wrap(self, owner, attr: str, name: str, before=None, after=None,
              opaque: bool = False, always: bool = False, span: bool = True):
        """Wrap ``owner.attr`` (a class, module or dict entry).  ``opaque``
        stops tracing inside the call; ``always`` records it even while
        paused; ``span=False`` only counts calls."""
        is_dict = isinstance(owner, dict)
        orig = owner[attr] if is_dict else owner.__dict__[attr]
        code = self._code(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused_depth and not always:
                return orig(*args, **kwargs)
            tracer.calls[name] += 1
            token = before(args) if before is not None else None
            if not span:
                result = orig(*args, **kwargs)
            else:
                idx = tracer._open(code)
                if opaque or always:
                    tracer.paused_depth += 1
                try:
                    result = orig(*args, **kwargs)
                finally:
                    if opaque or always:
                        tracer.paused_depth -= 1
                    tracer._close(idx)
            if after is not None:
                after(token, args, result)
            return result

        if is_dict:
            owner[attr] = wrapper
            self._undo.append(lambda: owner.__setitem__(attr, orig))
        else:
            setattr(owner, attr, wrapper)
            self._undo.append(lambda: setattr(owner, attr, orig))

    # -- counters at the boundaries ----------------------------------------

    def _encode_before(self, args):
        self.counts["encode_bytes"] += len(args[1])

    def _dist_before(self, args):
        lm, prefix = args[0], tuple(args[1])
        self._models[id(lm)] = lm
        self._prefixes.add((id(lm), prefix))

    def _cover_before(self, args):
        session = args[0]
        entries = session.cover_cache[session.prefix].entries
        k = len(session.prefix)
        self.counts["cover_entries"] += len(entries)
        return sum(1 for e in entries if len(e.nested) > k)

    def _cover_after(self, carried, args, result):
        # extensions that entered the cover: every pending entry that did not
        # come from the cover itself (reads the session's pending buckets)
        pending = getattr(args[0], "_pending", None) or {}
        self.counts["extensions"] += sum(len(b.entries) for b in pending.values()) - carried
        self.counts["dropped_mass"] += result.dropped_mass

    def _targets(self):
        tok, lm, red = tokenization, model, reduction
        return [
            (tok.DeterministicTokenizer, "valid_continuations",
             "tokenization.valid_continuations", {"opaque": True}),
            (tok.BpeTokenizer, "encode", "tokenization.encode",
             {"before": self._encode_before}),
            (tok.GreedyTokenizer, "encode", "tokenization.encode",
             {"before": self._encode_before}),
            (tok.DeterministicTokenizer, "decode", "tokenization.decode", {}),
            (tok.NestedTokenizer, "nested_encode", "tokenization.nested_encode", {}),
            (lm.LanguageModel, "next_token_dist", "model.next_token_dist",
             {"before": self._dist_before}),
            (lm.LanguageModel, "valid_mask", "model.valid_mask", {}),
            (lm.LanguageModel, "marginal", "model.marginal", {}),
            (lm.TableModel, "raw_next_token_dist", "model.raw_next_token_dist",
             {"span": False}),
            (lm.NgramModel, "raw_next_token_dist", "model.raw_next_token_dist",
             {"span": False}),
            (red.ReductionSession, "next_subtoken_dist", "reduction.next_subtoken_dist",
             {"before": self._cover_before, "after": self._cover_after}),
            (red.ReductionSession, "step", "reduction.step", {}),
            (red.ReductionSession, "branch", "reduction.branch", {}),
            (ensemble.EnsembleSpec, "next_dist", "ensemble.next_dist", {}),
            (ensemble.EnsembleSpec, "step", "ensemble.step", {}),
            # the combiners are looked up through this table at call time
            (ensemble._COMBINERS, "poe", "ensemble.combine", {}),
            (ensemble._COMBINERS, "moe", "ensemble.combine", {}),
            (mcv, "build_mcv", "mcv.build", {"always": True}),
            (oracle, "lossless_check", "oracle.lossless_check", {}),
            (oracle, "original_prefix_prob_table", "oracle.original_table", {}),
            (oracle, "reduced_prefix_prob_table", "oracle.reduced_table", {}),
            (dec, "decode", "decode.run", {}),
            (dec, "sample", "decode.sample", {}),
        ]

    def install(self) -> None:
        for owner, attr, name, opts in self._targets():
            self._wrap(owner, attr, name, **opts)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i] - child[i])
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, normalized per sub-token step where named so;
        a sub-token step is one ``next_subtoken_dist`` call."""
        own = self.self_times()
        calls = self.calls
        subtoks = calls["reduction.next_subtoken_dist"] or 1
        dist_calls = calls["model.next_token_dist"]
        out = {f"{layer}.self_s": sum(v for k, v in own.items() if k.startswith(layer + "."))
               for layer in LAYERS}
        out.update({
            "tokenization.valid_continuations_s": own.get("tokenization.valid_continuations", 0.0),
            "tokenization.valid_continuations_calls": calls["tokenization.valid_continuations"],
            "tokenization.encode_s": own.get("tokenization.encode", 0.0),
            "tokenization.encode_calls_per_subtok": calls["tokenization.encode"] / subtoks,
            "tokenization.encode_bytes_per_subtok": self.counts["encode_bytes"] / subtoks,
            "model.next_token_dist_s": own.get("model.next_token_dist", 0.0),
            "model.valid_mask_s": own.get("model.valid_mask", 0.0),
            "model.calls_per_subtok": dist_calls / subtoks,
            "model.marginal_calls": calls["model.marginal"],
            "model.cache_hit_ratio": (
                1.0 - calls["model.raw_next_token_dist"] / dist_calls if dist_calls else 0.0),
            "model.distinct_prefixes": len(self._prefixes),
            "reduction.next_subtoken_dist_calls": calls["reduction.next_subtoken_dist"],
            "reduction.next_subtoken_dist_self_s": own.get("reduction.next_subtoken_dist", 0.0),
            "reduction.step_self_s": own.get("reduction.step", 0.0),
            "reduction.cover_entries_per_subtok": self.counts["cover_entries"] / subtoks,
            "reduction.extensions_per_subtok": self.counts["extensions"] / subtoks,
            "reduction.dropped_mass": self.counts["dropped_mass"],
            "ensemble.next_dist_self_s": own.get("ensemble.next_dist", 0.0),
            "ensemble.combine_s": own.get("ensemble.combine", 0.0),
            "mcv.build_s": own.get("mcv.build", 0.0),
            "oracle.original_table_s": own.get("oracle.original_table", 0.0),
            "oracle.reduced_table_s": own.get("oracle.reduced_table", 0.0),
            "decode.sample_s": own.get("decode.sample", 0.0),
            "trace.spans": len(self.span_name),
        })
        return out

    def write(self, path: Path) -> None:
        """One JSON header line with the span names, then one line per span:
        [name, start_s, end_s, parent, output], times from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with path.open("w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(f"[{self.span_name[i]},{self.start[i] - t0:.7f},"
                         f"{self.end[i] - t0:.7f},{self.parent[i]},{self.output[i]}]\n")
