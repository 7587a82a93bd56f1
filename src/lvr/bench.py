"""Throughput comparison: byte-level vs common-vocabulary reduction.

Generates a fixed number of output bytes with the same member models twice,
once reduced to the single-byte sub-vocabulary and once to the maximal
common vocabulary, and reports steps taken, bytes per step, and wall-clock
steps per second.  Because a common-vocabulary step can emit several bytes,
its bytes-per-step exceeds the byte-level run's by the mean surface length
of the emitted sub-tokens.
"""

from __future__ import annotations

import time
from typing import Sequence

from .ensemble import EnsembleSpec
from .mcv import build_mcv
from .model import LanguageModel
from .reduction import ReductionSession, decode
from .tokenization import (
    BpeTokenizer,
    DeterministicTokenizer,
    GreedyTokenizer,
    NestedTokenizer,
    byte_vocabulary,
)


def _generate_until(
    spec: EnsembleSpec, target_bytes: int, seed: int, max_steps: int
) -> tuple[bytes, int, float]:
    vocab = spec.members[0].nested.vocab
    eos = vocab.eos_id
    out = bytearray()
    steps = 0
    start = time.perf_counter()
    budget = max_steps if target_bytes > 0 else 0
    for s in decode(spec.next_dist, spec.step, eos, budget, "sample", seed):
        steps += 1
        if s.chosen != eos:
            out.extend(vocab.surface(s.chosen))
        if len(out) >= target_bytes:
            break
    return bytes(out), steps, time.perf_counter() - start


def run_bench(
    members: Sequence[tuple[LanguageModel, BpeTokenizer]],
    corpus: Sequence[bytes],
    target_bytes: int = 500,
    seed: int = 0,
    topk: int | None = None,
    mode: str = "poe",
) -> dict:
    """Run the byte-level and common-vocabulary generation benchmarks.

    ``corpus`` is only used for the reference statistic: the mean token
    surface length of the common-vocabulary encoding of the corpus.
    """
    mcv, mcv_tokenizer = build_mcv([tok for _, tok in members])
    byte_inner = GreedyTokenizer(byte_vocabulary(mcv.vocab.alphabet))

    def run(inner: DeterministicTokenizer) -> dict:
        sessions = [
            ReductionSession(model, NestedTokenizer(tok, inner), topk=topk)
            for model, tok in members
        ]
        spec = EnsembleSpec(sessions, mode=mode)
        text, steps, elapsed = _generate_until(
            spec, target_bytes, seed, max_steps=4 * target_bytes + 16
        )
        return {
            "steps": steps,
            "bytes": len(text),
            "bytes_per_step": len(text) / steps if steps else 0.0,
            "steps_per_sec": steps / elapsed if elapsed > 0 else float("inf"),
            "elapsed_sec": elapsed,
        }

    corpus_tokens = [t for doc in corpus for t in mcv_tokenizer.encode(doc)]
    corpus_mean_len = (
        sum(len(mcv_tokenizer.vocab.surface(t)) for t in corpus_tokens)
        / len(corpus_tokens)
        if corpus_tokens
        else 0.0
    )
    byte_stats = run(byte_inner)
    mcv_stats = run(mcv_tokenizer)
    ratio = (
        mcv_stats["bytes_per_step"] / byte_stats["bytes_per_step"]
        if byte_stats["bytes_per_step"]
        else 0.0
    )
    return {
        "target_bytes": target_bytes,
        "seed": seed,
        "mode": mode,
        "mcv_size": len(mcv.vocab),
        "mcv_merges": len(mcv.merges),
        "corpus_mean_token_len": corpus_mean_len,
        "byte_level": byte_stats,
        "mcv": mcv_stats,
        "bytes_per_step_ratio": ratio,
    }
