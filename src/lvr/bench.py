"""Steps-per-byte comparison: byte-level vs common-vocabulary reduction.

Generates a fixed number of output bytes with the same member models twice,
once reduced to the single-byte sub-vocabulary and once to the maximal
common vocabulary, and reports steps taken and bytes per step.  Because a
common-vocabulary step can emit several bytes, its bytes-per-step exceeds
the byte-level run's by the mean surface length of the emitted sub-tokens.
The report keeps no clock, so one seed gives one report.  The second run
starts from the models the first warmed, so the two runs' rates would not
compare; ``perfbench`` does the timing.
"""

from __future__ import annotations

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
) -> tuple[int, int]:
    vocab = spec.members[0].nested.vocab
    eos = vocab.eos_id
    n_bytes = steps = 0
    budget = max_steps if target_bytes > 0 else 0
    for s in decode(spec.next_dist, spec.step, eos, budget, "sample", seed):
        steps += 1
        if s.chosen != eos:
            n_bytes += len(vocab.surface(s.chosen))
        if n_bytes >= target_bytes:
            break
    return n_bytes, steps


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
        n_bytes, steps = _generate_until(
            spec, target_bytes, seed, max_steps=4 * target_bytes + 16
        )
        return {
            "steps": steps,
            "bytes": n_bytes,
            "bytes_per_step": n_bytes / steps if steps else 0.0,
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
