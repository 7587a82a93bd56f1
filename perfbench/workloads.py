"""The four workloads: seeded inputs, timed set-up, and one job at a time.

Each workload has three parts:

- ``prepare(seed)`` runs the generators in ``gen.py`` (not timed);
- ``setup(data, job)`` builds the toolkit objects one job needs: tokenizers,
  models, the common vocabulary and sessions (timed as ``setup_s``);
- ``job(data, objs, job, tally)`` does the measured work and its checks.

Every generating job decodes each output twice: cold, on the fresh models
from ``setup``, and warm, replayed with the same sampling seed on the same
models.  The two must agree token for token, and on the step and message of
any error.  Any ``LvrError`` fails that one output; nothing is retried or
re-seeded.

A run makes one or more passes over a workload's fixed ``jobs`` jobs.  Each
pass appends one ``Output`` per attempt to its ``Tally``; ``combine`` checks
that later passes reproduce the first and takes each timed unit's median.
Times come from ``clock.Clock`` and are scaled to a fixed machine speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

import decode as dec
from clock import Clock
import gen
from lvr import (
    Alphabet,
    BpeTokenizer,
    EnsembleSpec,
    GreedyTokenizer,
    LvrError,
    NestedTokenizer,
    NgramModel,
    ReductionSession,
    TableModel,
    Vocabulary,
    byte_vocabulary,
    train_ngram,
)
from lvr import mcv as lvr_mcv
from lvr import oracle as lvr_oracle

TOLERANCE = 1e-9


@dataclass
class Output:
    """One attempt as timed in one pass: an output decoded cold and replayed
    warm, or one verified instance.  ``cold`` and ``warm`` are the timed
    units (the gap before each sub-token, or one whole check), ``gaps`` the
    cold step gaps the percentiles pool, and ``outcome`` what must repeat
    exactly in every pass."""

    arm: str
    cold: list[float]
    warm: list[float]
    gaps: list[float]
    cold_steps: int
    warm_steps: int
    outcome: object
    bytes: int = 0
    counts_bytes: bool = True  # part of ``bytes_per_s``


def _median(outputs: list[Output]) -> Output:
    """The first output with each timed unit the median over ``outputs``."""
    def med(lists):
        return np.median(np.array(lists), axis=0).tolist() if lists[0] else []
    return replace(outputs[0], cold=med([o.cold for o in outputs]),
                   warm=med([o.warm for o in outputs]), gaps=med([o.gaps for o in outputs]))


@dataclass
class Tally:
    """Everything one pass over a workload's jobs measures."""

    workload: str
    seed: int
    setup: list[float] = field(default_factory=list)
    outputs: list[Output] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    jobs: int = 0
    digest: str = ""
    extra: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value

    def fail(self, arm: str, job: int, step: int, error: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(
                {"workload": self.workload, "arm": arm, "seed": self.seed,
                 "job": job, "step": step, "error": error[:160]}
            )

    def measured_s(self) -> float:
        return sum(sum(o.cold) + sum(o.warm) for o in self.outputs)


def _signature(tally: Tally):
    """What every pass over the same jobs must reproduce exactly."""
    return (tally.attempted, tally.failed, tally.extra,
            [(o.arm, o.outcome, len(o.cold), len(o.warm), len(o.gaps)) for o in tally.outputs])


def combine(passes: list[Tally]) -> Tally:
    """The first pass's counts and outcomes, with each timed unit the
    median over the passes that reproduced them.  A pass that did not is a
    problem of the run, and its times are left out."""
    best = passes[0]
    kept = [best]
    for n, other in enumerate(passes[1:], 1):
        best.setup += other.setup
        best.problems += other.problems
        if _signature(other) == _signature(best):
            kept.append(other)
        else:
            best.problems.append(f"pass {n} does not reproduce pass 0's outcomes and counts")
    best.outputs = [_median([p.outputs[i] for p in kept]) for i in range(len(best.outputs))]
    return best


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _decode(source, rng_key, eos, done: Callable[[list[int]], bool]) -> dec.Outcome:
    """Decode from a ``ReductionSession`` or an ``EnsembleSpec``."""
    next_dist = (source.next_dist if isinstance(source, EnsembleSpec)
                 else source.next_subtoken_dist)
    return dec.decode(next_dist, source.step, np.random.default_rng(rng_key), eos, done)


def _pair(tally: Tally, arm: str, job: int, cold_source, make_warm, rng_key, eos,
          done: Callable[[list[int]], bool], lengths: list[int]) -> tuple[dec.Outcome, Output]:
    """Cold decode, then the warm replay on a new source over the same
    models; both are timed step by step.  Records the output in ``tally``
    and returns the cold outcome with it."""
    cold = _decode(cold_source, rng_key, eos, done)
    warm = _decode(make_warm(), rng_key, eos, done)
    out = Output(arm, cold.gaps, warm.gaps, cold.gaps, len(cold.tokens), len(warm.tokens),
                 (cold.tokens, cold.error), bytes=sum(lengths[t] for t in cold.tokens))
    tally.outputs.append(out)
    tally.attempted += 1
    if cold.error is not None:
        tally.fail(arm, job, len(cold.tokens), cold.error)
    if (cold.tokens, cold.error) != (warm.tokens, warm.error):
        tally.problems.append(
            f"{arm} job {job}: warm replay differs from the cold pass "
            f"({len(cold.tokens)} vs {len(warm.tokens)} tokens)"
        )
    return cold, out


def _surface_lengths(vocab: Vocabulary) -> list[int]:
    lengths = [len(s) for s in vocab.surfaces]
    if vocab.eos_id is not None:
        lengths[vocab.eos_id] = 0
    return lengths


def _bpe(merges, alphabet: Alphabet) -> BpeTokenizer:
    surfaces = gen.bpe_surfaces(gen.alphabet_symbols(), b"\x00", merges)
    vocab = Vocabulary(surfaces, alphabet)
    return BpeTokenizer(vocab, [(vocab.id_of(a), vocab.id_of(b)) for a, b in merges])


def _bpe_alphabet() -> Alphabet:
    return Alphabet.of(gen.alphabet_symbols(), eos="\x00")


# -- gen-bpe ------------------------------------------------------------------


class GenBpe:
    name = "gen-bpe"
    why = (
        "2-gram over a 150-merge BPE (|V|~176) reduced to bytes, exact, sampled. "
        "Cold loads tokenization.valid_continuations; the warm replay bypasses it "
        "and loads the cover loop and encode."
    )
    max_steps = 120
    jobs = 5
    setup_repeats = 5
    trace_jobs = 6

    def prepare(self, seed: int):
        # the tokenizer is a fixed artifact; the n-gram's corpus and the
        # sampled outputs come from the seed
        tok_corpus = gen.sample_corpus(np.random.default_rng([0, 1]), 20, 200)
        corpus = gen.sample_corpus(np.random.default_rng([seed, 1]), 20, 200)
        return corpus, gen.learn_merges(tok_corpus, 150)

    def setup(self, data, job: int):
        corpus, merges = data
        alphabet = _bpe_alphabet()
        tok = _bpe(merges, alphabet)
        model = train_ngram(corpus, tok, order=2, alpha=0.1)
        nested = NestedTokenizer(tok, GreedyTokenizer(byte_vocabulary(alphabet)))
        return model, nested, ReductionSession(model, nested, topk=None)

    def job(self, data, objs, job: int, tally: Tally) -> None:
        model, nested, session = objs
        lengths = _surface_lengths(nested.vocab)
        cold, _ = _pair(
            tally, "exact", job, session,
            lambda: ReductionSession(model, nested, topk=None),
            [tally.seed, 1, job], nested.vocab.eos_id,
            lambda toks: len(toks) >= self.max_steps, lengths,
        )
        if job == 0:
            tally.digest = _digest((cold.tokens, cold.error))


# -- ensemble-topk --------------------------------------------------------------


class EnsembleTopk:
    name = "ensemble-topk"
    why = (
        "PoE of two BPE members (|V|~346, ~326) over their MCV and over bytes, at "
        "K=300 and exact. Only workload with |V|>K, a BPE inner tokenizer, two "
        "sessions in lock-step and build_mcv in set-up."
    )
    target_bytes = 64
    merges = (320, 300)
    # (arm, sub-vocabulary, top-K)
    arms = (("bytes-k300", "bytes", 300), ("mcv-k300", "mcv", 300),
            ("mcv-exact", "mcv", None))
    jobs = 5
    setup_repeats = 3
    trace_jobs = 3

    def prepare(self, seed: int):
        # fixed tokenizers, as for gen-bpe; each member's word ranking differs
        members = []
        for member, n in enumerate(self.merges):
            tok_corpus = gen.sample_corpus(
                np.random.default_rng([0, 2, member]), 20, 200, ranking=member)
            corpus = gen.sample_corpus(
                np.random.default_rng([seed, 2, member]), 20, 200, ranking=member)
            members.append((corpus, gen.learn_merges(tok_corpus, n)))
        return members

    def setup(self, data, job: int):
        alphabet = _bpe_alphabet()
        toks = [_bpe(merges, alphabet) for _, merges in data]
        counts = [train_ngram(corpus, tok, order=2, alpha=0.1).counts
                  for (corpus, _), tok in zip(data, toks)]
        mcv, mcv_tok = lvr_mcv.build_mcv(toks)
        inners = {"bytes": GreedyTokenizer(byte_vocabulary(alphabet)), "mcv": mcv_tok}
        arms = []
        for arm, sub, k in self.arms:
            # fresh model objects per arm, so no arm inherits warm caches
            models = [NgramModel(tok, 2, 0.1, c) for tok, c in zip(toks, counts)]
            nesteds = [NestedTokenizer(tok, inners[sub]) for tok in toks]
            spec = EnsembleSpec(
                [ReductionSession(m, n, topk=k) for m, n in zip(models, nesteds)]
            )
            arms.append((arm, sub, k, models, nesteds, spec))
        return len(mcv.vocab), arms

    def job(self, data, objs, job: int, tally: Tally) -> None:
        mcv_size, arms = objs
        tally.extra["mcv_vocab_size"] = mcv_size
        digest = []
        for a, (arm, sub, k, models, nesteds, spec) in enumerate(arms):
            vocab = nesteds[0].vocab
            lengths = _surface_lengths(vocab)

            def done(toks, lengths=lengths):
                return sum(lengths[t] for t in toks) >= self.target_bytes

            def warm(models=models, nesteds=nesteds, k=k):
                return EnsembleSpec(
                    [ReductionSession(m, n, topk=k) for m, n in zip(models, nesteds)])

            cold, out = _pair(tally, arm, job, spec, warm,
                              [tally.seed, 2, job, a], vocab.eos_id, done, lengths)
            out.counts_bytes = sub == "mcv"
            if sub == "mcv":
                tally.add("mcv_bytes", out.bytes)
                tally.add("mcv_steps", len(cold.tokens))
            else:
                tally.add("byte_level_bytes", out.bytes)
                tally.add("byte_level_steps", len(cold.tokens))
            if k is not None:
                tally.add("topk_dropped", cold.dropped)
                tally.add("topk_steps", len(cold.tokens))
            digest.append((arm, cold.tokens, cold.error))
        if job == 0:
            tally.digest = _digest(digest)


# -- binary-long ---------------------------------------------------------------


def _greedy_objects(spec: gen.GreedySpec, eos: str | None):
    alphabet = Alphabet.of(spec.content, eos=eos)
    tok = GreedyTokenizer(Vocabulary(spec.vocab, alphabet))
    inner = GreedyTokenizer(Vocabulary(spec.sub, alphabet))
    model = TableModel(tok, spec.entries, default=spec.default)
    return model, NestedTokenizer(tok, inner)


class BinaryLong:
    name = "binary-long"
    why = (
        "README binary model (|V|=4), exact, outputs of 720 and 1040 sub-tokens, "
        "either side of the ~880-step underflow. Loads the O(prefix) re-encode and "
        "cover bookkeeping; masks are trivial."
    )
    # one output either side of the float underflow near step 880
    targets = (720, 1040)
    jobs = 1
    setup_repeats = 40
    trace_jobs = 4

    def prepare(self, seed: int):
        return gen.BINARY

    def setup(self, data, job: int):
        outputs = []
        for _ in self.targets:
            model, nested = _greedy_objects(data, eos=None)
            outputs.append((model, nested, ReductionSession(model, nested, topk=None)))
        return outputs

    def job(self, data, objs, job: int, tally: Tally) -> None:
        digest = []
        for n, (target, (model, nested, session)) in enumerate(zip(self.targets, objs)):
            lengths = _surface_lengths(nested.vocab)
            cold, _ = _pair(
                tally, f"len-{target}", job, session,
                lambda: ReductionSession(model, nested, topk=None),
                [tally.seed, 3, job, n], None, lambda toks: len(toks) >= target, lengths,
            )
            digest.append((cold.tokens, cold.error))
        if job == 0:
            tally.digest = _digest(digest)


# -- verify-oracle -------------------------------------------------------------


class _BranchCounter:
    """Counts the reduced sweep's sub-token steps (``ReductionSession.branch``
    calls) and their bytes, and laps a clock at each of them, by wrapping
    the method for the duration of a ``with`` block.  The laps between
    successive branches are the step gaps; ``finish()`` laps the rest."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.steps = 0
        self.bytes = 0
        self.gaps: list[float] = []
        self.total = 0.0
        # one calibration unit per lap: branches are tens of microseconds
        self.clock = Clock(repeats=1)

    def finish(self) -> float:
        self.total += self.clock.lap()
        return self.total

    @contextlib.contextmanager
    def installed(self):
        orig = ReductionSession.branch
        counter = self

        def branch(session, chosen):
            lap = counter.clock.lap()
            if counter.steps:
                counter.gaps.append(lap)
            counter.total += lap
            counter.steps += 1
            counter.bytes += len(session.nested.vocab.surfaces[chosen])
            return orig(session, chosen)

        ReductionSession.branch = branch
        try:
            yield self
        finally:
            ReductionSession.branch = orig


class VerifyOracle:
    name = "verify-oracle"
    why = (
        "lossless_check on seeded 3-symbol greedy instances at text length 8 and "
        "the binary model at 10: a wide tree of short prefixes. Loads oracle, model "
        "caches and cover steps; no decode loop."
    )
    jobs = 4
    # whole cycles of the jobs, so that the binary model is a fixed share
    # of the set-ups whatever the number of passes
    setup_repeats = 8
    trace_jobs = 4

    def prepare(self, seed: int):
        return [self._instance(seed, job) for job in range(max(self.jobs, self.trace_jobs))]

    def _instance(self, seed: int, job: int):
        """Every eighth job is the binary model.  The others are greedy
        instances: the vocabularies cycle through 16 fixed-seed draws and
        the conditionals come from ``seed``."""
        if job % 8 == 0:
            return gen.BINARY, None, 10
        spec = gen.greedy_instance(
            np.random.default_rng([4, job % 16]), np.random.default_rng([seed, 4, job]),
            n_symbols=3, n_multi=4, max_surface=3, n_sub_multi=1,
        )
        return spec, "$", 8

    def setup(self, data, job: int):
        spec, eos, max_len = data[job]
        model, nested = _greedy_objects(spec, eos)
        return model, nested, max_len

    def job(self, data, objs, job: int, tally: Tally) -> None:
        model, nested, max_len = objs
        counter = _BranchCounter()
        with counter.installed():
            counter.reset()
            try:
                cold = lvr_oracle.lossless_check(model, nested, max_len, tol=TOLERANCE)
            except LvrError as exc:
                error = f"{type(exc).__name__}: {exc}"
                tally.outputs.append(Output("reduction", [], [], [], 0, 0, error))
                tally.attempted += 1
                tally.fail("reduction", job, counter.steps, error)
                return
            cold_s = counter.finish()
            cold_steps, cold_bytes, gaps = counter.steps, counter.bytes, counter.gaps
            counter.reset()
            warm = lvr_oracle.lossless_check(model, nested, max_len, tol=TOLERANCE)
            warm_s = counter.finish()
        tally.outputs.append(Output("reduction", [cold_s], [warm_s], gaps, cold_steps,
                                    counter.steps, _digest(cold.rows), bytes=cold_bytes))
        tally.attempted += len(cold.rows)
        for n, (text, o, r) in enumerate(cold.rows):
            if abs(o - r) > TOLERANCE:
                tally.fail("reduction", job, n, f"text {text!r}: |{o} - {r}| > {TOLERANCE}")
                tally.problems.append(f"job {job}: text {text!r} over tolerance")
        if cold.rows != warm.rows:
            tally.problems.append(f"job {job}: warm re-check differs from the cold one")
        tally.add("texts", len(cold.rows))
        tally.add("budget_used", cold.budget_used)
        tally.extra["max_discrepancy"] = max(
            tally.extra.get("max_discrepancy", 0.0), cold.max_discrepancy)
        if job == 1:
            tally.digest = _digest(cold.rows)


WORKLOADS = {w.name: w for w in (GenBpe(), EnsembleTopk(), VerifyOracle(), BinaryLong())}


def rate(outputs: list[Output], count: str, unit: str = "cold") -> float:
    """``count`` (an ``Output`` field) per second of the outputs' ``unit``
    times."""
    return (sum(getattr(o, count) for o in outputs)
            / sum(sum(getattr(o, unit)) for o in outputs))


def end_to_end(tally: Tally, peak_rss_mb: float) -> dict[str, float]:
    """The bounded end-to-end metrics, as defined for every workload: rates
    are totals over the run's outputs, so each output weighs by its time."""
    outs = tally.outputs
    gaps = [g for o in outs for g in o.gaps]
    p50, p95 = (float(np.percentile(gaps, q)) * 1e3 for q in (50, 95))
    return {
        "setup_s": statistics.median(tally.setup),
        "subtok_per_s": rate(outs, "cold_steps"),
        "warm_subtok_per_s": rate(outs, "warm_steps", "warm"),
        "bytes_per_s": rate([o for o in outs if o.counts_bytes], "bytes"),
        "step_ms_p50": p50,
        "step_ms_p95": p95,
        "peak_rss_mb": peak_rss_mb,
    }
