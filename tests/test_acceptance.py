"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with the
measured numbers (run pytest with ``-s`` to see them).  Criteria:

  1. the binary worked example, reproduced to 1e-12 in under a second
  2. the lossless property on 100 randomized instances (exact mode)
  3. naive/efficient algorithm equivalence along 50 random generations
  4. the byte-level special case against oracle conditionals
  5. the naive-restriction baseline demonstrably lossy on the fixture
  6. common-vocabulary construction on byte-complete BPE tokenizers
  7. common-vocabulary throughput vs byte-level generation
  8. ensemble combination properties and the union-baseline failure mode
"""

import time

import numpy as np

from conftest import binary_instance, make_instance

from lvr import (
    Alphabet,
    BpeTokenizer,
    EnsembleSpec,
    GreedyTokenizer,
    NestedTokenizer,
    ReductionSession,
    TableModel,
    Vocabulary,
    ZeroProductError,
    build_mcv,
    byte_vocabulary,
    ensemble_generate,
    lossless_check,
    poe_combine,
    text_prefix_prob,
    train_ngram,
    union_baseline_dist,
    union_vocab,
)
from lvr.bench import run_bench
from lvr.oracle import original_prefix_prob_table


def test_criterion_1_worked_example():
    """Fixture values reproduced bit-for-double-precision (1e-12), < 1 s."""
    start = time.perf_counter()
    inst = binary_instance()
    session = ReductionSession(inst.model, inst.nested, topk=None)

    dist1 = session.next_subtoken_dist()
    np.testing.assert_allclose(dist1.raw_marginals, [0.1, 0.1, 0.8], atol=1e-12)

    session.step(2)
    assert session.cover_cache[(2,)].sequences() == {(2,), (3,)}

    dist2 = session.next_subtoken_dist()
    np.testing.assert_allclose(dist2.raw_marginals, [0.3, 0.3, 0.2], atol=1e-12)
    np.testing.assert_allclose(dist2.probs, [0.375, 0.375, 0.25], atol=1e-12)
    assert session._pending[1].sequences() == {(3,)}
    assert session._pending[2].sequences() == {(2, 2), (2, 3)}

    p_original = text_prefix_prob(inst.model, inst.tokenizer, b"000")
    from lvr import reduced_text_prefix_prob

    p_reduced = reduced_text_prefix_prob(
        ReductionSession(inst.model, inst.nested, topk=None), b"000")
    assert abs(p_original - 0.5) < 1e-12
    assert abs(p_reduced - 0.5) < 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: worked example exact to 1e-12 in {elapsed:.3f}s")


def test_criterion_2_lossless_on_randomized_instances():
    """100 random instances, |A| in {2,4}, |V| <= 8, exact mode: prefix
    probabilities of all texts up to length 5 agree within 1e-9, < 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for i in range(100):
        n_symbols = 2 if i % 2 == 0 else 4
        inst = make_instance(rng, n_symbols=n_symbols)
        assert len(inst.tokenizer.vocab) <= 8
        report = lossless_check(inst.model, inst.nested, max_len=5, tol=1e-9)
        worst = max(worst, report.max_discrepancy)
        assert report.passed, f"instance {i}: discrepancy {report.max_discrepancy}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 2: 100 instances lossless, worst discrepancy "
        f"{worst:.3e} in {elapsed:.1f}s"
    )


def test_criterion_3_algorithm_equivalence():
    """Efficient variant with K = |V| matches the reference variant at every
    step of 50 randomized generations: same covers, bit-identical marginals."""
    rng = np.random.default_rng(42)
    checked_steps = 0
    for g in range(50):
        inst = make_instance(rng, n_symbols=int(rng.integers(2, 5)))
        size = len(inst.tokenizer.vocab)
        efficient = ReductionSession(inst.model, inst.nested, topk=size)
        reference = ReductionSession(inst.model, inst.nested, topk=None)
        eos = inst.inner.vocab.eos_id
        for _ in range(6):
            d_eff = efficient.next_subtoken_dist()
            d_ref = reference.next_subtoken_dist_naive()
            assert d_eff.raw_marginals.tolist() == d_ref.raw_marginals.tolist()
            assert d_eff.dropped_mass == 0.0
            cov_eff = {y: c.sequences() for y, c in efficient._pending.items()}
            cov_ref = {y: c.sequences() for y, c in reference._pending.items()}
            assert cov_eff == cov_ref
            checked_steps += 1
            probs = d_eff.probs
            choice = int(rng.choice(len(probs), p=probs / probs.sum()))
            if d_eff.raw_marginals[choice] <= 0.0:
                break
            efficient.step(choice)
            reference.step(choice)
            if choice == eos:
                break
    print(
        f"\nPASS criterion 3: naive and efficient variants identical over "
        f"{checked_steps} steps of 50 generations"
    )


def test_criterion_4_byte_level_special_case():
    """Byte-level reduction matches oracle text-probability ratios on every
    prefix up to length 5, within 1e-9, on 20 random instances."""
    rng = np.random.default_rng(7)
    compared = 0
    for _ in range(20):
        inst = make_instance(rng, n_symbols=int(rng.integers(2, 4)))
        inner = GreedyTokenizer(byte_vocabulary(inst.tokenizer.vocab.alphabet))
        nested = NestedTokenizer(inst.tokenizer, inner)
        table = original_prefix_prob_table(inst.model, max_len=5)
        eos = inner.vocab.eos_id
        session = ReductionSession(inst.model, nested, topk=None)

        def walk(sess, text, depth):
            nonlocal compared
            dist = sess.next_subtoken_dist()
            for y in range(len(inner.vocab)):
                if y == eos or dist.raw_marginals[y] <= 0.0:
                    continue
                crumb = text + inner.vocab.surface(y)
                if len(crumb) > 5:
                    continue
                expected = table[crumb] / table[text]
                assert abs(dist.probs[y] - expected) < 1e-9, crumb
                compared += 1
                if len(crumb) < 5:
                    walk(sess.branch(y), crumb, depth + 1)

        walk(session, b"", 0)
    print(
        f"\nPASS criterion 4: byte-level conditionals match oracle ratios on "
        f"{compared} prefixes across 20 instances"
    )


def test_criterion_5_naive_restriction_is_lossy():
    """Replacing the reduction with naive restriction breaks the lossless
    check on the worked example (discrepancy > 1e-3) while the reduction
    itself passes."""
    inst = binary_instance()
    lossy = lossless_check(inst.model, inst.nested, max_len=3, method="naive")
    assert not lossy.passed
    assert lossy.max_discrepancy > 1e-3
    exact = lossless_check(inst.model, inst.nested, max_len=3, tol=1e-9)
    assert exact.passed
    print(
        f"\nPASS criterion 5: naive restriction diverges by "
        f"{lossy.max_discrepancy:.3f}, reduction stays within "
        f"{exact.max_discrepancy:.1e}"
    )


def _byte_complete_bpe(extra_tokens, merge_surfaces):
    vocab = Vocabulary(
        [bytes([b]) for b in range(256)] + extra_tokens, Alphabet.bytes()
    )
    merges = [(vocab.id_of(a), vocab.id_of(b)) for a, b in merge_surfaces]
    return BpeTokenizer(vocab, merges)


def test_criterion_6_mcv_construction():
    """Intersection, round-trips, and merge-order preservation for two
    hand-built byte-complete BPE tokenizers."""
    t1 = _byte_complete_bpe(
        [b"th", b"he", b"the", b"in", b"er", b"an"],
        [(b"t", b"h"), (b"h", b"e"), (b"th", b"e"), (b"i", b"n"), (b"e", b"r"), (b"a", b"n")],
    )
    t2 = _byte_complete_bpe(
        [b"th", b"he", b"the", b"in", b"on", b"re"],
        [(b"t", b"h"), (b"h", b"e"), (b"th", b"e"), (b"i", b"n"), (b"o", b"n"), (b"r", b"e")],
    )
    result, merged = build_mcv([t1, t2])

    expected = set(t1.vocab.surfaces) & set(t2.vocab.surfaces)
    assert set(result.vocab.surfaces) == expected

    rng = np.random.default_rng(99)
    for _ in range(1000):
        text = bytes(rng.integers(0, 256, size=rng.integers(0, 64)).tolist())
        assert merged.decode(merged.encode(text)) == text

    source = [(t1.vocab.surface(a), t1.vocab.surface(b)) for a, b in t1.merges]
    kept = [
        (result.vocab.surface(a), result.vocab.surface(b)) for a, b in result.merges
    ]
    it = iter(source)
    assert all(pair in it for pair in kept)
    print(
        f"\nPASS criterion 6: |V1|={len(t1.vocab)}, |V2|={len(t2.vocab)}, "
        f"|common|={len(result.vocab)}, {len(result.merges)} merges kept, "
        f"1000 round-trips"
    )


BENCH_WORDS = (
    "the then there other north shore stone heart earth train notes share "
    "hornet astern her his saint raise heat near shine trees stars orate "
    "season nation heron"
).split()


def _bench_members():
    alphabet = Alphabet.of(" aehinorst", eos="$")
    singles = [bytes([s]) for s in sorted(alphabet.symbols)]

    def bpe(extra, merge_surfaces):
        vocab = Vocabulary(singles + extra, alphabet)
        merges = [(vocab.id_of(a), vocab.id_of(b)) for a, b in merge_surfaces]
        return BpeTokenizer(vocab, merges)

    shared_tokens = [
        b"th", b"he", b"the", b"er", b"an", b"in", b"on", b"st", b"re", b"ar",
        b"or", b"ea", b"at", b"en", b"es", b"ne", b"ha", b"to", b"sh", b"ho",
        b" t", b"e ",
    ]
    shared_merges = [
        (b"t", b"h"), (b"h", b"e"), (b"th", b"e"), (b"e", b"r"), (b"a", b"n"),
        (b"i", b"n"), (b"o", b"n"), (b"s", b"t"), (b"r", b"e"), (b"a", b"r"),
        (b"o", b"r"), (b"e", b"a"), (b"a", b"t"), (b"e", b"n"), (b"e", b"s"),
        (b"n", b"e"), (b"h", b"a"), (b"t", b"o"), (b"s", b"h"), (b"h", b"o"),
        (b" ", b"t"), (b"e", b" "),
    ]
    t1 = bpe(shared_tokens + [b"is", b"ra"], shared_merges + [(b"i", b"s"), (b"r", b"a")])
    t2 = bpe(shared_tokens + [b"it", b"no"], shared_merges + [(b"i", b"t"), (b"n", b"o")])
    rng = np.random.default_rng(1234)
    corpus = [
        " ".join(BENCH_WORDS[rng.integers(len(BENCH_WORDS))] for _ in range(180)).encode()
        for _ in range(2)
    ]
    m1 = train_ngram(corpus, t1, order=2, alpha=0.05)
    m2 = train_ngram(corpus, t2, order=2, alpha=0.05)
    return [(m1, t1), (m2, t2)], corpus


def test_criterion_7_mcv_throughput():
    """Common-vocabulary generation emits more bytes per step than
    byte-level generation by the measured mean emitted surface length
    (within 10%), with correspondingly fewer steps to a 500-byte output."""
    members, corpus = _bench_members()
    report = run_bench(members, corpus, target_bytes=500, seed=0, topk=None)
    byte_stats, mcv_stats = report["byte_level"], report["mcv"]

    assert byte_stats["bytes"] >= 500
    assert mcv_stats["bytes"] >= 500
    assert report["corpus_mean_token_len"] > 1.0

    mean_emitted_len = mcv_stats["bytes"] / mcv_stats["steps"]
    ratio = report["bytes_per_step_ratio"]
    assert abs(ratio - mean_emitted_len) <= 0.1 * mean_emitted_len
    assert ratio > 1.0

    expected_steps = byte_stats["steps"] / mean_emitted_len
    assert mcv_stats["steps"] < byte_stats["steps"]
    assert abs(mcv_stats["steps"] - expected_steps) <= 0.1 * expected_steps
    print(
        f"\nPASS criterion 7: {ratio:.2f}x bytes/step over byte-level "
        f"(mean emitted token {mean_emitted_len:.2f}B, corpus mean "
        f"{report['corpus_mean_token_len']:.2f}B), steps "
        f"{mcv_stats['steps']} vs {byte_stats['steps']}"
    )


def test_bench_report_is_deterministic():
    """One seed gives one report, though the second run starts from the
    models the first warmed: the report keeps no clock."""
    members, corpus = _bench_members()
    first = run_bench(members, corpus, target_bytes=120, seed=5, topk=None)
    assert first == run_bench(members, corpus, target_bytes=120, seed=5, topk=None)


def test_criterion_8_ensemble_properties():
    """Product-combination argmax and support laws, an oracle-verified
    lock-step generation over a common vocabulary, and the union baseline's
    zero-product failure."""
    rng = np.random.default_rng(2718)
    for _ in range(1000):
        d = rng.dirichlet(np.ones(8))
        combined = poe_combine([d, d])
        assert set(np.flatnonzero(d == d.max())) == set(
            np.flatnonzero(combined == combined.max())
        )
    for _ in range(200):
        a = rng.dirichlet(np.ones(8)) * (rng.random(8) > 0.4)
        b = rng.dirichlet(np.ones(8)) * (rng.random(8) > 0.4)
        if (a * b).sum() == 0:
            continue
        a, b = a / a.sum(), b / b.sum()
        combined = poe_combine([a, b])
        assert np.array_equal(combined > 0, (a > 0) & (b > 0))

    # lock-step generation of two BPE models over their common vocabulary
    alphabet = Alphabet.of("abcd", eos="$")
    singles = [bytes([s]) for s in sorted(alphabet.symbols)]

    def bpe(extra, merge_surfaces):
        vocab = Vocabulary(singles + extra, alphabet)
        return BpeTokenizer(
            vocab, [(vocab.id_of(x), vocab.id_of(y)) for x, y in merge_surfaces]
        )

    t1 = bpe([b"ab", b"abc"], [(b"a", b"b"), (b"ab", b"c")])
    t2 = bpe([b"ab", b"abd"], [(b"a", b"b"), (b"ab", b"d")])
    size = len(t1.vocab)
    rows = {}
    for prefix in [()]:
        vec = rng.uniform(0.2, 1.0, size)
        rows[prefix] = vec / vec.sum()
    default = rng.uniform(0.2, 1.0, size)
    m1 = TableModel(t1, {(): rows[()]}, default=default / default.sum())
    vec2 = rng.uniform(0.2, 1.0, size)
    default2 = rng.uniform(0.2, 1.0, size)
    m2 = TableModel(t2, {(): vec2 / vec2.sum()}, default=default2 / default2.sum())
    _, common = build_mcv([t1, t2])
    members = [
        ReductionSession(m1, NestedTokenizer(t1, common), topk=None),
        ReductionSession(m2, NestedTokenizer(t2, common), topk=None),
    ]
    spec = EnsembleSpec(members, mode="poe")
    out = ensemble_generate(spec, max_subtokens=4, decoding="sample", seed=12)
    eos = common.vocab.eos_id
    text = common.vocab.decode([y for y in out if y != eos])
    assert len(text) > 0
    p1 = text_prefix_prob(m1, t1, text)
    p2 = text_prefix_prob(m2, t2, text)
    assert p1 > 0 and p2 > 0

    # union-vocabulary baseline collapses under a product combination when
    # the members concentrate on disjoint tokens
    u1 = bpe([b"ab"], [(b"a", b"b")])
    u2 = bpe([b"cd"], [(b"c", b"d")])
    union = union_vocab([u1.vocab, u2.vocab])
    on_own = np.zeros(len(u1.vocab))
    on_own[u1.vocab.id_of(b"ab")] = 1.0
    on_own2 = np.zeros(len(u2.vocab))
    on_own2[u2.vocab.id_of(b"cd")] = 1.0
    b1 = TableModel(u1, {(): on_own}, default=on_own)
    b2 = TableModel(u2, {(): on_own2}, default=on_own2)
    try:
        union_baseline_dist([(b1, u1), (b2, u2)], union, (), mode="poe")
        raised = False
    except ZeroProductError:
        raised = True
    assert raised
    print(
        f"\nPASS criterion 8: PoE laws on 1000 distributions, lock-step text "
        f"{text!r} plausible under both members (p={p1:.3g}, {p2:.3g}), "
        f"union PoE zero-product raised"
    )
