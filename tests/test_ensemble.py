"""Ensemble combination rules, lock-step generation, and the union-vocabulary
baseline with its documented product failure."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import binary_instance, has_followers, make_instance, random_merge_tokenizer

from lvr import (
    Alphabet,
    EnsembleError,
    EnsembleSpec,
    GreedyTokenizer,
    NestedTokenizer,
    ReductionError,
    ReductionSession,
    TableModel,
    Vocabulary,
    ZeroProductError,
    byte_vocabulary,
    ensemble_generate,
    moe_combine,
    naive_restriction_dist,
    poe_combine,
    text_prefix_prob,
    union_baseline_dist,
    union_vocab,
)
from lvr import decode, reduction


class TestPoECombine:
    def test_uniform_is_fixed_point(self):
        u = np.full(4, 0.25)
        np.testing.assert_allclose(poe_combine([u, u]), u, atol=1e-15)

    def test_point_mass_dominates(self):
        d = np.array([0.2, 0.5, 0.3])
        point = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(poe_combine([d, point]), point, atol=1e-15)

    def test_hand_multiplied(self):
        left = np.array([0.5, 0.5, 0.0])
        right = np.array([0.2, 0.8, 0.0])
        np.testing.assert_allclose(poe_combine([left, right]), [0.2, 0.8, 0.0], atol=1e-12)

    def test_self_combination_keeps_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = rng.dirichlet(np.ones(6))
            combined = poe_combine([d, d])
            assert int(np.argmax(combined)) == int(np.argmax(d))

    def test_support_is_intersection(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.dirichlet(np.ones(6)) * (rng.random(6) > 0.3)
            b = rng.dirichlet(np.ones(6)) * (rng.random(6) > 0.3)
            if a.sum() == 0 or b.sum() == 0 or (a * b).sum() == 0:
                continue
            combined = poe_combine([a / a.sum(), b / b.sum()])
            np.testing.assert_array_equal(combined > 0, (a > 0) & (b > 0))

    def test_zero_product_raises(self):
        with pytest.raises(ZeroProductError) as err:
            poe_combine([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert err.value.supports == [1, 1]


class TestMoECombine:
    def test_self_combination_identity(self):
        d = np.array([0.25, 0.5, 0.25])
        np.testing.assert_allclose(moe_combine([d, d]), d, atol=1e-15)

    def test_disjoint_point_masses_average(self):
        np.testing.assert_allclose(
            moe_combine([np.array([1.0, 0.0]), np.array([0.0, 1.0])]),
            [0.5, 0.5],
            atol=1e-15,
        )

    def test_three_member_mean(self):
        rng = np.random.default_rng(2)
        dists = [rng.dirichlet(np.ones(5)) for _ in range(3)]
        np.testing.assert_allclose(
            moe_combine(dists), sum(dists) / 3.0, atol=1e-12
        )

    def test_support_is_union(self):
        a = np.array([0.5, 0.5, 0.0])
        b = np.array([0.0, 0.5, 0.5])
        combined = moe_combine([a, b])
        np.testing.assert_array_equal(combined > 0, (a > 0) | (b > 0))


def _session(inst, topk=None):
    return ReductionSession(inst.model, inst.nested, topk=topk)


class TestRefusals:
    # case -> (a call on the binary instance, a fragment of its EnsembleError)
    CASES = {
        "poe of nothing": (lambda inst: poe_combine([]), "nothing to combine"),
        "moe of nothing": (lambda inst: moe_combine([]), "nothing to combine"),
        "ensemble without members": (lambda inst: EnsembleSpec([]), "at least one member"),
        "ensemble of an unknown mode": (
            lambda inst: EnsembleSpec([_session(inst)], mode="sum"), "unknown ensemble mode 'sum'"),
        "union baseline of an unknown mode": (
            lambda inst: union_baseline_dist(
                [(inst.model, inst.tokenizer)], inst.tokenizer.vocab, (), mode="sum"),
            "unknown ensemble mode 'sum'"),
        "union of no vocabularies": (lambda inst: union_vocab([]), "empty list"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refused(self, case):
        call, fragment = self.CASES[case]
        with pytest.raises(EnsembleError, match=fragment):
            call(binary_instance())


class TestEnsembleGenerate:
    def test_single_member_equals_plain_generation(self):
        inst = binary_instance()
        spec = EnsembleSpec([_session(inst)], mode="poe")
        combined = ensemble_generate(spec, max_subtokens=4, decoding="sample", seed=5)
        solo = _session(inst).generate(max_subtokens=4, decoding="sample", seed=5)
        assert combined == solo

    def test_twin_members_match_single_greedy(self):
        inst = binary_instance()
        spec = EnsembleSpec([_session(inst), _session(inst)], mode="poe")
        twin = ensemble_generate(spec, max_subtokens=4)
        solo = _session(inst).generate(max_subtokens=4)
        assert twin == solo

    def test_lock_step_coherence(self):
        inst = binary_instance()
        members = [_session(inst), _session(inst)]
        spec = EnsembleSpec(members, mode="poe")
        ensemble_generate(spec, max_subtokens=5, decoding="sample", seed=11)
        decoded = {m.nested.decode(m.prefix) for m in members}
        assert len(decoded) == 1

    def test_members_must_share_sub_vocabulary(self):
        inst = binary_instance()
        other_inner = GreedyTokenizer(
            Vocabulary([b"0", b"1"], inst.tokenizer.vocab.alphabet)
        )
        mismatched = ReductionSession(
            inst.model, NestedTokenizer(inst.tokenizer, other_inner), topk=None
        )
        with pytest.raises(EnsembleError):
            EnsembleSpec([_session(inst), mismatched])

    def test_distinct_models_on_common_vocabulary(self):
        # two models over different vocabularies, reduced onto their shared
        # surfaces; the generated text must be plausible under both
        alphabet = Alphabet.of("ab", eos="$")
        v1 = Vocabulary([b"$", b"a", b"b", b"ab", b"aa"], alphabet)
        v2 = Vocabulary([b"$", b"a", b"b", b"ab", b"bb"], alphabet)
        shared = Vocabulary([b"$", b"a", b"b", b"ab"], alphabet)
        t1, t2 = GreedyTokenizer(v1), GreedyTokenizer(v2)
        inner = GreedyTokenizer(shared)
        m1 = TableModel(
            t1, {(): np.array([0.1, 0.2, 0.2, 0.3, 0.2])}, default=np.full(5, 0.2)
        )
        m2 = TableModel(
            t2, {(): np.array([0.1, 0.2, 0.3, 0.3, 0.1])}, default=np.full(5, 0.2)
        )
        members = [
            ReductionSession(m1, NestedTokenizer(t1, inner), topk=None),
            ReductionSession(m2, NestedTokenizer(t2, inner), topk=None),
        ]
        spec = EnsembleSpec(members, mode="poe")
        out = ensemble_generate(spec, max_subtokens=3, decoding="sample", seed=3)
        eos = shared.eos_id
        text = inner.decode([y for y in out if y != eos])
        assert len(text) > 0
        assert text_prefix_prob(m1, t1, text) > 0
        assert text_prefix_prob(m2, t2, text) > 0

    def test_dropped_mass_is_the_largest_member_dropped(self, monkeypatch):
        # two models at top-K 3 and 2, each rescaled at nearly every step by
        # its own exponent: each member reports its true mass, which its
        # scaled cover bounds by 2**exponent, the ensemble reports the larger
        # one, and each member's is the larger on some step
        monkeypatch.setattr(reduction, "_RESCALE_BELOW", 2.0)
        inst = binary_instance()
        skewed = TableModel(inst.tokenizer, {}, default=np.array([0.05, 0.05, 0.1, 0.8]))
        members = [_session(inst, topk=3), ReductionSession(skewed, inst.nested, topk=2)]
        seen = []
        for m in members:
            def record(own=m.next_subtoken_dist):
                seen.append(own())
                return seen[-1]

            m.next_subtoken_dist = record
        spec = EnsembleSpec(members, mode="poe")
        steps = list(decode(spec.next_dist, spec.step, None, 200, "sample", 2))
        assert len(seen) == 2 * len(steps) == 400
        larger = set()
        for s, a, b in zip(steps, seen[::2], seen[1::2]):
            assert all(d.dropped_mass <= math.ldexp(1.0, d.exponent) for d in (a, b))
            assert s.dist.dropped_mass == max(a.dropped_mass, b.dropped_mass)
            if a.exponent != b.exponent and a.dropped_mass != b.dropped_mass:
                larger.add(a.dropped_mass > b.dropped_mass)
        assert larger == {True, False}

    def test_member_refusal_becomes_ensemble_error(self):
        inst = binary_instance()
        spec = EnsembleSpec([_session(inst), _session(inst)], mode="poe")
        spec.next_dist()
        with pytest.raises(EnsembleError, match="member 0 failed") as info:
            spec.step(7)  # out of range: the session refuses it
        assert isinstance(info.value.__cause__, ReductionError)

    def test_programming_error_in_member_propagates(self):
        # only a toolkit error means a failed output; anything else is a
        # fault in the code and keeps its own type and traceback
        inst = binary_instance()
        members = [_session(inst), _session(inst)]
        spec = EnsembleSpec(members, mode="poe")
        spec.next_dist()
        bug = RuntimeError("fault inside a member's step")

        def step(chosen):
            raise bug

        members[1].step = step
        with pytest.raises(RuntimeError) as info:
            spec.step(2)
        assert info.value is bug


class TestUnionBaseline:
    def _members(self):
        alphabet = Alphabet.of("abcd")
        singles = [b"a", b"b", b"c", b"d"]
        v1 = Vocabulary(singles + [b"ab"], alphabet)
        v2 = Vocabulary(singles + [b"cd"], alphabet)
        t1, t2 = GreedyTokenizer(v1), GreedyTokenizer(v2)
        return (t1, t2), union_vocab([v1, v2])

    def test_identical_vocabularies_reduce_to_plain_combination(self):
        inst = binary_instance()
        union = union_vocab([inst.tokenizer.vocab, inst.tokenizer.vocab])
        out = union_baseline_dist(
            [(inst.model, inst.tokenizer), (inst.model, inst.tokenizer)],
            union,
            (),
            mode="poe",
        )
        np.testing.assert_allclose(
            out, poe_combine([inst.model.next_token_dist(())] * 2), atol=1e-15
        )

    def test_product_survives_only_on_shared_tokens(self):
        (t1, t2), union = self._members()
        spread = np.full(5, 0.2)
        m1 = TableModel(t1, {(): spread}, default=spread)
        m2 = TableModel(t2, {(): spread}, default=spread)
        out = union_baseline_dist([(m1, t1), (m2, t2)], union, (), mode="poe")
        supported = {union.surface(i) for i in np.flatnonzero(out)}
        assert supported == {b"a", b"b", b"c", b"d"}

    def test_disjoint_mass_raises_zero_product(self):
        (t1, t2), union = self._members()
        on_ab = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        on_cd = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        m1 = TableModel(t1, {(): on_ab}, default=on_ab)
        m2 = TableModel(t2, {(): on_cd}, default=on_cd)
        with pytest.raises(ZeroProductError):
            union_baseline_dist([(m1, t1), (m2, t2)], union, (), mode="poe")

    def test_moe_mode_never_errors_on_normalized_inputs(self):
        (t1, t2), union = self._members()
        on_ab = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        m1 = TableModel(t1, {(): on_ab}, default=on_ab)
        m2 = TableModel(t2, {(): on_ab}, default=on_ab)
        out = union_baseline_dist([(m1, t1), (m2, t2)], union, (), mode="moe")
        assert abs(out.sum() - 1.0) < 1e-9


def _lift_reference(dist, source, target) -> list[float]:
    """``dist`` over ``source`` read surface by surface onto ``target``."""
    return [float(dist[source.surfaces.index(surf)]) if surf in source.surfaces else 0.0
            for surf in target.surfaces]


class TestLift:
    # both lossy baselines copy a distribution onto another vocabulary by
    # surface; a surface the source lacks gets 0.0
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["poe", "moe"]))
    def test_baselines_match_a_surface_by_surface_reference(self, seed, mode):
        rng = np.random.default_rng(seed)
        # the terminator $ may follow any greedy prefix; prefixes stay
        # before it, over abc, which the BPE member also spells
        greedy = make_instance(rng, n_symbols=3,
                               n_multi=int(rng.integers(1, 5)), n_sub_multi=int(rng.integers(0, 2)))
        bpe = random_merge_tokenizer(rng)
        assume(has_followers(bpe))

        def draw_prefix(vocab, most):
            ids = [i for i, surf in enumerate(vocab.surfaces) if b"$" not in surf]
            return tuple(rng.choice(ids, size=int(rng.integers(0, most))).tolist())

        vec = rng.uniform(0.05, 1.0, len(bpe.vocab))
        bpe_model = TableModel(bpe, {}, default=vec / vec.sum())
        byte_inner = GreedyTokenizer(byte_vocabulary(bpe.vocab.alphabet))
        # the byte-level member lacks every multi-byte surface of the others
        byte_model = TableModel(byte_inner, {}, default=np.full(3, 1 / 3))
        for model, nested in [(greedy.model, greedy.nested),
                              (bpe_model, NestedTokenizer(bpe, byte_inner))]:
            prefix = draw_prefix(nested.vocab, 5)
            cond = model.next_token_dist(nested.outer.encode(nested.decode(prefix)))
            sub = np.array(_lift_reference(cond, model.vocab, nested.vocab))
            if sub.sum() <= 0.0:
                with pytest.raises(ReductionError, match="removed all probability mass"):
                    naive_restriction_dist(model, nested, prefix)
                continue
            dist = naive_restriction_dist(model, nested, prefix)
            assert dist.raw_marginals.tolist() == sub.tolist()
            assert dist.probs.tolist() == (sub / sub.sum()).tolist()
            assert dist.dropped_mass == float(cond.sum() - sub.sum())
        members = [(greedy.model, greedy.tokenizer), (bpe_model, bpe), (byte_model, byte_inner)]
        union = union_vocab([t.vocab for _, t in members])
        assert len(union) > len(byte_inner.vocab)
        prefix = draw_prefix(union, 4)
        text = union.decode(prefix)
        lifted = [_lift_reference(m.next_token_dist(t.encode(text)), t.vocab, union)
                  for m, t in members]
        combine = {"poe": poe_combine, "moe": moe_combine}[mode]
        try:
            want = combine([np.array(v) for v in lifted])
        except ZeroProductError:
            with pytest.raises(ZeroProductError):
                union_baseline_dist(members, union, prefix, mode=mode)
            return
        assert union_baseline_dist(members, union, prefix, mode=mode).tolist() == want.tolist()
