import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsubmod import (
    EvalCounter,
    ModularPenaltyFn,
    ObjectiveBundle,
    OracleEvaluationError,
    Sequence,
    WeightProfile,
    evaluate_F,
    heterogeneous_bundle,
    homogeneous_bundle,
    marginal_gain,
    synthetic_covdiv_instance,
    telescoping_value,
    tiny_instance,
)
from seqsubmod.core import left_sum, prefix_scores
from seqsubmod.harness import UserTypeDistribution, make_weights

from oracles import ScaledFn, naive_F


class TestSequence:
    def test_prefix_basic(self):
        seq = Sequence((0, 2, 1))
        assert seq.prefix(2).items == (0, 2)
        assert seq.prefix(0).items == ()

    def test_prefix_saturates(self):
        seq = Sequence((3, 1))
        assert seq.prefix(5) is seq

    def test_prefix_idempotent(self):
        seq = Sequence((4, 0, 2))
        assert seq.prefix(2).prefix(2) == seq.prefix(2)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Sequence((1, 2, 1))

    def test_concat_and_membership(self):
        seq = Sequence((5,)).concat(3)
        assert seq.items == (5, 3)
        assert 3 in seq and 4 not in seq
        with pytest.raises(ValueError):
            seq.concat(5)

    @given(st.lists(st.integers(0, 30), unique=True, max_size=8),
           st.integers(0, 10))
    def test_prefix_length(self, items, j):
        seq = Sequence(tuple(items))
        assert len(seq.prefix(j)) == min(j, len(items))


class TestWeightProfile:
    def test_suffix_sums(self):
        w = WeightProfile((0.5, 0.3, 0.2))
        assert w.suffix_sum(1) == pytest.approx(1.0)
        assert w.suffix_sum(3) == pytest.approx(0.2)
        assert w.suffix_sum(4) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WeightProfile((0.5, -0.1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WeightProfile(())

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightProfile((0.5, bad))

    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6))
    def test_suffix_matches_tail_sum(self, lams):
        w = WeightProfile(tuple(lams))
        for t in range(1, len(lams) + 2):
            assert w.suffix_sum(t) == pytest.approx(sum(lams[t - 1:]), abs=1e-12)


class TestEvaluateF:
    def test_demo_instance_value(self, tiny_bundle):
        assert evaluate_F(tiny_bundle, [0, 2]) == pytest.approx(8.0)

    def test_empty_sequence_uses_empty_set(self, tiny_bundle):
        # f(empty) = 0 here, weighted by both positions.
        assert evaluate_F(tiny_bundle, []) == pytest.approx(0.0)

    def test_unnormalized_oracle_empty_sequence(self):
        bundle = homogeneous_bundle(lambda s: len(s) + 7.0, (1.0, 2.0), n=3)
        assert evaluate_F(bundle, []) == pytest.approx(3.0 * 7.0)

    def test_prefix_saturation(self, tiny_bundle_k3):
        # positions 2 and 3 both see {0}: F = 3*f({0}) with unit weights... only j>=1
        assert evaluate_F(tiny_bundle_k3, [0]) == pytest.approx(3 * 3.0)

    def test_positions_beyond_k_ignored(self, tiny_bundle):
        assert evaluate_F(tiny_bundle, [0, 2, 1]) == pytest.approx(
            evaluate_F(tiny_bundle, [0, 2]))

    def test_full_prefix_order_invariance(self, tiny_fn):
        # With all mass on the last position only the final set matters.
        bundle = homogeneous_bundle(tiny_fn, (0.0, 0.0, 1.0), n=3)
        assert evaluate_F(bundle, [0, 1, 2]) == pytest.approx(evaluate_F(bundle, [2, 0, 1]))

    def test_outside_ground_rejected(self, tiny_bundle):
        with pytest.raises(ValueError):
            evaluate_F(tiny_bundle, [0, 7])

    def test_failing_oracle_reports_position(self):
        def bad(items):
            raise RuntimeError("boom")
        bundle = heterogeneous_bundle((lambda s: 0.0, bad), (1.0, 1.0), n=3)
        with pytest.raises(OracleEvaluationError) as err:
            evaluate_F(bundle, [0])
        assert err.value.position == 2

    def test_heterogeneous_positions(self):
        oracles = (lambda s: float(len(s)), lambda s: float(sum(s)))
        bundle = heterogeneous_bundle(oracles, (2.0, 0.5), n=4)
        # j=1 sees {1}, j=2 sees {1,3}
        assert evaluate_F(bundle, [1, 3]) == pytest.approx(2.0 * 1 + 0.5 * 4)


@st.composite
def modular_case(draw):
    n = draw(st.integers(2, 6))
    rewards = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    pens = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pens[i][j] = pens[j][i] = draw(st.floats(0.0, 3.0))
    fn = ModularPenaltyFn(rewards, pens)
    k = draw(st.integers(1, n))
    lam = tuple(draw(st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k)))
    perm = draw(st.permutations(list(range(n))))
    length = draw(st.integers(0, n))
    return fn, lam, tuple(perm[:length])


class TestAgainstNaive:
    @given(modular_case())
    @settings(max_examples=120, deadline=None)
    def test_evaluate_matches_literal_definition(self, case):
        fn, lam, seq = case
        bundle = homogeneous_bundle(fn, lam, n=fn.n)
        expected = naive_F([fn] * len(lam), lam, seq)
        assert math.isclose(evaluate_F(bundle, seq), expected,
                            rel_tol=1e-9, abs_tol=1e-9)

    @given(modular_case())
    @settings(max_examples=120, deadline=None)
    def test_marginal_is_value_difference(self, case):
        fn, lam, seq = case
        bundle = homogeneous_bundle(fn, lam, n=fn.n)
        outside = [i for i in range(fn.n) if i not in seq]
        if not outside or len(seq) >= len(lam):
            return
        item = outside[0]
        t = len(seq) + 1
        gain = marginal_gain(bundle, seq, item, t)
        diff = evaluate_F(bundle, seq + (item,)) - evaluate_F(bundle, seq)
        assert math.isclose(gain, diff, rel_tol=1e-9, abs_tol=1e-9)

    @given(modular_case())
    @settings(max_examples=120, deadline=None)
    def test_telescoping_identity(self, case):
        fn, lam, seq = case
        bundle = homogeneous_bundle(fn, lam, n=fn.n)
        lhs = telescoping_value(bundle, seq)
        rhs = evaluate_F(bundle, seq)
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)

    @given(modular_case(), st.lists(st.floats(0.0, 3.0), min_size=6, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_heterogeneous_telescoping_identity(self, case, scales):
        # Distinct oracles per position, each vanishing on the empty set.
        fn, lam, seq = case
        bundle = heterogeneous_bundle([ScaledFn(fn, s) for s in scales[:len(lam)]], lam, n=fn.n)
        lhs = telescoping_value(bundle, seq)
        rhs = evaluate_F(bundle, seq)
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


class TestMarginalGain:
    def test_first_pick(self, tiny_bundle):
        assert marginal_gain(tiny_bundle, [], 0, 1) == pytest.approx(6.0)

    def test_negative_gain(self, tiny_bundle):
        assert marginal_gain(tiny_bundle, [1], 2, 2) == pytest.approx(-1.0)

    def test_zero_when_no_weight_left(self, tiny_fn):
        bundle = homogeneous_bundle(tiny_fn, (1.0, 0.0), n=3)
        assert marginal_gain(bundle, [0], 2, 2) == 0.0

    def test_member_rejected(self, tiny_bundle):
        with pytest.raises(ValueError):
            marginal_gain(tiny_bundle, [1], 1, 2)

    def test_position_out_of_range(self, tiny_bundle):
        with pytest.raises(ValueError):
            marginal_gain(tiny_bundle, [], 0, 3)

    def test_outside_ground_rejected(self, tiny_fn):
        bundle = homogeneous_bundle(tiny_fn, (1.0, 1.0), ground=(0, 2))
        with pytest.raises(ValueError, match=r"item 1 is outside"):
            marginal_gain(bundle, [0], 1, 2)
        with pytest.raises(ValueError, match=r"items \[1\] are outside"):
            marginal_gain(bundle, [1], 0, 2)
        with pytest.raises(ValueError, match=r"items \[1, 5\] are outside"):
            evaluate_F(bundle, [5, 0, 1])


def _direct_F(bundle, items):
    """evaluate_F of a homogeneous bundle by one counted value call per
    prefix (the path for oracles without ``prefix_values``): the float bits
    and oracle calls the prefix evaluator must reproduce."""
    fn, lams, k = bundle.base_oracle, bundle.weights.lambdas, bundle.k
    limit = min(len(items), k)
    total, value = 0.0, None
    for j in range(1, limit + 1):
        value = float(fn(frozenset(items[:j])))
        total += lams[j - 1] * value
    if limit < k:
        if value is None:
            value = float(fn(frozenset()))
        total += bundle.weights.suffix_sum(limit + 1) * value
    return total, max(limit, 1)


class TestPrefixEvaluator:
    @pytest.mark.parametrize("dist", (UserTypeDistribution.uniform(20),
                                      UserTypeDistribution.normal(20, 8.0, 3.0)),
                             ids=("uniform", "normal-8-3"))
    def test_matches_direct_loop(self, dist):
        fn = synthetic_covdiv_instance(120, d=10, seed=31).oracle()
        bundle = homogeneous_bundle(fn, make_weights(dist), n=120)
        assert bundle.prefix_evaluator is not None
        rng = np.random.default_rng(5)
        for length in (0, 1, 7, 19, 20, 21, 45, 120):
            for _ in range(3):
                seq = tuple(rng.choice(120, length, replace=False).tolist())
                before = bundle.counter.calls
                got = evaluate_F(bundle, seq)
                want, calls = _direct_F(bundle, seq)
                assert got == want
                assert bundle.counter.calls - before == calls

    def test_sparse_ground(self):
        fn = synthetic_covdiv_instance(60, d=8, seed=32).oracle()
        bundle = homogeneous_bundle(fn, (0.5, 0.0, 1.5, 0.25), ground=range(1, 60, 4))
        for seq in ((57, 1, 33), (5, 9, 13, 17, 21), (41,)):
            assert evaluate_F(bundle, seq) == _direct_F(bundle, seq)[0]

    def test_resolved_once_per_bundle(self, tiny_fn):
        fn = synthetic_covdiv_instance(10, d=4, seed=1).oracle()
        covdiv = homogeneous_bundle(fn, (1.0, 1.0), n=10)
        assert covdiv.prefix_evaluator == fn.prefix_values
        assert "prefix_evaluator" not in repr(covdiv)
        assert homogeneous_bundle(tiny_fn, (1.0, 1.0), n=3).prefix_evaluator == tiny_fn.prefix_values
        assert homogeneous_bundle(lambda s: tiny_fn(s), (1.0, 1.0), n=3).prefix_evaluator is None
        assert heterogeneous_bundle((fn, fn), (1.0, 1.0), n=10).prefix_evaluator is None
        assert covdiv == homogeneous_bundle(fn, (1.0, 1.0), ground=range(10))


class TestPrefixScores:
    """F of a homogeneous bundle is its prefix scores weighed by its profile,
    and the scores serve every profile of the same k."""

    @pytest.mark.parametrize("prefixed", (True, False), ids=("prefix-evaluator", "value-calls"))
    def test_weighed_scores_are_F_under_every_profile(self, prefixed):
        fn = synthetic_covdiv_instance(40, d=6, seed=12).oracle()
        oracle = fn if prefixed else (lambda s: fn(s) + 0.25)  # f(empty) != 0
        profiles = [make_weights(UserTypeDistribution.uniform(9)),
                    make_weights(UserTypeDistribution.normal(9, 3.0, 2.0)),
                    WeightProfile((0.0, 2.0, 0.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.0))]
        bundles = [homogeneous_bundle(oracle, w, n=40) for w in profiles]
        rng = np.random.default_rng(3)
        for length in (0, 1, 5, 8, 9, 10, 17):
            seq = tuple(rng.choice(40, length, replace=False).tolist())
            before = bundles[0].counter.calls
            scores = prefix_scores(bundles[0], seq)
            assert bundles[0].counter.calls - before == max(min(length, 9), 1)
            assert len(scores) == max(min(length, 9), 1)
            for bundle in bundles:
                want = _direct_F(bundle, seq)[0]
                assert bundle.weights.weigh(scores, min(length, 9)) == want
                assert evaluate_F(bundle, seq) == want

    def test_heterogeneous_has_no_shared_scores(self, tiny_fn):
        bundle = heterogeneous_bundle((tiny_fn, tiny_fn), (1.0, 1.0), n=3)
        with pytest.raises(ValueError, match="not homogeneous"):
            prefix_scores(bundle, [0])

    def test_checks_the_ground_set(self, tiny_fn):
        bundle = homogeneous_bundle(tiny_fn, (1.0, 1.0), ground=(0, 2))
        with pytest.raises(ValueError, match=r"items \[1\] are outside"):
            prefix_scores(bundle, [0, 1])


class TestLeftSum:
    def test_adds_left_to_right(self):
        # Python 3.12's builtin sum compensates and gives 1.0 here.
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_sum(iter([1e16, 1.0, 1.0])) == 1e16

    def test_empty_is_float_zero(self):
        total = left_sum([])
        assert total == 0.0 and isinstance(total, float)


class _Prefixed:
    """A homogeneous oracle with a prefix evaluator that can go wrong."""

    def __init__(self, bad_at=None, value=math.nan, raises=False):
        self.bad_at, self.value, self.raises = bad_at, value, raises

    def __call__(self, items):
        return float(len(items))

    def prefix_values(self, items):
        if self.raises:
            raise RuntimeError("boom")
        values = [float(j) for j in range(1, len(items) + 1)]
        if self.bad_at is not None and self.bad_at <= len(values):
            values[self.bad_at - 1] = self.value
        return values


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_value_path(self, bad):
        bundle = homogeneous_bundle(lambda s: bad if len(s) == 2 else 1.0, (1.0,) * 3, n=4)
        with pytest.raises(OracleEvaluationError, match="non-finite") as err:
            evaluate_F(bundle, [0, 1, 2])
        assert err.value.position == 2
        hetero = heterogeneous_bundle((lambda s: 0.0, lambda s: bad), (1.0, 1.0), n=3)
        with pytest.raises(OracleEvaluationError) as err:
            evaluate_F(hetero, [0])
        assert err.value.position == 2

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_marginal_gain_path(self, bad):
        bundle = homogeneous_bundle(lambda s: bad if 3 in s else 1.0, (1.0,) * 3, n=4)
        assert marginal_gain(bundle, [0], 1, 2) == 0.0
        with pytest.raises(OracleEvaluationError, match="non-finite") as err:
            marginal_gain(bundle, [0], 3, 2)
        assert err.value.position == 2

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_prefix_path(self, bad):
        bundle = homogeneous_bundle(_Prefixed(bad_at=3, value=bad), (1.0,) * 5, n=6)
        assert bundle.prefix_evaluator is not None
        assert evaluate_F(bundle, [0, 1]) == 1.0 + 2.0 * 4
        with pytest.raises(OracleEvaluationError, match="non-finite") as err:
            evaluate_F(bundle, [0, 1, 2, 3])
        assert err.value.position == 3

    def test_prefix_evaluator_failure_has_a_position(self):
        bundle = homogeneous_bundle(_Prefixed(raises=True), (1.0,) * 3, n=4)
        with pytest.raises(OracleEvaluationError, match="boom") as err:
            evaluate_F(bundle, [2, 0])
        assert err.value.position == 1
        # The empty sequence takes the value path, which the oracle serves.
        assert evaluate_F(bundle, []) == 0.0


class TestGroundSet:
    def test_cached_frozenset(self, tiny_fn):
        bundle = homogeneous_bundle(tiny_fn, (1.0, 1.0), ground=(2, 0, 1))
        assert bundle.ground == (0, 1, 2)
        assert bundle.ground_set == frozenset({0, 1, 2})
        assert isinstance(bundle.ground_set, frozenset)
        assert "ground_set" not in repr(bundle)

    def test_not_an_argument_and_not_compared(self, tiny_fn):
        with pytest.raises(TypeError):
            ObjectiveBundle(weights=WeightProfile((1.0,)), oracles=(tiny_fn,), ground=(0,),
                            homogeneous=True, ground_set=frozenset({0}))
        a = homogeneous_bundle(tiny_fn, (1.0, 1.0), n=3)
        b = homogeneous_bundle(tiny_fn, (1.0, 1.0), ground=(0, 1, 2))
        assert a == b


class TestHomogeneousFlag:
    def test_needs_one_oracle_object(self, tiny_fn):
        # Unchecked, brute_force reads oracles[0] at every position and
        # evaluate_F reads oracles[j - 1], so the two disagree on OPT.
        other = ModularPenaltyFn((1.0, 1.0, 4.0), [[0.0] * 3] * 3)
        for oracles in ((tiny_fn, other), (tiny_fn, tiny_instance())):
            with pytest.raises(ValueError, match="one oracle object at every position"):
                ObjectiveBundle(weights=WeightProfile((1.0, 1.0)), oracles=oracles,
                                ground=(0, 1, 2), homogeneous=True)
        shared = ObjectiveBundle(weights=WeightProfile((1.0, 1.0)), oracles=(tiny_fn, tiny_fn),
                                 ground=(0, 1, 2), homogeneous=True)
        assert shared == homogeneous_bundle(tiny_fn, (1.0, 1.0), n=3)
        assert heterogeneous_bundle((tiny_fn, other), (1.0, 1.0), n=3).oracles == (tiny_fn, other)


class TestTelescoping:
    def test_demo_value(self, tiny_bundle):
        assert telescoping_value(tiny_bundle, [0, 2]) == pytest.approx(8.0)

    def test_empty(self, tiny_bundle):
        assert telescoping_value(tiny_bundle, []) == 0.0

    def test_single_item(self, tiny_bundle):
        # suffix weight 2 times f({1}) = 2
        assert telescoping_value(tiny_bundle, [1]) == pytest.approx(4.0)


class TestEvalCounter:
    def test_monotone(self):
        c = EvalCounter()
        c.add()
        c.add(3)
        assert c.calls == 4
        with pytest.raises(ValueError):
            c.add(-1)

    def test_evaluate_counts_at_most_k(self, tiny_fn):
        counter = EvalCounter()
        bundle = homogeneous_bundle(tiny_fn, (1.0,) * 3, n=3, counter=counter)
        evaluate_F(bundle, [0])
        assert counter.calls == 1  # saturated positions reuse the cached value
        evaluate_F(bundle, [0, 1, 2])
        assert counter.calls == 1 + 3

    def test_empty_sequence_single_call(self, tiny_fn):
        counter = EvalCounter()
        bundle = homogeneous_bundle(tiny_fn, (1.0,) * 3, n=3, counter=counter)
        evaluate_F(bundle, [])
        assert counter.calls == 1
