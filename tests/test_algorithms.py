import hashlib
import itertools
import math
import os

import numpy as np
import pytest

from seqsubmod import (
    FIXED,
    FLEXIBLE,
    CoverageDiversityFn,
    CoverageFn,
    EnumerationTooLargeError,
    GreedyTrace,
    InfeasibleError,
    ModularPenaltyFn,
    P_STAR,
    SamplerConfig,
    Sequence,
    SplitMix64,
    alg2_second_half,
    baseline_covdiv,
    baseline_quality,
    brute_force,
    evaluate_F,
    fixed_length_solve,
    heterogeneous_bundle,
    homogeneous_bundle,
    homogeneous_first_half,
    homogeneous_solve,
    presampled_greedy,
    sampling_greedy,
    sampling_greedy_j,
    similarity_from_tags,
    verify_trace,
)
from seqsubmod import OracleEvaluationError, algorithms
from seqsubmod.files import synthetic_covdiv_instance, synthetic_modular_instance
from seqsubmod.harness import UserTypeDistribution, make_weights

import families
from oracles import ScaledFn, enumerated_best, naive_best, naive_diversity_greedy


class TestCoinStream:
    def test_forced_bits_and_underflow(self, tiny_bundle):
        # A forced list that runs out raises; it never falls back to the seed.
        cfg = SamplerConfig(0.5, 0)
        for solve in (lambda coins: sampling_greedy(tiny_bundle, 2, cfg, coins=coins),
                      lambda coins: fixed_length_solve(tiny_bundle, 2, cfg, coins=coins),
                      lambda coins: alg2_second_half(tiny_bundle, 2, cfg, coins=coins)):
            with pytest.raises(RuntimeError, match="exhausted"):
                solve([0])
            with pytest.raises(RuntimeError, match="exhausted"):
                solve([])

    def test_degenerate_probabilities(self):
        always = SplitMix64(0, "coins").coins(1.0)
        never = SplitMix64(0, "coins").coins(0.0)
        assert all(next(always) == 1 for _ in range(600))
        assert all(next(never) == 0 for _ in range(600))

    def test_generator_coins_equal_list(self, tiny_bundle_k3):
        # coins= takes any iterable of bits; the trace records them as 0/1.
        for bits in itertools.product((0, 1), repeat=3):
            forced = [*bits, 1, 1, 1]
            want = sampling_greedy(tiny_bundle_k3, 3, coins=forced)
            got = sampling_greedy(tiny_bundle_k3, 3, coins=(bool(b) for b in forced))
            assert got == want
            assert all(type(c) is int for _, _, c in got[1].considered)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(p=1.5)


class TestSamplingGreedy:
    def test_forced_coins_demo(self, tiny_bundle):
        seq, trace = sampling_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), coins=[0, 1])
        assert seq.items == (1,)
        assert [(i, c) for i, _, c in trace.considered] == [(0, 0), (1, 1)]
        assert trace.considered[0][1] == pytest.approx(6.0)
        assert trace.considered[1][1] == pytest.approx(4.0)

    def test_all_rejections_give_empty(self, tiny_bundle):
        seq, trace = sampling_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), coins=[0, 0, 0])
        assert seq.items == ()
        assert len(trace.considered) == 3  # every item considered once, never reused

    def test_p1_is_descending_modular_greedy(self):
        fn = ModularPenaltyFn((3.0, 2.0, 1.0), [[0.0] * 3] * 3)
        bundle = homogeneous_bundle(fn, (1.0, 1.0), n=3)
        seq, _ = sampling_greedy(bundle, 2, SamplerConfig(1.0, 123))
        assert seq.items == (0, 1)

    def test_stops_on_nonpositive_marginals(self, tiny_bundle):
        # After [0, 2] no candidate has positive gain, whatever the coins say.
        seq, trace = sampling_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), coins=[1, 1])
        assert seq.items == (0, 2)

    def test_rejected_items_never_return(self, tiny_bundle_k3):
        _, trace = sampling_greedy(tiny_bundle_k3, 3, SamplerConfig(0.5, 99))
        seen = [i for i, _, _ in trace.considered]
        assert len(seen) == len(set(seen))

    def test_deterministic_given_seed(self, tiny_bundle):
        cfg = SamplerConfig(P_STAR, 777)
        a, ta = sampling_greedy(tiny_bundle, 2, cfg)
        b, tb = sampling_greedy(tiny_bundle, 2, cfg)
        assert a == b and ta == tb

    def test_k_must_match_profile(self, tiny_bundle):
        with pytest.raises(ValueError):
            sampling_greedy(tiny_bundle, 3, SamplerConfig(0.5, 0))

    def test_trace_certificates_on_random_instances(self):
        rng = np.random.default_rng(31)
        for idx in range(10):
            inst = synthetic_modular_instance(6, seed=400 + idx)
            lam = tuple(rng.uniform(0.1, 1.0, 3))
            bundle = homogeneous_bundle(inst.oracle(), lam, n=6)
            for seed in range(5):
                _, trace = sampling_greedy(bundle, 3, SamplerConfig(P_STAR, seed))
                verify_trace(bundle, trace)

    def test_heterogeneous_positions_agree_with_homogeneous(self):
        # A heterogeneous bundle whose oracles happen to coincide must walk
        # the same consideration order as the homogeneous fast path.
        inst = synthetic_modular_instance(6, seed=88)
        fn = inst.oracle()
        lam = (0.9, 0.4, 0.7)
        hom = homogeneous_bundle(fn, lam, n=6)
        het = heterogeneous_bundle((fn, fn, fn), lam, n=6)
        for seed in range(8):
            a, ta = sampling_greedy(hom, 3, SamplerConfig(P_STAR, seed))
            b, tb = sampling_greedy(het, 3, SamplerConfig(P_STAR, seed))
            assert a == b
            assert [(i, c) for i, _, c in ta.considered] == \
                   [(i, c) for i, _, c in tb.considered]

    def test_vector_and_generic_paths_agree(self):
        inst = synthetic_covdiv_instance(30, d=8, seed=5)
        fn = inst.oracle()
        lam = (0.5, 0.3, 0.2, 0.4)
        fast = homogeneous_bundle(fn, lam, n=30)
        slow = homogeneous_bundle(lambda s: fn(s), lam, n=30)  # hides the fast paths
        for seed in range(6):
            a, _ = sampling_greedy(fast, 4, SamplerConfig(P_STAR, seed))
            b, _ = sampling_greedy(slow, 4, SamplerConfig(P_STAR, seed))
            assert a == b


def _eager_ranking(state, alive, w, calls):
    """Batched ranking as a fully built list: every positive candidate becomes
    an (item, gain) tuple, gain desc and id asc, before the first is used."""
    if w == 0.0 or not alive:
        return []
    arr = np.fromiter(sorted(alive), dtype=int)
    gains = state.gains()[arr]
    calls.append(len(arr))
    mask = gains > 0.0
    items = arr[mask]
    vals = w * gains[mask]
    order = np.lexsort((items, -vals))
    return [(int(items[o]), float(vals[o])) for o in order]


def _eager_greedy(bundle, pool, coins):
    """The positive-marginal greedy over eager rankings: with a coin stream it
    is sampling_greedy (returns the GreedyTrace), without one it places the
    top candidate every epoch, as presampled_greedy's second phase does."""
    fn = bundle.base_oracle
    state = fn.incremental()
    alive = set(pool)
    cap = bundle.k if coins is not None else min(bundle.k, len(pool))
    out, considered, calls = [], [], []
    while len(out) < cap:
        batch = _eager_ranking(state, alive, bundle.weights.suffix_sum(len(out) + 1), calls)
        if not batch:
            break
        if coins is None:
            batch = batch[:1]
        for item, gain in batch:
            alive.discard(item)
            bit = int(next(coins)) if coins is not None else 1
            considered.append((item, gain, bit))
            if bit:
                out.append(item)
                state.add(item)
                break
        else:
            break
    seq = Sequence(tuple(out))
    return GreedyTrace(tuple(considered), seq), sum(calls)


def _check_against_eager(bundle, seeds, p=P_STAR, verified=None):
    """sampling_greedy, presampled_greedy and fixed_length_solve must match
    the eager-list greedy in trace, output and oracle calls for every seed;
    verify_trace replays the first ``verified`` traces (all by default).
    Returns the traces."""
    k = bundle.k
    ground = list(bundle.ground)
    traces = []
    for count, seed in enumerate(seeds):
        cfg = SamplerConfig(p, seed)

        before = bundle.counter.calls
        seq, trace = sampling_greedy(bundle, k, cfg)
        calls = bundle.counter.calls - before
        coins = SplitMix64(seed, "coins").coins(cfg.p)
        want, want_calls = _eager_greedy(bundle, ground, coins)
        assert trace == want and seq == want.output
        assert calls == want_calls
        if verified is None or count < verified:
            verify_trace(bundle, trace)
        traces.append(trace)

        coins = SplitMix64(seed, "coins").coins(cfg.p)
        pool = [i for i, bit in zip(ground, coins) if bit]
        before = bundle.counter.calls
        got = presampled_greedy(bundle, k, cfg)
        calls = bundle.counter.calls - before
        want, want_calls = _eager_greedy(bundle, pool, None)
        assert got == want.output and calls == want_calls

        padded = fixed_length_solve(bundle, k, cfg)
        unused = sorted(set(ground) - set(seq.items))
        fill = SplitMix64(seed, "backup").sample(unused, k - len(seq))
        assert padded.items == seq.items + tuple(sorted(fill))
    return traces


class TestLazyRanking:
    """The lazily consumed ranking walks exactly the eager list's order."""

    @pytest.mark.parametrize("dist", (UserTypeDistribution.uniform(30),
                                      UserTypeDistribution.normal(30, 15.0, 5.0)),
                             ids=("uniform", "normal-15-5"))
    def test_covdiv_catalog(self, dist):
        fn = synthetic_covdiv_instance(300, seed=21).oracle()
        _check_against_eager(homogeneous_bundle(fn, make_weights(dist), n=300), range(80),
                             verified=20)

    def test_exact_ties_go_to_lowest_id(self):
        # Four tag groups and three rating levels: many candidates share a
        # gain bit for bit, so only the id tie-break orders them.
        n = 40
        tags = np.zeros((n, 4))
        tags[np.arange(n), np.arange(n) % 4] = 0.5
        ratings = [float(1 + i % 3) for i in range(n)]
        fn = CoverageDiversityFn(ratings, similarity_from_tags(tags), 1.0, 0.5, 2.0)
        bundle = homogeneous_bundle(fn, make_weights(UserTypeDistribution.uniform(8)), n=n)
        _, trace = sampling_greedy(bundle, 8, SamplerConfig(P_STAR, 0))
        gains = [gain for _, gain, _ in trace.considered]
        assert len(set(gains)) < len(gains)
        _check_against_eager(bundle, range(20))

    def test_weighted_ties_go_to_lowest_id(self):
        # Item 3's raw gain is one ulp above item 1's, and w is chosen so
        # that both weighted gains round to the same float: the ranking is
        # on the weighted value, so the lower id comes first.
        lo = 1.2345
        hi = math.nextafter(lo, 2.0)
        rng = np.random.default_rng(0)
        w = next(float(x) for x in rng.uniform(0.1, 1.0, 1000) if x * hi == x * lo)
        ratings = [0.5, lo, 0.25, hi, 0.75, 0.125]
        n = len(ratings)
        fn = CoverageDiversityFn(ratings, np.zeros((n, n)), 1.0, 0.0, 1.0)
        bundle = homogeneous_bundle(fn, (w,), n=n)
        _, trace = sampling_greedy(bundle, 1, coins=[0, 0, 1])
        assert [item for item, _, _ in trace.considered] == [1, 3, 4]
        assert trace.considered[0][1] == trace.considered[1][1]
        _check_against_eager(bundle, range(20))

    def test_small_p_reaches_the_lexsort_fallback(self):
        fn = synthetic_covdiv_instance(300, seed=22).oracle()
        bundle = homogeneous_bundle(fn, make_weights(UserTypeDistribution.uniform(20)), n=300)
        traces = _check_against_eager(bundle, range(8), p=0.05, verified=2)
        picks = algorithms._BatchedEngine.ARGMAX_PICKS
        longest = 0
        for trace in traces:
            run = 0
            for _, _, coin in trace.considered:
                run = 0 if coin else run + 1
                longest = max(longest, run)
        assert longest > picks


class _MarginalOnly:
    """A modular oracle seen through ``__call__`` and ``marginal`` alone, so
    the solvers take their marginal paths instead of the running gains."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, items):
        return self.fn(items)

    def marginal(self, item, items):
        return self.fn.marginal(item, items)


class TestRunningGainRanking:
    """Modular-penalty greedies read running gains; they must walk the order
    the marginal paths walk, with gains equal up to summation order."""

    @pytest.mark.parametrize("n, k", ((6, 3), (40, 10), (160, 24)))
    def test_forward_greedy(self, n, k):
        fn = synthetic_modular_instance(n, seed=60 + n).oracle()
        lams = tuple(np.random.default_rng(n).uniform(0.1, 1.0, k).tolist())
        fast = homogeneous_bundle(fn, lams, n=n)
        slow = homogeneous_bundle(_MarginalOnly(fn), lams, n=n)
        for seed in range(12 if n < 100 else 3):
            cfg = SamplerConfig(P_STAR, seed)
            seq, trace = sampling_greedy(fast, k, cfg)
            want_seq, want = sampling_greedy(slow, k, cfg)
            assert seq == want_seq
            assert [(i, c) for i, _, c in trace.considered] == \
                   [(i, c) for i, _, c in want.considered]
            for (_, gain, _), (_, want_gain, _) in zip(trace.considered, want.considered):
                assert gain == pytest.approx(want_gain, rel=1e-12, abs=1e-12)
            assert presampled_greedy(fast, k, cfg) == presampled_greedy(slow, k, cfg)
            assert fast.counter.calls == slow.counter.calls
            verify_trace(homogeneous_bundle(fn, lams, n=n), trace)

    @pytest.mark.parametrize("n", (6, 40, 160))
    def test_complement_greedy(self, n):
        fn = synthetic_modular_instance(n, seed=70 + n).oracle()
        k = (n + 1) // 2 + 1
        fast = homogeneous_bundle(fn, (1.0,) * k, n=n)
        slow = homogeneous_bundle(_MarginalOnly(fn), (1.0,) * k, n=n)
        for seed in range(12 if n < 100 else 3):
            cfg = SamplerConfig(P_STAR, seed)
            assert alg2_second_half(fast, k, cfg) == alg2_second_half(slow, k, cfg)
            for j in (1, n // 2, n - 1):
                assert sampling_greedy_j(fn, n, j, cfg) == \
                       sampling_greedy_j(_MarginalOnly(fn), n, j, cfg)
        assert fast.counter.calls == slow.counter.calls

    def test_complement_greedy_on_a_sparse_ground(self):
        fn = synthetic_modular_instance(30, seed=81).oracle()
        ground = tuple(range(1, 30, 2))
        for seed in range(10):
            cfg = SamplerConfig(P_STAR, seed)
            assert sampling_greedy_j(fn, 15, 4, cfg, ground=ground) == \
                   sampling_greedy_j(_MarginalOnly(fn), 15, 4, cfg, ground=ground)


def _two_block_digest(n, inst_seed):
    """Seeded homogeneous_solve, alg2_second_half and sampling_greedy_j
    outputs on one modular instance, with F and oracle calls, as a digest."""
    fn = synthetic_modular_instance(n, seed=inst_seed).oracle()
    rng = np.random.default_rng([n, inst_seed])
    rows = []
    for k in ((n + 1) // 2, (n + 1) // 2 + 1, n):
        lams = tuple(rng.uniform(0.1, 1.0, k).tolist())
        for seed in range(3):
            cfg = SamplerConfig(P_STAR, 1000 * n + seed)
            bundle = homogeneous_bundle(fn, lams, n=n)
            seq = homogeneous_solve(bundle, k, cfg)
            second = alg2_second_half(bundle, k, cfg)
            rows.append((k, seed, seq.items, repr(evaluate_F(bundle, seq)), second.items,
                         bundle.counter.calls))
            for j in (1, n // 2, k, n - 1):
                rows.append((j, tuple(sorted(sampling_greedy_j(fn, n, j, cfg)))))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestTwoBlockGolden:
    """Digests taken with the marginal-based solvers, before running gains:
    the running sums must leave every output, F and oracle count in place.
    Retaken when the SplitMix64 streams replaced Mersenne Twister ones; the
    old solvers fed the new streams gave the same digests."""

    @pytest.mark.parametrize("n, inst_seed, digest", (
        (6, 51, "600042d39d42d530fdf5dc1f4f6ae4d4d8308e89d3235ba7beb7d14c051d4f04"),
        (40, 52, "373a17bcecbfca551c8d8671b3bb28c551198e5713a3ea8277896b6c5b7d2116"),
        (160, 53, "2f33717a9354b410b72793f0549ca8dd4411cb026a570863e0b7b49d3e511f19"),
    ), ids=("6-51", "40-52", "160-53"))
    def test_outputs_unchanged(self, n, inst_seed, digest):
        assert _two_block_digest(n, inst_seed) == digest


class _ValueOnly:
    """A set function with no ``marginal``: the complement greedy scores it
    by value differences."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, items):
        return self.fn(items)


def _complement_digest(fn, n):
    """Seeded alg2_second_half outputs with oracle calls, and
    sampling_greedy_j sets on the full and on a sparse ground, as a digest."""
    rows = []
    for k in ((n + 1) // 2, (n + 1) // 2 + 1, n):
        for seed in range(4):
            cfg = SamplerConfig(P_STAR, 100 * n + seed)
            bundle = homogeneous_bundle(fn, (1.0,) * k, n=n)
            rows.append((k, seed, alg2_second_half(bundle, k, cfg).items, bundle.counter.calls))
            for j in (1, n // 2, k, n - 1):
                rows.append((j, tuple(sorted(sampling_greedy_j(fn, n, j, cfg)))))
            ground = tuple(range(0, n, 2))
            rows.append(tuple(sorted(sampling_greedy_j(fn, len(ground), 2, cfg, ground=ground))))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestComplementGolden:
    """Digests of the complement greedy on covdiv (``marginal``) and on a
    value-only oracle, taken before it ran through the forward engine, and
    retaken like ``TestTwoBlockGolden``'s for the SplitMix64 streams."""

    @pytest.mark.parametrize("case, digest", (
        ("covdiv", "7855e1a22eee54c91457ef1b4e56b9c081b2f06c477ad4cd6cba4b50b55deefa"),
        ("value-only", "0d93184947cd3c37c4bc3b616108c88ad28497773e09e5aa6268b52ffddb7e56"),
    ), ids=("covdiv", "value-only"))
    def test_outputs_unchanged(self, case, digest):
        if case == "covdiv":
            fn, n = synthetic_covdiv_instance(12, d=5, seed=91, density=0.4, eta=3.0).oracle(), 12
        else:
            fn, n = _ValueOnly(synthetic_modular_instance(9, seed=92).oracle()), 9
        assert _complement_digest(fn, n) == digest


class _ValueDifferenceEngine:
    """The heterogeneous engine as it was before it used ``marginal``: one base
    value per active position and epoch, then one grown-set value per
    candidate and position.  ``base_calls`` tallies the base values of the
    positions whose oracle has ``marginal``."""

    def __init__(self, bundle, candidates):
        self.bundle = bundle
        self.members = set()
        self.alive = set(int(i) for i in candidates)
        self.base_calls = 0

    def positive_candidates(self, t):
        bundle = self.bundle
        lams = bundle.weights.lambdas
        active = [j for j in range(t, bundle.k + 1) if lams[j - 1] != 0.0]
        if not active or not self.alive:
            return []
        base_set = frozenset(self.members)
        bases = {j: bundle.oracle_value(j, base_set) for j in active}
        self.base_calls += sum(hasattr(bundle.oracles[j - 1], "marginal") for j in active)
        pairs = []
        for i in sorted(self.alive):
            grown = frozenset(self.members | {i})
            gain = 0.0
            for j in active:
                gain += lams[j - 1] * (bundle.oracle_value(j, grown) - bases[j])
            if gain > 0.0:
                pairs.append((i, gain))
        pairs.sort(key=lambda pair: (-pair[1], pair[0]))
        return pairs

    def remove(self, item):
        self.alive.discard(item)

    def accept(self, item):
        self.alive.discard(item)
        self.members.add(item)


def _check_against_value_differences(bundle, seeds, monkeypatch):
    """sampling_greedy must consider the same items with the same coins as the
    value-difference engine, with gains equal to 1e-12 relative, and call the
    oracles less often by exactly the base values of marginal positions."""
    for seed in seeds:
        cfg = SamplerConfig(P_STAR, seed)
        before = bundle.counter.calls
        seq, trace = sampling_greedy(bundle, bundle.k, cfg)
        calls = bundle.counter.calls - before
        engines = []

        def old_engine(b, candidates):
            engines.append(_ValueDifferenceEngine(b, candidates))
            return engines[-1]

        with monkeypatch.context() as patch:
            patch.setattr(algorithms, "_make_engine", old_engine)
            before = bundle.counter.calls
            want_seq, want = sampling_greedy(bundle, bundle.k, cfg)
            want_calls = bundle.counter.calls - before
        assert seq == want_seq
        assert [(i, c) for i, _, c in trace.considered] == \
               [(i, c) for i, _, c in want.considered]
        for (_, gain, _), (_, want_gain, _) in zip(trace.considered, want.considered):
            assert gain == pytest.approx(want_gain, rel=1e-12, abs=0.0)
        assert calls == want_calls - engines[0].base_calls
        verify_trace(bundle, trace)


def _scaled_modular_bundle(seed):
    n, k = 40, 8
    rng = np.random.default_rng([seed, 5])
    fn = synthetic_modular_instance(n, seed=seed).oracle()
    oracles = tuple(ScaledFn(fn, s) for s in rng.uniform(0.5, 1.5, k))
    return heterogeneous_bundle(oracles, tuple(float(x) for x in rng.uniform(0.1, 1.0, k)), n=n)


class TestHeterogeneousMarginals:
    """Heterogeneous gains from ``marginal`` match the value differences."""

    @pytest.mark.parametrize("seed", range(20))
    def test_scaled_modular(self, monkeypatch, seed):
        _check_against_value_differences(_scaled_modular_bundle(300 + seed), (seed,),
                                         monkeypatch)

    def test_coverage_positions(self, monkeypatch):
        rng = np.random.default_rng(9)
        covers = [rng.choice(30, size=int(rng.integers(1, 6)), replace=False) for _ in range(25)]
        oracles = tuple(CoverageFn(covers, rng.uniform(0.0, 2.0, 30)) for _ in range(6))
        bundle = heterogeneous_bundle(oracles, (0.9, 0.0, 0.4, 0.7, 0.2, 1.0), n=25)
        _check_against_value_differences(bundle, range(10), monkeypatch)

    def test_mixed_marginal_and_value_positions(self, monkeypatch):
        inst = synthetic_modular_instance(12, seed=14)
        fn = inst.oracle()
        cov = CoverageFn([(i % 5, (i * 3) % 7) for i in range(12)], [1.0] * 7)
        oracles = (fn, lambda s: 0.5 * fn(s), cov, lambda s: float(len(s) % 3), fn)
        bundle = heterogeneous_bundle(oracles, (1.0, 0.6, 0.3, 0.2, 0.8), n=12)
        _check_against_value_differences(bundle, range(10), monkeypatch)
        # Marginal positions cost one call per candidate; value positions keep
        # one base value per epoch plus one grown value per candidate.
        counted = heterogeneous_bundle(oracles, (1.0, 0.6, 0.3, 0.2, 0.8), n=12)
        counted.counter.calls = 0
        algorithms._make_engine(counted, range(12)).positive_candidates(2)
        assert counted.counter.calls == 12 * 2 + (1 + 12) * 2

    def test_shared_oracle_matches_separate_copies(self):
        rng = np.random.default_rng(21)
        pen = np.triu(rng.uniform(0.0, 0.2, (40, 40)), 1)
        rewards, penalties = rng.uniform(5.0, 10.0, 40), pen + pen.T
        fn = ModularPenaltyFn(rewards, penalties)
        # Every term keeps its own running-gain state, so one oracle object
        # at every position traces bit for bit like a copy at each position.
        copies = tuple(ModularPenaltyFn(rewards, penalties) for _ in range(8))
        weights = (0.5, 0.0, 1.0, 0.25, 0.5, 0.0, 0.75, 0.5)
        for seed in range(5):
            cfg = SamplerConfig(P_STAR, seed)
            shared = sampling_greedy(heterogeneous_bundle((fn,) * 8, weights, n=40), 8, cfg)
            apart = sampling_greedy(heterogeneous_bundle(copies, weights, n=40), 8, cfg)
            assert shared == apart

    def test_failing_marginal_reports_position(self):
        class Exploding:
            def __call__(self, items):
                return 0.0

            def marginal(self, item, items):
                if items:
                    raise RuntimeError("boom")
                return 1.0

        fn = synthetic_modular_instance(6, seed=3).oracle()
        bundle = heterogeneous_bundle((fn, fn, Exploding()), (1.0, 1.0, 1.0), n=6)
        with pytest.raises(OracleEvaluationError) as err:
            sampling_greedy(bundle, 3, SamplerConfig(1.0, 0))
        assert err.value.position == 3
        assert "boom" in str(err.value)


class _Failing:
    """f(S) = |S|, raising on every read of a set of ``limit`` or more items."""

    def __init__(self, limit):
        self.limit = limit

    def __call__(self, items):
        if len(items) >= self.limit:
            raise RuntimeError("boom")
        return float(len(items))


class _FailingMarginal(_Failing):
    def marginal(self, item, items):
        return self(set(items) | {item}) - self(items)


class TestOracleFailures:
    """An exception from a homogeneous oracle, read by its marginal or by its
    values, becomes OracleEvaluationError at the position being scored, as
    it does for a heterogeneous position."""

    @pytest.mark.parametrize("oracle", (_Failing, _FailingMarginal),
                             ids=("value-only", "marginal"))
    def test_forward_greedy(self, oracle):
        bundle = homogeneous_bundle(oracle(2), (0.5, 0.5, 0.5), n=6)
        with pytest.raises(OracleEvaluationError, match="boom") as err:
            sampling_greedy(bundle, 3, coins=[1, 1, 1])
        assert err.value.position == 2
        assert isinstance(err.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("oracle", (_Failing, _FailingMarginal),
                             ids=("value-only", "marginal"))
    def test_complement_greedy(self, oracle):
        # The complement reads f on V minus S minus {i}, five items at once.
        bundle = homogeneous_bundle(oracle(5), (0.25,) * 4, n=6)
        with pytest.raises(OracleEvaluationError, match="boom") as err:
            alg2_second_half(bundle, 4, SamplerConfig(0.5, 1))
        assert err.value.position == 1
        with pytest.raises(OracleEvaluationError, match="boom") as err:
            sampling_greedy_j(oracle(5), 6, 2, SamplerConfig(0.5, 1))
        assert err.value.position == 1


class _Poisoned:
    """f(S) = |S| on six items, except that item 2's marginal is ``bad``."""

    def __init__(self, bad):
        self.bad = bad

    def __call__(self, items):
        return self.bad if 2 in items else float(len(items))


class _PoisonedMarginal(_Poisoned):
    def marginal(self, item, items):
        return self.bad if item == 2 else 1.0


class _PoisonedState:
    def __init__(self, bad):
        self.bad = bad

    def gains(self):
        return np.array([1.0, 1.0, self.bad, 1.0, 1.0, 1.0])

    def add(self, item):
        pass


class _PoisonedBatched(_Poisoned):
    def incremental(self):
        return _PoisonedState(self.bad)


class TestNonFiniteGains:
    """A NaN or infinite marginal raises instead of being skipped (NaN fails
    ``gain > 0``) or ranked first (+inf)."""

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    @pytest.mark.parametrize("oracle", (_Poisoned, _PoisonedMarginal, _PoisonedBatched),
                             ids=("value-difference", "marginal", "batched"))
    def test_homogeneous_engines(self, oracle, bad):
        bundle = homogeneous_bundle(oracle(bad), (0.5, 0.5), n=6)
        with pytest.raises(OracleEvaluationError, match="item 2") as err:
            sampling_greedy(bundle, 2, SamplerConfig(0.5, 1))
        assert err.value.position == 1

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_heterogeneous_marginal_position(self, bad):
        fn = CoverageFn([(0,)] * 6, (1.0,))
        bundle = heterogeneous_bundle((fn, _PoisonedMarginal(bad)), (1.0, 1.0), n=6)
        with pytest.raises(OracleEvaluationError, match="item 2") as err:
            sampling_greedy(bundle, 2, SamplerConfig(0.5, 1))
        assert err.value.position == 2

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_complement_greedy(self, bad):
        bundle = homogeneous_bundle(_PoisonedMarginal(bad), (0.25,) * 4, n=6)
        with pytest.raises(OracleEvaluationError, match="item 2"):
            alg2_second_half(bundle, 4, SamplerConfig(0.5, 1))
        with pytest.raises(OracleEvaluationError, match="item 2"):
            sampling_greedy_j(_PoisonedMarginal(bad), 6, 2, SamplerConfig(0.5, 1))


    def test_overflowing_running_gains(self):
        # Finite inputs whose sums overflow: item 2's penalties against items
        # 0 and 1 take its forward gain to -inf once both are placed, and its
        # complement start (a row sum) to +inf.
        big = 1.7e308
        pens = [[0.0, 0.0, big], [0.0, 0.0, big], [big, big, 0.0]]
        bundle = homogeneous_bundle(ModularPenaltyFn((1e308,) * 3, pens), (1.0,) * 3, n=3)
        with pytest.raises(OracleEvaluationError, match="marginal inf for item 2") as err:
            alg2_second_half(bundle, 3, SamplerConfig(0.5, 1))
        assert err.value.position == 1
        with pytest.raises(OracleEvaluationError, match="marginal -inf for item 2") as err:
            sampling_greedy(bundle, 3, coins=[1, 1])
        assert err.value.position == 3


class TestVerifyTrace:
    def test_rejects_tampered_order(self, tiny_bundle):
        _, trace = sampling_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), coins=[0, 1])
        bad = trace.__class__(
            considered=(trace.considered[1], trace.considered[0]),
            output=trace.output)
        with pytest.raises(ValueError):
            verify_trace(tiny_bundle, bad)

    def test_rejects_tampered_gain(self, tiny_bundle):
        _, trace = sampling_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), coins=[0, 1])
        item, gain, coin = trace.considered[0]
        bad = trace.__class__(
            considered=((item, gain + 0.5, coin),) + trace.considered[1:],
            output=trace.output)
        with pytest.raises(ValueError):
            verify_trace(tiny_bundle, bad)

    def test_rejects_an_item_considered_twice_in_one_epoch(self, tiny_bundle):
        # Item 0 is rejected, so its second consideration is against the
        # epoch's next candidate, item 1.
        _, trace = sampling_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), coins=[0, 1])
        verify_trace(tiny_bundle, trace)
        bad = trace.__class__(considered=trace.considered[:1] + trace.considered,
                              output=trace.output)
        with pytest.raises(ValueError, match="trace considered 0, expected argmax 1"):
            verify_trace(tiny_bundle, bad)

    def test_rejects_a_tampered_gain_later_in_an_epoch(self, tiny_bundle):
        # Three considerations, one accept: the second's gain is checked
        # against the ranking the epoch's first one was checked against.
        _, trace = sampling_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), coins=[0, 0, 1])
        assert [coin for _, _, coin in trace.considered] == [0, 0, 1]
        verify_trace(tiny_bundle, trace)
        item, gain, coin = trace.considered[1]
        bad = trace.__class__(
            considered=(trace.considered[0], (item, gain + 0.5, coin), trace.considered[2]),
            output=trace.output)
        with pytest.raises(ValueError, match=f"recorded gain {gain + 0.5} != recomputed {gain}"):
            verify_trace(tiny_bundle, bad)

    def test_rejects_truncated_consideration(self, tiny_bundle):
        _, trace = sampling_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), coins=[0, 0, 0])
        bad = trace.__class__(considered=trace.considered[:-1], output=trace.output)
        with pytest.raises(ValueError):
            verify_trace(tiny_bundle, bad)

    def test_rejects_a_consideration_after_k_accepts(self, tiny_bundle):
        _, trace = sampling_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), coins=[1, 1])
        assert len(trace.output) == 2
        bad = trace.__class__(considered=trace.considered + ((1, 1.0, 0),), output=trace.output)
        with pytest.raises(ValueError, match="after the sequence was full"):
            verify_trace(tiny_bundle, bad)

    def test_rejects_a_consideration_without_positive_gains(self, tiny_bundle_k3):
        # After 0 and 2, item 1's gain is 2 - 2 - 3 < 0: the run stopped early.
        _, trace = sampling_greedy(tiny_bundle_k3, 3, SamplerConfig(0.5, 0), coins=[1, 1])
        assert trace.output.items == (0, 2)
        bad = trace.__class__(considered=trace.considered + ((1, 1.0, 1),),
                              output=Sequence((0, 2, 1)))
        with pytest.raises(ValueError, match="no candidate had positive gain"):
            verify_trace(tiny_bundle_k3, bad)

    def test_rejects_an_output_the_accepts_do_not_give(self, tiny_bundle):
        _, trace = sampling_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), coins=[1, 1])
        bad = trace.__class__(considered=trace.considered, output=Sequence((2, 0)))
        with pytest.raises(ValueError, match="do not reproduce"):
            verify_trace(tiny_bundle, bad)


class TestPresampled:
    def test_forced_full_pool_is_plain_greedy(self, tiny_bundle):
        seq = presampled_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), subset=range(3))
        assert seq.items == (0, 2)

    def test_forced_empty_pool(self, tiny_bundle):
        seq = presampled_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), subset=())
        assert seq.items == ()

    def test_forced_demo_pool(self, tiny_bundle):
        seq = presampled_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), subset={1, 2})
        assert seq.items == (1,)

    def test_respects_pool_cap(self, tiny_bundle_k3):
        seq = presampled_greedy(tiny_bundle_k3, 3, SamplerConfig(0.5, 0), subset={0})
        assert seq.items == (0,)

    def test_p_zero_and_p_one(self, tiny_bundle):
        assert presampled_greedy(tiny_bundle, 2, SamplerConfig(0.0, 4)).items == ()
        assert presampled_greedy(tiny_bundle, 2, SamplerConfig(1.0, 4)).items == (0, 2)


class TestFixedLength:
    def test_pads_ascending(self, tiny_bundle_k3):
        seq = fixed_length_solve(tiny_bundle_k3, 3, SamplerConfig(0.5, 0), coins=[0, 1, 0])
        assert seq.items == (1, 0, 2)

    def test_already_full_is_unchanged(self, tiny_bundle):
        coins = [1, 1]
        plain, _ = sampling_greedy(tiny_bundle, 2, SamplerConfig(0.5, 0), coins=list(coins))
        padded = fixed_length_solve(tiny_bundle, 2, SamplerConfig(0.5, 0), coins=list(coins))
        assert plain == padded

    def test_k_equals_n_gives_permutation(self, tiny_bundle_k3):
        for seed in range(10):
            seq = fixed_length_solve(tiny_bundle_k3, 3, SamplerConfig(P_STAR, seed))
            assert sorted(seq.items) == [0, 1, 2]

    def test_forced_backup(self, tiny_bundle_k3):
        seq = fixed_length_solve(tiny_bundle_k3, 3, SamplerConfig(0.5, 0),
                                 coins=[0, 0, 0], backup=(2, 0, 1))
        assert seq.items == (0, 1, 2)  # appended in ascending order

    @pytest.mark.parametrize("coins, backup, message", (
        ([0, 0, 0], (2, 0), "exactly 3 items"),
        ([0, 0, 0], (0, 0, 1), "distinct unused"),
        ([1, 0], (0, 1), "distinct unused"),  # 0 was accepted
    ))
    def test_bad_forced_backup(self, tiny_bundle_k3, coins, backup, message):
        with pytest.raises(ValueError, match=message):
            fixed_length_solve(tiny_bundle_k3, 3, SamplerConfig(0.5, 0),
                               coins=coins, backup=backup)

    def test_k_too_large(self, tiny_fn):
        bundle = homogeneous_bundle(tiny_fn, (1.0,) * 4, n=3)
        with pytest.raises(InfeasibleError):
            fixed_length_solve(bundle, 4, SamplerConfig(0.5, 0))

    def test_backup_is_uniform_over_unused(self, tiny_bundle_k3):
        # Force the empty core; the pad must be a uniform permutation-prefix,
        # i.e. each item appears and the output is always ascending here.
        counts = {}
        for seed in range(300):
            seq = fixed_length_solve(tiny_bundle_k3, 3, SamplerConfig(0.5, seed),
                                     coins=[0, 0, 0])
            counts[seq.items] = counts.get(seq.items, 0) + 1
        assert counts == {(0, 1, 2): 300}


class TestFirstHalf:
    def test_zero_tail_weights_keep_value(self):
        inst = synthetic_modular_instance(4, seed=9)
        bundle = homogeneous_bundle(inst.oracle(), (1.0, 1.0, 0.0), n=4)
        for seed in range(10):
            seq = homogeneous_first_half(bundle, 3, SamplerConfig(P_STAR, seed))
            assert len(seq) == 3
            assert evaluate_F(bundle, seq) == pytest.approx(
                evaluate_F(bundle, seq.prefix(2)))

    def test_smallest_case(self):
        fn = ModularPenaltyFn((2.0, 1.0), [[0.0, 0.0], [0.0, 0.0]])
        bundle = homogeneous_bundle(fn, (1.0, 1.0), n=2)
        seq = homogeneous_first_half(bundle, 2, SamplerConfig(1.0, 0))
        assert seq.items == (0, 1)

    def test_requires_large_k(self):
        inst = synthetic_modular_instance(6, seed=9)
        bundle = homogeneous_bundle(inst.oracle(), (1.0, 1.0), n=6)
        with pytest.raises(InfeasibleError):
            homogeneous_first_half(bundle, 2, SamplerConfig(0.5, 0))


class TestSecondHalf:
    def test_running_example(self):
        fn = ModularPenaltyFn([1.0] * 10, [[0.0] * 10] * 10)
        bundle = homogeneous_bundle(fn, (1.0,) * 8, ground=range(1, 11))
        seq = alg2_second_half(bundle, 8, SamplerConfig(0.5, 0),
                               forced_accepted=(5, 1, 9, 10), forced_backup=(2,))
        assert seq.items == (3, 4, 6, 7, 8, 2, 10, 9)

    def test_no_accepts_is_all_backup(self, tiny_bundle):
        seq = alg2_second_half(tiny_bundle, 2, SamplerConfig(0.5, 3),
                               forced_accepted=(), forced_backup=(1, 0))
        # rest = {2}, fill keeps draw order, no reversed tail
        assert seq.items == (2, 1, 0)

    def test_small_accept_block_has_no_tail(self):
        # |U| <= n-k: every accept falls in the discarded block.
        inst = synthetic_modular_instance(6, seed=14)
        bundle = homogeneous_bundle(inst.oracle(), (1.0,) * 3, n=6)
        seq = alg2_second_half(bundle, 3, SamplerConfig(0.5, 0),
                               forced_accepted=(4, 2), forced_backup=(0,))
        # n-k = 3 >= |U| = 2: tail empty; rest ascending, then the fill.
        assert seq.items == (1, 3, 5, 0)

    def test_sampled_runs_are_valid(self):
        inst = synthetic_modular_instance(7, seed=21)
        bundle = homogeneous_bundle(inst.oracle(), (1.0,) * 4, n=7)
        for seed in range(20):
            seq = alg2_second_half(bundle, 4, SamplerConfig(P_STAR, seed))
            assert len(seq.items) == len(set(seq.items))
            assert set(seq.items) <= set(range(7))
            assert len(seq) >= 4

    @pytest.mark.parametrize("accepted, message", (
        ((0, 0), "distinct ground items"),
        ((0, 5), "distinct ground items"),
        ((0, 1, 2), r"at most ceil\(n/2\)=2"),
    ))
    def test_bad_forced_accepts(self, tiny_bundle, accepted, message):
        with pytest.raises(ValueError, match=message):
            alg2_second_half(tiny_bundle, 2, SamplerConfig(0.5, 0), forced_accepted=accepted)

    def test_requires_large_k(self):
        bundle = homogeneous_bundle(synthetic_modular_instance(6, seed=9).oracle(), (1.0, 1.0), n=6)
        with pytest.raises(InfeasibleError, match=r"below ceil\(n/2\)=3"):
            alg2_second_half(bundle, 2, SamplerConfig(0.5, 0))


class TestSamplingGreedyJ:
    def test_j_equals_n_is_empty(self, tiny_fn):
        assert sampling_greedy_j(tiny_fn, 3, 3, SamplerConfig(0.5, 5)) == frozenset()

    def test_demo_first_pick(self, tiny_fn):
        got = sampling_greedy_j(tiny_fn, 3, 2, SamplerConfig(0.5, 0), coins=[1])
        assert got == frozenset({1})

    def test_monotone_base_means_all_backup(self):
        fn = CoverageFn([(0,), (1,), (0, 1)], (1.0, 1.0))
        sizes = set()
        draws = set()
        for seed in range(60):
            got = sampling_greedy_j(fn, 3, 1, SamplerConfig(0.5, seed))
            sizes.add(len(got))
            draws.add(got)
            assert got <= frozenset({0, 1, 2})
        assert sizes == {2}
        assert len(draws) == 3  # every 2-subset shows up

    def test_j_out_of_range(self, tiny_fn):
        with pytest.raises(ValueError):
            sampling_greedy_j(tiny_fn, 3, 0, SamplerConfig(0.5, 0))
        with pytest.raises(ValueError):
            sampling_greedy_j(tiny_fn, 3, 4, SamplerConfig(0.5, 0))


class TestComplementBundle:
    """The complement greedy is sampling_greedy on the homogeneous bundle of
    g(S) = f(V minus S) whose last position alone weighs 1."""

    def test_every_position_weighs_exactly_one(self):
        for cap in range(1, 65):
            bundle = algorithms._complement_bundle(lambda items: 0.0, range(cap), cap)
            assert [bundle.weights.suffix_sum(t) for t in range(1, cap + 1)] == [1.0] * cap

    @pytest.mark.parametrize("family", ("modular", "coverage", "homogeneous"))
    def test_traces_replay(self, family):
        for bundle in getattr(families, f"{family}_bundles")():
            cap = (bundle.n + 1) // 2
            complement = algorithms._complement_bundle(bundle.base_oracle, bundle.ground, cap)
            for seed in range(10):
                _, trace = sampling_greedy(complement, cap, SamplerConfig(P_STAR, seed))
                verify_trace(complement, trace)


class TestHomogeneousSolve:
    def test_small_k_routes_to_fixed_length(self):
        inst = synthetic_modular_instance(7, seed=33)
        bundle = homogeneous_bundle(inst.oracle(), (1.0, 0.5), n=7)
        for seed in range(10):
            cfg = SamplerConfig(P_STAR, seed)
            assert homogeneous_solve(bundle, 2, cfg) == fixed_length_solve(bundle, 2, cfg)

    def test_returns_k_items_and_beats_both_branches(self):
        from seqsubmod.algorithms import derive_seed
        inst = synthetic_modular_instance(6, seed=41)
        bundle = homogeneous_bundle(inst.oracle(), (1.0, 1.0, 1.0, 1.0), n=6)
        for seed in range(15):
            cfg = SamplerConfig(P_STAR, seed)
            out = homogeneous_solve(bundle, 4, cfg)
            assert len(out) == 4
            first = homogeneous_first_half(
                bundle, 4, SamplerConfig(cfg.p, derive_seed(seed, "half", 0)))
            second = alg2_second_half(
                bundle, 4, SamplerConfig(cfg.p, derive_seed(seed, "half", 1)))
            best = max(evaluate_F(bundle, first), evaluate_F(bundle, second))
            assert evaluate_F(bundle, out) == pytest.approx(best)

    def test_requires_homogeneous(self):
        fn = ModularPenaltyFn((1.0, 2.0), [[0.0, 0.0], [0.0, 0.0]])
        bundle = heterogeneous_bundle((fn, lambda s: 0.0), (1.0, 1.0), n=2)
        with pytest.raises(ValueError):
            homogeneous_solve(bundle, 2, SamplerConfig(0.5, 0))
        with pytest.raises(ValueError, match="homogeneous"):
            algorithms.run_algorithm("homog", bundle, 2, SamplerConfig(0.5, 0))

    @pytest.mark.parametrize("k", (2, 4, 6))
    def test_scored_variant_scores_its_winner_once(self, k):
        # k=2 is below ceil(n/2) and scores its sequence; k>=3 hands on the
        # F that picked the winner, so it costs no more calls than the solve.
        fn = synthetic_modular_instance(6, seed=41).oracle()
        lams = tuple(np.random.default_rng(k).uniform(0.1, 1.0, k).tolist())
        for seed in range(10):
            cfg = SamplerConfig(P_STAR, seed)
            plain = homogeneous_bundle(fn, lams, n=6)
            scored = homogeneous_bundle(fn, lams, n=6)
            want = homogeneous_solve(plain, k, cfg)
            calls = plain.counter.calls
            want_value = evaluate_F(plain, want)
            seq, value = algorithms.run_algorithm("homog", scored, k, cfg)
            assert seq == want and value == want_value
            assert scored.counter.calls == (calls if k >= 3 else plain.counter.calls)


class TestRunAlgorithm:
    @pytest.mark.parametrize("name", sorted(algorithms.ALGORITHMS))
    def test_unknown_constraint_is_rejected(self, name):
        inst = synthetic_covdiv_instance(6, d=4, seed=3, density=0.5, eta=1.0)
        with pytest.raises(ValueError, match="unknown constraint 'loose'"):
            algorithms.run_algorithm(name, inst.bundle((0.5, 0.5)), 2, SamplerConfig(P_STAR, 0),
                                     "loose", inst.ratings)


    def test_readme_table_says_which_runs_are_padded(self):
        # The last column of the README's algorithm table, read as the
        # constraints a run is padded under.
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        start = lines.index("| name | `solve` | `experiment` | `check --mode` | padded to `k` |")
        rows = [line.split("|")[1:-1] for line in
                itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])]
        padded = {"under `fixed`": (FIXED,), "always": (FLEXIBLE, FIXED), "never": ()}
        table = {name.strip().strip("`"): padded[last.strip().split(" (")[0].split(";")[0]]
                 for name, *_, last in rows}
        assert table == {name: algo.pads for name, algo in algorithms.ALGORITHMS.items()}


class TestBruteForce:
    def test_demo_flexible_and_fixed(self, tiny_bundle):
        assert brute_force(tiny_bundle, 2, FLEXIBLE) == (Sequence((0, 2)), 8.0)
        assert brute_force(tiny_bundle, 2, FIXED) == (Sequence((0, 2)), 8.0)

    def test_k1(self, tiny_fn):
        bundle = homogeneous_bundle(tiny_fn, (1.0,), n=3)
        assert brute_force(bundle, 1, FLEXIBLE) == (Sequence((0,)), 3.0)

    def test_tie_breaks_lexicographic(self):
        bundle = homogeneous_bundle(lambda s: 0.0, (1.0, 1.0), n=3)
        assert brute_force(bundle, 2, FLEXIBLE)[0] == Sequence(())
        assert brute_force(bundle, 2, FIXED)[0] == Sequence((0, 1))

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(17)
        for idx in range(8):
            inst = synthetic_modular_instance(5, seed=600 + idx)
            fn = inst.oracle()
            lam = tuple(rng.uniform(0.1, 1.0, 2))
            bundle = homogeneous_bundle(fn, lam, n=5)
            for constraint in (FLEXIBLE, FIXED):
                seq, value = brute_force(bundle, 2, constraint)
                want_items, want_value = naive_best([fn] * 2, lam, range(5), 2, constraint)
                assert seq.items == want_items
                assert value == pytest.approx(want_value)

    @pytest.mark.parametrize("family", ("modular", "coverage", "homogeneous", "covdiv",
                                        "heterogeneous"))
    def test_bits_and_tuple_equal_enumeration(self, family):
        # The DP against the permutation loop it replaced: every ordered
        # selection scored by the public evaluate_F, ties to the smallest tuple.
        for bundle in _exactness_bundles(family):
            for constraint in (FLEXIBLE, FIXED):
                seq, value = brute_force(bundle, bundle.k, constraint)
                want_items, want_value = enumerated_best(
                    lambda perm: evaluate_F(bundle, perm), bundle.ground, bundle.k, constraint)
                assert (seq.items, value.hex()) == (want_items, want_value.hex())

    def test_rounding_near_tie_keeps_the_smaller_tuple(self):
        # (1, 0) has the larger partial sum of the set {0, 1}, but adding
        # f_3 = 2^54 rounds both orderings' F to 2^54, so (0, 1, 2) wins the
        # tie.  A DP that keeps one ordering per set answers (0, 2, 1).
        first = {frozenset({1}): 1.0}
        bundle = heterogeneous_bundle(
            (lambda s: first.get(s, 0.0), lambda s: 0.0,
             lambda s: 2.0 ** 54 if len(s) == 3 else 0.0), (1.0, 1.0, 1.0), n=3)
        assert brute_force(bundle, 3, FIXED) == (Sequence((0, 1, 2)), 2.0 ** 54)
        # The first pass prunes within the final bound, so a second pass reads
        # all 7 nonempty sets again.
        assert bundle.counter.calls == 14
        assert evaluate_F(bundle, (1, 0, 2)) == evaluate_F(bundle, (0, 1, 2)) == 2.0 ** 54
        assert enumerated_best(lambda perm: evaluate_F(bundle, perm), range(3), 3,
                               FIXED)[0] == (0, 1, 2)

    def test_enumeration_guard(self):
        # n=20, k=20: 20 * 2^19 (set, next item) extensions, past the guard.
        fn = ModularPenaltyFn((1.0,) * 20, [[0.0] * 20] * 20)
        bundle = homogeneous_bundle(fn, (1.0,) * 20, n=20)
        with pytest.raises(EnumerationTooLargeError):
            brute_force(bundle, 20, FIXED)
        assert bundle.counter.calls == 0

    def test_guard_counts_extensions(self, tiny_fn, monkeypatch):
        # n=3, k=2: 3 extensions of the empty set and 2 of each single.
        bundle = homogeneous_bundle(tiny_fn, (1.0, 1.0), n=3)
        monkeypatch.setattr(algorithms, "ENUMERATION_LIMIT", 9)
        assert brute_force(bundle, 2, FLEXIBLE) == (Sequence((0, 2)), 8.0)
        monkeypatch.setattr(algorithms, "ENUMERATION_LIMIT", 8)
        calls = bundle.counter.calls
        with pytest.raises(EnumerationTooLargeError, match="9 set extensions"):
            brute_force(bundle, 2, FLEXIBLE)
        assert bundle.counter.calls == calls

    def test_past_the_permutation_guard(self):
        # 12! orderings, far past ten million, in 12 * 2^11 extensions.  With
        # no penalties and unit weights F = sum_i r_(i) * (13 - i), largest
        # at descending rewards: sum of v^2 for v = 1..12.
        fn = ModularPenaltyFn(tuple(float(i + 1) for i in range(12)), [[0.0] * 12] * 12)
        bundle = homogeneous_bundle(fn, (1.0,) * 12, n=12)
        for constraint in (FLEXIBLE, FIXED):
            assert brute_force(bundle, 12, constraint) == (
                Sequence(tuple(range(11, -1, -1))), float(sum(v * v for v in range(1, 13))))


def _exactness_bundles(family):
    """Small bundles of one family for the DP-against-enumeration test; the
    modular, covdiv and heterogeneous ones include k = 1..n."""
    if family in ("coverage", "homogeneous"):
        return getattr(families, f"{family}_bundles")()
    rng = np.random.default_rng(29)
    if family != "heterogeneous":
        inst = (synthetic_modular_instance(6, seed=31, penalty_prob=0.6) if family == "modular"
                else synthetic_covdiv_instance(6, d=4, seed=3, density=0.4, eta=3.0))
        every_k = [homogeneous_bundle(inst.oracle(), tuple(rng.uniform(0.1, 1.0, k)), n=6)
                   for k in range(1, 7)]
        return (families.modular_bundles() if family == "modular" else []) + every_k
    out = []
    for n in (4, 5, 6):
        fns = [ScaledFn(synthetic_modular_instance(n, seed=40 + 10 * n + j, penalty_prob=0.6)
                        .oracle(), rng.uniform(0.5, 1.5)) for j in range(n)]
        out += [heterogeneous_bundle(fns[:k], tuple(rng.uniform(0.1, 1.0, k)), n=n)
                for k in range(1, n + 1)]
    return out


class TestBaselines:
    def test_quality_ordering(self):
        assert baseline_quality((3.0, 1.0, 2.0), 2).items == (0, 2)

    def test_quality_ties_to_lowest_id(self):
        assert baseline_quality((1.0, 1.0, 1.0), 2).items == (0, 1)

    def test_quality_k_bounds(self):
        assert baseline_quality((1.0, 2.0), 2).items == (1, 0)
        with pytest.raises(InfeasibleError):
            baseline_quality((1.0,), 2)

    def test_quality_without_ratings_names_them(self):
        bundle = synthetic_modular_instance(5, seed=1).bundle((1.0, 1.0))
        with pytest.raises(ValueError, match="ratings"):
            baseline_quality(None, 2)
        with pytest.raises(ValueError, match="ratings"):
            algorithms.run_algorithm("quality", bundle, 2, SamplerConfig())

    def test_covdiv_matches_independent_reimplementation(self):
        for idx in range(6):
            inst = synthetic_covdiv_instance(20, d=6, seed=700 + idx, density=0.3)
            fn = inst.oracle()
            bundle = homogeneous_bundle(fn, (1.0,) * 5, n=20)
            got = baseline_covdiv(fn, bundle, 5)
            want = naive_diversity_greedy(fn, range(20), 5)
            assert got.items == want

    def test_covdiv_fixed_pads_to_k(self):
        inst = synthetic_covdiv_instance(12, d=4, seed=55, density=0.5, eta=35.0)
        fn = inst.oracle()
        bundle = homogeneous_bundle(fn, (1.0,) * 6, n=12)
        flexible, _ = algorithms.run_algorithm("covdiv", bundle, 6, SamplerConfig(0.5, 1), FLEXIBLE)
        fixed, _ = algorithms.run_algorithm("covdiv", bundle, 6, SamplerConfig(0.5, 1), FIXED)
        assert flexible == baseline_covdiv(fn, bundle, 6)
        assert len(flexible) < 6  # eta=35 kills marginals early here
        assert len(fixed) == 6
        assert fixed.items[: len(flexible)] == flexible.items

    def test_covdiv_matches_list_version(self):
        # The reference: survivors in a sorted list, one np.fromiter per step.
        def list_version(fn, bundle, k):
            state = fn.incremental()
            alive = sorted(bundle.ground)
            out = []
            while len(out) < k and alive:
                arr = np.fromiter(alive, dtype=int)
                gains = state.diversity_gains()[arr]
                bundle.counter.add(len(arr))
                best = int(np.argmax(gains))
                if not gains[best] > 0.0:
                    break
                out.append(int(arr[best]))
                state.add(out[-1])
                alive.remove(out[-1])
            return tuple(out)

        n = 40
        tags = np.zeros((n, 4))
        tags[np.arange(n), np.arange(n) % 4] = 0.5
        tied = CoverageDiversityFn([1.0] * n, similarity_from_tags(tags), 1.0, 0.5, 1.0)
        cases = [(tied, range(n), 12)]
        for idx in range(6):
            eta = (1.0, 4.0)[idx % 2]  # eta=1 often fills k, eta=4 runs out of positive gains
            fn = synthetic_covdiv_instance(80, d=8, seed=900 + idx, density=0.2, eta=eta).oracle()
            cases.append((fn, range(80), 25))
            cases.append((fn, range(3, 80, 2), 25))
        for fn, ground, k in cases:
            bundle = homogeneous_bundle(fn, (1.0,) * k, ground=ground)
            got = baseline_covdiv(fn, bundle, k)
            calls = bundle.counter.calls
            assert got.items == list_version(fn, bundle, k)
            assert bundle.counter.calls == 2 * calls

    def test_quality_matches_sorted_version(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 50, 500):
            ratings = tuple(float(x) for x in rng.integers(0, 6, n)) + (0.0, -0.0)
            want = sorted(range(len(ratings)), key=lambda i: (-ratings[i], i))
            for k in (0, 1, n // 2, len(ratings)):
                assert baseline_quality(ratings, k).items == tuple(want[:k])

    def test_covdiv_needs_a_covdiv_oracle(self):
        fn = synthetic_modular_instance(5, seed=1).oracle()
        bundle = homogeneous_bundle(fn, (1.0, 1.0), n=5)
        with pytest.raises(ValueError, match="got ModularPenaltyFn"):
            baseline_covdiv(fn, bundle, 2)

    def test_covdiv_ignores_ratings(self):
        inst = synthetic_covdiv_instance(15, d=5, seed=77, density=0.4)
        fn = inst.oracle()
        boosted = type(fn)(np.asarray(inst.ratings) * 100.0, fn.similarity,
                           fn.alpha, fn.beta, fn.eta)
        bundle = homogeneous_bundle(fn, (1.0,) * 4, n=15)
        a = baseline_covdiv(fn, bundle, 4)
        b = baseline_covdiv(boosted, bundle, 4)
        assert a == b


class TestRemarkProperties:
    def test_monotone_p1_half_of_optimum(self):
        # Deterministic sampling with p=1 on monotone instances keeps half the
        # enumerated optimum; spot-check ahead of the full acceptance sweep.
        fn = CoverageFn([(0, 1), (2,), (1, 2), (3,)], (2.0, 1.0, 3.0, 0.5))
        bundle = homogeneous_bundle(fn, (0.7, 0.3), n=4)
        seq, _ = sampling_greedy(bundle, 2, SamplerConfig(1.0, 0))
        _, opt = brute_force(bundle, 2, FLEXIBLE)
        assert evaluate_F(bundle, seq) >= 0.5 * opt

    def test_lambda_invariance_with_p1(self):
        inst = synthetic_modular_instance(6, seed=61)
        fn = inst.oracle()
        rng = np.random.default_rng(62)
        base = homogeneous_bundle(fn, (1.0, 1.0, 1.0), n=6)
        ref, ref_trace = sampling_greedy(base, 3, SamplerConfig(1.0, 0))
        for _ in range(5):
            lam = tuple(rng.uniform(0.05, 3.0, 3))
            other = homogeneous_bundle(fn, lam, n=6)
            got, got_trace = sampling_greedy(other, 3, SamplerConfig(1.0, 0))
            assert got == ref
            assert [(i, c) for i, _, c in got_trace.considered] == \
                   [(i, c) for i, _, c in ref_trace.considered]

    def test_first_position_only_weights(self):
        # All mass on position 1: whatever gets picked first decides F alone.
        inst = synthetic_modular_instance(5, seed=71)
        fn = inst.oracle()
        bundle = homogeneous_bundle(fn, (1.0, 0.0, 0.0), n=5)
        for seed in range(10):
            seq, _ = sampling_greedy(bundle, 3, SamplerConfig(0.5, seed))
            assert len(seq) <= 1
            want = fn({seq.items[0]}) if seq.items else fn(set())
            assert evaluate_F(bundle, seq) == pytest.approx(want)
