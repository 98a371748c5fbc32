"""Memoized bound-check rounds: every round served from the memo's coin
tries and F table equals a round built from the public solvers alone, and every
verdict equals the one a loop of such rounds gives."""

import itertools
import math

import numpy as np
import pytest

from seqsubmod import (
    FIXED,
    FLEXIBLE,
    HOMOGENEOUS,
    CoverageFn,
    ModularPenaltyFn,
    OracleEvaluationError,
    P_STAR,
    SamplerConfig,
    alg2_second_half,
    bound_check,
    bound_factor,
    brute_force,
    derive_seed,
    evaluate_F,
    fixed_length_solve,
    heterogeneous_bundle,
    homogeneous_bundle,
    homogeneous_first_half,
    round_seed,
    sampling_greedy,
)
from seqsubmod import algorithms
from seqsubmod.algorithms import (
    _COMPLEMENT,
    _HEAD,
    _PLAIN,
    SplitMix64,
    _derived,
    _RoundMemo,
    _run,
)
from seqsubmod.core import Sequence
from seqsubmod.files import synthetic_modular_instance
from seqsubmod.harness import CHECK_ALGORITHMS, BoundVerdict, CellStats, _round_configs

import families


def _direct_round(bundle, mode, cfg):
    """One round of ``mode``'s algorithm from the public solvers alone: its
    sequence and F.  The homogeneous mode below ceil(n/2) is the fixed-length
    solve; from there on, the better of the two halves on their derived
    seeds, ties to the first half, cut to k."""
    k = bundle.k
    if mode == FLEXIBLE:
        seq = sampling_greedy(bundle, k, cfg)[0]
    elif mode == FIXED or k < (bundle.n + 1) // 2:
        seq = fixed_length_solve(bundle, k, cfg)
    else:
        first_cfg, second_cfg = (SamplerConfig(cfg.p, derive_seed(cfg.seed, "half", i))
                                 for i in (0, 1))
        first = homogeneous_first_half(bundle, k, first_cfg)
        second = alg2_second_half(bundle, k, second_cfg)
        first_value, second_value = evaluate_F(bundle, first), evaluate_F(bundle, second)
        if first_value >= second_value:
            return first.prefix(k), first_value
        return second.prefix(k), second_value
    return seq, evaluate_F(bundle, seq)


def _direct_bound_check(bundle, k, mode, cfg, rounds, *, factor=None, monotone=False):
    """bound_check as a loop of direct rounds: _direct_round in every round."""
    opt_seq, opt_value = brute_force(bundle, k, FLEXIBLE if mode == FLEXIBLE else FIXED)
    values = [_direct_round(bundle, mode, SamplerConfig(cfg.p, round_seed(cfg.seed, r)))[1]
              for r in range(rounds)]
    stats = CellStats(mode, "", mode, tuple(values), (), ())
    fac = factor if factor is not None else bound_factor(cfg.p, mode, k, bundle.n, monotone)
    margin = stats.mean - (fac * opt_value - 3.0 * stats.stderr)
    return BoundVerdict(margin >= 0.0, stats.mean, stats.stderr, opt_value, opt_seq, fac,
                        margin, rounds)


def _value_only(bundle):
    """The bundle's oracle through ``__call__`` alone: the list engine's
    value-difference path."""
    fn = bundle.base_oracle
    return homogeneous_bundle(lambda items: fn(items), bundle.weights, ground=bundle.ground)


def _heterogeneous(idx):
    inst = synthetic_modular_instance(6, seed=3000 + idx, penalty_prob=0.6)
    other = synthetic_modular_instance(6, seed=4000 + idx, penalty_prob=0.6)
    return heterogeneous_bundle((inst.oracle(), other.oracle(), inst.oracle()),
                                (0.5, 0.3, 0.2), n=6)


def _cases():
    # (label, bundle, mode): modular bundles under the flexible and fixed
    # modes, and two under homogeneous, whose k < ceil(n/2) runs the plain
    # greedy and pads; the two-block family under homogeneous; the list
    # engine's value-difference and heterogeneous paths.
    cases = []
    for idx, bundle in enumerate(families.modular_bundles()):
        modes = (FLEXIBLE, FIXED, HOMOGENEOUS) if idx in (2, 3) else (FLEXIBLE, FIXED)
        cases += [(f"modular{idx}", bundle, mode) for mode in modes]
    for idx, bundle in enumerate(families.homogeneous_bundles()):
        cases.append((f"homogeneous{idx}", bundle, HOMOGENEOUS))
    for idx in (0, 3):
        value_only = _value_only(families.homogeneous_bundles()[idx])
        cases += [(f"value-only{idx}", value_only, mode) for mode in (FIXED, HOMOGENEOUS)]
        cases += [(f"heterogeneous{idx}", _heterogeneous(idx), mode) for mode in (FLEXIBLE, FIXED)]
    return cases


CASES = _cases()


class TestRounds:
    @pytest.mark.parametrize("label, bundle, mode", CASES, ids=[c[0] + "-" + c[2] for c in CASES])
    def test_each_round_equals_a_direct_run(self, label, bundle, mode):
        name, seed = CHECK_ALGORITHMS[mode], 77
        memo = _RoundMemo(bundle)
        for r in range(2000):
            cfg = SamplerConfig(P_STAR, round_seed(seed, r))
            items, value = _run(name, memo, cfg, FLEXIBLE, None)
            want_seq, want_value = _direct_round(bundle, mode, cfg)
            assert (items, value) == (want_seq.items, want_value), r

    @pytest.mark.parametrize("name, bundle", (
        ("sg", families.modular_bundles()[2]),
        ("fixed", families.modular_bundles()[2]),
        ("homog", families.homogeneous_bundles()[3]),
    ), ids=("sg", "fixed", "homog"))
    def test_a_warm_round_builds_no_sequence(self, monkeypatch, name, bundle):
        # The second run of one cfg on one memo is served from the trees and
        # the F table, and carries item tuples: nothing wraps them.  Seed 10
        # accepts fewer than k items on the modular bundle, so fixed pads.
        memo, cfg = _RoundMemo(bundle), SamplerConfig(P_STAR, 10)
        first = _run(name, memo, cfg, FLEXIBLE, None)
        built = []
        real = Sequence.__post_init__
        monkeypatch.setattr(Sequence, "__post_init__", lambda seq: built.append(seq) or real(seq))
        assert _run(name, memo, cfg, FLEXIBLE, None) == first
        assert built == []


def _stored(memo):
    """The ids ``memo`` keeps, walked as its ``_size`` counts them: one per
    trie bit below a root, and a leaf's or an F key's items plus one.  A
    leaf on a path of at most 8 bits counts once, however many root entries
    it fills."""
    def walk(node):
        if node.__class__ is list:
            return 1 + walk(node[0]) + walk(node[1])
        return 0 if node is None else len(node) + 1
    total = sum(len(key) + 1 for key in memo._values)
    for root, _ in memo._trees.values():
        total += sum(walk(leaf) for leaf in {id(node): node for node in root}.values())
    return total


def _verdict_cases():
    cases = [(bundle, mode, 100 + i) for i, (_, bundle, mode) in enumerate(CASES)]
    return cases[::3]


class TestVerdicts:
    @pytest.mark.parametrize("limit", (None, 0, 3), ids=("limit", "no-room", "three"))
    def test_equal_the_direct_loop(self, monkeypatch, limit):
        if limit is not None:
            monkeypatch.setattr(algorithms, "MEMO_LIMIT", limit)
        for bundle, mode, seed in _verdict_cases():
            cfg = SamplerConfig(P_STAR, seed)
            want = _direct_bound_check(bundle, bundle.k, mode, cfg, 300)
            got = bound_check(bundle, bundle.k, mode, cfg, 300)
            assert got == want

    @pytest.mark.parametrize("mode", (FLEXIBLE, FIXED))
    def test_rounds_past_the_prefetched_draws(self, mode):
        # A bound check prefetches the first 8 draws of every round's
        # streams; at n=10 some rounds consider more than 8 candidates, so
        # their coins continue from the stream's numpy blocks.
        inst = synthetic_modular_instance(10, seed=1, penalty_prob=0.6)
        bundle = homogeneous_bundle(inst.oracle(), (0.5, 0.3, 0.2), n=10)
        cfg = SamplerConfig(P_STAR, 11)  # round r reads round_seed(11, r)
        coins_read = [len(sampling_greedy(bundle, 3, SamplerConfig(P_STAR, round_seed(11, r)))[1]
                          .considered) for r in range(300)]
        assert max(coins_read) > algorithms._FIRST
        assert (bound_check(bundle, 3, mode, cfg, 300)
                == _direct_bound_check(bundle, 3, mode, cfg, 300))

    @pytest.mark.parametrize("mode", (FLEXIBLE, FIXED, HOMOGENEOUS))
    def test_no_room_runs_every_round_directly(self, monkeypatch, mode):
        # With nothing stored, every round makes the oracle calls a direct
        # run makes; with room, the trees and the table save most of them.
        bundle = families.homogeneous_bundles()[3]
        cfg = SamplerConfig(P_STAR, 5)

        def rounds_calls(check):
            before = bundle.counter.calls
            check(bundle, bundle.k, mode, cfg, 200)
            calls = bundle.counter.calls - before
            before = bundle.counter.calls
            brute_force(bundle, bundle.k, FLEXIBLE if mode == FLEXIBLE else FIXED)
            return calls - (bundle.counter.calls - before)

        direct = rounds_calls(_direct_bound_check)
        assert rounds_calls(bound_check) < direct / 2
        monkeypatch.setattr(algorithms, "MEMO_LIMIT", 0)
        assert rounds_calls(bound_check) == direct

    @pytest.mark.parametrize("limit", (3, 40))
    def test_stored_size_stays_within_the_limit(self, monkeypatch, limit):
        # One cap for the whole memo: the tries of every greedy and the F
        # table, counted by walking them, stay within MEMO_LIMIT together.
        monkeypatch.setattr(algorithms, "MEMO_LIMIT", limit)
        bundle = families.homogeneous_bundles()[7]
        for mode in (FLEXIBLE, FIXED, HOMOGENEOUS):
            memo = _RoundMemo(bundle)
            for r in range(300):
                cfg = SamplerConfig(P_STAR, round_seed(1, r))
                _run(CHECK_ALGORITHMS[mode], memo, cfg, FLEXIBLE, None)
            assert _stored(memo) == memo._size <= limit, mode


def _walks(bundle, name, cfg):
    """The (greedy, config) pairs whose accepts a round of ``name`` reads."""
    if name != "homog" or bundle.k < (bundle.n + 1) // 2:
        return [(_PLAIN, cfg)]
    return [(_HEAD, _derived(cfg, "half", 0)), (_COMPLEMENT, _derived(cfg, "half", 1))]


def _deep_walks(memo, bundle, name, cfgs):
    """How many of the rounds' lookups read more than 8 coin bits: those
    whose root entry is an internal node."""
    deep = 0
    for cfg in cfgs:
        for greedy, walk in _walks(bundle, name, cfg):
            bits = itertools.islice(SplitMix64(walk.seed, "coins").coins(walk.p), 8)
            code = sum(bit << t for t, bit in enumerate(bits))
            deep += memo._trees[greedy][0][code].__class__ is list
    return deep


def _paths(node, bits):
    """(path, leaf) for every leaf at or below ``node``, whose path is ``bits``."""
    if node.__class__ is list:
        for bit in (0, 1):
            yield from _paths(node[bit], bits + [bit])
    elif node is not None:
        yield bits, node


class TestPrefixTable:
    """Each greedy's prefix table, the root of its trie, indexed by a
    round's first 8 coin bits (its batch row's coin code)."""

    N10 = homogeneous_bundle(synthetic_modular_instance(10, seed=1, penalty_prob=0.6).oracle(),
                             (0.5, 0.3, 0.2), n=10)
    N12 = homogeneous_bundle(synthetic_modular_instance(12, seed=1, penalty_prob=0.6).oracle(),
                             (0.5,) * 6, n=12)

    @pytest.mark.parametrize("name, bundle", (
        ("sg", families.modular_bundles()[2]),
        ("fixed", families.modular_bundles()[7]),
        ("homog", families.homogeneous_bundles()[3]),
        ("sg", N10),
    ), ids=("sg", "fixed", "homog", "sg-n10"))
    def test_a_warm_shallow_walk_keys_no_coin_stream(self, monkeypatch, name, bundle):
        # Warm rounds are all stored, so only a walk deeper than 8 bits keys
        # its coin stream; at n=10 some do.
        memo, cfgs = _RoundMemo(bundle), list(_round_configs(P_STAR, 1, 300))
        cold = [_run(name, memo, cfg, FLEXIBLE, None) for cfg in cfgs]
        deep = _deep_walks(memo, bundle, name, cfgs)
        assert (deep > 0) == (bundle.n == 10)
        keyed, real = [], algorithms._stream
        monkeypatch.setattr(algorithms, "_stream",
                            lambda cfg, tag: keyed.append(tag) or real(cfg, tag))
        assert [_run(name, memo, cfg, FLEXIBLE, None) for cfg in cfgs] == cold
        assert keyed.count("coins") == deep

    @pytest.mark.parametrize("limit", (None, 3, 40), ids=("limit", "three", "forty"))
    def test_each_code_maps_to_the_leaf_its_bits_reach(self, monkeypatch, limit):
        # A leaf at the root is the run on any coins that extend its code,
        # and fills every code that extends the bits the run read; a leaf
        # below it is the run that reads exactly the bits of its path.
        if limit is not None:
            monkeypatch.setattr(algorithms, "MEMO_LIMIT", limit)
        cases = ([("sg", bundle) for bundle in families.modular_bundles()]
                 + [("homog", bundle) for bundle in families.homogeneous_bundles()]
                 + [("sg", self.N10)])
        for name, bundle in cases:
            memo = _RoundMemo(bundle)
            for cfg in _round_configs(P_STAR, 1, 300):
                _run(name, memo, cfg, FLEXIBLE, None)
            for root, greedy_bundle in memo._trees.values():
                assert len(root) == 256
                for code, node in enumerate(root):
                    for path, leaf in _paths(node, [code >> t & 1 for t in range(8)]):
                        seq, trace = sampling_greedy(greedy_bundle, greedy_bundle.k,
                                                     coins=itertools.chain(path, itertools.repeat(0)))
                        read = len(trace.considered)
                        assert seq.items == leaf and (read <= 8 if len(path) == 8
                                                      else read == len(path)), code
                        if read <= 8:
                            assert all(root[c] is leaf for c in range(code % (1 << read), 256,
                                                                      1 << read)), code
            assert _stored(memo) == memo._size

    @pytest.mark.parametrize("mode", (FLEXIBLE, FIXED, HOMOGENEOUS))
    def test_no_room_leaves_the_table_empty(self, monkeypatch, mode):
        monkeypatch.setattr(algorithms, "MEMO_LIMIT", 0)
        bundle = families.homogeneous_bundles()[7]
        memo = _RoundMemo(bundle)
        for cfg in _round_configs(P_STAR, 1, 300):
            _run(CHECK_ALGORITHMS[mode], memo, cfg, FLEXIBLE, None)
        assert memo._trees and all(root == [None] * 256 for root, _ in memo._trees.values())
        assert _stored(memo) == memo._size == 0

    @pytest.mark.parametrize("mode, bundle", ((FLEXIBLE, N10), (HOMOGENEOUS, N12)),
                             ids=("sg-n10", "homog-n12"))
    def test_a_check_runs_each_coin_path_once(self, monkeypatch, mode, bundle):
        # Deep paths are stored below the root, so a check runs the greedy
        # once per distinct coin path its rounds read, however deep.
        h = (bundle.n + 1) // 2
        greedies = {_PLAIN: bundle, _HEAD: bundle.head(h),
                    _COMPLEMENT: algorithms._complement_bundle(bundle.base_oracle, bundle.ground, h)}
        cfg, walks = SamplerConfig(P_STAR, 11), []
        for r in range(300):
            round_cfg = SamplerConfig(P_STAR, round_seed(cfg.seed, r))
            for greedy, walk in _walks(bundle, CHECK_ALGORITHMS[mode], round_cfg):
                trace = sampling_greedy(greedies[greedy], greedies[greedy].k, walk)[1]
                walks.append((greedy, tuple(coin for _, _, coin in trace.considered)))
        deep = sum(len(path) > 8 for _, path in walks)
        assert deep > (len(walks) / 2 if bundle.n == 12 else 0)
        runs, real = [], algorithms.sampling_greedy
        monkeypatch.setattr(algorithms, "sampling_greedy",
                            lambda *args, **kwargs: runs.append(args) or real(*args, **kwargs))
        check = bound_check(bundle, bundle.k, mode, cfg, 300)
        assert len(runs) == len(set(walks))
        monkeypatch.setattr(algorithms, "sampling_greedy", real)
        assert check == _direct_bound_check(bundle, bundle.k, mode, cfg, 300)


class TestEdges:
    @pytest.mark.parametrize("mode", (FLEXIBLE, FIXED, HOMOGENEOUS))
    def test_p0(self, mode):
        bundle = families.homogeneous_bundles()[2]
        cfg = SamplerConfig(0.0, 9)
        assert (bound_check(bundle, bundle.k, mode, cfg, 200, factor=0.0)
                == _direct_bound_check(bundle, bundle.k, mode, cfg, 200, factor=0.0))

    def test_p1_monotone(self):
        fn = CoverageFn([(0, 1), (2,), (1, 2), (3,)], (2.0, 1.0, 3.0, 0.5))
        bundle = homogeneous_bundle(fn, (0.7, 0.3), n=4)
        cfg = SamplerConfig(1.0, 0)
        got = bound_check(bundle, 2, FLEXIBLE, cfg, 50, monotone=True)
        assert got == _direct_bound_check(bundle, 2, FLEXIBLE, cfg, 50, monotone=True)
        assert got.factor == 0.5 and got.stderr == pytest.approx(0.0, abs=1e-12)

    def test_no_coin_read_is_a_root_leaf(self):
        # No item has a positive gain, so the greedy reads no coin at all.
        fn = ModularPenaltyFn((0.0,) * 4, np.zeros((4, 4)))
        bundle = homogeneous_bundle(fn, (0.6, 0.4), n=4)
        memo = _RoundMemo(bundle)
        for r in range(5):
            assert memo.accepts(_PLAIN, SamplerConfig(P_STAR, r)) == ()
        assert memo._trees[_PLAIN][0] == [()] * 256
        for mode in (FLEXIBLE, FIXED, HOMOGENEOUS):
            cfg = SamplerConfig(P_STAR, 3)
            assert (bound_check(bundle, 2, mode, cfg, 50)
                    == _direct_bound_check(bundle, 2, mode, cfg, 50))


class _PrefixFailing:
    """A homogeneous oracle with ``prefix_values`` whose value on a set of
    ``bad`` items is NaN (never, for None)."""

    def __init__(self, bad):
        self.bad = bad

    def __call__(self, items):
        return math.nan if len(items) == self.bad else float(sum(items)) + 0.5

    def prefix_values(self, items):
        return [self(items[:m]) for m in range(1, len(items) + 1)]


class TestValue:
    """An F miss of the memo skips evaluate_F's checks, and scores as it
    does: the same float bits, oracle calls and failures."""

    BUNDLES = (families.modular_bundles()[3], _value_only(families.homogeneous_bundles()[5]),
               _heterogeneous(1), homogeneous_bundle(_PrefixFailing(None), (0.4, 0.3, 0.2), n=5))

    @pytest.mark.parametrize("bundle", BUNDLES, ids=("prefix", "value-only", "heterogeneous",
                                                     "prefix-values"))
    def test_equals_evaluate_F(self, bundle):
        ground, k = bundle.ground, bundle.k
        for items in ((), ground[-1:], ground[:k - 1], ground[:k], ground[::-1],
                      ground[1:] + ground[:1]):
            counter = bundle.counter
            before = counter.calls
            got = _RoundMemo(bundle).value(items)
            memo_calls, before = counter.calls - before, counter.calls
            want = evaluate_F(bundle, items)
            assert (got.hex(), memo_calls) == (want.hex(), counter.calls - before), items

    @pytest.mark.parametrize("bundle, position", (
        (homogeneous_bundle(lambda s: math.nan if len(s) == 2 else 1.0, (0.5, 0.3, 0.2), n=4), 2),
        (homogeneous_bundle(_PrefixFailing(3), (0.5, 0.3, 0.2), n=4), 3),
        (homogeneous_bundle(_PrefixFailing(0), (0.5, 0.3, 0.2), n=4), 1),
        (heterogeneous_bundle((len, len, lambda s: math.inf), (0.5, 0.3, 0.2), n=4), 3),
    ), ids=("value", "prefix", "empty", "heterogeneous"))
    def test_a_non_finite_oracle_fails_at_the_same_position(self, bundle, position):
        items = (2, 0, 3) if position > 1 else ()
        with pytest.raises(OracleEvaluationError) as want:
            evaluate_F(bundle, items)
        with pytest.raises(OracleEvaluationError) as got:
            _RoundMemo(bundle).value(items)
        assert got.value.position == want.value.position == position
        assert str(got.value) == str(want.value)
