"""The counter-based SplitMix64 streams every solver draws from.

``TestKnownAnswers`` pins exact integer draws; it needs nothing beyond the
package and pytest, so it can run on every platform the package claims to
reproduce on.  The statistical tests use acceptance 06's rule: a chi-square
p-value below 0.01 rejects.
"""

import itertools
import random

import numpy as np
import pytest
import scipy.stats

from seqsubmod import (
    FIXED,
    FLEXIBLE,
    HOMOGENEOUS,
    P_STAR,
    ExperimentSpec,
    SamplerConfig,
    SplitMix64,
    UserTypeDistribution,
    bound_check,
    comparative_experiment,
    derive_seed,
    round_seed,
    sampling_greedy,
    synthetic_covdiv_instance,
    synthetic_modular_instance,
)
from seqsubmod.algorithms import (
    ALGORITHMS,
    GAMMA,
    _child_configs,
    _derived,
    _draw_backup,
    _mix64,
    _stream,
    run_algorithm,
    stream_key,
)
from seqsubmod.harness import _round_configs

import families


def _draws(seed, tag, count=3):
    stream = SplitMix64(seed, tag)
    return [stream.next64() for _ in range(count)]


class TestKnownAnswers:
    def test_mixer_is_the_published_splitmix64(self):
        # SplitMix64 seeded with 0 (Steele, Lea & Flood 2014; the generator
        # that seeds xoshiro): its first outputs are fixed reference values.
        state, got = 0, []
        for _ in range(4):
            state = (state + GAMMA) % 2**64
            got.append(_mix64(state))
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                       0x06C45D188009454F, 0xF88BB8A8724C81EC]

    @pytest.mark.parametrize("seed, tag, key, draws", (
        (0, "coins", 0x7C3822581CB0BAE8,
         [0x01F180C45679542C, 0xE55445A507FB0E63, 0x750ABAB389693E75]),
        (-5, "backup", 0x32603F9CAE562BAD,
         [0x44271433CC4227AF, 0xD752C81CB272900A, 0x27C3FE35D1633C3C]),
        (2**64 + 5, "coins", 0x273D587A29E5EBF9,
         [0x300D56D3B0191759, 0x0E2369F516BFDD64, 0x49053B71FD590F5A]),
    ), ids=("0-coins", "minus5-backup", "2pow64plus5-coins"))
    def test_first_draws(self, seed, tag, key, draws):
        assert stream_key(seed, tag) == key
        assert _draws(seed, tag) == draws

    def test_round_and_half_indices(self):
        assert round_seed(0, 12) == derive_seed(0, "round", 12) == 0xAE15CE500A61829F
        assert round_seed(0, 123) == 0x2663D1B4700F7634
        assert derive_seed(7, "half", 0) == 0xA58FDB24C1CCB7D1
        assert derive_seed(7, "half", 1) == 0x83A4E87CC342F779

    def test_draw_t_is_the_mix_of_key_plus_t_plus_one_gammas(self):
        key = stream_key(31, "coins")
        want = [_mix64((key + (t + 1) * GAMMA) % 2**64) for t in range(5)]
        assert _draws(31, "coins", 5) == want
        assert [derive_seed(31, "coins", t) for t in range(5)] == want

    def test_block_draws_equal_scalar_draws(self):
        # Past the first few draws a stream computes in numpy blocks; the
        # integers must be the scalar formula's, and pinned here so that a
        # platform whose numpy wraps differently fails.
        for seed, tag in ((0, "coins"), (-5, "backup"), (2**64 - 1, "round")):
            key = stream_key(seed, tag)
            want = [_mix64((key + (t + 1) * GAMMA) % 2**64) for t in range(600)]
            assert _draws(seed, tag, 600) == want
        assert _draws(0, "coins", 600)[299] == 0x59944C565162A687

    @pytest.mark.parametrize("seed", (0, 5, -5, 2**64 - 1, 2**64 + 5))
    def test_batched_round_streams_equal_scalar_streams(self, seed):
        # bound_check and experiments key the streams of all their rounds in
        # numpy batches of 1024 rounds.  A round's seed, its two-block half
        # seeds and 300 draws of every stream a round reads (past the 8
        # prefetched draws and the first 256-draw block) must be the scalar
        # ones, and its config the plain one.
        cfgs = list(_round_configs(P_STAR, seed, 1030))
        for r in (0, 1, 299, 1023, 1024, 1029):
            cfg, plain = cfgs[r], SamplerConfig(P_STAR, round_seed(seed, r))
            assert (cfg, hash(cfg), repr(cfg)) == (plain, hash(plain), repr(plain))
            halves = [_derived(cfg, "half", i) for i in (0, 1)]
            for i, half in enumerate(halves):
                plain = SamplerConfig(P_STAR, derive_seed(cfg.seed, "half", i))
                assert (half, hash(half), repr(half)) == (plain, hash(plain), repr(plain))
            for batched in [cfg] + halves:
                for tag in ("coins", "backup"):
                    stream = _stream(batched, tag)
                    assert [stream.next64() for _ in range(300)] == _draws(batched.seed, tag, 300)

    @pytest.mark.parametrize("p", (P_STAR, 0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0 ** -53))
    def test_coins_are_the_top_53_bits_below_p(self, p):
        for seed in range(5):
            coins = SplitMix64(seed, "coins").coins(p)
            want = [int((x >> 11) * 2.0 ** -53 < p) for x in _draws(seed, "coins", 300)]
            assert [int(next(coins)) for _ in range(300)] == want


class TestBatchCoinCodes:
    """A batch row's coin code packs the row's first 8 coins, coin t as bit
    t; a bound-check round looks its greedy's leaf up by it.  Pure integer
    work, so it runs on every platform with ``TestKnownAnswers``."""

    @pytest.mark.parametrize("p", (0.0, 2.0 ** -53, P_STAR, 0.5, 1.0 - 2.0 ** -53, 1.0))
    @pytest.mark.parametrize("seed", (0, 5, -5, 2**64 - 1))
    def test_code_is_the_first_eight_coins(self, seed, p):
        # Every row of two round batches and of their half-seed batches.
        cfgs = list(_round_configs(p, seed, 1030))
        codes = []
        for batched in cfgs + [_derived(cfg, "half", i) for cfg in cfgs for i in (0, 1)]:
            batch, row = batched._row
            coins = SplitMix64(batched.seed, "coins").coins(p)
            codes.append(batch.coin_code(row, p))
            assert codes[-1] == sum(int(next(coins)) << t for t in range(8))
        if p in (0.0, 1.0):  # no coin is 1 at p = 0, every coin at p = 1
            assert set(codes) == {255 * int(p)}


class TestBatchBackupPicks:
    """A batch row draws its backup from the row's 8 prefetched "backup"
    draws and runs the stream only past them or after a rejected draw; the
    picks are the scalar stream's.  Pure integer work, so it runs on every
    platform with ``TestKnownAnswers``."""

    def test_known_picks(self):
        cfgs = list(_round_configs(P_STAR, 0, 3))
        assert cfgs[0].seed == 18140818033815919390
        assert _draw_backup(cfgs[0], list(range(12)), 8, None) == [6, 5, 8, 2, 9, 1, 0, 3]
        assert _draw_backup(cfgs[0], list(range(12)), 10, None) == [6, 5, 8, 2, 9, 1, 0, 3, 11, 10]
        half = _derived(cfgs[2], "half", 1)
        assert half.seed == 15393999356096481906
        assert _draw_backup(half, list(range(7)), 3, None) == [0, 6, 2]

    @pytest.mark.parametrize("seed", (0, 5, -5, 2**64 - 1))
    def test_picks_equal_the_scalar_stream(self, seed):
        # Rows of a round batch and of its half-seed batches; every pool
        # size 1..12 and every m 0..10, past the 8 prefetched draws too.
        cfgs = list(_round_configs(P_STAR, seed, 6))
        for batched in cfgs + [_derived(cfg, "half", i) for cfg in cfgs for i in (0, 1)]:
            for size in range(1, 13):
                pool = list(range(100, 100 + 3 * size, 3))
                for m in range(0, 11):
                    if m > size:
                        with pytest.raises(ValueError, match=f"cannot draw {m} of {size}"):
                            _draw_backup(batched, pool, m, None)
                        continue
                    want = SplitMix64(batched.seed, "backup").sample(pool, m)
                    assert _draw_backup(batched, pool, m, None) == want, (size, m)

    @pytest.mark.parametrize("m, want", ((1, [11]), (2, [11, 9]), (3, [11, 9, 4])))
    def test_a_rejected_draw_falls_back_to_the_stream(self, m, want):
        # 2^64 - 1 is the one draw that a pool of 3 rejects (2^64 % 3 == 1),
        # so the first pick reads draw 1, as ``below`` redraws: the scalar
        # stream past its draw 0.  Kept, 2^64 - 1 would pick item 4 first.
        cfg = next(_round_configs(P_STAR, 3, 1))
        batch, row = cfg._row
        first = batch._column("backup")[1][row]
        assert first[0] < 2**64 - 1
        first[0] = 2**64 - 1
        stream = SplitMix64(cfg.seed, "backup")
        stream.next64()
        assert _draw_backup(cfg, [4, 9, 11], m, None) == stream.sample([4, 9, 11], m) == want


class TestSeedMapping:
    """How an integer seed becomes a stream key (see ``stream_key``)."""

    def test_out_of_word_seeds_are_keyed_apart(self):
        seeds = (5, -5, 2**64 + 5, 2**64 - 5, 2 * 2**64 + 5, -(2**64) - 5, 0, -1, 2**64 - 1)
        keys = [stream_key(s, "coins") for s in seeds]
        assert len(set(keys)) == len(seeds)

    def test_every_word_of_a_large_seed_counts(self):
        base = 3 * 2**128 + 7 * 2**64 + 11
        keys = {stream_key(base + delta, "backup")
                for delta in (0, 1, 2**64, 2**128, 2**192)}
        assert len(keys) == 5

    def test_one_word_seeds_are_distinct_per_tag(self):
        # _mix64 is a bijection, so one-word seeds cannot collide; a sample
        # of them, both ends of the word included, must not either.
        seeds = list(range(5000)) + [2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]
        for tag in ("coins", "backup", "round", "half"):
            assert len({stream_key(s, tag) for s in seeds}) == len(seeds)

    def test_tags_name_different_streams(self):
        tags = ("coins", "backup", "round", "half", "", "coins\x00")
        assert len({stream_key(9, tag) for tag in tags}) == len(tags)

    def test_seed_is_taken_whole_not_from_its_text(self):
        # A prototype that hashed truncated "round-<i>" text made round 12
        # and round 123 collide; indices are integers now.
        assert round_seed(0, 12) != round_seed(0, 123)
        assert derive_seed(1, "round", 23) != derive_seed(12, "round", 3)


class TestNumpySeeds:
    """A numpy integer seed is the equal Python int; a non-integer seed is
    refused where it is given."""

    SEEDS = ((np.int64(5), 5), (np.uint64(2**64 - 1), 2**64 - 1), (np.int32(-5), -5))

    @pytest.mark.parametrize("np_seed, seed", SEEDS, ids=("int64", "uint64", "int32"))
    def test_streams_and_configs(self, np_seed, seed):
        cfg, plain = SamplerConfig(0.5, np_seed), SamplerConfig(0.5, seed)
        assert type(cfg.seed) is int
        assert (cfg, hash(cfg), repr(cfg)) == (plain, hash(plain), repr(plain))
        assert derive_seed(np_seed, "round", np.int64(4)) == derive_seed(seed, "round", 4)
        assert _draws(np_seed, "coins") == _draws(seed, "coins")

    def test_solvers_and_checks(self):
        bundle = families.modular_bundles()[3]
        for np_seed, seed in self.SEEDS:
            got = sampling_greedy(bundle, bundle.k, SamplerConfig(0.5, np_seed))
            assert got == sampling_greedy(bundle, bundle.k, SamplerConfig(0.5, seed))
            for mode in (FLEXIBLE, FIXED):
                assert (bound_check(bundle, bundle.k, mode, SamplerConfig(P_STAR, np_seed), 50)
                        == bound_check(bundle, bundle.k, mode, SamplerConfig(P_STAR, seed), 50))

    def test_experiment(self):
        inst = synthetic_modular_instance(6, seed=5)

        def run(base_seed):
            spec = ExperimentSpec(inst.oracle(), inst.ratings, 6, 3, ("sg", "fixed", "homog"),
                                  (UserTypeDistribution.uniform(3),), rounds=20,
                                  base_seed=base_seed)
            assert type(spec.base_seed) is int
            return comparative_experiment(spec)

        assert run(np.int64(4)) == run(4)

    @pytest.mark.parametrize("bad", (4.0, "4", None), ids=("float", "str", "none"))
    def test_non_integer_seeds_are_refused(self, bad):
        with pytest.raises(TypeError, match=f"seed {bad!r} is not an integer"):
            SamplerConfig(0.5, bad)
        inst = synthetic_modular_instance(6, seed=5)
        with pytest.raises(TypeError, match=f"seed {bad!r} is not an integer"):
            ExperimentSpec(inst.oracle(), inst.ratings, 6, 3, ("sg",),
                           (UserTypeDistribution.uniform(3),), base_seed=bad)
        with pytest.raises(TypeError, match=f"seed {bad!r} is not an integer"):
            derive_seed(bad, "round", 0)


class TestBatchConfigs:
    """Batch rows fill their configs without SamplerConfig's checks, which
    ``_child_configs`` runs once, before its first config."""

    @pytest.mark.parametrize("p", (0.0, P_STAR, 0.5, 1.0))
    def test_configs_equal_plain_ones(self, p):
        for r, cfg in enumerate(_round_configs(p, 3, 5)):
            plain = SamplerConfig(p, round_seed(3, r))
            assert (cfg, hash(cfg), repr(cfg)) == (plain, hash(plain), repr(plain))
            assert type(cfg.seed) is int and cfg.p is p
            for i in (0, 1):
                half, plain = _derived(cfg, "half", i), SamplerConfig(p, derive_seed(cfg.seed, "half", i))
                assert (half, hash(half), repr(half)) == (plain, hash(plain), repr(plain))

    @pytest.mark.parametrize("p", (1.5, -0.1, float("nan")), ids=("1.5", "negative", "nan"))
    def test_a_bad_p_raises_before_the_first_config(self, p):
        configs = _child_configs(p, 0, "round", 5)
        with pytest.raises(ValueError, match="outside"):
            next(configs)
        with pytest.raises(ValueError, match="outside"):
            list(_round_configs(p, 0, 5))


class TestStatistics:
    def test_round_seeds_are_pairwise_distinct(self):
        for base in (0, -3, 2**64 + 1):
            assert len({round_seed(base, i) for i in range(100_000)}) == 100_000

    def test_coin_pairs_at_p_star(self):
        # The first two coins of 20k consecutive seeds: rate p* and no
        # dependence between a stream's successive draws.
        counts = {pair: 0 for pair in itertools.product((0, 1), repeat=2)}
        for seed in range(20_000):
            coins = SplitMix64(seed, "coins").coins(P_STAR)
            counts[int(next(coins)), int(next(coins))] += 1
        prob = {0: 1.0 - P_STAR, 1: P_STAR}
        expected = [20_000 * prob[a] * prob[b] for a, b in counts]
        assert scipy.stats.chisquare(list(counts.values()), expected).pvalue >= 0.01

    def test_backup_draws_are_uniform_ordered_subsets(self):
        pool = [3, 5, 8, 13, 21]
        counts = dict.fromkeys(itertools.permutations(pool, 2), 0)
        for seed in range(20_000):
            counts[tuple(SplitMix64(seed, "backup").sample(pool, 2))] += 1
        assert scipy.stats.chisquare(list(counts.values())).pvalue >= 0.01

    def test_bounded_integers_are_uniform(self):
        stream = SplitMix64(4, "backup")
        for n in (3, 7):
            counts = np.bincount([stream.below(n) for _ in range(14_000)], minlength=n)
            assert len(counts) == n
            assert scipy.stats.chisquare(counts).pvalue >= 0.01

    def test_sample_edges(self):
        stream = SplitMix64(0, "backup")
        assert stream.sample([4, 2], 0) == []
        assert sorted(stream.sample([4, 2, 9], 3)) == [2, 4, 9]
        with pytest.raises(ValueError):
            stream.sample([1, 2], 3)


class TestGlobalRngUntouched:
    """Solver randomness never reads or writes the global ``random`` and
    ``np.random`` states."""

    @pytest.fixture
    def bundle(self):
        inst = synthetic_covdiv_instance(6, d=4, seed=3, density=0.5, eta=1.0)
        return inst, (0.5, 0.3, 0.2, 0.1)

    @staticmethod
    def _states():
        np_state = np.random.get_state()
        return random.getstate(), np_state[0], np_state[1].copy(), np_state[2:]

    def _assert_unchanged(self, before):
        after = self._states()
        assert after[0] == before[0] and after[1] == before[1]
        assert np.array_equal(after[2], before[2]) and after[3] == before[3]

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_algorithm(self, bundle, name):
        inst, lams = bundle
        before = self._states()
        for constraint in (FLEXIBLE, FIXED):
            for seed in range(3):
                run_algorithm(name, inst.bundle(lams), len(lams), SamplerConfig(P_STAR, seed),
                              constraint, inst.ratings)
        self._assert_unchanged(before)

    @pytest.mark.parametrize("mode", (FLEXIBLE, FIXED, HOMOGENEOUS))
    def test_bound_check(self, bundle, mode):
        inst, lams = bundle
        before = self._states()
        bound_check(inst.bundle(lams), len(lams), mode, SamplerConfig(P_STAR, 1), rounds=20)
        self._assert_unchanged(before)
