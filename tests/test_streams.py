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
    SamplerConfig,
    SplitMix64,
    bound_check,
    derive_seed,
    round_seed,
    synthetic_covdiv_instance,
)
from seqsubmod.algorithms import (
    ALGORITHMS,
    GAMMA,
    _derived,
    _mix64,
    _stream,
    run_algorithm,
    stream_key,
)
from seqsubmod.harness import _round_configs


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
