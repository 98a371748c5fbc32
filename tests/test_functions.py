import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsubmod import (
    ComplementFn,
    CoverageDiversityFn,
    CoverageFn,
    ModularPenaltyFn,
    auto_scale,
    similarity_from_tags,
    submodularity_probe,
    synthetic_covdiv_instance,
    synthetic_modular_instance,
    tiny_instance,
)

from oracles import first_penalty_fault, ix_covdiv_value, similarity_rows
from seqsubmod.functions import _BLOCK_ROWS

NON_FINITE = (math.nan, math.inf, -math.inf)


class TestModularPenalty:
    def test_demo_values(self, tiny_fn):
        table = {
            (): 0.0, (0,): 3.0, (1,): 2.0, (2,): 2.0,
            (0, 1): 3.0, (0, 2): 5.0, (1, 2): 1.0, (0, 1, 2): 2.0,
        }
        for items, want in table.items():
            assert tiny_fn(frozenset(items)) == pytest.approx(want)

    def test_non_monotone(self, tiny_fn):
        assert tiny_fn({1, 2}) < tiny_fn({1})

    def test_marginal_matches_difference(self, tiny_fn):
        for base in [(), (0,), (1,), (0, 2), (1, 2)]:
            for i in range(3):
                if i in base:
                    continue
                want = tiny_fn(set(base) | {i}) - tiny_fn(set(base))
                assert tiny_fn.marginal(i, set(base)) == pytest.approx(want)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModularPenaltyFn((1.0,), ((1.0,),))  # nonzero diagonal
        with pytest.raises(ValueError):
            ModularPenaltyFn((1.0, 1.0), ((0.0, 1.0), (2.0, 0.0)))  # asymmetric
        with pytest.raises(ValueError):
            ModularPenaltyFn((1.0, 1.0), ((0.0, -1.0), (-1.0, 0.0)))  # negative

    def test_iterable_rows(self):
        """A generator of generators is read like the nested lists."""
        pens = [[0.0, 1.0, 2.0], [1.0, 0.0, 0.5], [2.0, 0.5, 0.0]]
        fn = ModularPenaltyFn(iter((3.0, 2.0, 2.0)), ((x for x in row) for row in pens))
        assert fn.penalties == pens and fn.rewards == [3.0, 2.0, 2.0]
        with pytest.raises(ValueError, match="penalty matrix must be 3x3"):
            ModularPenaltyFn((1.0,) * 3, (iter(row[:2]) for row in pens))
        with pytest.raises(ValueError, match="asymmetric at \\(0,2\\)"):
            ModularPenaltyFn((1.0,) * 3, (iter(row[:2] + [9.0]) for row in pens))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ModularPenaltyFn((bad, 1.0), ((0.0, 1.0), (1.0, 0.0)))
        with pytest.raises(ValueError, match="finite"):
            ModularPenaltyFn((1.0, 1.0), ((0.0, bad), (bad, 0.0)))

    @pytest.mark.parametrize("pens, message", (
        ([[0.0, 1.0], [1.0]], "penalty matrix must be 2x2"),
        ([[0.0, math.nan], [1.0, 5.0]], "penalties must be finite"),
        ([[1.0, -1.0], [2.0, 0.0]], "penalty diagonal must be zero"),
        ([[0.0, 2.0], [-2.0, 0.0]], "penalty matrix asymmetric at (0,1)"),
        ([[0.0, -1.0, 3.0], [-1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], "penalties must be nonnegative"),
        ([[0.0, 0.0, 3.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0]], "penalty matrix asymmetric at (0,2)"),
    ))
    def test_first_fault_message(self, pens, message):
        with pytest.raises(ValueError) as err:
            ModularPenaltyFn([1.0] * len(pens), pens)
        assert str(err.value) == message

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_first_fault_matches_row_loop(self, data):
        """Symmetric matrices with up to three faulty entries (or mirrored
        pairs): the error raised is the one the row-by-row loop meets first,
        and a clean matrix is kept as the same floats."""
        n = data.draw(st.integers(1, 6))
        pens = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                pens[i][j] = pens[j][i] = data.draw(st.sampled_from((0.0, 1.0, 2.0)))
        for _ in range(data.draw(st.integers(0, 3))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            pens[i][j] = data.draw(st.sampled_from((-1.0, -0.0, 0.0, 3.0)))
            if data.draw(st.booleans()):
                pens[j][i] = pens[i][j]
        want = first_penalty_fault(pens)
        if want is None:
            assert ModularPenaltyFn([1.0] * len(pens), pens).penalties == pens
        else:
            with pytest.raises(ValueError) as err:
                ModularPenaltyFn([1.0] * len(pens), pens)
            assert str(err.value) == want


@st.composite
def modular_accepts(draw):
    """A modular-penalty oracle, a ground set V (a subset of its ids when
    ``sparse``) and an accept order drawn from V."""
    n = draw(st.integers(2, 12))
    rewards = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    pens = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pens[i][j] = pens[j][i] = draw(st.floats(0.0, 3.0))
    ground = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    order = draw(st.permutations(ground))
    return ModularPenaltyFn(rewards, pens), ground, order[:draw(st.integers(0, len(ground)))]


def _running_states(fn, ground, order):
    """(S, forward state, complement state) after each accept of ``order``,
    starting from the empty set."""
    forward, complement = fn.running_gains(), fn.complement_gains(ground)
    members = set()
    yield members, forward, complement
    for item in order:
        forward.add(item)
        complement.add(item)
        members.add(item)
        yield members, forward, complement


class TestModularRunningGains:
    """The running-gain states agree with ``marginal`` and
    ``ComplementFn.marginal`` up to summation order."""

    @given(modular_accepts())
    @settings(max_examples=150, deadline=None)
    def test_states_match_marginals(self, case):
        fn, ground, order = case
        comp = ComplementFn(fn, ground)
        for members, forward, complement in _running_states(fn, ground, order):
            for i in ground:
                if i in members:
                    continue
                # Both sides sum the same terms in another order; 1e-12 of
                # the terms' magnitude is far above that rounding.
                row = fn.penalties[i]
                scale = fn.rewards[i] + sum(row[s] for s in members)
                assert forward.gains[i] == pytest.approx(fn.marginal(i, members),
                                                         rel=0.0, abs=1e-12 * (1.0 + scale))
                scale += sum(row[j] for j in ground)
                assert complement.gains[i] == pytest.approx(comp.marginal(i, members),
                                                            rel=0.0, abs=1e-12 * (1.0 + scale))

    def test_exact_on_the_demo_instance(self, tiny_fn):
        for ground in ((0, 1, 2), (0, 2), (1,)):
            comp = ComplementFn(tiny_fn, ground)
            for size in range(len(ground) + 1):
                for order in itertools.permutations(ground, size):
                    states = list(_running_states(tiny_fn, ground, order))
                    members, forward, complement = states[-1]
                    for i in set(ground) - members:
                        assert forward.gains[i] == tiny_fn.marginal(i, members)
                        assert complement.gains[i] == comp.marginal(i, members)

    def test_complement_start_follows_the_ground_set(self, tiny_fn):
        # The start vector is the row sums over the ground set asked for, so
        # calls with other ground sets in between do not change it.
        assert tiny_fn.complement_gains((0, 1, 2)).gains == [-1.0, 3.0, 1.0]
        assert tiny_fn.complement_gains((0, 2)).gains == [-3.0, 3.0, -2.0]
        assert tiny_fn.complement_gains((0, 1, 2)).gains == [-1.0, 3.0, 1.0]

    def test_states_are_independent(self, tiny_fn):
        first, second = tiny_fn.complement_gains(range(3)), tiny_fn.complement_gains(range(3))
        first.add(1)
        assert second.gains == [-1.0, 3.0, 1.0]
        assert tiny_fn.complement_gains(range(3)).gains == [-1.0, 3.0, 1.0]


class TestModularPrefixValues:
    """prefix_values must reproduce the value of every prefix to the last bit."""

    @staticmethod
    def _check(fn, seq):
        got = fn.prefix_values(seq)
        assert got == [fn(frozenset(seq[:j])) for j in range(1, len(seq) + 1)]

    def test_random_sequences(self):
        fn = synthetic_modular_instance(120, seed=8).oracle()
        rng = np.random.default_rng(77)
        for _ in range(40):
            m = int(rng.integers(1, 60))
            self._check(fn, tuple(rng.choice(fn.n, m, replace=False).tolist()))

    def test_length_one_and_full_ground(self):
        fn = synthetic_modular_instance(40, seed=9).oracle()
        for i in (0, 17, 39):
            self._check(fn, (i,))
        self._check(fn, tuple(np.random.default_rng(1).permutation(fn.n).tolist()))
        self._check(fn, tuple(range(fn.n)))
        self._check(fn, tuple(reversed(range(fn.n))))

    def test_sparse_ids(self):
        fn = synthetic_modular_instance(150, seed=10).oracle()
        ids = np.arange(2, 150, 3)
        self._check(fn, tuple(np.random.default_rng(2).permutation(ids).tolist()))

    def test_demo_instance(self, tiny_fn):
        for seq in itertools.permutations(range(3)):
            self._check(tiny_fn, seq)
        assert tiny_fn.prefix_values((2, 1, 0)) == [2.0, 1.0, 2.0]


class TestCoverageDiversity:
    @pytest.fixture
    def two_item(self):
        return CoverageDiversityFn(
            ratings=(1.0, 1.0),
            similarity=((0.0, 0.5), (0.5, 0.0)),
            alpha=1.0, beta=1.0, eta=1.0)

    def test_empty(self, two_item):
        assert two_item(frozenset()) == 0.0

    def test_singleton(self, two_item):
        assert two_item({0}) == pytest.approx(1.5)

    def test_pair_with_diminishing_return(self, two_item):
        assert two_item({0, 1}) == pytest.approx(2.0)
        # second item adds 0.5, less than the 1.5 it adds alone
        assert two_item({0, 1}) - two_item({0}) == pytest.approx(0.5)

    def test_marginal_matches_difference(self):
        rng = np.random.default_rng(42)
        n = 8
        sim = rng.uniform(0.0, 1.0, (n, n))
        sim = (sim + sim.T) / 2.0
        fn = CoverageDiversityFn(rng.uniform(0.0, 5.0, n), sim, 1.0, 0.7, 2.0)
        for _ in range(50):
            size = int(rng.integers(0, n))
            members = set(int(x) for x in rng.permutation(n)[:size])
            outside = [i for i in range(n) if i not in members]
            item = int(outside[rng.integers(0, len(outside))])
            want = fn(members | {item}) - fn(members)
            assert fn.marginal(item, members) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_incremental_state_matches_closed_form(self):
        rng = np.random.default_rng(7)
        n = 12
        sim = rng.uniform(0.0, 1.0, (n, n))
        sim = (sim + sim.T) / 2.0
        fn = CoverageDiversityFn(rng.uniform(0.0, 5.0, n), sim, 1.0, 0.4, 3.0)
        state = fn.incremental()
        members: list[int] = []
        order = [3, 7, 0, 10, 5]
        for nxt in order:
            gains = state.gains()
            for i in range(n):
                if i in members:
                    continue
                want = fn(set(members) | {i}) - fn(set(members))
                assert math.isclose(gains[i], want, rel_tol=1e-9, abs_tol=1e-9)
            state.add(nxt)
            members.append(nxt)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoverageDiversityFn((1.0,), ((0.0,),), 1.0, 1.0, 0.5)  # eta < 1
        with pytest.raises(ValueError):
            CoverageDiversityFn((1.0, 1.0), ((0.0, 0.3), (0.2, 0.0)), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            CoverageDiversityFn((-1.0,), ((0.0,),), 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite(self, bad):
        sim = ((0.0, 0.5), (0.5, 0.0))
        with pytest.raises(ValueError, match="finite"):
            CoverageDiversityFn((bad, 1.0), sim, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            CoverageDiversityFn((1.0, 1.0), ((0.0, bad), (bad, 0.0)), 1.0, 1.0, 1.0)
        for alpha, beta, eta in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ValueError):
                CoverageDiversityFn((1.0, 1.0), sim, alpha, beta, eta)

    def test_value_bit_identical_to_ix_reference(self):
        fn = synthetic_covdiv_instance(120, d=10, seed=13).oracle()
        rng = np.random.default_rng(2024)
        sets = [frozenset()] + [frozenset({i}) for i in range(fn.n)]
        for _ in range(500):
            size = int(rng.integers(2, fn.n + 1))
            sets.append(frozenset(rng.choice(fn.n, size, replace=False).tolist()))
        for items in sets:
            assert fn(items) == ix_covdiv_value(fn, items)
            assert fn.diversity_value(items) == ix_covdiv_value(fn, items, diversity_only=True)

    def test_value_accepts_any_id_collection(self):
        fn = synthetic_covdiv_instance(30, d=6, seed=4).oracle()
        items = [17, 3, 29, 8]
        want = ix_covdiv_value(fn, items)
        for form in (items, tuple(items), set(items), frozenset(items),
                     [np.int64(i) for i in items], np.array(items), iter(items)):
            assert fn(form) == want
        for empty in ([], set(), frozenset(), ()):
            assert fn(empty) == 0.0
            assert fn.diversity_value(empty) == 0.0


class TestPrefixValues:
    """prefix_values must reproduce the value of every prefix to the last bit."""

    @staticmethod
    def _check(fn, seq):
        got = fn.prefix_values(seq)
        assert got == [fn(frozenset(seq[:j])) for j in range(1, len(seq) + 1)]
        assert got == [ix_covdiv_value(fn, seq[:j]) for j in range(1, len(seq) + 1)]

    def test_random_sequences(self):
        fn = synthetic_covdiv_instance(200, d=12, seed=8).oracle()
        rng = np.random.default_rng(77)
        for _ in range(60):
            m = int(rng.integers(1, 80))
            self._check(fn, tuple(rng.choice(fn.n, m, replace=False).tolist()))

    def test_length_one_and_full_ground(self):
        fn = synthetic_covdiv_instance(40, d=6, seed=9).oracle()
        for i in (0, 17, 39):
            self._check(fn, (i,))
        perm = tuple(np.random.default_rng(1).permutation(fn.n).tolist())
        self._check(fn, perm)
        self._check(fn, tuple(range(fn.n)))
        self._check(fn, tuple(reversed(range(fn.n))))

    def test_sparse_ids(self):
        # Ground sets that are not 0..n-1: every third id, in scrambled order.
        fn = synthetic_covdiv_instance(150, d=10, seed=10).oracle()
        ids = np.arange(2, 150, 3)
        self._check(fn, tuple(np.random.default_rng(2).permutation(ids).tolist()))

    def test_repeated_similarity_entries(self):
        # Three tag groups and integer ratings: many equal entries and ties.
        n = 36
        tags = np.zeros((n, 3))
        tags[np.arange(n), np.arange(n) % 3] = 0.5
        fn = CoverageDiversityFn([float(i % 4) for i in range(n)], similarity_from_tags(tags),
                                 1.0, 0.25, 2.0)
        self._check(fn, tuple(np.random.default_rng(3).permutation(n).tolist()))


class TestSimilarityFromTags:
    def test_identical_rows(self):
        t = np.array([[0.3, 0.4], [0.3, 0.4]])
        sim = similarity_from_tags(t)
        assert sim[0, 1] == pytest.approx(0.5)
        assert sim[0, 0] == pytest.approx(0.5)

    def test_disjoint_support(self):
        sim = similarity_from_tags([[0.9, 0.0], [0.0, 0.9]])
        assert sim[0, 1] == 0.0

    def test_mixed_rows(self):
        sim = similarity_from_tags([[0.6, 0.2], [0.3, 0.8]])
        assert sim[0, 1] == pytest.approx(math.sqrt(0.13))

    def test_symmetric_and_bounds(self):
        rng = np.random.default_rng(3)
        tags = rng.uniform(0.0, 1.0, (9, 5))
        sim = similarity_from_tags(tags)
        assert np.array_equal(sim, sim.T)
        assert np.all(sim >= 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            similarity_from_tags(np.empty((0, 3)))
        with pytest.raises(ValueError):
            similarity_from_tags([[0.5, 1.2]])


class TestSimilarityKnownAnswer:
    """Covdiv files store tags, and every reader rebuilds W from them, so W's
    bits must be the same on every platform.  The dense tags give each entry
    25 nonzero squares; summing them left to right instead of in the 8-lane
    pairwise order that ``similarity_from_tags`` writes out changes 1394 of
    the 4096 entries, so this digest pins that lane order."""

    def test_digest(self):
        tags = np.random.default_rng(64).uniform(0.0, 1.0, (64, 25))
        assert hashlib.sha256(tags.tobytes()).hexdigest() == (
            "83ec6facff9fdd106878511d00e2a7597989708defa51ccc69a83dda2b1acb21")
        sim = similarity_from_tags(tags)
        assert hashlib.sha256(sim.tobytes()).hexdigest() == (
            "26a02e6c6fdfe2057029df4a45962ec699d3501b6c4f00ebe3ed0474a571ebc4")


def _lane_tags(kind, n, d, seed=0):
    """n x d tags of one kind: all 0, all 1, 30%-dense uniform, or uniform
    scaled down until every square is subnormal or zero."""
    if kind == "zero":
        return np.zeros((n, d))
    if kind == "one":
        return np.ones((n, d))
    tags = np.random.default_rng([seed, n, d]).uniform(0.0, 1.0, (n, d))
    if kind == "subnormal":
        return tags * 1e-158
    return tags * (np.random.default_rng([seed, d, n]).uniform(size=(n, d)) < 0.3)


class TestSimilarityLanes:
    """``similarity_from_tags`` sums each entry's d squared minima in row
    blocks, lane by lane, in the order of numpy's pairwise row reduction.  Its
    bits must equal those of the per-row reference loop at every d that
    switches branch (below 8 terms, 8 lanes up to 128, a split above), at n
    around the block size, and on tags whose squares are zero, one or
    subnormal."""

    @pytest.mark.parametrize("d", (1, 7, 8, 9, 24, 25, 128, 129, 300))
    @pytest.mark.parametrize("n", (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1))
    @pytest.mark.parametrize("kind", ("sparse", "zero", "one", "subnormal"))
    def test_bits_equal_row_loop(self, kind, n, d):
        tags = _lane_tags(kind, n, d)
        assert similarity_from_tags(tags).tobytes() == similarity_rows(tags).tobytes()

    @pytest.mark.parametrize("d", (1, 7, 8, 9, 24, 25, 128, 129, 300))
    def test_bits_equal_row_loop_at_catalog_size(self, d):
        tags = _lane_tags("sparse", 700, d)
        assert similarity_from_tags(tags).tobytes() == similarity_rows(tags).tobytes()

    @given(st.integers(1, 2 * _BLOCK_ROWS + 3), st.integers(1, 140),
           st.sampled_from(("sparse", "zero", "one", "subnormal")), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bits_equal_row_loop_on_random_shapes(self, n, d, kind, seed):
        tags = _lane_tags(kind, n, d, seed)
        assert similarity_from_tags(tags).tobytes() == similarity_rows(tags).tobytes()


class TestComplement:
    def test_empty_gives_full_value(self, tiny_fn):
        comp = ComplementFn(tiny_fn, range(3))
        assert comp(frozenset()) == pytest.approx(tiny_fn({0, 1, 2}))

    def test_full_gives_empty_value(self, tiny_fn):
        comp = ComplementFn(tiny_fn, range(3))
        assert comp({0, 1, 2}) == pytest.approx(tiny_fn(set()))

    def test_demo_single(self, tiny_fn):
        comp = ComplementFn(tiny_fn, range(3))
        assert comp({1}) == pytest.approx(5.0)

    def test_involution_exhaustive(self):
        rng = np.random.default_rng(11)
        n = 8
        pens = rng.uniform(0.0, 2.0, (n, n))
        pens = (pens + pens.T) / 2.0
        np.fill_diagonal(pens, 0.0)
        fn = ModularPenaltyFn(rng.uniform(0.0, 6.0, n), pens.tolist())
        double = ComplementFn(ComplementFn(fn, range(n)), range(n))
        for mask in range(2 ** n):
            subset = frozenset(i for i in range(n) if mask >> i & 1)
            assert double(subset) == pytest.approx(fn(subset), abs=1e-12)

    def test_marginal_fast_path(self, tiny_fn):
        comp = ComplementFn(tiny_fn, range(3))
        for base in [(), (0,), (2,), (0, 1)]:
            for i in range(3):
                if i in base:
                    continue
                want = comp(set(base) | {i}) - comp(set(base))
                assert comp.marginal(i, set(base)) == pytest.approx(want)

    def test_marginal_generic_base(self):
        comp = ComplementFn(lambda s: float(len(s)) ** 1.5, range(5))
        want = comp({1, 2}) - comp({1})
        assert comp.marginal(2, {1}) == pytest.approx(want)

    def test_rejects_items_outside_ground(self, tiny_fn):
        comp = ComplementFn(tiny_fn, range(3))
        with pytest.raises(ValueError):
            comp({5})


class TestCoverageFn:
    def test_sums_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16; a compensated sum would give 1e16 + 2.
        fn = CoverageFn([(0, 1, 2), (1, 2)], (1e16, 1.0, 1.0))
        assert fn({0}) == 1e16
        assert fn.marginal(0, ()) == 1e16

    def test_union_semantics(self):
        fn = CoverageFn([(0, 1), (1, 2), ()], (1.0, 2.0, 4.0))
        assert fn({0}) == pytest.approx(3.0)
        assert fn({0, 1}) == pytest.approx(7.0)
        assert fn({2}) == 0.0
        assert fn.marginal(1, {0}) == pytest.approx(4.0)

    def test_monotone(self):
        fn = CoverageFn([(0,), (0, 1)], (1.0, 5.0))
        assert fn({0, 1}) >= fn({0}) >= fn(set())

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CoverageFn([(0,), (1,)], (1.0, bad))


class TestAutoScale:
    def test_balances_totals(self):
        alpha, beta = auto_scale((2.0, 3.0), ((1.0, 2.0), (2.0, 5.0)))
        assert alpha == 1.0
        assert beta == pytest.approx(5.0 / 10.0)

    def test_small_similarity_clamps_denominator(self):
        _, beta = auto_scale((2.0,), ((0.25,),))
        assert beta == pytest.approx(2.0)


class TestSubmodularityProbe:
    def test_modular_penalty_passes(self, tiny_fn):
        report = submodularity_probe(tiny_fn, 3, trials=2000, seed=5)
        assert report.passed and report.trials == 2000

    def test_coverage_diversity_passes(self):
        rng = np.random.default_rng(9)
        tags = np.where(rng.random((10, 6)) < 0.4, rng.uniform(0, 1, (10, 6)), 0.0)
        fn = CoverageDiversityFn(rng.uniform(0, 5, 10), similarity_from_tags(tags),
                                 1.0, 0.5, 35.0)
        assert submodularity_probe(fn, 10, trials=2000, seed=6).passed

    def test_complement_passes(self, tiny_fn):
        comp = ComplementFn(tiny_fn, range(3))
        assert submodularity_probe(comp, 3, trials=2000, seed=7).passed

    def test_detects_supermodular(self):
        report = submodularity_probe(lambda s: float(len(s)) ** 2, 6,
                                     trials=2000, seed=8)
        assert not report.passed
        v = report.violations[0]
        assert set(v.lower) <= set(v.upper)
        assert v.lower_gain < v.upper_gain

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_deterministic_given_seed(self, seed):
        fn = tiny_instance()
        a = submodularity_probe(fn, 3, trials=50, seed=seed)
        b = submodularity_probe(fn, 3, trials=50, seed=seed)
        assert a == b
