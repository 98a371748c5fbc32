import copy
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from seqsubmod import (
    FIXED,
    FLEXIBLE,
    HOMOGENEOUS,
    CellStats,
    CoverageFn,
    ExperimentSpec,
    P_STAR,
    SamplerConfig,
    UserTypeDistribution,
    alg2_second_half,
    baseline_quality,
    bound_check,
    bound_factor,
    brute_force,
    comparative_experiment,
    evaluate_F,
    fixed_length_solve,
    homogeneous_bundle,
    homogeneous_first_half,
    homogeneous_solve,
    make_weights,
    round_seed,
    sampling_greedy,
    sampling_greedy_j,
    write_instance,
)
from seqsubmod.algorithms import run_algorithm
from seqsubmod.cli import main
from seqsubmod.files import synthetic_covdiv_instance, synthetic_modular_instance
from seqsubmod.functions import tiny_instance
from seqsubmod.harness import EXPERIMENT_ALGORITHMS

from oracles import exact_expectation


class TestDistributions:
    def test_uniform(self):
        profile = make_weights(UserTypeDistribution.uniform(4))
        assert profile.lambdas == (0.25,) * 4

    def test_normal_bell_ratios(self):
        profile = make_weights(UserTypeDistribution.normal(3, mu=2.0, sigma=1.0))
        lam = profile.lambdas
        assert sum(lam) == pytest.approx(1.0)
        assert lam[0] == pytest.approx(lam[2])
        assert lam[0] / lam[1] == pytest.approx(math.exp(-0.5))

    def test_normal_tight_sigma_concentrates(self):
        profile = make_weights(UserTypeDistribution.normal(3, mu=2.0, sigma=1e-3))
        assert profile.lambdas[1] == pytest.approx(1.0)
        assert profile.lambdas[0] == pytest.approx(0.0, abs=1e-12)

    def test_explicit_passthrough(self):
        profile = make_weights(UserTypeDistribution.explicit((0.2, 0.0, 1.5)))
        assert profile.lambdas == (0.2, 0.0, 1.5)

    def test_normal_total_adds_left_to_right(self):
        raw = [math.exp(-((j - 10.0) ** 2) / (2.0 * 5.0 ** 2)) for j in range(1, 51)]
        total = 0.0
        for w in raw:
            total += w
        got = make_weights(UserTypeDistribution.normal(50, 10.0, 5.0)).lambdas
        assert got == tuple(w / total for w in raw)

    def test_labels(self):
        assert UserTypeDistribution.uniform(3).label == "UNIFORM"
        assert UserTypeDistribution.normal(3, 2.0, 1.0).label == "M-2"
        assert UserTypeDistribution.explicit((1.0,)).label == "EXPLICIT"

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            make_weights(UserTypeDistribution.normal(3, mu=2.0, sigma=0.0))

    @pytest.mark.parametrize("mu, sigma", ((1.0, 5e-324), (1.0, 1e200), (1e200, 1.0)),
                             ids=("sigma-squared-underflows", "sigma-squared-overflows",
                                  "distance-squared-overflows"))
    def test_finite_but_out_of_range(self, mu, sigma):
        with pytest.raises(ValueError, match="outside the float range"):
            make_weights(UserTypeDistribution.normal(3, mu, sigma))

    def test_no_mass_anywhere(self):
        with pytest.raises(ValueError):
            make_weights(UserTypeDistribution.normal(3, mu=900.0, sigma=1.0))


class TestRoundSeeds:
    def test_distinct_across_rounds_and_bases(self):
        seeds = {round_seed(b, r) for b in range(3) for r in range(200)}
        assert len(seeds) == 600

    def test_stable(self):
        assert round_seed(0, 0) == round_seed(0, 0)


class TestMonteCarlo:
    def _spec(self, **over):
        inst = synthetic_modular_instance(6, seed=5)
        base = dict(
            oracle=inst.oracle(), ratings=inst.ratings, n=6, k=3,
            algorithms=("sg", "quality"),
            distributions=(UserTypeDistribution.uniform(3),),
            constraints=(FLEXIBLE,), rounds=40, base_seed=11, p=P_STAR)
        base.update(over)
        return ExperimentSpec(**base)

    def test_rerun_is_identical(self):
        spec = self._spec()
        a = comparative_experiment(spec)
        b = comparative_experiment(spec)
        for ca, cb in zip(a.cells, b.cells):
            assert ca.values == cb.values
            assert ca.lengths == cb.lengths
            assert ca.oracle_calls == cb.oracle_calls

    def test_deterministic_baseline_has_zero_spread(self):
        stats = comparative_experiment(self._spec())
        quality = stats.cell("quality", "UNIFORM")
        assert len(set(quality.values)) == 1
        assert quality.std == pytest.approx(0.0, abs=1e-12)
        assert quality.oracle_calls == (0,) * 40  # never touches the oracle

    def test_oracle_call_accounting(self):
        stats = comparative_experiment(self._spec(rounds=10))
        sg = stats.cell("sg", "UNIFORM")
        assert all(c > 0 for c in sg.oracle_calls)
        # a full solve at n=6 never needs more than a few dozen evaluations
        assert max(sg.oracle_calls) < 200

    def test_cell_shape_and_lookup(self):
        spec = self._spec(distributions=(
            UserTypeDistribution.uniform(3),
            UserTypeDistribution.normal(3, 2.0, 1.0)))
        stats = comparative_experiment(spec)
        assert len(stats.cells) == 4
        cell = stats.cell("sg", "M-2")
        assert cell.rounds == 40
        assert len(cell.values) == 40
        with pytest.raises(KeyError):
            stats.cell("sg", "M-9")

    def test_values_are_replayable(self):
        # Each recorded value must equal F of a fresh solve under that
        # round's derived seed -- the harness adds nothing of its own.
        spec = self._spec(rounds=6)
        stats = comparative_experiment(spec)
        weights = make_weights(spec.distributions[0])
        bundle = homogeneous_bundle(spec.oracle, weights, n=spec.n)
        cell = stats.cell("sg", "UNIFORM")
        for r in range(6):
            cfg = SamplerConfig(spec.p, round_seed(spec.base_seed, r))
            seq, _ = sampling_greedy(bundle, spec.k, cfg)
            assert cell.values[r] == pytest.approx(evaluate_F(bundle, seq))

    def test_mean_tracks_exact_expectation(self):
        inst = tiny_instance()
        spec = ExperimentSpec(
            oracle=inst, ratings=(3.0, 2.0, 2.0), n=3, k=2,
            algorithms=("sg",),
            distributions=(UserTypeDistribution.explicit((1.0, 1.0)),),
            constraints=(FLEXIBLE,), rounds=1500, base_seed=3, p=0.5)
        cell = comparative_experiment(spec).cell("sg", "EXPLICIT")
        exact = exact_expectation(inst, (1.0, 1.0), range(3), 0.5)
        assert exact == pytest.approx(5.0)
        assert abs(cell.mean - exact) <= 5.0 * cell.stderr + 1e-12

    def test_covdiv_algorithm_runs(self):
        inst = synthetic_covdiv_instance(15, d=5, seed=8, density=0.3)
        spec = ExperimentSpec(
            oracle=inst.oracle(), ratings=inst.ratings, n=15, k=4,
            algorithms=("sg", "covdiv", "quality"),
            distributions=(UserTypeDistribution.uniform(4),),
            constraints=(FIXED,), rounds=5, base_seed=0, p=P_STAR)
        stats = comparative_experiment(spec)
        assert {c.algorithm for c in stats.cells} == {"sg", "covdiv", "quality"}
        assert all(all(l == 4 for l in c.lengths) for c in stats.cells)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            self._spec(rounds=0)
        with pytest.raises(ValueError):
            self._spec(k=9)
        with pytest.raises(ValueError):
            self._spec(algorithms=("sg", "magic"))
        with pytest.raises(ValueError):
            self._spec(constraints=("loose",))
        with pytest.raises(ValueError):
            comparative_experiment(self._spec(
                distributions=(UserTypeDistribution.uniform(2),)))


class TestComparative:
    def test_covers_both_constraints(self):
        inst = synthetic_modular_instance(5, seed=2)
        spec = ExperimentSpec(
            oracle=inst.oracle(), ratings=inst.ratings, n=5, k=2,
            algorithms=("sg", "fixed"),
            distributions=(UserTypeDistribution.uniform(2),),
            constraints=(FLEXIBLE, FIXED), rounds=8, base_seed=1, p=P_STAR)
        stats = comparative_experiment(spec)
        constraints = {c.constraint for c in stats.cells}
        assert constraints == {FLEXIBLE, FIXED}
        assert len(stats.cells) == 4
        fixed_sg = stats.cell("sg", "UNIFORM", FIXED)
        assert all(l == 2 for l in fixed_sg.lengths)


class TestCellStats:
    def test_aggregates_match_numpy(self):
        values = (1.0, 2.0, 4.0, 4.0, 9.0)
        cell = CellStats(algorithm="sg", distribution="UNIFORM",
                         constraint=FLEXIBLE, values=values,
                         lengths=(1, 2, 2, 2, 3),
                         oracle_calls=(5, 6, 7, 8, 9))
        assert cell.mean == pytest.approx(np.mean(values))
        assert cell.std == pytest.approx(np.std(values, ddof=1))
        assert cell.stderr == pytest.approx(np.std(values, ddof=1) / math.sqrt(5))
        lo, hi = cell.ci95
        assert lo == pytest.approx(cell.mean - 1.96 * cell.stderr)
        assert hi == pytest.approx(cell.mean + 1.96 * cell.stderr)
        assert cell.mean_length == pytest.approx(2.0)
        assert cell.mean_oracle_calls == pytest.approx(7.0)

    def test_sums_left_to_right(self):
        # Python 3.12's builtin sum compensates and gives a mean of 1/3 here.
        cell = CellStats("sg", "UNIFORM", FLEXIBLE, (1e16, 1.0, -1e16), (1, 1, 1), (0, 0, 0))
        assert cell.mean == 0.0

    def test_single_round_spread(self):
        cell = CellStats(algorithm="sg", distribution="UNIFORM",
                         constraint=FLEXIBLE, values=(3.0,), lengths=(1,),
                         oracle_calls=(2,))
        assert cell.std == 0.0 and cell.stderr == 0.0


class TestBoundFactor:
    def test_flexible_closed_form(self):
        p = P_STAR
        assert bound_factor(p, FLEXIBLE) == pytest.approx(p * (1 - p) / (2 * p + 1))
        assert bound_factor(p, FLEXIBLE) == pytest.approx(0.1339745962, abs=1e-9)

    def test_monotone_special_case(self):
        assert bound_factor(1.0, FLEXIBLE, monotone=True) == 0.5

    def test_fixed_scales_by_remainder(self):
        got = bound_factor(0.4, FIXED, k=2, n=8)
        assert got == pytest.approx((1 - 2 / 8) * 0.4 * 0.6 / 1.8)

    def test_homogeneous_constant(self):
        assert bound_factor(P_STAR, "homogeneous") == pytest.approx(0.134 / 4)

    def test_fixed_needs_sizes(self):
        with pytest.raises(ValueError):
            bound_factor(0.4, FIXED)


class TestBoundCheck:
    def test_flexible_on_tiny(self, tiny_bundle):
        verdict = bound_check(tiny_bundle, 2, FLEXIBLE,
                              SamplerConfig(P_STAR, 0), rounds=300)
        assert verdict.passed
        assert verdict.opt_value == pytest.approx(8.0)
        assert verdict.optimum.items == (0, 2)
        assert verdict.rounds == 300
        exact = exact_expectation(tiny_instance(), (1.0, 1.0), range(3), P_STAR)
        assert abs(verdict.empirical_mean - exact) <= 5 * verdict.stderr + 1e-12

    def test_factor_override(self, tiny_bundle):
        verdict = bound_check(tiny_bundle, 2, FLEXIBLE,
                              SamplerConfig(P_STAR, 1), rounds=200, factor=0.134)
        assert verdict.factor == 0.134
        assert verdict.passed

    def test_monotone_p1_is_deterministic(self):
        fn = CoverageFn([(0, 1), (2,), (1, 2)], (2.0, 1.0, 3.0))
        bundle = homogeneous_bundle(fn, (0.6, 0.4), n=3)
        verdict = bound_check(bundle, 2, FLEXIBLE, SamplerConfig(1.0, 0),
                              rounds=3, monotone=True)
        assert verdict.passed
        assert verdict.stderr == pytest.approx(0.0, abs=1e-12)
        assert verdict.factor == 0.5
        _, opt = brute_force(bundle, 2, FLEXIBLE)
        assert verdict.empirical_mean >= 0.5 * opt

    def test_fixed_mode_uses_fixed_solver_and_factor(self):
        inst = synthetic_modular_instance(6, seed=19)
        bundle = homogeneous_bundle(inst.oracle(), (0.5, 0.5), n=6)
        verdict = bound_check(bundle, 2, FIXED, SamplerConfig(P_STAR, 4), rounds=200)
        assert verdict.factor == pytest.approx(bound_factor(P_STAR, FIXED, k=2, n=6))
        assert verdict.passed

    @pytest.mark.parametrize("rounds", (0, -3))
    def test_rounds_must_be_positive(self, tiny_bundle, rounds):
        with pytest.raises(ValueError, match="rounds must be positive"):
            bound_check(tiny_bundle, 2, FLEXIBLE, SamplerConfig(P_STAR, 0), rounds)
        assert tiny_bundle.counter.calls == 0  # refused before brute force ran

    def test_unknown_mode(self, tiny_bundle):
        with pytest.raises(ValueError, match="unknown mode 'greedy'"):
            bound_check(tiny_bundle, 2, "greedy", SamplerConfig(P_STAR, 0), 10)


class TestCallerState:
    def test_solver_calls_leave_bundle_and_oracle_as_they_were(self):
        # A caller may share one bundle and oracle between calls: nothing but
        # the counter may remember a call.
        fn = synthetic_modular_instance(6, seed=5).oracle()
        bundle = homogeneous_bundle(fn, (0.9, 0.6, 0.3), n=6)

        def state():
            # Containers by value; the oracle (and its bound methods) as itself.
            attributes = {name: value for name, value in vars(bundle).items()
                          if name != "counter"}
            slots = {name: getattr(fn, name) for name in type(fn).__slots__}
            return copy.deepcopy((attributes, slots), {id(fn): fn})

        before = state()
        for mode in (FLEXIBLE, FIXED, HOMOGENEOUS):
            bound_check(bundle, 3, mode, SamplerConfig(P_STAR, 7), 50)
        cfg = SamplerConfig(P_STAR, 8)
        homogeneous_solve(bundle, 3, cfg)
        homogeneous_first_half(bundle, 3, cfg)
        alg2_second_half(bundle, 3, cfg)
        sampling_greedy_j(fn, 6, 2, cfg)
        assert bundle.counter.calls > 0
        assert state() == before


# ---------------------------------------------------------------------------
# The experiment planner against a reference loop that runs every cell's
# algorithm on its own.


def _standalone(name, bundle, spec, constraint, cfg):
    """One cell's algorithm run by itself, as a caller of the public solvers would."""
    if name == "sg":
        if constraint == FIXED:
            return fixed_length_solve(bundle, spec.k, cfg)
        return sampling_greedy(bundle, spec.k, cfg)[0]
    if name == "fixed":
        return fixed_length_solve(bundle, spec.k, cfg)
    if name == "homog":
        return homogeneous_solve(bundle, spec.k, cfg)
    if name == "covdiv":
        return run_algorithm("covdiv", bundle, spec.k, cfg, constraint)[0]
    return baseline_quality(spec.ratings, spec.k)


def _reference_cells(spec, constraints, sequences=None):
    """The cells of a per-cell loop over standalone runs; ``sequences``
    collects each round's item tuple when given."""
    cells = []
    for constraint in constraints:
        for dist in spec.distributions:
            bundle = homogeneous_bundle(spec.oracle, make_weights(dist), n=spec.n)
            for name in spec.algorithms:
                values, lengths, calls = [], [], []
                for r in range(spec.rounds):
                    cfg = SamplerConfig(spec.p, round_seed(spec.base_seed, r))
                    before = bundle.counter.calls
                    seq = _standalone(name, bundle, spec, constraint, cfg)
                    run_calls = bundle.counter.calls - before
                    if sequences is not None:
                        sequences.append(tuple(seq))
                    before = bundle.counter.calls
                    values.append(evaluate_F(bundle, seq))
                    if name == "covdiv":
                        # run_algorithm scored the sequence once, as evaluate_F just did
                        run_calls -= bundle.counter.calls - before
                    calls.append(run_calls)
                    lengths.append(len(seq))
                cells.append(CellStats(name, dist.label, constraint, tuple(values),
                                       tuple(lengths), tuple(calls)))
    return cells


def _covdiv_spec(seed):
    inst = synthetic_covdiv_instance(14, d=5, seed=8, density=0.3, eta=2.0)
    return ExperimentSpec(
        oracle=inst.oracle(), ratings=inst.ratings, n=14, k=4,
        algorithms=EXPERIMENT_ALGORITHMS,
        distributions=(UserTypeDistribution.uniform(4),
                       UserTypeDistribution.normal(4, 2.0, 1.0)),
        rounds=7, base_seed=seed)


def _value_only_spec(seed):
    # An oracle with values alone: no marginal, running gains or prefix_values.
    spec = _modular_spec(seed)
    return replace(spec, oracle=lambda items: spec.oracle(items))


def _modular_spec(seed):
    # k = ceil(n/2), so homog runs its two-block strategy
    inst = synthetic_modular_instance(7, seed=3)
    return ExperimentSpec(
        oracle=inst.oracle(), ratings=inst.ratings, n=7, k=4,
        algorithms=("homog", "quality", "fixed", "sg"),
        distributions=(UserTypeDistribution.explicit((0.4, 0.3, 0.2, 0.1)),
                       UserTypeDistribution.uniform(4)),
        rounds=7, base_seed=seed)


class TestPlanner:
    @pytest.mark.parametrize("make_spec", (_covdiv_spec, _modular_spec, _value_only_spec),
                             ids=("covdiv", "modular", "value-only"))
    @pytest.mark.parametrize("seed", (0, 29))
    @pytest.mark.parametrize("constraints", ((FLEXIBLE, FIXED), (FIXED,), (FLEXIBLE,)),
                             ids=("both", "fixed", "flexible"))
    def test_equals_standalone_cells(self, make_spec, seed, constraints):
        spec = make_spec(seed)
        want = _reference_cells(spec, constraints)
        got = comparative_experiment(replace(spec, constraints=constraints)).cells
        assert got == tuple(want)  # values, lengths, oracle_calls and cell order
        if len(constraints) == 1:
            single = comparative_experiment(replace(spec, constraints=(constraints[0],))).cells
            assert single == tuple(want)

    @pytest.mark.parametrize("seed", (0, 29))
    def test_each_sequence_is_scored_once(self, seed):
        # No homog: its runs score their two candidates themselves.
        spec = replace(_covdiv_spec(seed), algorithms=("sg", "fixed", "covdiv", "quality"))
        fn, scored = spec.oracle, []
        real = fn.prefix_values
        fn.prefix_values = lambda items: scored.append(tuple(items)) or real(items)
        sequences = []
        want = _reference_cells(replace(spec, oracle=_covdiv_spec(seed).oracle),
                                (FLEXIBLE, FIXED), sequences)
        assert comparative_experiment(spec).cells == tuple(want)
        assert len(spec.distributions) == 2
        assert len(scored) == len(set(scored))
        assert set(scored) == {items[:spec.k] for items in sequences if items}

    def test_shared_runs_still_count_their_calls(self):
        stats = comparative_experiment(_covdiv_spec(0))
        greedy = stats.cell("sg", "UNIFORM", FLEXIBLE).oracle_calls
        for name, constraint in (("sg", FIXED), ("fixed", FLEXIBLE), ("fixed", FIXED)):
            assert stats.cell(name, "UNIFORM", constraint).oracle_calls == greedy
        assert stats.cell("quality", "UNIFORM", FIXED).oracle_calls == (0,) * 7
        covdiv = stats.cell("covdiv", "UNIFORM", FLEXIBLE).oracle_calls
        assert covdiv[0] > 0 and set(covdiv) == {covdiv[0]}
        assert stats.cell("covdiv", "UNIFORM", FIXED).oracle_calls == covdiv

    def test_covdiv_on_another_oracle_fails_when_built(self):
        inst = synthetic_modular_instance(7, seed=3)
        with pytest.raises(ValueError, match="needs a CoverageDiversityFn oracle, "
                                             "got ModularPenaltyFn"):
            ExperimentSpec(oracle=inst.oracle(), ratings=inst.ratings, n=7, k=4,
                           algorithms=("sg", "covdiv"),
                           distributions=(UserTypeDistribution.uniform(4),))

    @pytest.mark.parametrize("dists, label", (
        ((UserTypeDistribution.normal(4, 2.0, 1.0), UserTypeDistribution.normal(4, 2.0, 5.0)),
         "M-2"),
        ((UserTypeDistribution.explicit((1.0, 0.0, 0.0, 0.0)), UserTypeDistribution.uniform(4),
          UserTypeDistribution.explicit((0.0, 0.0, 0.0, 1.0))), "EXPLICIT"),
    ), ids=("normal", "explicit"))
    def test_repeated_labels_fail_when_built(self, dists, label):
        # Unchecked, both profiles write cells under one key, and read_results
        # merges them into one cell of twice the rounds.
        inst = synthetic_modular_instance(7, seed=3)
        with pytest.raises(ValueError, match=f"^distribution label {label} is repeated"):
            ExperimentSpec(oracle=inst.oracle(), ratings=inst.ratings, n=7, k=4,
                           algorithms=("sg",), distributions=dists)

    def test_repeated_algorithm_fails_when_built(self):
        # Unchecked, `algorithms sg sg` writes two sg cells under one key.
        with pytest.raises(ValueError, match="^algorithm sg is repeated"):
            replace(_modular_spec(0), algorithms=("sg", "quality", "sg"))

    @pytest.mark.parametrize("constraints", ((), (FIXED, FIXED), (FLEXIBLE, FIXED, FLEXIBLE)))
    def test_constraints_must_be_distinct_and_given(self, constraints):
        with pytest.raises(ValueError, match=r"^constraints \("):
            replace(_modular_spec(0), constraints=constraints)

    def test_profile_positions_checked_when_built(self):
        inst = synthetic_modular_instance(7, seed=3)
        with pytest.raises(ValueError, match="^distribution UNIFORM has k=3, expected 4$"):
            ExperimentSpec(oracle=inst.oracle(), ratings=inst.ratings, n=7, k=4,
                           algorithms=("sg",),
                           distributions=(UserTypeDistribution.normal(4, 2.0, 1.0),
                                          UserTypeDistribution.uniform(3)))

    @pytest.mark.parametrize("count", (3, 7))
    def test_ratings_must_number_n(self, count):
        # Unchecked, 3 ratings rank items 0..2 alone, and 7 fail only when
        # the quality run is scored, with an error that does not name them.
        inst = synthetic_modular_instance(5, seed=1)
        ratings = (inst.ratings + inst.ratings)[:count]
        with pytest.raises(ValueError, match=f"{count} ratings for n=5"):
            ExperimentSpec(oracle=inst.oracle(), ratings=ratings, n=5, k=2,
                           algorithms=("quality",),
                           distributions=(UserTypeDistribution.uniform(2),))

    def test_errors_keep_their_type(self):
        spec = _modular_spec(0)
        with pytest.raises(ValueError):  # covdiv needs a CoverageDiversityFn
            comparative_experiment(replace(spec, algorithms=("sg", "covdiv")))
        with pytest.raises(ValueError, match="ratings"):  # 3 ratings for n=7
            comparative_experiment(replace(spec, ratings=spec.ratings[:3]))
        with pytest.raises(ValueError):
            comparative_experiment(replace(spec, constraints=(FLEXIBLE, "loose")))

    @pytest.mark.parametrize("family, digest", (
        ("covdiv", "bd034cba3bb96885f5169bbe096f433bc9ea7f6fcb365e72ee7898b655548d6a"),
        ("modular", "1956eb9150704e45ea39e7b0e5ced5e84459c98743122152ecd73a1791dd39ef"),
    ), ids=("covdiv", "modular"))
    def test_results_file_golden(self, tmp_path, family, digest):
        # Digests of the files the per-cell experiment loop wrote before the
        # planner shared runs between cells.  Retaken for the SplitMix64
        # streams: the code before them, fed the new streams, wrote the same.
        if family == "covdiv":
            inst = synthetic_covdiv_instance(14, d=5, seed=8, density=0.3, eta=2.0)
            body = ("k 4\nseed 5\nalgorithms sg fixed homog covdiv quality\n"
                    "distribution uniform\ndistribution normal 2 1\n")
        else:
            inst = synthetic_modular_instance(7, seed=3)
            body = ("k 4\nseed 5\nalgorithms homog quality fixed sg\n"
                    "distribution explicit 0.4 0.3 0.2 0.1\ndistribution uniform\n")
        write_instance(str(tmp_path / "inst.txt"), inst)
        spec, out = tmp_path / "exp.txt", tmp_path / "results.csv"
        spec.write_text(f"instance inst.txt\nrounds 9\nconstraint both\n{body}")
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
