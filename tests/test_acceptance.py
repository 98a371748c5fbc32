"""End-to-end acceptance checks.

Each test prints exactly one ``ACCEPTANCE NN PASS/FAIL`` line on the real
stdout (bypassing capture so the line shows up in piped logs) and then
asserts.  Tolerances and budgets are stated inline; every randomized check
runs on hard-coded seeds, so reruns are bit-identical.
"""

import time

import numpy as np
import pytest
import scipy.stats

from seqsubmod import (
    FIXED,
    FLEXIBLE,
    ComplementFn,
    CoverageDiversityFn,
    ExperimentSpec,
    HOMOGENEOUS,
    ModularPenaltyFn,
    P_STAR,
    SamplerConfig,
    UserTypeDistribution,
    alg2_second_half,
    bound_check,
    brute_force,
    comparative_experiment,
    evaluate_F,
    homogeneous_bundle,
    presampled_greedy,
    sampling_greedy,
    sampling_greedy_j,
    submodularity_probe,
    telescoping_value,
)
from seqsubmod.files import synthetic_covdiv_instance, synthetic_modular_instance
from seqsubmod.functions import tiny_instance

import families
from oracles import exact_expectation


@pytest.fixture
def report(capsys):
    """One ``ACCEPTANCE NN PASS/FAIL`` line on the uncaptured stdout, then assert."""
    def _report(num: int, passed: bool, detail: str) -> None:
        line = f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'} {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert passed, line
    return _report


def two_sample_chisq(counts_a: dict, counts_b: dict) -> float:
    """p-value of the two-sample homogeneity test over observed categories.

    A single shared category means both samples are constant and equal:
    agreement is exact and the statistic has no degrees of freedom left.
    """
    cats = sorted(set(counts_a) | set(counts_b), key=str)
    if len(cats) == 1:
        return 1.0
    table = np.array([[counts_a.get(c, 0) for c in cats],
                      [counts_b.get(c, 0) for c in cats]])
    return float(scipy.stats.chi2_contingency(table).pvalue)


def test_01_forced_replay(report):
    fn = ModularPenaltyFn([1.0] * 10, [[0.0] * 10] * 10)
    bundle = homogeneous_bundle(fn, (1.0,) * 8, ground=range(1, 11))
    want = (3, 4, 6, 7, 8, 2, 10, 9)
    elapsed = []
    got = None
    for _ in range(5):
        t0 = time.perf_counter()
        got = alg2_second_half(bundle, 8, SamplerConfig(0.5, 0),
                               forced_accepted=(5, 1, 9, 10), forced_backup=(2,))
        elapsed.append(time.perf_counter() - t0)
    best = min(elapsed)
    ok = got.items == want and best < 1e-3
    report(1, ok, f"forced replay -> {list(got.items)} in {best * 1e6:.0f} us")


def test_02_flexible_sampling_bound(report):
    t0 = time.perf_counter()
    margins = []
    for idx, bundle in enumerate(families.modular_bundles()):
        verdict = bound_check(bundle, bundle.k, FLEXIBLE,
                              SamplerConfig(P_STAR, 10_000 + idx),
                              rounds=10_000, factor=0.134)
        margins.append(verdict.margin)
    took = time.perf_counter() - t0
    ok = all(m >= 0 for m in margins) and took <= 60.0
    report(2, ok, f"flexible sampling bound: 20 instances x 10k seeds, "
                  f"min margin {min(margins):.4f}, {took:.1f}s (budget 60s)")


def test_03_monotone_half_bound(report):
    t0 = time.perf_counter()
    worst = float("inf")
    ok = True
    for bundle in families.coverage_bundles():
        seq, _ = sampling_greedy(bundle, bundle.k, SamplerConfig(1.0, 0))
        value = evaluate_F(bundle, seq)
        _, opt = brute_force(bundle, bundle.k, FLEXIBLE)
        ratio = value / opt if opt > 0 else 1.0
        worst = min(worst, ratio)
        ok = ok and value >= 0.5 * opt
    took = time.perf_counter() - t0
    ok = ok and took <= 10.0
    report(3, ok, f"monotone p=1 keeps half the optimum: worst ratio {worst:.3f}, "
                  f"{took:.1f}s (budget 10s)")


def test_04_fixed_length_bound(report):
    t0 = time.perf_counter()
    margins = []
    for idx, bundle in enumerate(families.modular_bundles()):
        factor = (1.0 - bundle.k / bundle.n) * 0.134
        verdict = bound_check(bundle, bundle.k, FIXED,
                              SamplerConfig(P_STAR, 20_000 + idx),
                              rounds=10_000, factor=factor)
        margins.append(verdict.margin)
    took = time.perf_counter() - t0
    ok = all(m >= 0 for m in margins) and took <= 60.0
    report(4, ok, f"fixed-length bound: 20 instances x 10k seeds, "
                  f"min margin {min(margins):.4f}, {took:.1f}s (budget 60s)")


def test_05_large_k_bound(report):
    t0 = time.perf_counter()
    margins = []
    for idx, bundle in enumerate(families.homogeneous_bundles()):
        verdict = bound_check(bundle, bundle.k, HOMOGENEOUS,
                              SamplerConfig(P_STAR, 30_000 + idx),
                              rounds=10_000, factor=0.134 / 4.0)
        margins.append(verdict.margin)
    took = time.perf_counter() - t0
    ok = all(m >= 0 for m in margins) and took <= 60.0
    report(5, ok, f"large-k best-of-two bound: 20 instances x 10k seeds, "
                  f"min margin {min(margins):.4f}, {took:.1f}s (budget 60s)")


def test_06_sampler_equivalence(report):
    inst = tiny_instance()
    bundle = homogeneous_bundle(inst, (1.0, 1.0), n=3)
    deferred: dict = {}
    upfront: dict = {}
    for seed in range(20_000):
        seq, _ = sampling_greedy(bundle, 2, SamplerConfig(0.5, seed))
        deferred[seq.items] = deferred.get(seq.items, 0) + 1
    for seed in range(1_000_000, 1_020_000):
        seq = presampled_greedy(bundle, 2, SamplerConfig(0.5, seed))
        upfront[seq.items] = upfront.get(seq.items, 0) + 1
    pvalue = two_sample_chisq(deferred, upfront)
    ok = pvalue >= 0.01
    report(6, ok, f"deferred vs up-front sampling agree: chi-square p={pvalue:.3f} "
                  f"over {sorted(map(list, deferred))} (reject below 0.01)")


def test_07_profile_invariance(report):
    rng = np.random.default_rng(777)
    ok = True
    for idx in range(20):
        n, k = 6, 3
        inst = synthetic_modular_instance(n, seed=3000 + idx, penalty_prob=0.6)
        fn = inst.oracle()
        ref_bundle = homogeneous_bundle(fn, (1.0,) * k, n=n)
        ref_seq, ref_trace = sampling_greedy(ref_bundle, k, SamplerConfig(1.0, 0))
        ref_walk = [(i, c) for i, _, c in ref_trace.considered]
        for _ in range(10):
            lam = tuple(float(x) for x in rng.uniform(0.05, 2.0, k))
            bundle = homogeneous_bundle(fn, lam, n=n)
            seq, trace = sampling_greedy(bundle, k, SamplerConfig(1.0, 0))
            walk = [(i, c) for i, _, c in trace.considered]
            ok = ok and seq == ref_seq and walk == ref_walk
    report(7, ok, "p=1 choices invariant to positive position weights "
                  "(20 instances x 10 profiles)")


def test_08_submodularity_suite(report):
    modular = synthetic_modular_instance(10, seed=501, penalty_prob=0.7).oracle()
    covdiv_inst = synthetic_covdiv_instance(30, d=10, seed=502, density=0.3, eta=35.0)
    covdiv = covdiv_inst.oracle()
    cases = [
        ("modular-penalty", modular, 10),
        ("coverage-diversity", covdiv, 30),
        ("complement(modular-penalty)", ComplementFn(modular, range(10)), 10),
        ("complement(coverage-diversity)", ComplementFn(covdiv, range(30)), 30),
    ]
    totals = []
    for name, fn, n in cases:
        rep = submodularity_probe(fn, n, trials=10_000, seed=9000 + len(totals))
        totals.append((name, rep.trials, len(rep.violations), rep.passed))
    ok = all(passed for _, _, _, passed in totals)
    summary = ", ".join(f"{name}: 0/{trials}" for name, trials, _, _ in totals)
    report(8, ok, f"diminishing-returns probe clean: {summary}")


def test_09_telescoping_identity(report):
    rng = np.random.default_rng(4242)
    worst = 0.0
    checked = 0
    for idx in range(20):
        if idx % 2 == 0:
            n = 7
            inst = synthetic_modular_instance(n, seed=5000 + idx, penalty_prob=0.6)
        else:
            n = 12
            inst = synthetic_covdiv_instance(n, d=5, seed=5000 + idx, density=0.4)
        k = 3
        lam = tuple(float(x) for x in rng.uniform(0.1, 1.0, k))
        bundle = homogeneous_bundle(inst.oracle(), lam, n=n)
        for _ in range(50):
            length = int(rng.integers(0, k + 1))
            items = tuple(int(i) for i in rng.permutation(n)[:length])
            f_val = evaluate_F(bundle, items)
            t_val = telescoping_value(bundle, items)
            rel = abs(t_val - f_val) / max(1.0, abs(f_val))
            worst = max(worst, rel)
            checked += 1
    ok = worst <= 1e-9 and checked == 1000
    report(9, ok, f"telescoping identity on {checked} pairs: worst relative "
                  f"gap {worst:.2e} (tolerance 1e-9)")


def test_10_exact_expectation(report):
    inst = tiny_instance()
    spec = ExperimentSpec(
        oracle=inst, ratings=(3.0, 2.0, 2.0), n=3, k=2,
        algorithms=("sg",),
        distributions=(UserTypeDistribution.explicit((1.0, 1.0)),),
        constraints=(FLEXIBLE,), rounds=10_000, base_seed=42, p=0.5)
    cell = comparative_experiment(spec).cell("sg", "EXPLICIT")
    exact = exact_expectation(inst, (1.0, 1.0), range(3), 0.5)
    gap = abs(cell.mean - exact)
    ok = gap <= 3.0 * cell.stderr
    report(10, ok, f"Monte Carlo mean {cell.mean:.4f} vs enumerated "
                   f"expectation {exact:.4f}: gap {gap:.4f} <= 3*stderr "
                   f"{3 * cell.stderr:.4f}")


def test_11_benchmark_ordering(report):
    t0 = time.perf_counter()
    inst = families.benchmark_covdiv()
    k = 50
    spec = ExperimentSpec(
        oracle=inst.oracle(), ratings=inst.ratings, n=inst.n, k=k,
        algorithms=("sg", "covdiv", "quality"),
        distributions=(
            UserTypeDistribution.uniform(k),
            UserTypeDistribution.normal(k, 10.0, 5.0),
            UserTypeDistribution.normal(k, 25.0, 5.0),
            UserTypeDistribution.normal(k, 40.0, 5.0),
        ),
        constraints=(FLEXIBLE, FIXED), rounds=100, base_seed=7, p=P_STAR)
    stats = comparative_experiment(spec)
    ok = True
    gaps = []
    for dist in spec.distributions:
        for constraint in (FLEXIBLE, FIXED):
            sg = stats.cell("sg", dist.label, constraint).mean
            cd = stats.cell("covdiv", dist.label, constraint).mean
            qu = stats.cell("quality", dist.label, constraint).mean
            ok = ok and sg > cd and sg > qu
            gaps.append(sg - max(cd, qu))
    took = time.perf_counter() - t0
    ok = ok and took <= 300.0
    report(11, ok, f"n=500/k=50 benchmark: selector beats both baselines in "
                   f"all 8 cells, min lead {min(gaps):.2f}, {took:.1f}s "
                   f"(budget 300s)")


def test_12_complement_coupling(report):
    # Degenerate end: every run of both sides covers the whole ground set.
    inst = tiny_instance()
    bundle3 = homogeneous_bundle(inst, (1.0,) * 3, n=3)
    full: dict = {}
    complement_full: dict = {}
    for seed in range(20_000):
        cfg = SamplerConfig(0.5, seed)
        seq = alg2_second_half(bundle3, 3, cfg)
        a = frozenset(seq.prefix(3))
        full[a] = full.get(a, 0) + 1
        b = frozenset(range(3)) - sampling_greedy_j(inst, 3, 3, cfg)
        complement_full[b] = complement_full.get(b, 0) + 1
    p_degenerate = two_sample_chisq(full, complement_full)

    # Non-degenerate: n=6, k=5, j=4 on a seeded non-monotone instance.
    inst6 = synthetic_modular_instance(6, seed=606, penalty_prob=0.6)
    fn6 = inst6.oracle()
    bundle6 = homogeneous_bundle(fn6, (1.0,) * 5, n=6)
    prefixes: dict = {}
    complements: dict = {}
    for seed in range(20_000):
        cfg = SamplerConfig(0.5, seed)
        seq = alg2_second_half(bundle6, 5, cfg)
        a = frozenset(seq.prefix(4))
        prefixes[a] = prefixes.get(a, 0) + 1
        b = frozenset(range(6)) - sampling_greedy_j(fn6, 6, 4, cfg)
        complements[b] = complements.get(b, 0) + 1
    p_general = two_sample_chisq(prefixes, complements)

    ok = p_degenerate >= 0.01 and p_general >= 0.01
    report(12, ok, f"prefix/complement coupling: degenerate p={p_degenerate:.3f}, "
                   f"j=4 on n=6 p={p_general:.3f} (reject below 0.01, "
                   f"20k matched seeds each)")
