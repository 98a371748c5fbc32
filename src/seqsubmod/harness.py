"""Monte Carlo machinery: weight-profile builders, the seeded experiment
runner, and empirical verification of the approximation guarantees.

Every round r of an experiment runs under its own derived seed, so reruns are
bit-identical, rounds are order-independent, and two algorithms can be run on
matched per-round randomness by sharing the base seed.  That matching makes
cells repeat each other's work, so an experiment runs each distinct solver
run once and hands its result to every cell that asks for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algorithms import (
    ALGORITHMS,
    FIXED,
    FLEXIBLE,
    P_STAR,
    SamplerConfig,
    _as_seed,
    _check_constraint,
    _check_covdiv_oracle,
    _child_configs,
    _pad_to_k,
    _RoundMemo,
    _run,
    brute_force,
    derive_seed,
)
from .core import Sequence, WeightProfile, homogeneous_bundle, left_sum, prefix_scores

HOMOGENEOUS = "homogeneous"

EXPERIMENT_ALGORITHMS = tuple(name for name, algo in ALGORITHMS.items()
                              if "experiment" in algo.commands)

# The algorithm each bound_check mode samples.
CHECK_ALGORITHMS = {FLEXIBLE: "sg", FIXED: "fixed", HOMOGENEOUS: "homog"}


@dataclass(frozen=True)
class UserTypeDistribution:
    """How the per-position weights lambda_1..lambda_k are generated.

    kinds: "uniform" (equal mass), "normal" (discretized bell over positions
    1..k centered at mu; mass falling outside 1..k is dropped, not folded),
    "explicit" (verbatim values).
    """

    kind: str
    k: int
    mu: float | None = None
    sigma: float | None = None
    values: tuple[float, ...] | None = None

    @staticmethod
    def uniform(k: int) -> "UserTypeDistribution":
        return UserTypeDistribution(kind="uniform", k=k)

    @staticmethod
    def normal(k: int, mu: float, sigma: float) -> "UserTypeDistribution":
        return UserTypeDistribution(kind="normal", k=k, mu=float(mu), sigma=float(sigma))

    @staticmethod
    def explicit(values) -> "UserTypeDistribution":
        vals = tuple(float(v) for v in values)
        return UserTypeDistribution(kind="explicit", k=len(vals), values=vals)

    @property
    def label(self) -> str:
        if self.kind == "uniform":
            return "UNIFORM"
        if self.kind == "normal":
            mu = self.mu
            return f"M-{int(mu)}" if float(mu).is_integer() else f"M-{mu}"
        return "EXPLICIT"


def make_weights(dist: UserTypeDistribution) -> WeightProfile:
    """Materialize a distribution into a WeightProfile.

    Normal profiles use unnormalized bell values exp(-(j-mu)^2 / (2 sigma^2))
    renormalized over positions 1..k; if every position underflows to zero
    there is no profile to build and a ValueError is raised.
    """
    if dist.k < 1:
        raise ValueError("profiles need at least one position")
    if dist.kind == "uniform":
        return WeightProfile((1.0 / dist.k,) * dist.k)
    if dist.kind == "explicit":
        return WeightProfile(dist.values)
    if dist.kind == "normal":
        if dist.sigma is None or not dist.sigma > 0:
            raise ValueError("normal profiles need sigma > 0")
        try:
            raw = [math.exp(-((j - dist.mu) ** 2) / (2.0 * dist.sigma ** 2))
                   for j in range(1, dist.k + 1)]
        except ArithmeticError as exc:  # a square overflows, or sigma^2 underflows to 0
            raise ValueError(
                f"normal(mu={dist.mu}, sigma={dist.sigma}) is outside the float range") from exc
        total = left_sum(raw)
        if total == 0.0:
            raise ValueError(
                f"normal(mu={dist.mu}, sigma={dist.sigma}) puts no mass on positions 1..{dist.k}")
        return WeightProfile(tuple(w / total for w in raw))
    raise ValueError(f"unknown distribution kind {dist.kind!r}")


def round_seed(base_seed: int, round_index: int) -> int:
    """The seed of round ``round_index``: draw ``round_index`` of the stream
    (base_seed, "round"), so rounds 0..2^64-1 get pairwise-distinct seeds."""
    return derive_seed(base_seed, "round", round_index)


def _round_configs(p: float, base_seed: int, rounds: int):
    """SamplerConfig(p, round_seed(base_seed, r)) for r in range(rounds),
    whose streams are keyed for all rounds at once (see _StreamBatch)."""
    return _child_configs(p, base_seed, "round", rounds)


@dataclass(frozen=True)
class ExperimentSpec:
    """One in-memory experiment: an instance, the contenders, and the sweep.

    ``oracle`` is the shared set function (a CoverageDiversityFn when the
    covdiv baseline is among the algorithms, checked when the spec is
    built); ``ratings`` feed the quality baseline, one per item.  The ground
    set is 0..n-1, and ``base_seed`` is stored as a Python int (see
    SamplerConfig).  Every distribution has k positions, and no algorithm,
    constraint or distribution label is given twice, since results name a
    cell by (algorithm, label, constraint).
    """

    oracle: object
    ratings: tuple[float, ...]
    n: int
    k: int
    algorithms: tuple[str, ...]
    distributions: tuple[UserTypeDistribution, ...]
    constraints: tuple[str, ...] = (FLEXIBLE, FIXED)
    rounds: int = 100
    base_seed: int = 0
    p: float = P_STAR

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        SamplerConfig(self.p)  # refuses p outside [0, 1] and NaN
        object.__setattr__(self, "base_seed", _as_seed(self.base_seed))
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k={self.k} outside 1..{self.n}")
        if len(self.ratings) != self.n:
            raise ValueError(f"{len(self.ratings)} ratings for n={self.n}")
        for i, name in enumerate(self.algorithms):
            if name not in EXPERIMENT_ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}")
            if name in self.algorithms[:i]:
                raise ValueError(f"algorithm {name} is repeated; "
                                 "the algorithms of one experiment need distinct names")
        for constraint in self.constraints:
            _check_constraint(constraint)
        if not self.constraints or len(set(self.constraints)) < len(self.constraints):
            raise ValueError(f"constraints {self.constraints}: expected {FLEXIBLE}, {FIXED} "
                             "or both, each once")
        if "covdiv" in self.algorithms:
            _check_covdiv_oracle(self.oracle)
        labels = set()
        for dist in self.distributions:
            k = make_weights(dist).k
            if k != self.k:
                raise ValueError(f"distribution {dist.label} has k={k}, expected {self.k}")
            if dist.label in labels:
                raise ValueError(f"distribution label {dist.label} is repeated; "
                                 "the profiles of one experiment need distinct labels")
            labels.add(dist.label)


@dataclass(frozen=True)
class CellStats:
    """Aggregate of one (algorithm, distribution, constraint) cell.

    Per-round values are kept so aggregates can always be recomputed.
    ``oracle_calls[r]`` counts the cell's solver run alone in round r (a
    ``homog`` run's two F values included), not the scoring of its output's
    F; shared work is executed, and counted, once.
    """

    algorithm: str
    distribution: str
    constraint: str
    values: tuple[float, ...]
    lengths: tuple[int, ...]
    oracle_calls: tuple[int, ...]

    @property
    def rounds(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return left_sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        """Sample standard deviation; zero for a single round."""
        if len(self.values) < 2:
            return 0.0
        m = self.mean
        return math.sqrt(left_sum((v - m) ** 2 for v in self.values) / (len(self.values) - 1))

    @property
    def stderr(self) -> float:
        return self.std / math.sqrt(len(self.values))

    @property
    def ci95(self) -> tuple[float, float]:
        half = 1.96 * self.stderr
        return (self.mean - half, self.mean + half)

    @property
    def mean_length(self) -> float:
        return sum(self.lengths) / len(self.lengths)

    @property
    def mean_oracle_calls(self) -> float:
        return sum(self.oracle_calls) / len(self.oracle_calls)


@dataclass(frozen=True)
class RunStats:
    cells: tuple[CellStats, ...]

    def cell(self, algorithm: str, distribution: str, constraint: str | None = None) -> CellStats:
        found = [c for c in self.cells
                 if c.algorithm == algorithm and c.distribution == distribution
                 and (constraint is None or c.constraint == constraint)]
        if len(found) != 1:
            raise KeyError(
                f"{len(found)} cells match ({algorithm}, {distribution}, {constraint})")
        return found[0]


class _ProfileRuns:
    """The distinct solver runs of one weight profile, each executed on its
    first request and shared by every cell that asks for it.  A run is keyed
    by its ``ALGORITHMS`` run function and, when it changes with the seed, by
    the round: ``sg`` and ``fixed`` share one sampling_greedy per round, and
    a padded cell adds one backup pad of it, as ``run_algorithm`` pads.  No
    experiment algorithm reads the constraint, so both constraints share a
    run.  Each run reads a fresh ``_RoundMemo`` of the profile's bundle, so
    it counts the oracle calls of its one execution (see CellStats).

    F is a pure function of the items, so values are cached by them, and the
    F a run hands back is cached, not recomputed.  Every profile of one
    experiment shares ``spec.oracle`` and ``spec.k``, so the prefix scores F
    reads are too: ``scores`` maps an item tuple, truncated to k, to its
    ``prefix_scores`` for all profiles, and each profile weighs them itself.
    """

    def __init__(self, spec: ExperimentSpec, dist: UserTypeDistribution, scores: dict):
        self.spec = spec
        self.bundle = homogeneous_bundle(spec.oracle, make_weights(dist), n=spec.n)
        self._runs: dict = {}
        self._values: dict = {}
        self._scores = scores

    def _once(self, key, solve) -> tuple[tuple, int]:
        if key not in self._runs:
            before = self.bundle.counter.calls
            items, value = solve()
            self._runs[key] = (items, self.bundle.counter.calls - before)
            if value is not None:
                self._values[items] = value
        return self._runs[key]

    def row(self, name: str, constraint: str, r: int, cfg: SamplerConfig) -> tuple[float, int, int]:
        """(F, length, oracle calls) of a standalone run of ``name`` in round r."""
        spec, bundle, k = self.spec, self.bundle, self.spec.k
        algo = ALGORITHMS[name]
        items, calls = self._once((algo.run, r if algo.per_seed else None),
                                  lambda: algo.run(_RoundMemo(bundle), cfg, FLEXIBLE, spec.ratings))
        if constraint in algo.pads:
            items = self._once(("pad", algo.run, r),
                               lambda: (_pad_to_k(bundle, items, k, cfg), None))[0]
        value = self._values.get(items)
        if value is None:
            head = items[:k]
            scores = self._scores.get(head)
            if scores is None:
                scores = self._scores[head] = prefix_scores(bundle, head)
            value = self._values[items] = bundle.weights.weigh(scores, len(head))
        return value, len(items), calls


def comparative_experiment(spec: ExperimentSpec) -> RunStats:
    """Every (constraint, distribution, algorithm) cell of ``spec`` for
    ``spec.rounds`` rounds, in that order.

    Round r of every cell uses SamplerConfig(spec.p, round_seed(base_seed, r))
    from ``_round_configs``, so cells see matched randomness and the whole
    table is reproducible from (spec, base_seed) alone.  Each distinct
    computation runs once and every cell reports what standalone solver runs
    give (see CellStats): a solver run once per profile, the prefix scores
    of a sequence once per experiment.
    """
    cfgs = list(_round_configs(spec.p, spec.base_seed, spec.rounds))
    scores, cells = {}, []
    profiles = [_ProfileRuns(spec, dist, scores) for dist in spec.distributions]
    for constraint in spec.constraints:
        for dist, profile in zip(spec.distributions, profiles):
            for name in spec.algorithms:
                rows = [profile.row(name, constraint, r, cfg) for r, cfg in enumerate(cfgs)]
                cells.append(CellStats(name, dist.label, constraint, *zip(*rows)))
    return RunStats(tuple(cells))


# ---------------------------------------------------------------------------
# Bound verification.


def bound_factor(p: float, mode: str, k: int | None = None, n: int | None = None,
                 monotone: bool = False) -> float:
    """Guaranteed fraction of OPT for the given solver mode.

    flexible: p(1-p)/(2p+1); fixed: the same scaled by (1-k/n); homogeneous
    (k >= ceil(n/2)): a flat 0.134/4.  Monotone instances solved with p=1 get
    the deterministic 1/2.
    """
    if monotone and p == 1.0:
        return 0.5
    if mode == FLEXIBLE:
        return p * (1.0 - p) / (2.0 * p + 1.0)
    if mode == FIXED:
        if k is None or n is None:
            raise ValueError("fixed-mode factor needs k and n")
        return (1.0 - k / n) * p * (1.0 - p) / (2.0 * p + 1.0)
    if mode == HOMOGENEOUS:
        return 0.134 / 4.0
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of one empirical guarantee check.

    ``margin`` is empirical_mean - (factor * opt_value - 3 * stderr); the
    check passes when it is nonnegative.
    """

    passed: bool
    empirical_mean: float
    stderr: float
    opt_value: float
    optimum: Sequence
    factor: float
    margin: float
    rounds: int


def bound_check(bundle, k, mode: str, cfg: SamplerConfig, rounds: int,
                *, factor: float | None = None, monotone: bool = False) -> BoundVerdict:
    """Empirically test a guarantee: Monte Carlo mean >= factor * OPT - 3 stderr.

    OPT comes from brute_force (flexible mode searches all lengths up to k,
    the other modes exactly k), the mean from ``rounds`` runs of the
    algorithm CHECK_ALGORITHMS gives the mode, on seeds derived from
    cfg.seed.  ``factor`` overrides the formula value of bound_factor.

    Round r is ``run_algorithm(CHECK_ALGORITHMS[mode], bundle, k,
    SamplerConfig(cfg.p, round_seed(cfg.seed, r)))``, but every round reads
    one ``_RoundMemo`` that this call builds, not a fresh one: each round
    draws its own coins and backup, the verdict is the one standalone runs
    give, and ``bundle.counter`` counts only the oracle calls of the greedy
    runs and F values the call had to compute.  The rounds' seeds, half
    seeds, stream keys and first draws are computed for all rounds at once
    (``_round_configs``); they are the integers round_seed, derive_seed and
    SplitMix64 give.  Each round's first 8 coins, packed into a code from
    those first draws, index the root of a greedy's trie in the memo (see
    ``_RoundMemo``); misses run the greedy in round order.  A pad of at most
    8 items picks from the first backup draws (``_StreamBatch.sample``).
    """
    if mode not in CHECK_ALGORITHMS:
        raise ValueError(f"unknown mode {mode!r}")
    if rounds < 1:
        raise ValueError("rounds must be positive")
    opt_constraint = FLEXIBLE if mode == FLEXIBLE else FIXED
    opt_seq, opt_value = brute_force(bundle, k, opt_constraint)
    memo = _RoundMemo(bundle)
    values = [_run(CHECK_ALGORITHMS[mode], memo, round_cfg, FLEXIBLE, None)[1]
              for round_cfg in _round_configs(cfg.p, cfg.seed, rounds)]
    stats = CellStats(mode, "", mode, tuple(values), (), ())
    mean, stderr = stats.mean, stats.stderr
    fac = factor if factor is not None else bound_factor(cfg.p, mode, k, bundle.n, monotone)
    margin = mean - (fac * opt_value - 3.0 * stderr)
    return BoundVerdict(
        passed=margin >= 0.0,
        empirical_mean=mean,
        stderr=stderr,
        opt_value=opt_value,
        optimum=opt_seq,
        factor=fac,
        margin=margin,
        rounds=rounds,
    )
