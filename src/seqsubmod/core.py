"""Sequences, position weights, and the position-weighted sequential objective.

The objective over an ordered selection pi is

    F(pi) = sum_{j=1..k} lambda_j * f_j(set of the first j items of pi),

where each f_j is a set-function oracle and prefixes saturate: once j exceeds
len(pi), position j sees the full selection.  Nothing here assumes
monotonicity, and oracles are not required to vanish on the empty set.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import reduce
from operator import add

SetOracle = Callable[[frozenset], float]


def left_sum(values) -> float:
    """Float sum from 0.0, added left to right.  Python 3.12's builtin
    ``sum`` compensates float rounding, so it gives other bits than 3.10 and
    3.11 (``[1e16, 1.0, -1e16]`` sums to 1.0, not 0.0); seeded results must
    be byte-reproducible on every supported version."""
    return reduce(add, values, 0.0)


class OracleEvaluationError(RuntimeError):
    """An oracle raised while being evaluated; ``position`` is the 1-based j."""

    def __init__(self, position: int, message: str):
        super().__init__(f"oracle at position {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class Sequence:
    """An ordered selection of distinct item ids.

    Immutable; all mutating-looking operations return new sequences.
    """

    items: tuple[int, ...] = ()

    def __post_init__(self):
        items = tuple(int(i) for i in self.items)
        if len(set(items)) != len(items):
            raise ValueError(f"sequence has repeated items: {items}")
        object.__setattr__(self, "items", items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, idx):
        return self.items[idx]

    def __contains__(self, item) -> bool:
        return item in self.items

    def prefix(self, j: int) -> "Sequence":
        """First ``j`` items; saturates at the full sequence for large ``j``."""
        if j < 0:
            raise ValueError("prefix length must be nonnegative")
        if j >= len(self.items):
            return self
        return Sequence(self.items[:j])

    def concat(self, item: int) -> "Sequence":
        """Return a new sequence with ``item`` appended."""
        return Sequence(self.items + (int(item),))


def as_sequence(seq) -> Sequence:
    """Coerce a Sequence or an iterable of ids into a Sequence."""
    if isinstance(seq, Sequence):
        return seq
    return Sequence(tuple(seq))


@dataclass(frozen=True)
class WeightProfile:
    """Nonnegative per-position weights lambda_1..lambda_k (1-based positions)."""

    lambdas: tuple[float, ...]
    _suffix: tuple[float, ...] = field(init=False, repr=False, compare=False)
    k: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lams = tuple(float(x) for x in self.lambdas)
        if not lams:
            raise ValueError("weight profile must have at least one position")
        for j, lam in enumerate(lams, start=1):
            if not 0.0 <= lam < math.inf:
                raise ValueError(f"lambda_{j} = {lam} is not finite and nonnegative")
        # suffix[t-1] = sum of lambda_j for j >= t, with a trailing zero.
        suffix = [0.0] * (len(lams) + 1)
        for t in range(len(lams) - 1, -1, -1):
            suffix[t] = suffix[t + 1] + lams[t]
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "_suffix", tuple(suffix))
        object.__setattr__(self, "k", len(lams))

    def weigh(self, scores, limit: int) -> float:
        """F of a homogeneous objective from its prefix scores: sum_j
        lambda_j * scores[j-1] over j <= ``limit``, then the saturated value
        scores[-1] times the suffix weight of the positions after ``limit``.
        ``scores`` holds f of the prefixes 1..limit, or [f(empty)] when
        ``limit`` is 0 (see ``prefix_scores``)."""
        total = 0.0
        if limit:
            for lam, value in zip(self.lambdas, scores):
                total += lam * value
        if limit < len(self.lambdas):
            total += self._suffix[limit] * scores[-1]
        return total

    def suffix_sum(self, t: int) -> float:
        """Sum of lambda_j over j in {t..k}; zero once t > k."""
        if t < 1:
            raise ValueError("positions are 1-based")
        if t > self.k:
            return 0.0
        return self._suffix[t - 1]


def as_weights(weights) -> WeightProfile:
    if isinstance(weights, WeightProfile):
        return weights
    return WeightProfile(tuple(weights))


class EvalCounter:
    """Counts oracle evaluations; each value or marginal computation adds one.

    Increment-only.  Updates are plain int additions (atomic under the GIL),
    which is as much thread-safety as the single-threaded solvers need.
    """

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counter only moves forward")
        self.calls += amount

    def __repr__(self):
        return f"EvalCounter(calls={self.calls})"


@dataclass(frozen=True)
class ObjectiveBundle:
    """A problem instance: weights, one oracle per position, and the ground set.

    ``homogeneous`` marks that every position shares one oracle object (a
    bundle that claims it with different objects is a ValueError), which
    unlocks suffix-weight shortcuts (all positions j >= t see the same set, so
    their contribution collapses to suffix_sum(t) times one evaluation).
    ``ground_set`` holds the ground ids as a frozenset for membership checks.
    ``prefix_evaluator`` is the shared oracle's ``prefix_values`` method when
    the bundle is homogeneous and the oracle has one, else None.  ``k`` and
    ``n`` count the positions and the ground items.
    """

    weights: WeightProfile
    oracles: tuple[SetOracle, ...]
    ground: tuple[int, ...]
    homogeneous: bool
    counter: EvalCounter = field(default_factory=EvalCounter, compare=False, repr=False)
    ground_set: frozenset = field(init=False, compare=False, repr=False)
    prefix_evaluator: Callable | None = field(init=False, compare=False, repr=False)
    k: int = field(init=False, compare=False, repr=False)
    n: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ground = tuple(sorted(int(i) for i in self.ground))
        ground_set = frozenset(ground)
        if len(ground_set) != len(ground):
            raise ValueError("ground set has repeated item ids")
        if not ground:
            raise ValueError("ground set is empty")
        if len(self.oracles) != self.weights.k:
            raise ValueError(
                f"need one oracle per position: got {len(self.oracles)} "
                f"for k={self.weights.k}"
            )
        oracles = tuple(self.oracles)
        if self.homogeneous and any(f is not oracles[0] for f in oracles):
            raise ValueError("a homogeneous bundle needs one oracle object at every position")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "ground_set", ground_set)
        object.__setattr__(self, "oracles", oracles)
        evaluator = getattr(self.oracles[0], "prefix_values", None) if self.homogeneous else None
        object.__setattr__(self, "prefix_evaluator", evaluator)
        object.__setattr__(self, "k", self.weights.k)
        object.__setattr__(self, "n", len(ground))

    @property
    def base_oracle(self) -> SetOracle:
        """The shared oracle of a homogeneous bundle."""
        if not self.homogeneous:
            raise ValueError("bundle is not homogeneous")
        return self.oracles[0]

    def head(self, k: int) -> "ObjectiveBundle":
        """A new homogeneous bundle of the first ``k`` positions, sharing this
        bundle's oracle, ground and counter."""
        return homogeneous_bundle(self.base_oracle, self.weights.lambdas[:k],
                                  ground=self.ground, counter=self.counter)

    def oracle_value(self, j: int, items: frozenset) -> float:
        """Evaluate f_j on a set, counting the call and wrapping failures,
        non-finite values included."""
        self.counter.add(1)
        try:
            value = float(self.oracles[j - 1](items))
        except OracleEvaluationError:
            raise
        except Exception as exc:
            raise OracleEvaluationError(j, str(exc)) from exc
        if not math.isfinite(value):
            raise OracleEvaluationError(j, f"non-finite value {value}")
        return value

    def oracle_prefix_values(self, items: tuple[int, ...]) -> list[float]:
        """f(items[:1]), ..., f(items[:m]) through ``prefix_evaluator``: one
        counted call per prefix, as ``oracle_value`` would count them.

        A failure of the evaluator is reported at position 1, the first
        position it serves; a non-finite value at the position of its prefix.
        """
        self.counter.add(len(items))
        try:
            values = self.prefix_evaluator(items)
        except OracleEvaluationError:
            raise
        except Exception as exc:
            raise OracleEvaluationError(1, str(exc)) from exc
        if not all(map(math.isfinite, values)):
            j = next(j for j, v in enumerate(values, start=1) if not math.isfinite(v))
            raise OracleEvaluationError(j, f"non-finite value {values[j - 1]}")
        return values


def homogeneous_bundle(oracle, weights, n=None, ground=None, counter=None) -> ObjectiveBundle:
    """Bundle where every position uses the same oracle.

    Exactly one of ``n`` (ground = 0..n-1) or ``ground`` must be given.
    """
    profile = as_weights(weights)
    ground = _resolve_ground(n, ground)
    return ObjectiveBundle(
        weights=profile,
        oracles=(oracle,) * profile.k,
        ground=ground,
        homogeneous=True,
        counter=counter if counter is not None else EvalCounter(),
    )


def heterogeneous_bundle(oracles, weights, n=None, ground=None, counter=None) -> ObjectiveBundle:
    """Bundle with an explicit oracle per position."""
    profile = as_weights(weights)
    ground = _resolve_ground(n, ground)
    return ObjectiveBundle(
        weights=profile,
        oracles=tuple(oracles),
        ground=ground,
        homogeneous=False,
        counter=counter if counter is not None else EvalCounter(),
    )


def _resolve_ground(n, ground) -> tuple[int, ...]:
    if (n is None) == (ground is None):
        raise ValueError("give exactly one of n or ground")
    if ground is not None:
        return tuple(ground)
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(range(n))


def _checked_items(bundle: ObjectiveBundle, seq: Sequence) -> tuple[int, ...]:
    """The sequence's items, after an O(len(seq)) ground-membership check."""
    ground = bundle.ground_set
    if not ground.issuperset(seq.items):
        extra = sorted(i for i in seq.items if i not in ground)
        raise ValueError(f"items {extra} are outside the ground set")
    return seq.items


def prefix_scores(bundle: ObjectiveBundle, seq) -> list[float]:
    """The values of the shared oracle that F of a homogeneous bundle reads:
    f on the prefixes 1..min(len(seq), k), or [f(empty)] for an empty
    sequence.  Scored in one ``prefix_evaluator`` call when the oracle has
    one, else by one counted value call per prefix.  They do not depend on
    the weights, so ``bundle.weights.weigh`` turns them into F under any
    profile of the same k."""
    if not bundle.homogeneous:
        raise ValueError("bundle is not homogeneous")
    items = _checked_items(bundle, as_sequence(seq))
    return _prefix_scores(bundle, items, min(len(items), bundle.k))


def _prefix_scores(bundle: ObjectiveBundle, items: tuple[int, ...], limit: int) -> list[float]:
    if limit and bundle.prefix_evaluator is not None:
        return bundle.oracle_prefix_values(items[:limit])
    if not limit:
        return [bundle.oracle_value(1, frozenset())]
    running: set = set()
    scores = []
    for j in range(1, limit + 1):
        running.add(items[j - 1])
        scores.append(bundle.oracle_value(j, frozenset(running)))
    return scores


def evaluate_F(bundle: ObjectiveBundle, seq) -> float:
    """Total weighted value sum_j lambda_j * f_j(prefix_j).

    Positions beyond len(seq) see the full selection (prefix saturation);
    positions beyond k never contribute.  A homogeneous bundle's F is its
    ``prefix_scores`` weighed by its profile: the saturated value is read
    once, not once per position.
    """
    return _evaluate(bundle, _checked_items(bundle, as_sequence(seq)))


def _evaluate(bundle: ObjectiveBundle, items: tuple[int, ...]) -> float:
    """evaluate_F on checked items: distinct ground ids."""
    k = bundle.k
    limit = min(len(items), k)
    if bundle.homogeneous:
        return bundle.weights.weigh(_prefix_scores(bundle, items, limit), limit)
    lams = bundle.weights.lambdas
    total = 0.0
    running: set = set()
    for j in range(1, k + 1):
        if j <= limit:
            running.add(items[j - 1])
        total += lams[j - 1] * bundle.oracle_value(j, frozenset(running))
    return total


def marginal_gain(bundle: ObjectiveBundle, seq, item: int, t: int) -> float:
    """Gain of appending ``item`` at position ``t``: sum_{j>=t} lambda_j * f_j(item | set(seq)).

    With t = len(seq) + 1 this equals evaluate_F(seq + item) - evaluate_F(seq).
    """
    seq = as_sequence(seq)
    _checked_items(bundle, seq)
    item = int(item)
    if item in seq.items:
        raise ValueError(f"item {item} is already in the sequence")
    if item not in bundle.ground_set:
        raise ValueError(f"item {item} is outside the ground set")
    if not 1 <= t <= bundle.k:
        raise ValueError(f"position t={t} outside 1..{bundle.k}")
    return _gain(bundle, frozenset(seq.items), item, t)


def _gain(bundle: ObjectiveBundle, base: frozenset, item: int, t: int) -> float:
    """marginal_gain on checked arguments: ``base`` and ``item`` are ground
    items, ``item`` is not in ``base`` and 1 <= t <= k."""
    grown = base | {item}
    if bundle.homogeneous:
        w = bundle.weights.suffix_sum(t)
        if w == 0.0:
            return 0.0
        return w * (bundle.oracle_value(t, grown) - bundle.oracle_value(t, base))
    lams = bundle.weights.lambdas
    total = 0.0
    for j in range(t, bundle.k + 1):
        lam = lams[j - 1]
        if lam == 0.0:
            continue
        total += lam * (bundle.oracle_value(j, grown) - bundle.oracle_value(j, base))
    return total


def telescoping_value(bundle: ObjectiveBundle, seq) -> float:
    """F rebuilt from per-step gains: the sum, left to right over
    t <= min(len(seq), k), of marginal_gain(bundle, pi_1..pi_{t-1}, pi_t, t).

    Equals evaluate_F whenever every oracle vanishes on the empty set (the
    difference is exactly sum_j lambda_j * f_j(empty) otherwise).
    """
    items = _checked_items(bundle, as_sequence(seq))
    return left_sum(_gain(bundle, frozenset(items[:t - 1]), items[t - 1], t)
                    for t in range(1, min(len(items), bundle.k) + 1))
