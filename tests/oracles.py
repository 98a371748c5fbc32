"""Independent reference implementations used to derive expected values.

Everything here is written from the objective's definition with plain Python
loops (numpy only for the covdiv block sums) and no imports from the package
under test, so agreement between these and the library is evidence, not
circularity.
"""

from __future__ import annotations

import itertools

import numpy as np


def naive_F(oracles, lambdas, items) -> float:
    """sum_j lambda_j * f_j(set of first j items), literal and uncached."""
    total = 0.0
    for j, lam in enumerate(lambdas, start=1):
        prefix = frozenset(items[: min(j, len(items))])
        total += lam * float(oracles[j - 1](prefix))
    return total


class ScaledFn:
    """s * f through ``__call__`` and ``marginal`` alone: no running gains or
    prefix values, so a heterogeneous bundle of these takes the marginal path."""

    def __init__(self, fn, scale):
        self.fn = fn
        self.scale = float(scale)

    def __call__(self, items):
        return self.scale * float(self.fn(items))

    def marginal(self, item, items):
        return self.scale * float(self.fn.marginal(item, items))


def naive_best(oracles, lambdas, ids, k, constraint="flexible"):
    """Exhaustive optimum of naive_F; ties to the lexicographically smallest tuple."""
    return enumerated_best(lambda perm: naive_F(oracles, lambdas, perm), ids, k, constraint)


def enumerated_best(score, ids, k, constraint="flexible"):
    """Exhaustive optimum of ``score`` over every ordered selection of ``ids``
    of length k (fixed) or 0..k (flexible); ties to the lexicographically
    smallest tuple.  With the package's public ``evaluate_F`` as ``score``
    this is the permutation loop ``brute_force`` ran before its DP, so the
    two must agree in value bits and tuple."""
    lengths = [k] if constraint == "fixed" else list(range(0, k + 1))
    best_items = None
    best_value = float("-inf")
    for length in lengths:
        for perm in itertools.permutations(sorted(ids), length):
            value = score(perm)
            if value > best_value or (value == best_value
                                      and (best_items is None or perm < best_items)):
                best_value = value
                best_items = perm
    return best_items, best_value


def _suffix_sums(lambdas):
    out = [0.0] * (len(lambdas) + 1)
    for t in range(len(lambdas) - 1, -1, -1):
        out[t] = out[t + 1] + lambdas[t]
    return out


def exact_outcomes(f, lambdas, ids, p) -> dict[tuple, float]:
    """Outcome distribution of the deferred-coin greedy, by path enumeration.

    Homogeneous objective.  At every state the single candidate with the
    largest positive weighted marginal (lowest id on ties) is considered and
    removed; a Bernoulli(p) coin decides acceptance.  Returns
    {output tuple: probability}.
    """
    k = len(lambdas)
    suffix = _suffix_sums(lambdas)
    dist: dict[tuple, float] = {}

    def recurse(members: tuple, alive: frozenset, t: int, prob: float):
        if prob == 0.0:
            return
        if t > k:
            dist[members] = dist.get(members, 0.0) + prob
            return
        base = float(f(frozenset(members)))
        w = suffix[t - 1]
        candidates = []
        for i in sorted(alive):
            gain = w * (float(f(frozenset(members) | {i})) - base)
            if gain > 0.0:
                candidates.append((i, gain))
        if not candidates:
            dist[members] = dist.get(members, 0.0) + prob
            return
        candidates.sort(key=lambda pair: (-pair[1], pair[0]))
        z = candidates[0][0]
        recurse(members + (z,), alive - {z}, t + 1, prob * p)
        recurse(members, alive - {z}, t, prob * (1.0 - p))

    recurse((), frozenset(ids), 1, 1.0)
    return dist


def exact_expectation(f, lambdas, ids, p) -> float:
    """E[F(output)] of the deferred-coin greedy, from exact_outcomes."""
    dist = exact_outcomes(f, lambdas, ids, p)
    oracles = [f] * len(lambdas)
    return sum(prob * naive_F(oracles, lambdas, out) for out, prob in dist.items())


def naive_diversity_greedy(fn, ids, k) -> tuple:
    """Diversity-only greedy re-derived from value differences alone.

    Mirrors the covdiv baseline rule: largest positive difference of
    fn.diversity_value, lowest id on ties, stop when nothing positive is left.
    """
    chosen: list[int] = []
    remaining = sorted(ids)
    while len(chosen) < k and remaining:
        base = float(fn.diversity_value(frozenset(chosen)))
        best_item = None
        best_gain = 0.0
        for i in remaining:
            gain = float(fn.diversity_value(frozenset(chosen) | {i})) - base
            if gain > best_gain:
                best_gain = gain
                best_item = i
        if best_item is None:
            break
        chosen.append(best_item)
        remaining.remove(best_item)
    return tuple(chosen)


def ix_covdiv_value(fn, items, diversity_only=False) -> float:
    """Coverage-diversity value with the |S|x|S| block gathered by np.ix_.

    The library gathers the same block with ``take``; the two must agree to
    the last bit, so compare with ``==``.
    """
    idx = sorted(int(i) for i in items)
    if not idx:
        return 0.0
    block = fn.similarity[np.ix_(idx, idx)]
    coverage = float(fn.row_sums[idx].sum() - fn.eta * block.sum())
    if diversity_only:
        return coverage
    return fn.alpha * float(fn.ratings[idx].sum()) + fn.beta * coverage


def similarity_rows(tags) -> np.ndarray:
    """W from tags one row at a time: row i against rows i.. with numpy's own
    row reduction ``(m * m).sum(axis=1)``, mirrored into the lower triangle.

    ``similarity_from_tags`` writes numpy's lane order out itself, so the two
    must agree bit for bit: compare with ``==``.
    """
    tags = np.asarray(tags, dtype=float)
    n = tags.shape[0]
    sim = np.zeros((n, n))
    for i in range(n):
        mins = np.minimum(tags[i], tags[i:])
        row = np.sqrt((mins * mins).sum(axis=1))
        sim[i, i:] = row
        sim[i:, i] = row
    return sim


def first_penalty_fault(rows):
    """The error of a penalty matrix's first fault, or None, found row by
    row: the diagonal, then each pair j > i, asymmetry before sign.
    ``ModularPenaltyFn`` checks whole arrays and must raise the same error."""
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 0.0:
            return "penalty diagonal must be zero"
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return f"penalty matrix asymmetric at ({i},{j})"
            if rows[i][j] < 0.0:
                return "penalties must be nonnegative"
    return None
