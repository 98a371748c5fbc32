"""Built-in set functions: modular-minus-penalty, coverage-diversity, weighted
coverage, and complement views, plus a randomized submodularity probe.

Every family exposes ``__call__(items) -> float``; families that can do better
than value differences also expose ``marginal(item, items)``.  The vectorized
coverage-diversity family adds an ``incremental()`` state that serves batched
marginals for every item at once; the modular-penalty family adds
``running_gains()`` and ``complement_gains(ground)``, plain-list states of the
same kind for its own gains and for those of its complement.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from .core import left_sum


def _ids(items) -> list[int]:
    return sorted(int(i) for i in items)


def _sorted_index(items) -> np.ndarray:
    """Ascending index array of a collection of item ids."""
    if not hasattr(items, "__len__"):
        items = tuple(items)
    idx = np.fromiter(items, np.intp, len(items))
    idx.sort()
    return idx


def _require_finite(values, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")


class ModularPenaltyFn:
    """f(S) = sum of per-item rewards minus the pairwise penalties inside S.

    Submodular whenever penalties are nonnegative; non-monotone as soon as one
    item's penalties against a set outweigh its reward.  Keeps plain Python
    lists: at the sizes this family is used for (exhaustive search, expectation
    checks) that is faster than numpy round-trips.  The matrix is checked as
    one numpy array before it becomes lists.
    """

    __slots__ = ("rewards", "penalties", "n")

    def __init__(self, rewards, penalties):
        self.rewards = [float(r) for r in rewards]
        n = self.n = len(self.rewards)
        if not isinstance(penalties, np.ndarray):
            # Rows may be any iterables; each is read twice below.
            penalties = [row if hasattr(row, "__len__") else tuple(row)
                         for row in penalties]
        if len(penalties) != n or any(len(row) != n for row in penalties):
            raise ValueError(f"penalty matrix must be {n}x{n}")
        pens = np.empty((n, n))
        pens[...] = penalties
        _require_finite(self.rewards, "rewards")
        _require_finite(pens, "penalties")
        # The first fault in row-major order: row i's diagonal, then its
        # pairs j > i, each checked for asymmetry before sign.
        faults = np.triu((pens != pens.T) | (pens < 0.0), 1)
        faults[np.diag_indices(n)] = pens.diagonal() != 0.0
        if faults.any():
            i, j = divmod(int(faults.argmax()), n)
            if i == j:
                raise ValueError("penalty diagonal must be zero")
            if pens[i, j] != pens[j, i]:
                raise ValueError(f"penalty matrix asymmetric at ({i},{j})")
            raise ValueError("penalties must be nonnegative")
        self.penalties = pens.tolist()

    def __call__(self, items) -> float:
        return self._sorted_value(_ids(items))

    def _sorted_value(self, ids: list[int]) -> float:
        """f of an ascending id list: each reward, then the penalties of its
        row to the later ids, subtracted one by one."""
        total = 0.0
        pens = self.penalties
        for a, i in enumerate(ids):
            total += self.rewards[i]
            row = pens[i]
            for j in ids[a + 1 :]:
                total -= row[j]
        return total

    def prefix_values(self, items) -> list[float]:
        """[f(items[:1]), ..., f(items[:m])] for a sequence of distinct ids,
        each equal to ``self(items[:j])`` bit for bit: the ascending id list
        grows by one insertion per prefix, and each prefix is summed in
        ``__call__``'s order.  (A running total would be cheaper but rounds
        differently.)"""
        ids: list[int] = []
        values = []
        for item in items:
            insort(ids, int(item))
            values.append(self._sorted_value(ids))
        return values

    def marginal(self, item: int, items) -> float:
        """f(item | S) for item not in S; O(|S|)."""
        row = self.penalties[item]
        total = self.rewards[item]
        for s in items:
            total -= row[s]
        return total

    def running_gains(self) -> "RunningGains":
        """Fresh state whose ``gains[i]`` is f(i | S) = r_i - sum_{s in S} p_is
        for a growing set S, starting from S empty."""
        return RunningGains(self.rewards, self.penalties)

    def complement_gains(self, ground) -> "RunningGains":
        """Fresh state whose ``gains[i]`` is g(i | S) for the complement
        g(S) = f(V minus S) over V = ``ground``, for i in V minus S.

        g(i | S) = -f(i | V minus S minus {i}) = sum_{j in V, j != i} p_ij
        - r_i - sum_{s in S} p_is, and the zero diagonal lets the first sum
        run over all of V.  So the state starts from the row sums over V minus
        the rewards, and an accept of x subtracts p_ix like ``running_gains``
        does.
        """
        ground = tuple(ground)
        start = []
        for reward, row in zip(self.rewards, self.penalties):
            total = 0.0
            for j in ground:
                total += row[j]
            start.append(total - reward)
        return RunningGains(start, self.penalties)


class RunningGains:
    """Per-item gains of one growing set in a plain list indexed by item id.

    ``add(x)`` subtracts penalty row x from every entry, O(n) per accept, so
    a greedy reads each candidate's gain in O(1).  Entries of items already
    in the set are meaningless; callers track membership.  The running sums
    equal the closed-form marginals up to summation order.
    """

    __slots__ = ("gains", "_rows")

    def __init__(self, start, rows):
        self.gains = list(start)
        self._rows = rows

    def add(self, item: int) -> None:
        self.gains = [g - p for g, p in zip(self.gains, self._rows[item])]


def tiny_instance() -> ModularPenaltyFn:
    """The canonical 3-item demo: rewards (3, 2, 2), penalties c01=2, c12=3.

    Non-monotone (f(2 | {1}) = -1) yet nonnegative on all 8 subsets; small
    enough that every expectation can be enumerated by hand.
    """
    return ModularPenaltyFn(
        rewards=(3.0, 2.0, 2.0),
        penalties=((0.0, 2.0, 0.0), (2.0, 0.0, 3.0), (0.0, 3.0, 0.0)),
    )


class CoverageFn:
    """Monotone weighted coverage: f(S) = total weight of elements covered by S.

    ``covers[i]`` lists the element ids item i covers; ``weights[e]`` is the
    (nonnegative) weight of element e.
    """

    __slots__ = ("covers", "weights", "n")

    def __init__(self, covers, weights):
        self.covers = [frozenset(int(e) for e in c) for c in covers]
        self.weights = [float(w) for w in weights]
        _require_finite(self.weights, "element weights")
        if any(w < 0 for w in self.weights):
            raise ValueError("element weights must be nonnegative")
        m = len(self.weights)
        for c in self.covers:
            if any(not 0 <= e < m for e in c):
                raise ValueError("covered element id out of range")
        self.n = len(self.covers)

    def __call__(self, items) -> float:
        covered: set = set()
        for i in items:
            covered |= self.covers[i]
        return left_sum(self.weights[e] for e in covered)

    def marginal(self, item: int, items) -> float:
        covered: set = set()
        for i in items:
            covered |= self.covers[i]
        return left_sum(self.weights[e] for e in self.covers[item] - covered)


class ComplementFn:
    """View of a base function evaluated on the complement: g(S) = f(V minus S).

    Submodularity is preserved, monotone direction flips.  Note g(empty) =
    f(V), which is rarely zero.
    """

    __slots__ = ("base", "ground", "_ground_set")

    def __init__(self, base, ground):
        self.base = base
        self.ground = tuple(sorted(int(i) for i in ground))
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground set has repeated ids")
        self._ground_set = frozenset(self.ground)

    def __call__(self, items) -> float:
        items = frozenset(items)
        if not items <= self._ground_set:
            raise ValueError("items outside the ground set")
        return float(self.base(self._ground_set - items))

    def marginal(self, item: int, items) -> float:
        """g(item | S) = f(V minus S minus {item}) - f(V minus S).

        Equal to minus the base marginal of ``item`` into V minus S minus
        {item}, which the base can often answer without two full evaluations.
        """
        rest = self._ground_set - frozenset(items)
        if item not in rest:
            raise ValueError(f"item {item} is already in the query set (or unknown)")
        shrunk = rest - {item}
        if hasattr(self.base, "marginal"):
            return -float(self.base.marginal(item, shrunk))
        return float(self.base(shrunk)) - float(self.base(rest))

    def running_gains(self):
        """The base's ``complement_gains`` state over this ground set, or None
        when the base has none."""
        gains = getattr(self.base, "complement_gains", None)
        return gains(self.ground) if gains is not None else None


class CoverageDiversityFn:
    """Rating-plus-diversity objective over items with a similarity matrix W.

    f(S) = alpha * sum of ratings + beta * g(S) with the diversity term

        g(S) = sum_{s in S} row_sums[s] - eta * sum_{s in S} sum_{t in S} W[s][t]

    (both sums over the full matrix, diagonal included).  g is submodular for
    any eta and non-monotone once eta >= 1.
    """

    def __init__(self, ratings, similarity, alpha: float, beta: float, eta: float):
        self.ratings = np.asarray(ratings, dtype=float)
        self.similarity = np.asarray(similarity, dtype=float)
        n = self.ratings.shape[0]
        if self.ratings.ndim != 1 or n == 0:
            raise ValueError("ratings must be a nonempty vector")
        if self.similarity.shape != (n, n):
            raise ValueError(f"similarity must be {n}x{n}")
        _require_finite(self.ratings, "ratings")
        _require_finite(self.similarity, "similarity entries")
        _require_finite((alpha, beta, eta), "alpha, beta and eta")
        if not np.array_equal(self.similarity, self.similarity.T):
            raise ValueError("similarity matrix must be symmetric")
        if np.any(self.similarity < 0):
            raise ValueError("similarity entries must be nonnegative")
        if np.any(self.ratings < 0):
            raise ValueError("ratings must be nonnegative")
        if not eta >= 1.0:
            raise ValueError("eta must be at least 1")
        if alpha < 0 or beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.eta = float(eta)
        self.n = n
        self.row_sums = self.similarity.sum(axis=1)
        self._diag = np.diag(self.similarity).copy()

    def _diversity(self, idx: np.ndarray) -> float:
        """g(S) for a sorted index array; the |S|x|S| block is gathered with
        two ``take`` calls, the same C-contiguous array ``np.ix_`` builds, so
        its ``sum`` is bit-identical."""
        block = self.similarity.take(idx, 0).take(idx, 1)
        return float(self.row_sums[idx].sum() - self.eta * block.sum())

    def diversity_value(self, items) -> float:
        return self._diversity(_sorted_index(items))

    def __call__(self, items) -> float:
        idx = _sorted_index(items)
        return self.alpha * float(self.ratings[idx].sum()) + self.beta * self._diversity(idx)

    def prefix_values(self, items) -> list[float]:
        """[f(items[:1]), ..., f(items[:m])] for a sequence of distinct ids,
        each equal to ``self(items[:j])`` bit for bit.

        The m x m block of the whole sequence is gathered once in ascending-id
        order, with its ratings and row sums.  Each prefix takes its ascending
        positions from those small arrays, so every sum sees the same elements
        in the same C-contiguous order as ``__call__`` does.  (A running,
        cumulative form would be cheaper but rounds differently.)
        """
        seq = np.fromiter(items, np.intp, len(items))
        order = np.argsort(seq)
        ids = seq[order]
        ratings = self.ratings[ids]
        row_sums = self.row_sums[ids]
        block = self.similarity.take(ids, 0).take(ids, 1)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        member = np.zeros(len(order), dtype=bool)
        alpha, beta, eta = self.alpha, self.beta, self.eta
        values = []
        for r in rank.tolist():
            member[r] = True
            pos = member.nonzero()[0]
            sub = block.take(pos, 0).take(pos, 1)
            diversity = float(row_sums.take(pos).sum() - eta * sub.sum())
            values.append(alpha * float(ratings.take(pos).sum()) + beta * diversity)
        return values

    def diversity_marginal(self, item: int, items) -> float:
        """g(item | S) for item not in S, via one row slice."""
        idx = _ids(items)
        cross = float(self.similarity[item, idx].sum()) if idx else 0.0
        return float(self.row_sums[item] - self.eta * (self._diag[item] + 2.0 * cross))

    def marginal(self, item: int, items) -> float:
        return self.alpha * float(self.ratings[item]) + self.beta * self.diversity_marginal(item, items)

    def incremental(self) -> "CoverageDiversityState":
        """Fresh state maintaining every item's marginal in O(n) per accept."""
        return CoverageDiversityState(self)


class CoverageDiversityState:
    """Running pair sums for one growing set; serves batched marginal vectors.

    ``gains()`` returns the full-objective marginal of every item id (entries
    for items already in the set are meaningless; callers track membership).
    """

    __slots__ = ("fn", "_pair")

    def __init__(self, fn: CoverageDiversityFn):
        self.fn = fn
        self._pair = np.zeros(fn.n)

    def add(self, item: int) -> None:
        self._pair += self.fn.similarity[item]

    def diversity_gains(self) -> np.ndarray:
        fn = self.fn
        return fn.row_sums - fn.eta * (fn._diag + 2.0 * self._pair)

    def gains(self) -> np.ndarray:
        fn = self.fn
        return fn.alpha * fn.ratings + fn.beta * self.diversity_gains()


_BLOCK_ROWS = 32


def _pairwise_sum(term, lo: int, hi: int, out: np.ndarray, spare: list) -> np.ndarray:
    """Write term(lo) + ... + term(hi - 1) into ``out``, added in the order of
    numpy's ``pairwise_sum`` over one row of hi - lo numbers, and return it.
    ``term(k, dest)`` writes term k into ``dest`` and returns it; ``spare``
    holds ``_spare_count(hi - lo)`` scratch arrays of out's shape.

    Below 8 terms the sum runs left to right.  Up to 128 terms, term k goes
    to lane k % 8 (each lane left to right), the lanes combine as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and the last count % 8 terms are
    added one by one.  Above 128 the terms split at half the count, rounded
    down to a multiple of 8, and each part sums the same way.
    """
    count = hi - lo
    if count > 128:
        half = count // 2 - count // 2 % 8
        _pairwise_sum(term, lo, lo + half, out, spare)
        out += _pairwise_sum(term, lo + half, hi, spare[0], spare[1:])
        return out
    tmp = spare[0]
    body = hi - count % 8 if count >= 8 else lo + 1

    # Not recursive: a recursive closure is a reference cycle, which would
    # keep the scratch arrays alive until the cyclic collector ran.
    def lane(j, dest):
        term(lo + j, dest)
        for k in range(lo + j + 8, body, 8):
            dest += term(k, tmp)
        return dest

    lane(0, out)
    if count >= 8:
        a, b, c = spare[1:4]
        out += lane(1, a)  # r0 + r1
        lane(2, a)
        a += lane(3, b)    # r2 + r3
        out += a
        lane(4, a)
        a += lane(5, b)    # r4 + r5
        lane(6, b)
        b += lane(7, c)    # r6 + r7
        a += b
        out += a
    for k in range(body, hi):
        out += term(k, tmp)
    return out


def _spare_count(count: int) -> int:
    """Scratch arrays that ``_pairwise_sum`` needs for ``count`` terms: one
    for a term, three for the lanes, and one more per split on the way to
    the deepest (right-hand) part."""
    if count < 8:
        return 1
    splits = 0
    while count > 128:
        count -= count // 2 - count // 2 % 8
        splits += 1
    return 4 + splits


def similarity_from_tags(tags) -> np.ndarray:
    """Pairwise similarity W[i][j] = l2-norm of the entrywise minimum of tag rows.

    Tag vectors live in [0,1]^d; identical rows give back the row norm, rows
    with disjoint support give 0.  The result is exactly symmetric with a
    nonnegative diagonal W[i][i] = l2-norm of row i.

    Each entry sums its d squared minima in numpy's pairwise order for one
    row (see ``_pairwise_sum``), so its bits equal those of
    ``np.sqrt((m * m).sum())`` for m = min(tags[i], tags[j]).  The tags are
    squared once: for a, b >= 0, fl(min(a, b)^2) = min(fl(a^2), fl(b^2)),
    since rounding is monotone.  Rows are done in blocks of ``_BLOCK_ROWS``
    against every later column, one whole-block minimum and add per term,
    summed in place in W's rows with a few block-sized scratch arrays.
    """
    tags = np.asarray(tags, dtype=float)
    if tags.ndim != 2 or tags.size == 0:
        raise ValueError("tags must be a nonempty n x d matrix")
    _require_finite(tags, "tag entries")
    if np.any(tags < 0) or np.any(tags > 1):
        raise ValueError("tag entries must lie in [0, 1]")
    n, d = tags.shape
    # W first, so that it can take the place a previous W left free
    sim = np.zeros((n, n))
    scratch = np.empty((_spare_count(d), min(_BLOCK_ROWS, n) * n))
    squares = np.ascontiguousarray(np.square(tags).T)
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        rows, cols = squares[:, s:e, None], squares[:, None, s:]

        def term(k, dest):
            return np.minimum(rows[k], cols[k], out=dest)

        spare = [buf[:(e - s) * (n - s)].reshape(e - s, n - s) for buf in scratch]
        block = _pairwise_sum(term, 0, d, sim[s:e, s:], spare)
        np.sqrt(block, out=block)
        sim[e:, s:e] = block[:, e - s:].T
    return sim


def auto_scale(ratings, similarity) -> tuple[float, float]:
    """Balance the rating and diversity terms: alpha = 1, beta = sum(ratings) / max(1, sum of row sums)."""
    ratings = np.asarray(ratings, dtype=float)
    similarity = np.asarray(similarity, dtype=float)
    denom = max(1.0, float(similarity.sum()))
    return 1.0, float(ratings.sum()) / denom


@dataclass(frozen=True)
class ProbeViolation:
    """One witnessed diminishing-returns failure: gain grew when the context grew."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    item: int
    lower_gain: float
    upper_gain: float


@dataclass(frozen=True)
class ProbeReport:
    trials: int
    tolerance: float
    violations: tuple[ProbeViolation, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.violations


def submodularity_probe(fn, n: int, trials: int, seed: int, ground=None,
                        tolerance: float = 1e-9, max_violations: int = 20) -> ProbeReport:
    """Randomized diminishing-returns check on nested-chain samples.

    Each trial draws X subset of Y subset of V and an item outside Y, then
    requires fn(item | X) >= fn(item | Y) - tolerance.  Passing is evidence,
    not proof; a single recorded violation is a disproof.
    """
    ids = list(ground) if ground is not None else list(range(n))
    ids = sorted(int(i) for i in ids)
    if len(ids) < 2:
        raise ValueError("need at least two items to probe")
    rng = np.random.default_rng(seed)
    violations: list[ProbeViolation] = []
    for _ in range(trials):
        size_y = int(rng.integers(0, len(ids)))  # leaves at least one item outside Y
        perm = rng.permutation(len(ids))
        upper = sorted(ids[p] for p in perm[:size_y])
        size_x = int(rng.integers(0, size_y + 1))
        sub = rng.permutation(size_y)
        lower = sorted(upper[p] for p in sub[:size_x])
        outside = [i for i in ids if i not in set(upper)]
        item = int(outside[rng.integers(0, len(outside))])
        lo = frozenset(lower)
        hi = frozenset(upper)
        lower_gain = float(fn(lo | {item})) - float(fn(lo))
        upper_gain = float(fn(hi | {item})) - float(fn(hi))
        if lower_gain < upper_gain - tolerance:
            violations.append(ProbeViolation(tuple(lower), tuple(upper), item, lower_gain, upper_gain))
            if len(violations) >= max_violations:
                break
    return ProbeReport(trials=trials, tolerance=tolerance, violations=tuple(violations))
