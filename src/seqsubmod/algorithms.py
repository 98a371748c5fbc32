"""Solvers for position-weighted sequential selection.

The randomized greedy family shares one mechanic: repeatedly take the
candidate with the largest positive weighted marginal, keep it only with
probability p, and never reconsider a rejected item.  On top of that sit the
fixed-length variant (random backup fill), the two-block strategy for
homogeneous objectives on large k (forward greedy on the first half versus a
complement greedy assembled back-to-front), exhaustive search for small
instances, and the two comparison baselines.  Every greedy, the covdiv
baseline included, runs one loop, ``_greedy``, over one of two marginal
engines: ``_BatchedEngine`` for an oracle with a numpy ``incremental()``
state, and ``_ListEngine`` for the rest, which sums per-term gains read from
a ``running_gains()`` list, else ``marginal`` calls, else value differences.
The complement greedy is ``sampling_greedy`` on the homogeneous bundle of
g(S) = f(V minus S) whose positions all weigh 1.  ``ALGORITHMS`` names the
solvers for the CLI, experiments and bound checks; each of its runs reads
its bundle, greedy accepts and F from a ``_RoundMemo``.

Randomness policy: every random draw comes from a counter-based SplitMix64
stream named by (seed, tag) (Steele, Lea & Flood, OOPSLA 2014).  A solver
draws its coins from the stream (seed, "coins") and its backup fill from
(seed, "backup"); child seeds, such as the two halves of the two-block
solver and an experiment's rounds, are draws of the streams (seed, "half")
and (seed, "round") at an integer index.  The arithmetic is 64-bit integer
work (Python ints, and numpy uint64 blocks for long streams), so runs are
reproducible across platforms, two solvers on one seed see the same coins,
and the global ``random`` and ``np.random`` states are never read or written.
Draw t of a stream is a function of (seed, tag, t) alone, so a bound check
or an experiment keys the streams of all its rounds in one numpy pass
(``_StreamBatch``): the same integers, computed per call instead of per
round.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .core import (
    EvalCounter,
    ObjectiveBundle,
    OracleEvaluationError,
    Sequence,
    _gain,
    evaluate_F,
    homogeneous_bundle,
)
from .functions import ComplementFn, CoverageDiversityFn

P_STAR = (math.sqrt(3.0) - 1.0) / 2.0
FLEXIBLE = "flexible"
FIXED = "fixed"

ENUMERATION_LIMIT = 10_000_000  # (set, next item) extensions brute_force may search
MEMO_LIMIT = 100_000


class InfeasibleError(ValueError):
    """The requested selection length cannot be met on this ground set."""


class EnumerationTooLargeError(ValueError):
    """Exhaustive search would exceed the extension-count guard."""


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling probability and master seed for one solver run."""

    p: float = P_STAR
    seed: int = 0
    # (batch, row) when a _StreamBatch built this config and serves its
    # streams; None draws them one by one.  Not an argument, and not part of
    # ==, hash or repr: the streams are the same either way.
    _row: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0, 1]")


# ---------------------------------------------------------------------------
# Random streams.

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's odd increment, 2^64 / golden ratio


def _mix64(z: int) -> int:
    """SplitMix64's output function, a bijection of the 64-bit words."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _absorb(h: int, value: int) -> int:
    """Hash state h after absorbing the 64-bit words of ``value`` >= 0, low
    word first (at least one word).  Each step is bijective in its word."""
    while True:
        h = _mix64(((h ^ (value & _MASK)) + GAMMA) & _MASK)
        value >>= 64
        if not value:
            return h


@functools.lru_cache(maxsize=256)
def _tag_state(tag: str, negative: bool) -> int:
    return _absorb(0, int.from_bytes((b"-" if negative else b"+") + tag.encode(), "big"))


def stream_key(seed: int, tag: str) -> int:
    """The 64-bit key of the stream (seed, tag).

    The tag and the seed's sign are absorbed first, then the 64-bit words of
    |seed|, low word first.  Every seed in [0, 2^64) is one word, so those
    seeds get pairwise-distinct keys per tag.  A negative seed or one of
    2^64 and above is absorbed whole, every bit of it counts, and its key
    equals the key of exactly one seed in [0, 2^64): a 64-bit key cannot tell
    every integer apart.  So ``-5`` and ``2**64 + 5`` are keyed apart from
    ``5``, not folded onto it.
    """
    if 0 <= seed <= _MASK:  # one word: _absorb's first step
        return _mix64(((_tag_state(tag, False) ^ seed) + GAMMA) & _MASK)
    return _absorb(_tag_state(tag, seed < 0), abs(seed))


_FIRST, _BLOCK, _BATCH = 8, 256, 1024
_NP_GAMMA, _NP_M1, _NP_M2 = (np.uint64(c) for c in (GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_NP_30, _NP_27, _NP_31, _NP_11 = (np.uint64(s) for s in (30, 27, 31, 11))
_FIRST_COUNTERS = np.arange(1, _FIRST + 1, dtype=np.uint64)
_CODE_WEIGHTS = np.uint64(1) << np.arange(_FIRST, dtype=np.uint64)  # coin t is bit t


def _np_draws(keys, counters: np.ndarray) -> np.ndarray:
    """``_mix64(key + c * GAMMA)`` for the uint64 keys and array of counters
    c, broadcast: draw c - 1 of the streams keyed ``keys``.  Array
    arithmetic wraps mod 2^64 as the masks do (a product of numpy scalars
    would warn on overflow)."""
    z = keys + counters * _NP_GAMMA
    z ^= z >> _NP_30
    z *= _NP_M1
    z ^= z >> _NP_27
    z *= _NP_M2
    z ^= z >> _NP_31
    return z


def _blocks(key: int, first: list | None = None):
    """The draws of the stream keyed ``key`` in blocks: draw t = 0, 1, ... is
    ``_mix64(key + (t + 1) * GAMMA)``, the SplitMix64 sequence seeded with key.

    The first _FIRST draws are ``first`` when a _StreamBatch computed them,
    else computed one at a time, as they are read; the rest come in numpy
    blocks of _BLOCK.  One block costs about as much as ten scalar draws, so
    a short stream (the coins of a small instance) stays scalar, and a long
    one (the coins of a k=50 greedy) pays for one block instead of a hundred
    scalar draws.
    """
    yield first if first is not None else (
        _mix64((key + t * GAMMA) & _MASK) for t in range(1, _FIRST + 1))
    for start in itertools.count(_FIRST + 1, _BLOCK):
        yield _np_draws(np.uint64(key), np.arange(start, start + _BLOCK, dtype=np.uint64)).tolist()


class SplitMix64:
    """The counter-based stream (seed, tag): the draws of ``_blocks`` for
    ``stream_key(seed, tag)``, read one by one.  Coins compare the top 53
    bits with p; bounded integers reject the biased tail; samples are
    partial Fisher-Yates."""

    __slots__ = ("_draws",)

    def __init__(self, seed: int, tag: str):
        self._draws = itertools.chain.from_iterable(_blocks(stream_key(seed, tag)))

    @classmethod
    def _keyed(cls, key: int, first: list) -> SplitMix64:
        """The stream keyed ``key`` whose first _FIRST draws are ``first``."""
        stream = cls.__new__(cls)
        stream._draws = itertools.chain.from_iterable(_blocks(key, first))
        return stream

    def next64(self) -> int:
        return next(self._draws)

    def below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) for 1 <= n <= 2^64: draws at or
        above the largest multiple of n are redrawn."""
        limit = (1 << 64) - (1 << 64) % n
        for x in self._draws:
            if x < limit:
                return x % n

    def coins(self, p: float):
        """Bernoulli(p) bits as bools, one per draw x: (x >> 11) * 2^-53 < p,
        that is, x < ceil(p * 2^53) * 2^11."""
        return map((math.ceil(p * 2.0 ** 53) << 11).__gt__, self._draws)

    def sample(self, pool, m: int) -> list:
        """Uniform ordered m-subset of ``pool``, in draw order: the first m
        steps of a Fisher-Yates shuffle."""
        items = list(pool)
        if not 0 <= m <= len(items):
            raise ValueError(f"cannot draw {m} of {len(items)} items")
        for i in range(m):
            j = i + self.below(len(items) - i)
            items[i], items[j] = items[j], items[i]
        return items[:m]


def derive_seed(base_seed: int, tag: str, index: int = 0) -> int:
    """Child seed ``index`` of a named sub-stream: draw ``index`` of the
    stream (base_seed, tag), read at random access.  A 64-bit value; for one
    (base_seed, tag) the seeds of indices 0..2^64-1 are pairwise distinct,
    since ``_mix64`` is a bijection and GAMMA is odd."""
    return _mix64((stream_key(base_seed, tag) + (index + 1) * GAMMA) & _MASK)


class _StreamBatch:
    """The streams of a run of one-word seeds, keyed together.

    SplitMix64 is counter-based: draw t of the stream (s, tag) is a function
    of s, tag and t alone, so the streams of many seeds can be keyed in one
    numpy pass.  Row i is the seed ``seeds[i]``.  The first time any row
    asks for a stream tag, the batch computes every row's ``stream_key``
    (its one-word branch) and first _FIRST draws; the first time any row
    asks for a child seed (tag, index), it computes every row's
    ``derive_seed`` as a batch of its own.  ``config(p, i)`` is
    SamplerConfig(p, seeds[i]) carrying its row, so ``_stream`` and
    ``_derived`` read the batch where they would key a stream.
    ``coin_code(i, p)`` packs row i's first _FIRST Bernoulli(p) coins,
    coin t as bit t, from the same first draws.
    """

    def __init__(self, seeds: np.ndarray):
        self._array = seeds
        self.seeds = seeds.tolist()
        self._children: dict = {}
        self._streams: dict = {}
        self._codes: dict = {}

    def _keys(self, tag: str) -> np.ndarray:
        # stream_key's one-word branch: draw 0 of the stream keyed tag ^ seed
        return _np_draws(self._array ^ np.uint64(_tag_state(tag, False)), _FIRST_COUNTERS[:1])

    def _column(self, tag: str) -> tuple:
        """Every row's key and first _FIRST draws of the stream tag, as
        lists, and the draws as an array; one numpy pass per tag."""
        column = self._streams.get(tag)
        if column is None:
            keys = self._keys(tag)
            draws = _np_draws(keys[:, None], _FIRST_COUNTERS)
            column = self._streams[tag] = (keys.tolist(), draws.tolist(), draws)
        return column

    def config(self, p: float, i: int) -> SamplerConfig:
        cfg = SamplerConfig(p, self.seeds[i])
        object.__setattr__(cfg, "_row", (self, i))
        return cfg

    def child(self, tag: str, index: int) -> _StreamBatch:
        batch = self._children.get((tag, index))
        if batch is None:
            counter = np.full(1, (index + 1) & _MASK, dtype=np.uint64)
            batch = self._children[tag, index] = _StreamBatch(_np_draws(self._keys(tag), counter))
        return batch

    def stream(self, i: int, tag: str) -> SplitMix64:
        keys, first, _ = self._column(tag)
        return SplitMix64._keyed(keys[i], first[i])

    def coin_code(self, i: int, p: float) -> int:
        codes = self._codes.get(p)
        if codes is None:
            # SplitMix64.coins' test x < ceil(p * 2^53) * 2^11, taken on
            # x >> 11: at p = 1 the threshold 2^64 is no uint64
            coins = self._column("coins")[2] >> _NP_11 < np.uint64(math.ceil(p * 2.0 ** 53))
            codes = self._codes[p] = (coins @ _CODE_WEIGHTS).tolist()
        return codes[i]


def _child_configs(p: float, seed: int, tag: str, count: int):
    """SamplerConfig(p, derive_seed(seed, tag, i)) for i in range(count),
    each served by its row of a _StreamBatch of at most _BATCH seeds."""
    key = np.uint64(stream_key(seed, tag))
    for start in range(0, count, _BATCH):
        stop = min(count, start + _BATCH)
        batch = _StreamBatch(_np_draws(key, np.arange(start + 1, stop + 1, dtype=np.uint64)))
        for i in range(stop - start):
            yield batch.config(p, i)


def _stream(cfg: SamplerConfig, tag: str) -> SplitMix64:
    """The stream (cfg.seed, tag), from cfg's batch row when it has one."""
    if cfg._row is None:
        return SplitMix64(cfg.seed, tag)
    batch, i = cfg._row
    return batch.stream(i, tag)


def _derived(cfg: SamplerConfig, tag: str, index: int) -> SamplerConfig:
    """SamplerConfig(cfg.p, derive_seed(cfg.seed, tag, index)), from cfg's
    batch row when it has one."""
    if cfg._row is None:
        return SamplerConfig(cfg.p, derive_seed(cfg.seed, tag, index))
    batch, i = cfg._row
    return batch.child(tag, index).config(cfg.p, i)


def _coins(cfg: SamplerConfig, forced):
    """The coin bits of a greedy run: ``forced`` when given (tests), else
    the Bernoulli(cfg.p) coins of the stream (cfg.seed, "coins")."""
    return iter(forced) if forced is not None else _stream(cfg, "coins").coins(cfg.p)


@dataclass(frozen=True)
class GreedyTrace:
    """Audit log of one greedy run.

    ``considered`` holds (item, weighted marginal at its step, coin) in
    consideration order; items with coin 1 are exactly the output, in order.
    """

    considered: tuple[tuple[int, float, int], ...]
    output: Sequence


def _finite(position: int, item: int, gain) -> float:
    """``gain`` as a float; OracleEvaluationError at ``position`` if it is
    NaN or infinite, which ``gain > 0`` would otherwise silently skip."""
    gain = float(gain)
    if not math.isfinite(gain):
        raise OracleEvaluationError(position, f"non-finite marginal {gain} for item {item}")
    return gain


# ---------------------------------------------------------------------------
# Marginal engines.  One greedy step needs the weighted marginal
# sum_{j>=t} lambda_j * f_j(i | pi) of every surviving candidate; the engines
# batch that per epoch (the stretch between two accepts, during which the
# marginals of the surviving candidates do not change).  ``_greedy`` calls
# ``remove`` on every candidate it considers and then ``accept`` on a kept one.


class _BatchedEngine:
    """Candidate gains from a batched incremental state: ``gains()`` returns
    the id-indexed vector of f(i | S) (at least ``size`` long) and ``add(i)``
    grows S.  Position t weighs the gains by ``suffix_weight(t)``, and each
    epoch counts one oracle call per survivor on ``counter``.

    Survivors live in a boolean mask indexed by item id.  Every epoch scores
    them in one numpy pass into an id-indexed vector of weighted gains (-inf
    for dead or non-positive candidates) and hands candidates out by
    repeated ``argmax``, which returns the lowest id among equal maxima: the
    order is "weighted gain desc, id asc", and a coin stream that accepts
    after a few candidates pays for those few, not for a full sort.  An epoch
    that outlasts ARGMAX_PICKS candidates ranks the rest with one ``lexsort``.
    A kept candidate was removed first, so accepting it only grows the state.
    """

    ARGMAX_PICKS = 8

    def __init__(self, gains, add, suffix_weight, counter: EvalCounter, candidates, size: int):
        self._gains = gains
        self.accept = add
        self._suffix_weight = suffix_weight
        self._counter = counter
        self._alive = np.zeros(size, dtype=bool)
        self._alive[np.fromiter(candidates, np.intp)] = True
        self._count = int(self._alive.sum())

    def positive_candidates(self, t: int) -> Iterable[tuple[int, float]]:
        """(item, weighted gain) for gains > 0, ordered by gain desc, id asc."""
        w = self._suffix_weight(t)
        if w == 0.0 or not self._count:
            return ()
        gains = self._gains()[:self._alive.size]
        self._counter.add(self._count)
        if not np.isfinite(gains).all():
            for item in np.flatnonzero(self._alive & ~np.isfinite(gains)).tolist():
                _finite(t, item, gains[item])
        # Rank on w * gain, as the pairs report it: two raw gains can round
        # to one weighted value, and then the id decides.
        vals = np.where(self._alive & (gains > 0.0), w * gains, -np.inf)
        return self._ranked(vals)

    def _ranked(self, vals: np.ndarray):
        for _ in range(self.ARGMAX_PICKS):
            item = int(vals.argmax())
            top = vals[item]
            if top == -np.inf:
                return
            vals[item] = -np.inf
            yield item, float(top)
        items = np.flatnonzero(vals > -np.inf)
        rest = vals[items]
        order = np.lexsort((items, -rest))
        yield from zip(items[order].tolist(), rest[order].tolist())

    def remove(self, item: int) -> None:
        self._alive[item] = False
        self._count -= 1


class _ListEngine:
    """Candidate gains sum_j w_j * f_j(i | S) over a list of oracle terms,
    summed in position order, for oracles without a batched state.

    ``weights`` is either the profile lambda_1..lambda_k of ``oracles``, one
    term per position j with lambda_j != 0 (a heterogeneous bundle), or a
    function ``suffix_weight(t)`` for a single oracle, whose one term sits at
    position t with that weight (a homogeneous bundle).  ``candidates`` are
    ascending item ids.

    Each term reads its oracle's gains by one rule: the id-indexed list of
    its own ``running_gains()`` state, else one ``marginal`` call per candidate,
    else f(S + i) - f(S) from one base value per epoch and one grown-set
    value per candidate; every read is counted on ``counter``.  A non-finite
    gain, or any exception raised while scoring, is an OracleEvaluationError
    at the term's position.
    """

    def __init__(self, oracles, weights, counter: EvalCounter, candidates):
        self.members: set = set()
        self.alive = list(candidates)
        self._counter = counter
        self._suffix_weight = weights if callable(weights) else None
        self._states: list = []
        # The last term has the largest position: it is read whenever any is.
        if self._suffix_weight is not None:
            self._head, self._last = (), self._term(1, 1.0, oracles[0])
        else:
            terms = [self._term(j, w, oracle) for j, (w, oracle)
                     in enumerate(zip(weights, oracles), start=1) if w != 0.0]
            self._head, self._last = terms[:-1], terms[-1] if terms else (0, 0.0, None, None, None)

    def _term(self, j: int, w: float, oracle) -> tuple:
        state = oracle.running_gains() if hasattr(oracle, "running_gains") else None
        if state is not None:
            self._states.append(state)
        return j, w, oracle, state, getattr(oracle, "marginal", None)

    def positive_candidates(self, t: int) -> Iterable[tuple[int, float]]:
        """(item, weighted gain) for gains > 0, ordered by gain desc, id asc."""
        alive = self.alive
        j, w, oracle, state, marginal = self._last
        if self._suffix_weight is not None:
            j, w = t, self._suffix_weight(t)
        if j < t or w == 0.0 or not alive:
            return ()
        sums = None
        for h, v, *read in self._head:
            if h >= t:
                gains = self._gains(h, *read, alive)
                sums = ([v * gains[i] for i in alive] if sums is None else
                        [s + v * gains[i] for s, i in zip(sums, alive)])
        # The last term's pass also adds it in and keeps the positive sums,
        # so a single term costs one pass over the candidates.
        gains = self._gains(j, oracle, state, marginal, alive)
        if sums is None:
            pairs = [(i, s) for i in alive if (s := w * gains[i]) > 0.0]
        else:
            pairs = [(i, s) for i, p in zip(alive, sums) if (s := p + w * gains[i]) > 0.0]
        # A reversed sort stays stable, so equal gains keep their id order.
        pairs.sort(key=itemgetter(1), reverse=True)
        return pairs

    def _gains(self, j: int, oracle, state, marginal, alive: list):
        """f(i | S) indexed by item id for every alive i, read by the term's
        rule at position j: the running list itself, else a dict."""
        try:
            if state is not None:
                self._counter.add(len(alive))
                gains = state.gains
            elif marginal is not None:
                self._counter.add(len(alive))
                members = self.members
                gains = {i: float(marginal(i, members)) for i in alive}
            else:
                self._counter.add(len(alive) + 1)
                members = self.members
                base = float(oracle(frozenset(members)))
                gains = {i: float(oracle(frozenset(members | {i}))) - base for i in alive}
        except OracleEvaluationError:
            raise
        except Exception as exc:
            raise OracleEvaluationError(j, str(exc)) from exc
        # A sum is finite only if every summand is, so one sum per read keeps
        # the per-candidate check off the common path.
        if not math.isfinite(sum(gains if state is not None else gains.values())):
            for i in alive:
                _finite(j, i, gains[i])
        return gains

    def remove(self, item: int) -> None:
        self.alive.remove(item)

    def accept(self, item: int) -> None:
        self.members.add(item)
        for state in self._states:
            state.add(item)


def _make_engine(bundle: ObjectiveBundle, candidates):
    """The batched engine for a homogeneous oracle with ``incremental()``,
    else the list engine."""
    if not bundle.homogeneous:
        return _ListEngine(bundle.oracles, bundle.weights.lambdas, bundle.counter, candidates)
    oracle = bundle.base_oracle
    if hasattr(oracle, "incremental"):
        state = oracle.incremental()
        return _BatchedEngine(state.gains, state.add, bundle.weights.suffix_sum, bundle.counter,
                              candidates, bundle.ground[-1] + 1)
    return _ListEngine((oracle,), bundle.weights.suffix_sum, bundle.counter, candidates)


def _complement_bundle(base, ground, cap: int, counter: EvalCounter | None = None) -> ObjectiveBundle:
    """The homogeneous bundle of g(S) = f(V minus S) over V = ``ground`` with
    ``cap`` >= 1 positions: only the last weighs 1, so suffix_sum(t) is
    exactly 1.0 at every t <= cap.  sampling_greedy on it is the complement
    greedy capped at ``cap`` accepts; a modular base's ``complement_gains``
    or ``ComplementFn.marginal`` give the gains."""
    fn = ComplementFn(base, ground)
    return homogeneous_bundle(fn, (0.0,) * (cap - 1) + (1.0,), ground=fn.ground, counter=counter)


def _unit_weight(t: int) -> float:
    return 1.0


def _check_constraint(constraint: str) -> None:
    if constraint not in (FLEXIBLE, FIXED):
        raise ValueError(f"unknown constraint {constraint!r}")


def _check_covdiv_oracle(oracle) -> None:
    """The covdiv baseline reads the diversity state of a CoverageDiversityFn."""
    if not isinstance(oracle, CoverageDiversityFn):
        raise ValueError(f"the covdiv baseline needs a CoverageDiversityFn oracle, "
                         f"got {type(oracle).__name__}")


def _check_k(bundle: ObjectiveBundle, k) -> int:
    if k is None:
        k = bundle.k
    if k != bundle.k:
        raise ValueError(f"k={k} must match the weight profile length {bundle.k}")
    if k > bundle.n:
        raise InfeasibleError(f"k={k} exceeds the ground set size {bundle.n}")
    return k


_END = object()


def _greedy(engine, k: int, coins, considered: list | None = None) -> tuple[int, ...]:
    """The loop every greedy here runs: at each position t <= k take the
    engine's positive candidates best first, drop each from the pool
    and keep the first whose coin lands 1.  ``coins`` is an iterator of
    bits, one read per considered candidate; running out of it raises.
    Stops at k accepts, or when a position has no positive candidate or
    rejects them all.  Returns the accepts in order; ``considered`` collects
    (item, gain, coin) with coin 0 or 1 when given.
    """
    out: list[int] = []
    t = 1
    while t <= k:
        for item, gain in engine.positive_candidates(t):
            engine.remove(item)
            bit = next(coins, _END)
            if bit is _END:
                raise RuntimeError("forced coin stream exhausted")
            if considered is not None:
                considered.append((item, gain, 1 if bit else 0))
            if bit:
                out.append(item)
                engine.accept(item)
                t += 1
                break
        else:
            break
    return tuple(out)


# ---------------------------------------------------------------------------
# Core samplers.


def sampling_greedy(bundle: ObjectiveBundle, k=None, cfg: SamplerConfig | None = None,
                    *, coins=None) -> tuple[Sequence, GreedyTrace]:
    """Deferred-coin randomized greedy under the at-most-k constraint.

    Each round considers the surviving candidate with the largest positive
    weighted marginal sum_{j>=t} lambda_j * f_j(i | pi), removes it from the
    pool whatever happens, and appends it only if a Bernoulli(p) coin lands 1.
    Stops when k items are placed or no candidate has positive gain.

    Args:
        bundle: problem instance; k must equal bundle.k if given.
        cfg: sampling probability and seed (defaults to p* and seed 0).
        coins: optional iterable of forced bits (tests).

    Returns:
        (sequence, trace); the trace records every considered item with its
        gain and coin.
    """
    cfg = cfg if cfg is not None else SamplerConfig()
    k = _check_k(bundle, k)
    considered: list[tuple[int, float, int]] = []
    seq = Sequence(_greedy(_make_engine(bundle, bundle.ground), k, _coins(cfg, coins), considered))
    return seq, GreedyTrace(tuple(considered), seq)


def presampled_greedy(bundle: ObjectiveBundle, k=None, cfg: SamplerConfig | None = None,
                      *, subset=None) -> Sequence:
    """Two-phase equivalent of sampling_greedy: sample first, then greed.

    Phase one keeps each ground item independently with probability p; phase
    two runs the deterministic positive-marginal greedy on the kept pool until
    min(k, pool size) items are placed.  Output-distribution-identical to the
    deferred-coin form under matching seeds is not promised item-for-item, but
    the two induce the same law.

    ``subset`` forces the phase-one pool (tests).
    """
    cfg = cfg if cfg is not None else SamplerConfig()
    k = _check_k(bundle, k)
    if subset is None:
        pool = list(itertools.compress(bundle.ground, _coins(cfg, None)))
    else:
        pool = sorted(set(int(i) for i in subset))
        if not set(pool) <= set(bundle.ground):
            raise ValueError("forced subset contains items outside the ground set")
    cap = min(k, len(pool))
    return Sequence(_greedy(_make_engine(bundle, pool), cap, itertools.repeat(1)))


def _draw_backup(cfg: SamplerConfig, pool: list[int], m: int, forced) -> list[int]:
    """Uniform m-subset of pool in draw order from cfg's backup stream, for
    0 <= m <= len(pool) (every caller's fill fits its pool); forced lists are
    validated.  The stream is keyed only for a draw of m > 0 items (an empty
    draw consumes no state, so skipping it changes nothing)."""
    if forced is not None:
        picked = [int(i) for i in forced]
        if len(picked) != m:
            raise ValueError(f"forced backup must have exactly {m} items")
        if len(set(picked)) != len(picked) or not set(picked) <= set(pool):
            raise ValueError("forced backup must be distinct unused items")
        return picked
    if m == 0:
        return []
    return _stream(cfg, "backup").sample(pool, m)


def fixed_length_solve(bundle: ObjectiveBundle, k=None, cfg: SamplerConfig | None = None,
                       *, coins=None, backup=None) -> Sequence:
    """Exactly-k variant: run sampling_greedy, then pad with random unused items.

    The pad is a uniform (k - len)-subset of the untouched items, appended in
    ascending id order.  ``backup`` forces the pad set (tests).
    """
    cfg = cfg if cfg is not None else SamplerConfig()
    k = _check_k(bundle, k)
    seq, _ = sampling_greedy(bundle, k, cfg, coins=coins)
    return Sequence(_pad_to_k(bundle, seq.items, k, cfg, backup))


def _pad_to_k(bundle: ObjectiveBundle, items: tuple, k: int, cfg: SamplerConfig,
              forced=None) -> tuple:
    """``items`` plus a uniform draw of k - len(items) unused ground items from
    cfg's backup stream, in ascending id order; ``forced`` fixes the draw.
    No oracle calls."""
    if len(items) == k:
        return items
    pool = sorted(bundle.ground_set.difference(items))
    extra = _draw_backup(cfg, pool, k - len(items), forced)
    return items + tuple(sorted(extra))


# ---------------------------------------------------------------------------
# Homogeneous objectives with k >= ceil(n/2): two complementary strategies.


def _half(n: int) -> int:
    return (n + 1) // 2


def _require_homogeneous(bundle: ObjectiveBundle, who: str) -> None:
    if not bundle.homogeneous:
        raise ValueError(f"{who} requires a homogeneous bundle")


def homogeneous_first_half(bundle: ObjectiveBundle, k=None, cfg: SamplerConfig | None = None,
                           *, coins=None, backup=None) -> Sequence:
    """Optimize the first ceil(n/2) positions, then pad to k.

    Positions past ceil(n/2) are ignored during optimization (their weights
    are dropped), so the core is a fixed-length solve of the truncated
    problem; the pad appends unused items in ascending id order.
    """
    cfg = cfg if cfg is not None else SamplerConfig()
    _require_homogeneous(bundle, "homogeneous_first_half")
    k = _check_k(bundle, k)
    h = _half(bundle.n)
    if k < h:
        raise InfeasibleError(f"k={k} below ceil(n/2)={h}; use the direct fixed-length solver")
    accepted, _ = sampling_greedy(bundle.head(h), h, cfg, coins=coins)
    return Sequence(_first_half(bundle, accepted.items, cfg, backup))


def _first_half(bundle: ObjectiveBundle, accepted: tuple, cfg: SamplerConfig,
                forced=None) -> tuple:
    """The first-half items from the accepts of the greedy on
    ``bundle.head(ceil(n/2))``: padded to ceil(n/2) from cfg's backup stream,
    then by the unused items in ascending id order up to k."""
    core = _pad_to_k(bundle, accepted, _half(bundle.n), cfg, forced)
    return core + tuple(sorted(bundle.ground_set.difference(core)))[: bundle.k - len(core)]


def alg2_second_half(bundle: ObjectiveBundle, k=None, cfg: SamplerConfig | None = None,
                     *, coins=None, forced_accepted=None, forced_backup=None) -> Sequence:
    """Back-to-front assembly via the complement function.

    Runs the sampled greedy on g(S) = f(V minus S), capped at ceil(n/2)
    accepts, collecting acceptance order U.  The output places the accepts
    made after the first n-k at the very end in reverse acceptance order,
    preceded by a uniform random fill B (in draw order) that tops the accepted
    block up to ceil(n/2), preceded by everything else in ascending order:

        rest (ascending)  +  B (draw order)  +  reversed(U[n-k:])

    ``forced_accepted`` bypasses the greedy phase and ``forced_backup`` the
    fill draw (tests; pass ordered iterables when the order matters).
    """
    cfg = cfg if cfg is not None else SamplerConfig()
    _require_homogeneous(bundle, "alg2_second_half")
    k = _check_k(bundle, k)
    h = _half(bundle.n)
    if k < h:
        raise InfeasibleError(f"k={k} below ceil(n/2)={h}")
    if forced_accepted is not None:
        added = [int(i) for i in forced_accepted]
        if len(set(added)) != len(added) or not set(added) <= set(bundle.ground):
            raise ValueError("forced accepted items must be distinct ground items")
        if len(added) > h:
            raise ValueError(f"at most ceil(n/2)={h} accepted items")
    else:
        complement = _complement_bundle(bundle.base_oracle, bundle.ground, h, bundle.counter)
        added = sampling_greedy(complement, h, cfg, coins=coins)[0].items
    return Sequence(_second_half(bundle, added, cfg, forced_backup))


def _second_half(bundle: ObjectiveBundle, added, cfg: SamplerConfig, forced=None) -> tuple:
    """alg2_second_half's items from the complement greedy's accepts
    ``added``, in acceptance order; cfg's backup stream draws the fill."""
    n, k, h = bundle.n, bundle.k, _half(bundle.n)
    tail = list(reversed(added[n - k:]))
    pool = sorted(bundle.ground_set.difference(added))
    fill = _draw_backup(cfg, pool, h - len(added), forced)
    rest = sorted(bundle.ground_set.difference(added, fill))
    return tuple(rest + fill + tail)


def sampling_greedy_j(oracle, n: int, j: int, cfg: SamplerConfig | None = None,
                      *, ground=None, coins=None, forced_backup=None) -> frozenset:
    """The (n-j)-item complement-greedy set used to analyze suffix positions.

    Runs the sampled greedy on g(S) = f(V minus S) capped at n-j accepts, then
    tops up to exactly n-j with a uniform random fill.  Returns the resulting
    set S^j; the construction matters for j in {ceil(n/2)+1..k}, where the
    prefix sets of alg2_second_half are distributed as V minus S^j, but any
    1 <= j <= n is accepted (j = n degenerates to the empty set).
    """
    cfg = cfg if cfg is not None else SamplerConfig()
    ids = tuple(sorted(int(i) for i in (ground if ground is not None else range(n))))
    if len(ids) != n or len(set(ids)) != n:
        raise ValueError("ground must hold n distinct ids")
    if not 1 <= j <= n:
        raise ValueError(f"j={j} outside 1..{n}")
    cap = n - j
    added = sampling_greedy(_complement_bundle(oracle, ids, cap), cap, cfg,
                            coins=coins)[0].items if cap else ()
    pool = sorted(set(ids) - set(added))
    fill = _draw_backup(cfg, pool, cap - len(added), forced_backup)
    return frozenset(added) | frozenset(fill)


def homogeneous_solve(bundle: ObjectiveBundle, k=None, cfg: SamplerConfig | None = None) -> Sequence:
    """Best-of-two solver for homogeneous objectives, always returning k items.

    Below k = ceil(n/2) the plain fixed-length solver already carries the
    guarantee; from ceil(n/2) on, run both the first-half strategy and the
    back-to-front complement assembly on independently derived sub-seeds and
    keep whichever sequence scores higher (ties favor the first-half
    strategy), truncated to exactly k positions.
    """
    _check_k(bundle, k)
    return Sequence(_homogeneous_run(_RoundMemo(bundle), cfg or SamplerConfig())[0])


def _homogeneous_run(memo: _RoundMemo, cfg: SamplerConfig) -> tuple[tuple, float | None]:
    """The items of homogeneous_solve(memo.bundle, k, cfg), with the
    greedies' accepts and the F values served by ``memo``, and the F its
    two-block branch picked the winner by; None below ceil(n/2), where
    nothing scored the items.  Positions past k never contribute, so a
    two-block sequence's F is its truncation's."""
    bundle = memo.bundle
    _require_homogeneous(bundle, "homogeneous_solve")
    k = _check_k(bundle, None)
    if k < _half(bundle.n):
        return _pad_to_k(bundle, memo.accepts(_PLAIN, cfg), k, cfg), None
    first_cfg, second_cfg = (_derived(cfg, "half", i) for i in (0, 1))
    first = _first_half(bundle, memo.accepts(_HEAD, first_cfg), first_cfg)
    second = _second_half(bundle, memo.accepts(_COMPLEMENT, second_cfg), second_cfg)
    first_value, second_value = memo.value(first), memo.value(second)
    return (first[:k], first_value) if first_value >= second_value else (second[:k], second_value)


# ---------------------------------------------------------------------------
# Memoized rounds.  Below n of about 8 a greedy has a few dozen coin paths,
# and a bound check runs thousands of rounds on one bundle: the rounds are
# served from a trie of the paths that sampling_greedy read and from a table
# of F by item tuple, with the outputs of plain solver runs.

_PLAIN, _HEAD, _COMPLEMENT = "plain", "head", "complement"


class _RoundMemo:
    """The greedy runs and F values of one bundle.  Every ``ALGORITHMS`` run
    reads its bundle from one: a standalone run builds a fresh memo, so its
    oracle calls are those of one execution, and a bound check keeps one per
    call.

    ``accepts(greedy, cfg)`` gives the accepts that sampling_greedy makes on
    cfg's coins on the bundle (_PLAIN), on ``bundle.head(ceil(n/2))``
    (_HEAD) or on the complement bundle of alg2_second_half (_COMPLEMENT),
    as an item tuple.  Each greedy keeps a slot [root, bundle] of a trie
    keyed by the coin bits its runs read.  The root has 2^_FIRST entries, one
    per code of the first _FIRST coins (coin t is bit t); below it an
    internal node is a list [child after a 0, child after a 1].  A leaf is
    the accepts of every run that reads exactly the bits on its path (for
    n <= _FIRST, every path ends at the root), and a path of d <= _FIRST bits
    fills the 2^(_FIRST - d) root entries whose codes extend it; an unknown
    child is None.  A cfg with a _StreamBatch row reads its code there, so
    a hit at the root keys no stream; any other cfg reads the first coins of
    its stream.  On a miss the greedy runs on cfg, and the bits its
    GreedyTrace shows it read are stored with its accepts where the lookup
    stopped.  A run is a function of the bits it reads, so no stored path is
    a prefix of another, and a lookup returns what a run on cfg returns.
    ``value(items)`` is evaluate_F(bundle, items), kept by ``items[:k]`` (F
    reads no item past k).

    ``_size`` counts every stored id: one per bit below the root, and a
    leaf's or an F key's items plus one.  It is capped at MEMO_LIMIT; past
    it a miss is computed and not stored.
    """

    def __init__(self, bundle: ObjectiveBundle):
        self.bundle = bundle
        self._trees: dict = {}
        self._values: dict = {}
        self._size = 0

    def accepts(self, greedy: str, cfg: SamplerConfig) -> tuple:
        slot = self._trees.get(greedy)
        if slot is None:
            bundle = self.bundle
            if greedy == _HEAD:
                bundle = bundle.head(_half(bundle.n))
            elif greedy == _COMPLEMENT:
                bundle = _complement_bundle(bundle.base_oracle, bundle.ground, _half(bundle.n),
                                            bundle.counter)
            slot = self._trees[greedy] = [[None] * (1 << _FIRST), bundle]
        row, coins = cfg._row, None
        if row is None:
            coins = _coins(cfg, None)
            at = sum(bit << t for t, bit in enumerate(itertools.islice(coins, _FIRST)))
        else:
            at = row[0].coin_code(row[1], cfg.p)
        parent, depth = slot[0], _FIRST
        node = parent[at]
        if node.__class__ is list:
            if coins is None:
                coins = itertools.islice(_coins(cfg, None), _FIRST, None)
            while node.__class__ is list:
                parent, at, depth = node, next(coins), depth + 1
                node = node[at]
        if node is not None:
            return node
        seq, trace = sampling_greedy(slot[1], slot[1].k, cfg)
        path = [coin for _, _, coin in trace.considered]
        read = path[depth:]
        size = self._size + len(read) + len(seq.items) + 1
        if size <= MEMO_LIMIT:
            self._size, branch = size, seq.items
            if len(path) < _FIRST:  # at the root: every code that extends the path
                for code in range(at % (1 << len(path)), 1 << _FIRST, 1 << len(path)):
                    parent[code] = branch
            else:
                for bit in reversed(read):
                    branch = [None, branch] if bit else [branch, None]
                parent[at] = branch  # the empty entry or child where the lookup stopped
        return seq.items

    def value(self, items: tuple) -> float:
        key = items[:self.bundle.k]
        value = self._values.get(key)
        if value is None:
            value = evaluate_F(self.bundle, items)
            if self._size + len(key) + 1 <= MEMO_LIMIT:
                self._size += len(key) + 1
                self._values[key] = value
        return value


# ---------------------------------------------------------------------------
# Exhaustive search and baselines.


def brute_force(bundle: ObjectiveBundle, k=None, constraint: str = FLEXIBLE) -> tuple[Sequence, float]:
    """Optimal sequence and its F by a forward DP over prefix sets (Bellman,
    JACM 1962; Held & Karp, 1962).  Flexible searches lengths 0..k, fixed
    exactly k; ties go to the lexicographically smallest item tuple.

    Term j of F is lambda_j * f_j of the j-item prefix set, so orderings of
    one set S differ only in their partial sum P.  A pass reads each set
    once through ``bundle.oracle_value`` (heterogeneous flexible also reads
    f_j(S), j > |S|, for the saturated suffix); F adds in ``evaluate_F``'s
    order, and fl(P + c) is nondecreasing in P, so the maximum has the
    enumeration's bits.  For the tuple each set keeps a staircase, ascending
    tuples with rising P: a smaller tuple with no smaller P dominates, and
    one with a smaller P stays while its gap is at most k * 2^-51 *
    sum(lambda) * max|f|.  Every sum stays below B = 2 * sum(lambda) *
    max|f|, so each of the <= k additions left narrows a gap by at most
    2 * 2^-53 * B, and a larger gap survives rounding.  max|f| is final only
    at the end, so a pass that pruned a gap within the final bound reruns,
    reading every set again.
    More than ENUMERATION_LIMIT (set, next item) extensions raise first.
    """
    k = _check_k(bundle, k)
    _check_constraint(constraint)
    n, lams, homogeneous = bundle.n, bundle.weights.lambdas, bundle.homogeneous
    extensions = sum(math.comb(n, m) * (n - m) for m in range(k))
    if extensions > ENUMERATION_LIMIT:
        raise EnumerationTooLargeError(
            f"{extensions} set extensions exceed the {ENUMERATION_LIMIT} enumeration guard")
    flexible, reach, top = constraint == FLEXIBLE, 2.0 ** -51 * k * math.fsum(lams), 0.0

    def read(j, items):
        nonlocal top
        value = bundle.oracle_value(j, frozenset(items))
        top = max(top, abs(value))
        return value

    for _ in range(2):  # the second pass prunes at the max|f| of the first
        best, pruned = (-math.inf, ()), math.inf
        # set bitmask -> (f(S) homogeneous, f_|S|(S) heterogeneous; staircase)
        layer = {0: (read(1, ()) if flexible and homogeneous else None, [(0.0, ())])}
        for m in range(k + 1):
            for value, stair in layer.values() if flexible or m == k else ():
                if homogeneous:
                    terms = [bundle.weights.suffix_sum(m + 1) * value] if m < k else []
                else:
                    terms = [lams[j - 1] * read(j, stair[0][1]) for j in range(m + 1, k + 1)]
                for total, items in stair:
                    for term in terms:
                        total += term
                    if total > best[0] or total == best[0] and items < best[1]:
                        best = total, items
            if m == k:
                break
            grown = {}
            # The layer's orderings in tuple order, each extended in id order:
            # every staircase grows in tuple order.
            for items, total, mask in sorted((items, total, mask) for mask, (_, stair)
                                             in layer.items() for total, items in stair):
                for p, item in enumerate(bundle.ground):
                    if mask >> p & 1:
                        continue
                    slot = grown.get(mask | 1 << p)
                    if slot is None:
                        slot = grown[mask | 1 << p] = (read(m + 1, items + (item,)), [])
                    extended, stair = total + lams[m] * slot[0], slot[1]
                    if stair and extended <= stair[-1][0]:
                        continue
                    stair.append((extended, items + (item,)))
                    while extended - stair[0][0] > reach * top:
                        pruned = min(pruned, extended - stair.pop(0)[0])
            layer = grown
        if pruned > reach * top:
            break
    return Sequence(best[1]), best[0]


def baseline_covdiv(fn, bundle: ObjectiveBundle, k=None) -> Sequence:
    """Diversity-only greedy: ignores ratings and the position weights.

    Adds the item with the largest positive marginal of the coverage-minus-
    similarity term until k items are placed or no positive marginal remains:
    ``_greedy`` on the state's diversity gains at weight 1 with every coin 1.
    The result may be shorter than k; ``run_algorithm("covdiv", ...)`` pads
    it under the fixed constraint.  ``fn`` must be a CoverageDiversityFn;
    any other oracle is a ValueError.
    """
    _check_covdiv_oracle(fn)
    k = _check_k(bundle, k)
    state = fn.incremental()
    engine = _BatchedEngine(state.diversity_gains, state.add, _unit_weight, bundle.counter,
                            bundle.ground, bundle.ground[-1] + 1)
    return Sequence(_greedy(engine, k, itertools.repeat(1)))


def baseline_quality(ratings, k: int) -> Sequence:
    """Top-k item ids by rating, descending; ties go to the lowest id.

    Always returns exactly k items regardless of constraint mode.
    """
    if ratings is None:
        raise ValueError("the quality baseline needs item ratings, got None")
    scores = np.asarray(ratings, dtype=float)
    if k > len(scores):
        raise InfeasibleError(f"k={k} exceeds the {len(scores)} rated items")
    if k < 0:
        raise ValueError("k must be nonnegative")
    order = np.argsort(-scores, kind="stable")  # stable: equal ratings keep id order
    return Sequence(tuple(order[:k].tolist()))


# ---------------------------------------------------------------------------
# The algorithm table: every solver name a command accepts.


@dataclass(frozen=True)
class Algorithm:
    """How the commands run one named solver.

    ``run(memo, cfg, constraint, ratings)`` returns the unpadded item tuple
    and the F it already computed for it, else None.  A run reads k and the
    oracle from ``memo.bundle``; the greedy runs (``sg``, ``fixed``,
    ``homog``) take their accepts and F from the ``_RoundMemo``, the quality
    baseline reads ``ratings`` and only ``brute`` reads the constraint.
    Under a constraint in ``pads`` the caller pads the run to k with
    ``_pad_to_k``, so an experiment pads one shared run per cell.
    ``per_seed`` says whether the run changes with the seed; ``commands``
    names the subcommands that take the name.  Runs call the solvers by
    their module-level names, so a wrapper installed on the module sees
    every call.
    """

    run: Callable
    per_seed: bool
    pads: tuple[str, ...]
    commands: tuple[str, ...]


def _greedy_run(memo, cfg, constraint, ratings):
    return memo.accepts(_PLAIN, cfg), None


def _brute_run(memo, cfg, constraint, ratings):
    seq, value = brute_force(memo.bundle, memo.bundle.k, constraint)
    return seq.items, value


_EVERYWHERE = ("solve", "experiment")

ALGORITHMS = {
    "sg": Algorithm(_greedy_run, True, (FIXED,), _EVERYWHERE),
    "presampled": Algorithm(lambda memo, cfg, constraint, ratings: (
        presampled_greedy(memo.bundle, memo.bundle.k, cfg).items, None),
        True, (FIXED,), ("solve",)),
    "fixed": Algorithm(_greedy_run, True, (FLEXIBLE, FIXED), _EVERYWHERE),
    "homog": Algorithm(lambda memo, cfg, constraint, ratings:
                       _homogeneous_run(memo, cfg), True, (), _EVERYWHERE),
    "covdiv": Algorithm(lambda memo, cfg, constraint, ratings: (
        baseline_covdiv(memo.bundle.base_oracle, memo.bundle, memo.bundle.k).items, None),
        False, (FIXED,), _EVERYWHERE),
    "quality": Algorithm(lambda memo, cfg, constraint, ratings: (
        baseline_quality(ratings, memo.bundle.k).items, None), False, (), _EVERYWHERE),
    "brute": Algorithm(_brute_run, False, (), ("solve",)),
}


def run_algorithm(name: str, bundle: ObjectiveBundle, k: int, cfg: SamplerConfig,
                  constraint: str = FLEXIBLE, ratings=None) -> tuple[Sequence, float]:
    """One standalone run of ``name`` under the constraint a command asked
    for, padded to k when the constraint is in the algorithm's ``pads``, and
    the F of its sequence; F an unpadded run hands back is not recomputed.
    ``k`` must equal bundle.k."""
    _check_k(bundle, k)
    items, value = _run(name, _RoundMemo(bundle), cfg, constraint, ratings)
    return Sequence(items), value


def _run(name: str, memo: _RoundMemo, cfg: SamplerConfig, constraint: str,
         ratings) -> tuple[tuple, float]:
    """run_algorithm's items and F on ``memo.bundle`` at its k, with the
    accepts and F that ``memo`` serves."""
    _check_constraint(constraint)
    algo = ALGORITHMS[name]
    items, value = algo.run(memo, cfg, constraint, ratings)
    if constraint in algo.pads:
        items, value = _pad_to_k(memo.bundle, items, memo.bundle.k, cfg), None
    if value is None:
        value = memo.value(items)
    return items, value


def verify_trace(bundle: ObjectiveBundle, trace: GreedyTrace, tol: float = 1e-9) -> None:
    """Replay a GreedyTrace against first principles; raises on any mismatch.

    Checks, step by step, that every considered item had the maximum weighted
    marginal among surviving candidates with positive gain (lowest id on
    ties), that the recorded gain matches a fresh marginal_gain computation,
    and that the accepted items reproduce the output sequence.  Gains change
    only at an accept, so the survivors are scored once per epoch and each
    considered item is checked against the next of that ranking.
    """
    alive = set(bundle.ground)
    accepted: list[int] = []
    t, ranking = 1, None

    def ranked():
        base = frozenset(accepted)
        gains = [(i, _gain(bundle, base, i, t)) for i in sorted(alive)]
        return iter(sorted([pair for pair in gains if pair[1] > 0.0],
                           key=lambda pair: (-pair[1], pair[0])))

    for item, gain, coin in trace.considered:
        if t > bundle.k:
            raise ValueError("trace considers items after the sequence was full")
        ranking = ranking or ranked()
        want_item, want_gain = next(ranking, (None, None))
        if want_item is None:
            raise ValueError(f"trace considers {item} but no candidate had positive gain")
        if item != want_item:
            raise ValueError(f"trace considered {item}, expected argmax {want_item}")
        if abs(gain - want_gain) > tol * (1.0 + abs(want_gain)):
            raise ValueError(f"recorded gain {gain} != recomputed {want_gain}")
        alive.discard(item)
        if coin:
            accepted.append(item)
            t, ranking = t + 1, None
    if tuple(accepted) != trace.output.items:
        raise ValueError("coin-1 items do not reproduce the recorded output")
    if t <= bundle.k:
        leftovers = sorted(i for i, _ in ranking or ranked())
        if leftovers:
            raise ValueError(f"trace ended with positive candidates {leftovers} unconsidered")
