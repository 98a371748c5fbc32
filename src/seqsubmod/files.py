"""Plain-text formats: problem instances, experiment specs, and result tables.

Instances and specs are `key value` line files (``#`` starts a comment) in
which a key appears once, except a spec's ``distribution`` lines; a spec
reads into a checked ``ExperimentSpec``.  Matrices are headerless
whitespace-separated float rows, either inline after their introducing key
or in a companion file.  A file is read once and only its key lines are
split into tokens: every matrix, inline or companion, is parsed by a single
``np.loadtxt`` call, and key-line numbers are held to the same number
grammar, so every float field accepts the same numbers.  All floats are
written with ``repr`` and parsed with correct rounding, so write -> read
round-trips bit-exactly and rerunning a seeded experiment reproduces its
output file byte for byte.

A covdiv similarity W is given either as its dense ``similarity`` block or
by the ``tags`` it derives from, never both.  An instance that carries its
tags is written as them (n x d numbers instead of n x n), and the reader
derives W = ``similarity_from_tags(tags)`` from the ``repr``-exact tags, so
W comes out with the bits the writer's instance held.  Those bits rest on
the summation order that ``similarity_from_tags`` writes out itself (numpy's
8-lane pairwise order over each entry's d squared minima), not on a numpy
reduction: a known-answer test pins them across platforms, and a lane test
holds them equal to numpy's per-row reduction.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import ObjectiveBundle, WeightProfile, as_weights, homogeneous_bundle
from .functions import (
    CoverageDiversityFn,
    ModularPenaltyFn,
    auto_scale,
    similarity_from_tags,
    tiny_instance,
)
from .harness import CellStats, ExperimentSpec, RunStats, UserTypeDistribution

FAMILIES = ("covdiv", "modular-penalty")

# The keys each family reads besides the shared ones; a file that gives a
# key its family does not read is bad input, not silently dropped.
_SHARED_KEYS = ("family", "n", "ratings", "scales")
_FAMILY_KEYS = {"covdiv": ("alpha", "beta", "eta", "similarity", "tags"),
                "modular-penalty": ("penalties",)}


class InstanceFormatError(ValueError):
    """An instance or spec file violates the format contract."""


@dataclass(frozen=True)
class Instance:
    """One on-disk problem instance.

    ``ratings`` double as the rewards of the modular-penalty family.  A
    covdiv instance may carry the ``tags`` its ``similarity`` derives from;
    it is then written as its tags.  A non-None ``scales`` tuple sets
    f_j = scales[j] times the base function; ``oracle`` holds scales finite
    and nonnegative and ``bundle`` each lambda_j * s_j finite, so sum_j
    lambda_j * s_j * f is the identical-utility objective under the weights
    lambda_j * s_j, and every bundle is homogeneous.
    """

    family: str
    n: int
    ratings: tuple[float, ...]
    alpha: float | None = None
    beta: float | None = None
    eta: float | None = None
    similarity: np.ndarray | None = None
    penalties: np.ndarray | None = None
    scales: tuple[float, ...] | None = None
    tags: np.ndarray | None = None
    _oracle: object = field(default=None, init=False, repr=False, compare=False)

    def oracle(self):
        """The instance's oracle, built on the first call and kept (the instance
        is frozen, so no field is reassigned under it); InstanceFormatError if
        it cannot be built."""
        if self._oracle is not None:
            return self._oracle
        family, n = self.family, self.n
        if family == "covdiv":
            if self.similarity is None:
                raise InstanceFormatError("covdiv instances need similarity or tags")
            if self.similarity.shape != (n, n):
                raise InstanceFormatError(
                    f"similarity is {self.similarity.shape}, expected ({n}, {n})")
            if self.alpha is None or self.beta is None or self.eta is None:
                raise InstanceFormatError("covdiv instances need alpha, beta, and eta")
        elif family == "modular-penalty":
            if self.penalties is None:
                raise InstanceFormatError("modular-penalty instances need penalties")
            if self.penalties.shape != (n, n):
                raise InstanceFormatError(
                    f"penalties are {self.penalties.shape}, expected ({n}, {n})")
        else:
            raise InstanceFormatError(f"unknown family {family!r}")
        bad = [s for s in self.scales or () if not 0.0 <= s < math.inf]
        if bad:
            raise InstanceFormatError(f"scales: {bad[0]!r} is not finite and nonnegative")
        try:
            oracle = (CoverageDiversityFn(self.ratings, self.similarity, self.alpha, self.beta,
                                          self.eta) if family == "covdiv"
                      else ModularPenaltyFn(self.ratings, self.penalties))
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc
        object.__setattr__(self, "_oracle", oracle)
        return oracle

    def bundle(self, weights) -> ObjectiveBundle:
        """Bundle of this instance's oracle under ``weights``."""
        base = self.oracle()  # checks the scales before they fold into the weights
        profile = as_weights(weights)
        if self.scales is not None:
            if len(self.scales) != profile.k:
                raise InstanceFormatError(
                    f"{len(self.scales)} scales cannot serve k={profile.k} positions")
            folded = tuple(lam * s for lam, s in zip(profile.lambdas, self.scales))
            for j, (s, w) in enumerate(zip(self.scales, folded), start=1):
                if not math.isfinite(w):
                    raise InstanceFormatError(f"scales: lambda_{j} * {s!r} = {w!r} is not finite")
            profile = WeightProfile(folded)
        return homogeneous_bundle(base, profile, n=self.n)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        def arr_eq(a, b):
            if a is None or b is None:
                return (a is None) == (b is None)
            return np.array_equal(a, b)
        return (self.family == other.family and self.n == other.n
                and self.ratings == other.ratings
                and self.alpha == other.alpha and self.beta == other.beta
                and self.eta == other.eta and self.scales == other.scales
                and arr_eq(self.similarity, other.similarity)
                and arr_eq(self.penalties, other.penalties)
                and arr_eq(self.tags, other.tags))


# ---------------------------------------------------------------------------
# Matrices.


def write_matrix(path: str, matrix) -> None:
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w") as fh:
        for row in np.atleast_2d(matrix):
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_matrix(path: str) -> np.ndarray:
    return _load_matrix(path, path)


def _load_matrix(source, where: str) -> np.ndarray:
    """One ``np.loadtxt`` pass over a file path or a list of row strings."""
    try:
        return np.loadtxt(source, ndmin=2)
    except (OSError, ValueError) as exc:
        raise InstanceFormatError(f"{where}: not a float matrix ({exc})") from exc


# ---------------------------------------------------------------------------
# Instances.


def _content_lines(path: str) -> list[str]:
    """The file's lines with comments and surrounding blanks stripped; empty
    lines are dropped."""
    try:
        with open(path) as fh:
            raw_lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    lines = []
    for raw in raw_lines:
        # Most lines (every matrix row) have no comment: skip the split copy.
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if line:
            lines.append(line)
    return lines


def _floats(tokens, where: str) -> list[float]:
    """Numbers on a key line, in the grammar ``np.loadtxt`` reads matrix rows
    with.  Both parse through CPython's string-to-double; ``float`` alone
    also takes digit-group underscores (``1_0``) and non-ASCII digits, so
    those are refused first.  (One ``np.loadtxt`` call per key line would
    do the same, but its allocations raised a ``solve`` run's peak RSS by
    about 6%.)"""
    try:
        if not all(t.isascii() and "_" not in t for t in tokens):
            raise ValueError("not a matrix-row number")
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise InstanceFormatError(f"{where}: expected numbers, got {tokens}") from exc


def _one_float(tokens, where: str) -> float:
    vals = _floats(tokens, where)
    if len(vals) != 1:
        raise InstanceFormatError(f"{where}: expected one number")
    return vals[0]


def _one_int(tokens, where: str) -> int:
    try:
        _floats(tokens, where)  # refuses 1_0 and non-ASCII digits, as every number field does
        (value,) = tokens
        return int(value)
    except ValueError as exc:
        raise InstanceFormatError(f"{where}: expected one integer") from exc


def _inline_block(key: str, lines: list[str], start: int, n: int) -> np.ndarray:
    """The inline matrix of the ``n`` lines from ``lines[start]`` on, parsed
    by one ``np.loadtxt`` call.  The lines after them that open with a number
    are rows of the block too, so a block with extra rows is reported by its
    row count, not as an unknown key."""
    end = min(start + n, len(lines))
    extra = itertools.takewhile(_opens_with_number, itertools.islice(lines, end, None))
    rows = end - start + sum(1 for _ in extra)
    if rows != n:
        raise InstanceFormatError(f"{key}: expected {n} inline rows, got {rows}")
    return _load_matrix(lines[start:end], f"{key} inline")


def _opens_with_number(line: str) -> bool:
    try:
        float(line.split(None, 1)[0])
    except ValueError:
        return False
    return True


def read_instance(path: str) -> Instance:
    """Parse an instance file; matrix companions resolve relative to it.

    Only key lines are split into tokens; an inline matrix block goes to
    numpy whole, so a large matrix costs one parse, not one ``float`` per
    entry.  The oracle is built here, so a file it cannot serve is refused.
    """
    lines = _content_lines(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    fields: dict = {}
    i = 0
    while i < len(lines):
        key, *rest = lines[i].split()
        i += 1
        if ("ratings" if key == "rewards" else key) in fields:
            raise InstanceFormatError(f"{key}: given twice")
        if key in ("similarity", "penalties", "tags"):
            if not rest:
                raise InstanceFormatError(f"{key}: expected 'inline' or 'file PATH'")
            if rest[0] == "inline":
                n = fields.get("n")
                if n is None:
                    raise InstanceFormatError("n must come before inline matrices")
                fields[key] = _inline_block(key, lines, i, n)
                i += n
            elif rest[0] == "file":
                if len(rest) != 2:
                    raise InstanceFormatError(f"{key}: expected 'file PATH'")
                fields[key] = read_matrix(os.path.join(base_dir, rest[1]))
            else:
                raise InstanceFormatError(f"{key}: expected 'inline' or 'file', got {rest[0]!r}")
            continue
        if key == "family":
            if len(rest) != 1 or rest[0] not in FAMILIES:
                raise InstanceFormatError(f"family must be one of {FAMILIES}")
            fields["family"] = rest[0]
        elif key == "n":
            fields["n"] = _one_int(rest, key)
            if fields["n"] < 1:
                raise InstanceFormatError(f"n: must be at least 1, got {fields['n']}")
        elif key in ("alpha", "beta", "eta"):
            fields[key] = _one_float(rest, key)
        elif key in ("ratings", "rewards"):
            fields["ratings"] = tuple(_floats(rest, key))
        elif key == "scales":
            fields["scales"] = tuple(_floats(rest, key))
        else:
            raise InstanceFormatError(f"unknown key {key!r}")
    family = fields.get("family")
    n = fields.get("n")
    ratings = fields.get("ratings")
    if family is None or n is None or ratings is None:
        raise InstanceFormatError("instance needs family, n, and ratings/rewards")
    if len(ratings) != n:
        raise InstanceFormatError(f"{len(ratings)} ratings for n={n}")
    for key in fields:
        if key not in _SHARED_KEYS and key not in _FAMILY_KEYS[family]:
            raise InstanceFormatError(f"{key}: a {family} instance has no {key}")
    similarity, tags = fields.get("similarity"), fields.get("tags")
    if similarity is not None and tags is not None:
        raise InstanceFormatError("similarity and tags: give one of the two, not both")
    if tags is not None:
        if tags.shape[0] != n:
            raise InstanceFormatError(f"tags have {tags.shape[0]} rows for n={n}")
        try:
            similarity = similarity_from_tags(tags)
        except ValueError as exc:
            raise InstanceFormatError(f"tags: {exc}") from exc
    inst = Instance(family=family, n=n, ratings=ratings, alpha=fields.get("alpha"),
                    beta=fields.get("beta"), eta=fields.get("eta"), similarity=similarity,
                    penalties=fields.get("penalties"), scales=fields.get("scales"), tags=tags)
    inst.oracle()
    return inst


def write_instance(path: str, inst: Instance) -> None:
    """Write an instance with its matrix inline; read_instance inverts this.

    A covdiv instance with tags is written as ``tags inline``, from which
    the reader derives its similarity, so it must be bit for bit
    ``similarity_from_tags(tags)``: an instance whose similarity was
    replaced is refused rather than written as a different W.  Without
    tags the dense ``similarity`` block is written.
    """
    lines = [f"family {inst.family}", f"n {inst.n}"]
    if inst.family == "covdiv":
        for key in ("alpha", "beta", "eta"):
            lines.append(f"{key} {repr(float(getattr(inst, key)))}")
    key = "ratings" if inst.family == "covdiv" else "rewards"
    lines.append(f"{key} " + " ".join(repr(float(r)) for r in inst.ratings))
    if inst.scales is not None:
        lines.append("scales " + " ".join(repr(float(s)) for s in inst.scales))
    if inst.family != "covdiv":
        matrix_name, matrix = "penalties", inst.penalties
    elif inst.tags is None:
        matrix_name, matrix = "similarity", inst.similarity
    else:
        matrix_name, matrix = "tags", inst.tags
        if not _same_bits(inst.similarity, similarity_from_tags(matrix)):
            raise InstanceFormatError(
                "tags: similarity is not similarity_from_tags(tags), so the tags "
                "would read back a different similarity")
    lines.append(f"{matrix_name} inline")
    for row in np.asarray(matrix, dtype=float):
        lines.append(" ".join(repr(float(x)) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _same_bits(a, b) -> bool:
    """Float64 arrays of equal shape and bits, which tells -0.0 from 0.0;
    the bits are compared through integer views, not ``tobytes`` copies."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and bool(np.all(a.view(np.int64) == b.view(np.int64))))


# ---------------------------------------------------------------------------
# Synthetic generators (shared by the CLI and the test benches).


def synthetic_modular_instance(n: int, seed: int = 0, penalty_prob: float = 0.5,
                               penalty_scale: float = 2.0) -> Instance:
    """Random rewards-minus-penalties instance, nonnegative on every subset.

    Each reward is a base draw plus half the item's total penalty row, which
    keeps all set values nonnegative while leaving marginals free to go
    negative.  ``n=3, seed=0`` is reserved for the canonical 3-item demo
    instance (rewards 3,2,2; penalties c01=2, c12=3).
    """
    if n == 3 and seed == 0:
        demo = tiny_instance()
        return Instance(family="modular-penalty", n=3,
                        ratings=tuple(demo.rewards),
                        penalties=np.array(demo.penalties))
    rng = np.random.default_rng(seed)
    pen = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < penalty_prob:
                pen[i, j] = pen[j, i] = rng.uniform(0.0, penalty_scale)
    base = rng.uniform(0.0, 3.0, n)
    rewards = base + 0.5 * pen.sum(axis=1)
    return Instance(family="modular-penalty", n=n,
                    ratings=tuple(float(r) for r in rewards), penalties=pen)


def synthetic_covdiv_instance(n: int, d: int = 25, seed: int = 0,
                              density: float = 0.15, eta: float = 35.0) -> Instance:
    """Random rated catalog with sparse tag vectors and l2-of-min similarity.

    alpha/beta follow the auto-scale rule, so the rating and diversity terms
    arrive balanced regardless of n.
    """
    rng = np.random.default_rng(seed)
    ratings = rng.uniform(0.0, 5.0, n)
    tags = np.where(rng.random((n, d)) < density, rng.uniform(0.0, 1.0, (n, d)), 0.0)
    similarity = similarity_from_tags(tags)
    alpha, beta = auto_scale(ratings, similarity)
    return Instance(family="covdiv", n=n,
                    ratings=tuple(float(r) for r in ratings),
                    alpha=alpha, beta=beta, eta=float(eta), similarity=similarity,
                    tags=tags)


# ---------------------------------------------------------------------------
# Experiment specs.


def _distribution(tokens, k: int) -> UserTypeDistribution:
    """A k-position weight profile from its kind and number tokens, the one
    grammar of ``--weights`` and of spec ``distribution`` lines: ``uniform``,
    ``normal MU SIGMA`` (both finite) or ``explicit V1 .. Vk``."""
    kind, *tokens = tokens or [""]
    if kind == "uniform" and not tokens:
        return UserTypeDistribution.uniform(k)
    if kind == "normal":
        vals = _floats(tokens, "normal weights")
        if len(vals) != 2 or not all(math.isfinite(v) for v in vals):
            raise InstanceFormatError("normal weights need a finite MU and SIGMA")
        return UserTypeDistribution.normal(k, *vals)
    if kind == "explicit":
        vals = _floats(tokens, "explicit weights")
        if len(vals) != k:
            raise InstanceFormatError(f"explicit weights need exactly {k} values")
        return UserTypeDistribution.explicit(vals)
    raise InstanceFormatError(f"unknown weight profile {' '.join([kind, *tokens])!r}")


def read_experiment(path: str) -> ExperimentSpec:
    """Parse an experiment spec into a checked ExperimentSpec.

    ``read_instance`` reads the instance the spec names, relative to the
    spec; one with scales is refused, since the ``distribution`` lines alone
    set the weights.  The spec's ValueError is raised as InstanceFormatError
    with the same text.
    """
    fields: dict = {"algorithms": ("sg", "covdiv", "quality")}
    seen, rows = set(), []
    for line in _content_lines(path):
        key, *rest = line.split()
        if key in seen:
            raise InstanceFormatError(f"{key}: given twice")
        if key == "instance":
            if len(rest) != 1:
                raise InstanceFormatError("instance: expected one path")
            instance_file = rest[0]
        elif key in ("k", "rounds"):
            fields[key] = _one_int(rest, key)
        elif key == "seed":
            fields["base_seed"] = _one_int(rest, key)
        elif key == "p":
            fields["p"] = _one_float(rest, key)
        elif key == "constraint":
            if rest == ["both"]:
                fields["constraints"] = ("flexible", "fixed")
            elif rest in (["flexible"], ["fixed"]):
                fields["constraints"] = (rest[0],)
            else:
                raise InstanceFormatError("constraint: expected flexible, fixed, or both")
        elif key == "algorithms":
            if not rest:
                raise InstanceFormatError("algorithms: expected at least one name")
            fields["algorithms"] = tuple(rest)
        elif key == "distribution":
            rows.append(rest)
            continue
        else:
            raise InstanceFormatError(f"unknown key {key!r}")
        seen.add(key)
    if "instance" not in seen or "k" not in seen:
        raise InstanceFormatError("experiment spec needs instance and k")
    k = fields["k"]
    fields["distributions"] = (tuple(_distribution(row, k) for row in rows)
                               or (UserTypeDistribution.uniform(k),))
    instance = read_instance(os.path.join(os.path.dirname(os.path.abspath(path)), instance_file))
    if instance.scales is not None:
        raise InstanceFormatError("experiments run on instances without scales")
    try:
        return ExperimentSpec(oracle=instance.oracle(), ratings=instance.ratings, n=instance.n,
                              **fields)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Results.

RESULT_HEADER = "algorithm,distribution,constraint,round,F,length,oracle_calls"
AGGREGATE_HEADER = ("algorithm,distribution,constraint,rounds,mean_F,std_F,"
                    "ci95_low,ci95_high,mean_length,mean_oracle_calls")


def write_results(path: str, stats: RunStats, metadata: dict) -> None:
    """Serialize per-round rows plus a recomputable aggregate footer.

    Output depends only on (stats, metadata): wall time never appears, so a
    rerun with the same seeds produces a byte-identical file.
    """
    lines = ["# seqsubmod-results v1"]
    for key in sorted(metadata):
        lines.append(f"# {key}={metadata[key]}")
    lines.append(RESULT_HEADER)
    for cell in stats.cells:
        for r in range(cell.rounds):
            lines.append(
                f"{cell.algorithm},{cell.distribution},{cell.constraint},{r},"
                f"{repr(cell.values[r])},{cell.lengths[r]},{cell.oracle_calls[r]}")
    lines.append("# aggregates")
    lines.append(f"# {AGGREGATE_HEADER}")
    for cell in stats.cells:
        lo, hi = cell.ci95
        lines.append(
            f"# {cell.algorithm},{cell.distribution},{cell.constraint},{cell.rounds},"
            f"{repr(cell.mean)},{repr(cell.std)},{repr(lo)},{repr(hi)},"
            f"{repr(cell.mean_length)},{repr(cell.mean_oracle_calls)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_results(path: str) -> tuple[RunStats, dict]:
    """Rebuild RunStats (per-round data only) and the metadata dict."""
    meta: dict = {}
    per_cell: dict = {}
    order: list = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body and "," not in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            if line == RESULT_HEADER:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise InstanceFormatError(f"bad results row: {line!r}")
            key = (parts[0], parts[1], parts[2])
            if key not in per_cell:
                per_cell[key] = ([], [], [])
                order.append(key)
            try:
                per_cell[key][0].append(float(parts[4]))
                per_cell[key][1].append(int(parts[5]))
                per_cell[key][2].append(int(parts[6]))
            except ValueError as exc:
                raise InstanceFormatError(f"bad results row: {line!r}") from exc
    cells = tuple(
        CellStats(algorithm=a, distribution=d, constraint=c,
                  values=tuple(vals), lengths=tuple(lens), oracle_calls=tuple(calls))
        for (a, d, c), (vals, lens, calls) in ((key, per_cell[key]) for key in order)
    )
    return RunStats(cells), meta
