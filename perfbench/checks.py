"""Output checks that do not trust the code they check.

The objective is recomputed here with numpy from the instance data, never
with ``evaluate_F``, and results files are parsed here as well as through
``read_results``.  Every check returns a list of error strings; empty means
the output is correct.
"""

from __future__ import annotations

import math
import os

import numpy as np

import seqsubmod

REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def weight_vector(spec: tuple, k: int) -> np.ndarray:
    """lambda_1..lambda_k for ``("uniform",)`` or ``("normal", mu, sigma)``."""
    if spec[0] == "uniform":
        return np.full(k, 1.0 / k)
    _, mu, sigma = spec
    j = np.arange(1, k + 1, dtype=float)
    raw = np.exp(-((j - mu) ** 2) / (2.0 * sigma ** 2))
    return raw / raw.sum()


def prefix_values(instance, seq: list[int]) -> np.ndarray:
    """f(first j items) for j = 0..len(seq), built up one item at a time."""
    values = np.zeros(len(seq) + 1)
    if instance.family == "covdiv":
        sim = np.asarray(instance.similarity)
        row_sums = sim.sum(axis=1)
        ratings = np.asarray(instance.ratings)
        rating = cover = pair = 0.0
        for j, x in enumerate(seq):
            pair += sim[x, x] + 2.0 * sim[x, seq[:j]].sum()
            rating += ratings[x]
            cover += row_sums[x]
            values[j + 1] = instance.alpha * rating + instance.beta * (cover - instance.eta * pair)
    else:
        pen = np.asarray(instance.penalties)
        rewards = np.asarray(instance.ratings)
        for j, x in enumerate(seq):
            values[j + 1] = values[j] + rewards[x] - pen[x, seq[:j]].sum()
    return values


def objective(instance, seq: list[int], weights: tuple, k: int) -> float:
    """F(seq) = sum_j lambda_j * s_j * f(first min(j, len(seq)) items), s_j = 1 without scales."""
    lams = weight_vector(weights, k)
    if instance.scales is not None:
        lams = lams * np.asarray(instance.scales)
    values = prefix_values(instance, seq)
    upto = np.minimum(np.arange(1, k + 1), len(seq))
    return float((lams * values[upto]).sum())


def check_solve(text: str, instance, k: int, weights: tuple, exact_k: bool) -> list[str]:
    """The printed sequence is feasible and the printed F is its objective."""
    lines = text.split("\n")
    if len(lines) != 4 or lines[3] != "" or not lines[1].startswith("F ") \
            or not lines[2].startswith("oracle_calls "):
        return [f"unexpected solve output {text[:200]!r}"]
    try:
        seq = [int(tok) for tok in lines[0].split()]
        printed = float(lines[1][2:])
    except ValueError:
        return [f"unparsable solve output {text[:200]!r}"]
    errors = []
    if len(set(seq)) != len(seq):
        errors.append(f"repeated items in {seq}")
    if any(not 0 <= i < instance.n for i in seq):
        errors.append(f"items outside the ground set in {seq}")
    if len(seq) > k or (exact_k and len(seq) != k):
        errors.append(f"length {len(seq)} for k={k}")
    if errors:
        return errors
    want = objective(instance, seq, weights, k)
    if not close(printed, want):
        errors.append(f"printed F {printed!r} but the sequence scores {want!r}")
    return errors


def _rows(data: bytes):
    """(algorithm, distribution, constraint, round, F, length, calls) per data row,
    and the aggregate footer rows."""
    rows, footer = [], []
    in_footer = False
    for line in data.decode().splitlines():
        if line == "# aggregates":
            in_footer = True
        elif in_footer and line.startswith("# ") and not line.startswith("# algorithm,"):
            footer.append(line[2:].split(","))
        elif line and not line.startswith("#") and not line.startswith("algorithm,"):
            a, d, c, r, f, length, calls = line.split(",")
            rows.append((a, d, c, int(r), float(f), int(length), int(calls)))
    return rows, footer


def results_oracle_calls(data: bytes) -> int:
    return sum(row[6] for row in _rows(data)[0])


def check_results(data: bytes, scratch: str, want_cells: set, rounds: int, k: int) -> list[str]:
    """32 cells x ``rounds`` rows, feasible lengths, and a footer that matches the rows."""
    try:
        rows, footer = _rows(data)
    except ValueError as exc:
        return [f"malformed results file: {exc}"]
    cells: dict = {}
    for a, d, c, r, f, length, calls in rows:
        cells.setdefault((a, d, c), []).append((r, f, length, calls))
    errors = []
    if set(cells) != want_cells:
        errors.append(f"results cells {sorted(cells)} != {sorted(want_cells)}")
    for key, entries in cells.items():
        if [e[0] for e in entries] != list(range(rounds)):
            errors.append(f"cell {key} has rounds {[e[0] for e in entries]}")
        for r, f, length, _ in entries:
            if not math.isfinite(f) or length > k or (key[2] == seqsubmod.FIXED and length != k):
                errors.append(f"cell {key} round {r}: F={f!r} length={length}")
    if len(footer) != len(cells):
        errors.append(f"{len(footer)} aggregate rows for {len(cells)} cells")
    for agg in footer:
        key = tuple(agg[:3])
        entries = cells.get(key)
        if entries is None:
            errors.append(f"aggregate for unknown cell {key}")
            continue
        values = np.array([e[1] for e in entries])
        mean = values.mean()
        std = values.std(ddof=1) if len(values) > 1 else 0.0
        half = 1.96 * std / math.sqrt(len(values))
        want = (mean, std, mean - half, mean + half,
                np.mean([e[2] for e in entries]), np.mean([e[3] for e in entries]))
        got = tuple(float(x) for x in agg[4:10])
        if int(agg[3]) != len(entries) or not all(close(g, w) for g, w in zip(got, want)):
            errors.append(f"aggregate row {agg} does not match its rows")
    with open(scratch, "wb") as fh:
        fh.write(data)
    try:
        stats, _ = seqsubmod.read_results(scratch)
    except (ValueError, OSError) as exc:
        return errors + [f"read_results failed: {exc}"]
    finally:
        os.remove(scratch)
    parsed = {(c.algorithm, c.distribution, c.constraint): c.values for c in stats.cells}
    mine = {key: tuple(e[1] for e in entries) for key, entries in cells.items()}
    if parsed != mine or any(c.rounds != rounds for c in stats.cells):
        errors.append("read_results disagrees with the rows of the results file")
    return errors
