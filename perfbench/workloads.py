"""The benchmark's three workloads.

Each workload derives all of its inputs from the workload seed, writes them
in ``setup`` (the work of ``seqsubmod gen``), offers a cycle of operation keys,
runs one operation per ``execute`` call through the package's public entry
points, and checks each operation's output in ``check`` with code of its own.
An operation with the same key must give the same output and the same
``oracle_calls`` every time it runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import time

import numpy as np

import seqsubmod
from seqsubmod import cli

import checks

FLEXIBLE, FIXED, HOMOGENEOUS = seqsubmod.FLEXIBLE, seqsubmod.FIXED, seqsubmod.HOMOGENEOUS


@dataclasses.dataclass
class Outcome:
    """One finished operation: what ran, how long the call took, what it returned."""

    key: object
    seconds: float
    rounds: int
    oracle_calls: int
    output: object
    status: int = 0


def call_cli(argv) -> tuple[int, str, float]:
    """Run ``seqsubmod ARGV`` in-process; time only the call into ``cli.main``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        status = cli.main(argv)
        seconds = time.perf_counter() - t0
    return status, buf.getvalue(), seconds


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


class Sweep:
    """``seqsubmod experiment`` on an n=500 covdiv catalog: 4 algorithms x 4
    weight profiles x 2 constraints = 32 cells, ROUNDS rounds each.  The
    experiment seed (``--seed``) cycles through EXPERIMENT_SEEDS values."""

    name = "sweep"
    N, K, ROUNDS = 500, 50, 20
    EXPERIMENT_SEEDS = 2
    ALGORITHMS = ("sg", "fixed", "covdiv", "quality")
    DISTRIBUTIONS = ("uniform", "normal 10 5", "normal 25 5", "normal 40 5")
    LABELS = ("UNIFORM", "M-10", "M-25", "M-40")

    def __init__(self, seed: int, workdir: str):
        self.instance_seed, *self.experiment_seeds = _seeds(seed, 1, 1 + self.EXPERIMENT_SEEDS)
        self.workdir = workdir
        self.spec = os.path.join(workdir, "sweep.spec")
        self.out = os.path.join(workdir, "results.csv")

    def setup(self, directory: str) -> list[str]:
        inst = seqsubmod.synthetic_covdiv_instance(
            self.N, d=25, seed=self.instance_seed, density=0.15, eta=35.0)
        catalog = os.path.join(directory, "catalog.txt")
        seqsubmod.write_instance(catalog, inst)
        spec = os.path.join(directory, "sweep.spec")
        lines = ["instance catalog.txt", f"k {self.K}", f"seed {self.experiment_seeds[0]}",
                 f"rounds {self.ROUNDS}", "constraint both",
                 "algorithms " + " ".join(self.ALGORITHMS)]
        lines += [f"distribution {d}" for d in self.DISTRIBUTIONS]
        with open(spec, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return [catalog, spec]

    def cycle(self) -> list:
        return list(self.experiment_seeds)

    def execute(self, key) -> Outcome:
        status, _, seconds = call_cli(["experiment", "--spec", self.spec, "--out", self.out,
                                       "--seed", str(key)])
        with open(self.out, "rb") as fh:
            data = fh.read()
        calls = checks.results_oracle_calls(data)
        cells = len(self.ALGORITHMS) * len(self.DISTRIBUTIONS) * 2
        return Outcome(key, seconds, cells * self.ROUNDS, calls, data, status)

    def check(self, outcome: Outcome) -> list[str]:
        if outcome.status != 0:
            return [f"experiment exited with {outcome.status}"]
        want = {(a, d, c) for a in self.ALGORITHMS for d in self.LABELS
                for c in (FLEXIBLE, FIXED)}
        scratch = os.path.join(self.workdir, "check.csv")
        return checks.check_results(outcome.output, scratch, want, self.ROUNDS, self.K)


class Bounds:
    """``bound_check`` on 60 non-monotone modular-penalty instances, n in 4..7:
    20 flexible and 20 fixed at k in {2,3}, 20 homogeneous at k in
    {ceil(n/2), ceil(n/2)+1}; lambda ~ U(0.1, 1); factors from bound_factor at p*.

    Every operation builds a fresh bundle (oracle, counter) outside the timed
    call, as a ``bound_check`` caller does, so no state carries over between
    repeats of one instance."""

    name = "bounds"
    PER_MODE, ROUNDS = 20, 300

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        self.cases = []
        for mode in (FLEXIBLE, FIXED, HOMOGENEOUS):
            for idx in range(self.PER_MODE):
                # every n meets both values of k: idx % 4 picks n, idx // 4 % 2 picks k
                n, extra = 4 + idx % 4, idx // 4 % 2
                k = (n + 1) // 2 + extra if mode == HOMOGENEOUS else 2 + extra
                lams = tuple(float(x) for x in rng.uniform(0.1, 1.0, k))
                inst_seed, check_seed = (int(s) for s in rng.integers(1, 2**31 - 1, size=2))
                self.cases.append((mode, n, k, inst_seed, lams, check_seed))
        self.instances = []

    def setup(self, directory: str) -> list[str]:
        self.instances = [seqsubmod.synthetic_modular_instance(n, seed=inst_seed, penalty_prob=0.6)
                          for _, n, _, inst_seed, _, _ in self.cases]
        return []

    def cycle(self) -> list:
        return list(range(len(self.cases)))

    def execute(self, key) -> Outcome:
        mode, n, k, _, lams, check_seed = self.cases[key]
        bundle = seqsubmod.homogeneous_bundle(self.instances[key].oracle(), lams, n=n)
        cfg = seqsubmod.SamplerConfig(seqsubmod.P_STAR, check_seed)
        t0 = time.perf_counter()
        verdict = seqsubmod.bound_check(bundle, k, mode, cfg, self.ROUNDS)
        seconds = time.perf_counter() - t0
        output = (verdict.passed, verdict.rounds, verdict.empirical_mean, verdict.stderr,
                  verdict.opt_value, tuple(verdict.optimum), verdict.factor, verdict.margin)
        return Outcome(key, seconds, self.ROUNDS, bundle.counter.calls, output)

    def check(self, outcome: Outcome) -> list[str]:
        passed, rounds, *_ = outcome.output
        mode, n, k, *_ = self.cases[outcome.key]
        errors = []
        if not passed:
            errors.append(f"bound check failed: {mode} n={n} k={k} {outcome.output}")
        if rounds != self.ROUNDS:
            errors.append(f"bound check ran {rounds} rounds, asked for {self.ROUNDS}")
        return errors


@dataclasses.dataclass(frozen=True)
class RequestKind:
    """One kind of ``seqsubmod solve`` request: its instance and arguments."""

    name: str
    k: int
    weights: tuple          # ("uniform",) or ("normal", mu, sigma), as checks.weight_vector reads it
    args: tuple
    exact_k: bool

    def make_instance(self, seed: int):
        if self.name == "catalog":
            return seqsubmod.synthetic_covdiv_instance(700, d=25, seed=seed, density=0.15, eta=35.0)
        if self.name == "scaled":
            inst = seqsubmod.synthetic_modular_instance(100, seed=seed)
            scales = np.random.default_rng([seed, 1]).uniform(0.5, 1.5, self.k)
            return dataclasses.replace(inst, scales=tuple(float(x) for x in scales))
        return seqsubmod.synthetic_modular_instance(160, seed=seed)


KINDS = (
    # covdiv n=700 (a 5.2 MB file): parsing the file carries the request.
    RequestKind("catalog", 50, ("normal", 25.0, 5.0),
                ("--weights", "normal:25,5", "--algorithm", "sg"), False),
    # modular-penalty n=100 with 20 scales: the heterogeneous engine's full-value calls.
    RequestKind("scaled", 20, ("normal", 10.0, 4.0),
                ("--weights", "normal:10,4", "--algorithm", "sg"), False),
    # modular-penalty n=160, k=90 >= ceil(n/2): first-half solve plus complement greedy.
    RequestKind("twoblock", 90, ("uniform",), ("--algorithm", "homog"), True),
)


class Solve:
    """A round-robin stream of ``seqsubmod solve`` requests of the three KINDS.
    Every request re-reads its instance file, as a CLI user pays; the request
    seed cycles through REQUEST_SEEDS values per kind."""

    name = "solve"
    REQUEST_SEEDS = 6

    def __init__(self, seed: int, workdir: str):
        seeds = _seeds(seed, 3, len(KINDS) * (1 + self.REQUEST_SEEDS))
        self.instance_seeds = dict(zip((kind.name for kind in KINDS), seeds))
        request_seeds = seeds[len(KINDS):]
        self.keys = [(kind.name, request_seeds[r * len(KINDS) + i])
                     for r in range(self.REQUEST_SEEDS) for i, kind in enumerate(KINDS)]
        self.kinds = {kind.name: kind for kind in KINDS}
        self.workdir = workdir
        self.instances: dict = {}

    def path(self, directory: str, kind: str) -> str:
        return os.path.join(directory, f"{kind}.txt")

    def setup(self, directory: str) -> list[str]:
        paths = []
        for kind in KINDS:
            inst = kind.make_instance(self.instance_seeds[kind.name])
            paths.append(self.path(directory, kind.name))
            seqsubmod.write_instance(paths[-1], inst)
            self.instances[kind.name] = inst
        return paths

    def cycle(self) -> list:
        return list(self.keys)

    def execute(self, key) -> Outcome:
        kind = self.kinds[key[0]]
        argv = ["solve", "--instance", self.path(self.workdir, kind.name), "--k", str(kind.k),
                "--seed", str(key[1]), *kind.args]
        status, text, seconds = call_cli(argv)
        lines = text.split("\n")
        calls = -1
        if len(lines) >= 3 and lines[2].startswith("oracle_calls "):
            calls = int(lines[2].split()[1])
        return Outcome(key, seconds, 1, calls, text, status)

    def check(self, outcome: Outcome) -> list[str]:
        kind = self.kinds[outcome.key[0]]
        if outcome.status != 0:
            return [f"{kind.name} solve exited with {outcome.status}"]
        return checks.check_solve(outcome.output, self.instances[kind.name], kind.k,
                                  kind.weights, exact_k=kind.exact_k)


WORKLOADS = {w.name: w for w in (Sweep, Bounds, Solve)}


def replay_traces(seed: int) -> list[list[str]]:
    """Replay one sampled ``sampling_greedy`` trace of each bundle shape through
    ``verify_trace``: covdiv n=500, heterogeneous scaled, homogeneous modular.
    Returns the errors of each shape."""
    rng = np.random.default_rng([seed, 6])
    s = [int(x) for x in rng.integers(1, 2**31 - 1, size=6)]
    covdiv = seqsubmod.synthetic_covdiv_instance(500, seed=s[0])
    modular = seqsubmod.synthetic_modular_instance(40, seed=s[1])
    scaled = dataclasses.replace(modular, scales=tuple(float(x) for x in rng.uniform(0.5, 1.5, 8)))
    shapes = (("covdiv", covdiv, 6), ("scaled", scaled, 8), ("modular", modular, 10))
    errors = []
    for label, inst, k in shapes:
        errors.append([])
        bundle = inst.bundle(tuple(float(x) for x in rng.uniform(0.1, 1.0, k)))
        cfg = seqsubmod.SamplerConfig(seqsubmod.P_STAR, s[3])
        try:
            _, trace = seqsubmod.sampling_greedy(bundle, k, cfg)
            seqsubmod.verify_trace(bundle, trace)
        except ValueError as exc:
            errors[-1].append(f"verify_trace on the {label} shape: {exc}")
    return errors

