"""Benchmark for seqsubmod, run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: sweep, bounds, solve (see perfbench/README.md).
The program is imported from ``src/`` of the checkout; nothing is built or
installed.  One process, one thread, closed loop: each operation starts when
the previous one returns.

``--trace 0`` sets the inputs up several times (the fastest is ``setup_s``),
runs one untimed warm-up operation, then operations for ``--seconds`` of call
time, and reports the end-to-end metrics.  ``--trace 1`` runs the same
operations untraced for a quarter of that time, then replays exactly those
operations (and one set-up sample) with spans installed around every public
name of the package, requires identical outputs, and reports the per-layer
metrics plus the tracing overhead.  Every operation's output is checked
outside the timed calls; the last line of standard output is one JSON object.
``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json, which also gives
every metric's unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

DEFAULT_SEED = 1
TRACE_SHARE = 0.25

workloads = tracing = None  # imported in main, once src/ is on the path

# Set-up is timed as the fastest of SETUP_SAMPLES samples spread over the
# timed phase; a sample repeats the set-up back to back for at least
# SETUP_SAMPLE_S, so a set-up of a few milliseconds is not all jitter.
SETUP_SAMPLES = 8
SETUP_SAMPLE_S = 0.25


def load_spec() -> tuple[float, dict]:
    """Run length and the unit of every metric, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec["run_seconds"], units


def load_package():
    """Import seqsubmod from this checkout's src/, or return None."""
    if not os.path.isfile(os.path.join(SRC, "seqsubmod", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    try:
        import seqsubmod
    except ImportError:
        return None
    if not os.path.abspath(seqsubmod.__file__).startswith(SRC + os.sep):
        return None
    return seqsubmod


def digest(paths) -> dict:
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Tally:
    """Attempted and failed operations; a failure is an exception, a nonzero
    exit code or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, errors) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for err in errors[:5]:
                print(f"check failed: {err}", file=sys.stderr)


class Bench:
    """One workload in a fresh work directory, with its tally and outcomes."""

    def __init__(self, workload_cls, seed: int, seconds: float):
        self.workdir = os.path.join(WORK, workload_cls.name)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.wl = workload_cls(seed, self.workdir)
        self.seed = seed
        self.seconds = seconds
        self.tally = Tally()
        self.expected: dict = {}
        self.outcomes: list = []
        self.files: dict | None = None

    def setup(self, directory: str | None = None) -> tuple[float, int]:
        """Set up back to back for at least SETUP_SAMPLE_S; return the time of
        one set-up and how many ran.  Every sample must leave the same bytes
        as the first."""
        count, took, t0 = 0, 0.0, time.perf_counter()
        while took < SETUP_SAMPLE_S:
            paths = self.wl.setup(directory or self.workdir)
            count += 1
            took = time.perf_counter() - t0
        files = digest(paths)
        if self.files is None:
            self.files = files
        self.tally.record([] if files == self.files else ["a set-up wrote other bytes"])
        return took / count, count

    def op(self, key):
        try:
            outcome = self.wl.execute(key)
        except Exception:
            traceback.print_exc()
            self.tally.record(["operation raised"])
            return None
        self.outcomes.append(outcome)
        return outcome

    def loop(self, budget: float) -> tuple[list[float], list]:
        """Set up, warm up with one untimed operation, then run operations for
        ``budget`` seconds of call time.  The remaining set-up samples are
        spread evenly over the phase, so their fastest samples the host the
        way the operations do."""
        setups = [self.setup()[0]]
        cycle = self.wl.cycle()
        self.op(cycle[0])
        done, spent, i = [], 0.0, 0
        deadline = time.perf_counter() + 3 * budget + 30
        while spent < budget and time.perf_counter() < deadline:
            if len(setups) < SETUP_SAMPLES and spent >= budget * len(setups) / SETUP_SAMPLES:
                setups.append(self.setup()[0])
            outcome = self.op(cycle[i % len(cycle)])
            i += 1
            if outcome is not None:
                done.append(outcome)
                spent += outcome.seconds
        return setups, done

    def check_all(self) -> None:
        """Each operation's own check, plus exact repeats of output and oracle
        calls for every operation key."""
        for o in self.outcomes:
            errors = list(self.wl.check(o))
            seen = self.expected.setdefault(o.key, (o.output, o.oracle_calls))
            if seen[1] != o.oracle_calls:
                errors.append(f"oracle_calls {o.oracle_calls} != {seen[1]} on a repeat of {o.key}")
            if seen[0] != o.output:
                errors.append(f"output differs on a repeat of {o.key}")
            self.tally.record(errors)
        for errors in workloads.replay_traces(self.seed):
            self.tally.record(errors)


def timings(outcomes) -> dict:
    """Throughput and latency quantiles over operation keys, each key timed by
    its fastest repeat.

    An operation key is deterministic, so the spread between its repeats is
    interference from outside the process; on a shared 2-core host it comes in
    episodes of tens of seconds that slow every call by up to half.  The
    fastest repeat is the cost of the work itself; the quantiles then spread
    over inputs (request seeds, instances), not over host load.
    """
    if not outcomes:
        raise SystemExit("error: no operation completed")
    best: dict = {}
    for o in outcomes:
        if o.key not in best or o.seconds < best[o.key][0]:
            best[o.key] = (o.seconds, o.rounds)
    secs = [s for s, _ in best.values()]
    return {
        "rounds_per_s": sum(r for _, r in best.values()) / sum(secs),
        "latency_s.p50": quantile(secs, 0.5),
        "latency_s.p90": quantile(secs, 0.9),
    }


def describe_samples(outcomes) -> str:
    secs = [o.seconds for o in outcomes]
    repeats = {}
    for o in outcomes:
        repeats[o.key] = repeats.get(o.key, 0) + 1
    return (f"{len(secs)} timed calls over {len(repeats)} keys, {min(repeats.values())}-"
            f"{max(repeats.values())} repeats per key; all calls p50 {quantile(secs, 0.5):.6g} s "
            f"p90 {quantile(secs, 0.9):.6g} s")


def run_untraced(bench: Bench) -> dict:
    setup_times, timed = bench.loop(bench.seconds)
    metrics = {"setup_s": min(setup_times), **timings(timed)}
    print(f"{bench.wl.name:<9} {describe_samples(timed)}")
    bench.check_all()
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def run_traced(bench: Bench) -> dict:
    setup_times, plain = bench.loop(bench.seconds * TRACE_SHARE)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_dir = os.path.join(bench.workdir, "traced")
        os.makedirs(traced_dir)
        traced_setup, setups = bench.setup(traced_dir)
        traced = []
        for idx, o in enumerate(plain):
            tracer.op = idx
            t = bench.op(o.key)
            if t is not None:
                traced.append(t)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(bench.workdir, "spans.tsv"))
    if len(traced) != len(plain):
        bench.tally.record(["a traced operation raised"])
    calls = [o.oracle_calls for o in traced]
    metrics = tracer.layer_metrics(len(traced), setups, sum(calls) / max(len(calls), 1))
    untraced_t, traced_t = timings(plain), timings(traced)
    metrics["trace.overhead_setup_s"] = traced_setup / min(setup_times)
    metrics["trace.overhead_round_s"] = untraced_t["rounds_per_s"] / traced_t["rounds_per_s"]
    for key in ("latency_s.p50", "latency_s.p90"):
        metrics[f"trace.overhead_{key}"] = traced_t[key] / untraced_t[key]
    bench.check_all()
    return metrics


def main(argv=None) -> int:
    run_seconds, units = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; 2718 is held out for re-checking claimed gains")
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if load_package() is None:
        print(f"error: no seqsubmod package under {SRC}", file=sys.stderr)
        return 2
    global workloads, tracing
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    metrics = run_traced(bench) if args.trace else run_untraced(bench)
    tally = bench.tally
    for name, value in metrics.items():
        print(f"{args.workload:<9} {name:<34} {value:<24.12g} {units[name]}")
    print(f"{args.workload:<9} {'failed_frac':<34} {tally.failed / max(tally.attempted, 1):<24.12g} ratio")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
