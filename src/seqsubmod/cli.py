"""Command line front end: generate instances, solve them, check guarantees,
and run comparative experiments.

Exit codes: 0 success, 1 a bound check failed, 2 malformed input or file
format, 3 infeasible request (k too large, enumeration guard tripped).
"""

from __future__ import annotations

import argparse
import math
import sys

from .algorithms import (
    EnumerationTooLargeError,
    FIXED,
    FLEXIBLE,
    InfeasibleError,
    P_STAR,
    SamplerConfig,
    _homogeneous_scored,
    baseline_covdiv,
    baseline_quality,
    brute_force,
    fixed_length_solve,
    presampled_greedy,
    sampling_greedy,
)
from .core import evaluate_F
from .files import (
    ExperimentFile,
    InstanceFormatError,
    _one_float,
    _one_int,
    _read_instance,
    _validate_instance,
    read_experiment,
    synthetic_covdiv_instance,
    synthetic_modular_instance,
    write_instance,
    write_results,
)
from .harness import (
    HOMOGENEOUS,
    ExperimentSpec,
    UserTypeDistribution,
    bound_check,
    comparative_experiment,
    make_weights,
)

EXIT_OK = 0
EXIT_BOUND_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3

SOLVE_ALGORITHMS = ("sg", "presampled", "fixed", "homog", "covdiv", "quality", "brute")


def _int_arg(text: str) -> int:
    """An integer flag, in the grammar of the files' integer key lines."""
    try:
        return _one_int([text], "integer")
    except InstanceFormatError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc


def _float_arg(text: str) -> float:
    """A finite number flag, in the grammar of the files' number key lines."""
    try:
        value = _one_float([text], "number")
    except InstanceFormatError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_weight_spec(spec: str, k: int) -> UserTypeDistribution:
    """uniform | normal:MU,SIGMA | explicit:V1,V2,..."""
    if spec == "uniform":
        return UserTypeDistribution.uniform(k)
    kind, _, rest = spec.partition(":")
    if kind == "normal":
        parts = rest.split(",")
        if len(parts) != 2:
            raise InstanceFormatError("normal weights need MU,SIGMA")
        return UserTypeDistribution.normal(k, float(parts[0]), float(parts[1]))
    if kind == "explicit":
        values = [float(v) for v in rest.split(",") if v != ""]
        if len(values) != k:
            raise InstanceFormatError(f"explicit weights need exactly {k} values")
        return UserTypeDistribution.explicit(values)
    raise InstanceFormatError(f"unknown weight spec {spec!r}")


def _require_covdiv(instance, why: str):
    if instance.family != "covdiv":
        raise InstanceFormatError(f"{why} needs a covdiv instance, got {instance.family}")


def cmd_gen(args) -> int:
    if args.n < 1:
        raise InstanceFormatError(f"n: must be at least 1, got {args.n}")
    if args.family == "covdiv":
        inst = synthetic_covdiv_instance(args.n, d=args.tags, seed=args.seed,
                                         density=args.density, eta=args.eta)
    else:
        inst = synthetic_modular_instance(args.n, seed=args.seed)
    _validate_instance(inst)  # a file every reader rejects is never written
    write_instance(args.out, inst)
    print(f"wrote {args.family} instance with n={args.n} to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    instance, oracle = _read_instance(args.instance)
    weights = make_weights(_parse_weight_spec(args.weights, args.k))
    bundle = instance.bundle(weights, oracle=oracle)
    cfg = SamplerConfig(p=args.p, seed=args.seed)
    name = args.algorithm
    value = None
    if name == "sg":
        seq = (fixed_length_solve(bundle, args.k, cfg) if args.constraint == FIXED
               else sampling_greedy(bundle, args.k, cfg)[0])
    elif name == "presampled":
        seq = presampled_greedy(bundle, args.k, cfg)
    elif name == "fixed":
        seq = fixed_length_solve(bundle, args.k, cfg)
    elif name == "homog":
        seq, value = _homogeneous_scored(bundle, args.k, cfg)
    elif name == "covdiv":
        _require_covdiv(instance, "the covdiv baseline")
        seq = baseline_covdiv(oracle, bundle, args.k, args.constraint, cfg)
    elif name == "quality":
        seq = baseline_quality(instance.ratings, args.k)
    else:
        seq, _ = brute_force(bundle, args.k, args.constraint)
    if value is None:
        value = evaluate_F(bundle, seq)
    print(" ".join(str(i) for i in seq))
    print(f"F {value!r}")
    print(f"oracle_calls {bundle.counter.calls}")
    return EXIT_OK


def cmd_check(args) -> int:
    instance, oracle = _read_instance(args.instance)
    weights = make_weights(_parse_weight_spec(args.weights, args.k))
    bundle = instance.bundle(weights, oracle=oracle)
    cfg = SamplerConfig(p=args.p, seed=args.seed)
    verdict = bound_check(bundle, args.k, args.mode, cfg, args.rounds,
                          factor=args.factor, monotone=args.monotone)
    print(f"mean {verdict.empirical_mean!r}")
    print(f"stderr {verdict.stderr!r}")
    print(f"opt {verdict.opt_value!r}")
    print(f"factor {verdict.factor!r}")
    print(f"margin {verdict.margin!r}")
    print("PASS" if verdict.passed else "FAIL")
    return EXIT_OK if verdict.passed else EXIT_BOUND_FAILED


def cmd_experiment(args) -> int:
    exp: ExperimentFile = read_experiment(args.spec)
    if args.rounds is not None:
        exp.rounds = args.rounds
    if args.seed is not None:
        exp.seed = args.seed
    instance, oracle = _read_instance(exp.instance_path)
    if "covdiv" in exp.algorithms:
        _require_covdiv(instance, "the covdiv baseline")
    if instance.scales is not None:
        raise InstanceFormatError("experiments run on homogeneous instances only")
    spec = ExperimentSpec(
        oracle=oracle,
        ratings=instance.ratings,
        n=instance.n,
        k=exp.k,
        algorithms=exp.algorithms,
        distributions=exp.distributions,
        rounds=exp.rounds,
        base_seed=exp.seed,
        p=exp.p,
    )
    stats = comparative_experiment(spec, exp.constraints)
    metadata = {
        "algorithms": " ".join(exp.algorithms),
        "constraints": " ".join(exp.constraints),
        "k": str(exp.k),
        "p": repr(exp.p),
        "rounds": str(exp.rounds),
        "seed": str(exp.seed),
    }
    write_results(args.out, stats, metadata)
    width = max(len(c.algorithm) for c in stats.cells)
    for cell in stats.cells:
        print(f"{cell.algorithm:<{width}}  {cell.distribution:<9} {cell.constraint:<8} "
              f"mean_F={cell.mean:.6g} ci95=({cell.ci95[0]:.6g}, {cell.ci95[1]:.6g})")
    print(f"wrote {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqsubmod",
        description="Select and order items under position-weighted submodular utilities.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance file")
    gen.add_argument("--family", choices=("covdiv", "modular-penalty"), required=True)
    gen.add_argument("--n", type=_int_arg, required=True)
    gen.add_argument("--seed", type=_int_arg, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--tags", type=_int_arg, default=25, help="tag dimension (covdiv)")
    gen.add_argument("--density", type=_float_arg, default=0.15, help="tag sparsity (covdiv)")
    gen.add_argument("--eta", type=_float_arg, default=35.0, help="similarity penalty weight (covdiv)")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--k", type=_int_arg, required=True)
    solve.add_argument("--algorithm", choices=SOLVE_ALGORITHMS, default="sg")
    solve.add_argument("--constraint", choices=(FLEXIBLE, FIXED), default=FLEXIBLE)
    solve.add_argument("--weights", default="uniform",
                       help="uniform | normal:MU,SIGMA | explicit:V1,V2,...")
    solve.add_argument("--p", type=_float_arg, default=P_STAR)
    solve.add_argument("--seed", type=_int_arg, default=0)
    solve.set_defaults(func=cmd_solve)

    check = sub.add_parser("check", help="verify an approximation bound empirically")
    check.add_argument("--instance", required=True)
    check.add_argument("--k", type=_int_arg, required=True)
    check.add_argument("--mode", choices=(FLEXIBLE, FIXED, HOMOGENEOUS), default=FLEXIBLE)
    check.add_argument("--weights", default="uniform")
    check.add_argument("--p", type=_float_arg, default=P_STAR)
    check.add_argument("--seed", type=_int_arg, default=0)
    check.add_argument("--rounds", type=_int_arg, default=2000)
    check.add_argument("--factor", type=_float_arg, default=None,
                       help="override the bound factor")
    check.add_argument("--monotone", action="store_true",
                       help="instance is monotone (enables the p=1 factor 1/2)")
    check.set_defaults(func=cmd_check)

    exp = sub.add_parser("experiment", help="run a comparative experiment spec")
    exp.add_argument("--spec", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--rounds", type=_int_arg, default=None, help="override spec rounds")
    exp.add_argument("--seed", type=_int_arg, default=None, help="override spec seed")
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_BAD_INPUT
    try:
        return args.func(args)
    except (InfeasibleError, EnumerationTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InstanceFormatError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
