"""Command line front end: generate instances, solve them, check guarantees,
and run comparative experiments.

Exit codes: 0 success, 1 a bound check failed, 2 malformed input or file
format, or an oracle that fails or goes non-finite on the instance, 3
infeasible request (k too large, enumeration guard tripped).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .algorithms import (
    ALGORITHMS,
    EnumerationTooLargeError,
    FIXED,
    FLEXIBLE,
    InfeasibleError,
    P_STAR,
    SamplerConfig,
    run_algorithm,
)
from .core import OracleEvaluationError
from .files import (
    FAMILIES,
    InstanceFormatError,
    _distribution,
    _one_float,
    _one_int,
    read_experiment,
    read_instance,
    synthetic_covdiv_instance,
    synthetic_modular_instance,
    write_instance,
    write_results,
)
from .harness import CHECK_ALGORITHMS, bound_check, comparative_experiment, make_weights

EXIT_OK = 0
EXIT_BOUND_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3


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


def _weights(spec: str, k: int):
    """The profile of ``--weights KIND[:V1,V2,...]``: the spec-file grammar,
    with a colon before the numbers and commas between them."""
    kind, colon, values = spec.partition(":")
    return make_weights(_distribution([kind, *values.split(",")] if colon else [kind], k))


def cmd_gen(args) -> int:
    if args.n < 1:
        raise InstanceFormatError(f"n: must be at least 1, got {args.n}")
    if args.family == "covdiv":
        inst = synthetic_covdiv_instance(args.n, d=args.tags, seed=args.seed,
                                         density=args.density, eta=args.eta)
    else:
        inst = synthetic_modular_instance(args.n, seed=args.seed)
    inst.oracle()  # a file every reader rejects is never written
    write_instance(args.out, inst)
    print(f"wrote {args.family} instance with n={args.n} to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = read_instance(args.instance)
    bundle = instance.bundle(_weights(args.weights, args.k))
    cfg = SamplerConfig(p=args.p, seed=args.seed)
    seq, value = run_algorithm(args.algorithm, bundle, args.k, cfg, args.constraint,
                               instance.ratings)
    print(" ".join(str(i) for i in seq))
    print(f"F {value!r}")
    print(f"oracle_calls {bundle.counter.calls}")
    return EXIT_OK


def cmd_check(args) -> int:
    instance = read_instance(args.instance)
    bundle = instance.bundle(_weights(args.weights, args.k))
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
    spec = read_experiment(args.spec)
    if args.rounds is not None:
        spec = dataclasses.replace(spec, rounds=args.rounds)
    if args.seed is not None:
        spec = dataclasses.replace(spec, base_seed=args.seed)
    stats = comparative_experiment(spec)
    metadata = {
        "algorithms": " ".join(spec.algorithms),
        "constraints": " ".join(spec.constraints),
        "k": str(spec.k),
        "p": repr(spec.p),
        "rounds": str(spec.rounds),
        "seed": str(spec.base_seed),
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
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("--n", type=_int_arg, required=True)
    gen.add_argument("--seed", type=_int_arg, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--tags", type=_int_arg, default=25, help="tag dimension (covdiv)")
    gen.add_argument("--density", type=_float_arg, default=0.15, help="tag sparsity (covdiv)")
    gen.add_argument("--eta", type=_float_arg, default=35.0, help="similarity penalty weight (covdiv)")
    gen.set_defaults(func=cmd_gen)

    # The flags of one instance, its weights and a seeded run: solve and check.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--instance", required=True)
    run.add_argument("--k", type=_int_arg, required=True)
    run.add_argument("--weights", default="uniform",
                     help="uniform | normal:MU,SIGMA | explicit:V1,V2,...")
    run.add_argument("--p", type=_float_arg, default=P_STAR)
    run.add_argument("--seed", type=_int_arg, default=0)

    solve = sub.add_parser("solve", parents=[run], help="solve one instance")
    solve.add_argument("--algorithm", default="sg", choices=[
        name for name, algo in ALGORITHMS.items() if "solve" in algo.commands])
    solve.add_argument("--constraint", choices=(FLEXIBLE, FIXED), default=FLEXIBLE)
    solve.set_defaults(func=cmd_solve)

    check = sub.add_parser("check", parents=[run],
                           help="verify an approximation bound empirically")
    check.add_argument("--mode", choices=tuple(CHECK_ALGORITHMS), default=FLEXIBLE)
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
    except (InstanceFormatError, OSError, ValueError, KeyError, OracleEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
