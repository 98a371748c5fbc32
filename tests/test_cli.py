import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsubmod import (
    InstanceFormatError,
    evaluate_F,
    read_experiment,
    read_instance,
    read_results,
    write_instance,
)
from seqsubmod.cli import main
from seqsubmod.harness import UserTypeDistribution, make_weights
from seqsubmod.files import Instance, synthetic_covdiv_instance, synthetic_modular_instance
from seqsubmod.functions import tiny_instance


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, ""
    return code, capsys.readouterr().out


class TestGen:
    def test_modular_preset(self, tmp_path, capsys):
        out = str(tmp_path / "inst.txt")
        code, _ = run_cli("gen", "--family", "modular-penalty", "--n", "3",
                          "--seed", "0", "--out", out, capsys=capsys)
        assert code == 0
        inst = read_instance(out)
        demo = tiny_instance()
        assert inst.ratings == tuple(demo.rewards)
        assert np.array_equal(inst.penalties, np.asarray(demo.penalties))

    def test_covdiv(self, tmp_path, capsys):
        out = str(tmp_path / "inst.txt")
        code, _ = run_cli("gen", "--family", "covdiv", "--n", "8", "--seed", "4",
                          "--tags", "5", "--density", "0.4", "--eta", "3.0",
                          "--out", out, capsys=capsys)
        assert code == 0
        inst = read_instance(out)
        assert inst.family == "covdiv" and inst.n == 8
        assert inst.eta == 3.0
        assert inst.similarity.shape == (8, 8)


    @pytest.mark.parametrize("flags", (
        ("--family", "covdiv", "--eta", "nan"),
        ("--family", "covdiv", "--eta", "0.5"),
        ("--family", "covdiv", "--density", "nan"),
        ("--family", "covdiv", "--density", "inf"),
        ("--family", "modular-penalty", "--n", "0"),
        ("--family", "modular-penalty", "--n", "1_0"),
        ("--family", "modular-penalty", "--seed", "\u0661"),
    ), ids=("eta-nan", "eta-below-one", "density-nan", "density-inf", "n-zero",
            "n-underscore", "seed-arabic-digit"))
    def test_bad_instance_is_never_written(self, tmp_path, capsys, flags):
        out = tmp_path / "inst.txt"
        argv = ["gen", "--n", "6", *flags, "--out", str(out)]
        code, _ = run_cli(*argv, capsys=capsys)
        assert code == 2
        assert not out.exists()


@pytest.fixture
def tiny_path(tmp_path):
    path = str(tmp_path / "tiny.txt")
    write_instance(path, synthetic_modular_instance(3, seed=0))
    return path


class TestSolve:
    def test_brute_demo(self, tiny_path, capsys):
        code, out = run_cli("solve", "--instance", tiny_path, "--k", "2",
                            "--algorithm", "brute", capsys=capsys)
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "0 2"
        assert lines[1] == "F 4.0"  # uniform weights halve the raw 8.0

    def test_explicit_weights(self, tiny_path, capsys):
        code, out = run_cli("solve", "--instance", tiny_path, "--k", "2",
                            "--algorithm", "brute", "--weights", "explicit:1,1",
                            capsys=capsys)
        assert code == 0
        assert out.strip().splitlines()[1] == "F 8.0"

    def test_sg_deterministic_p1(self, tiny_path, capsys):
        code, out = run_cli("solve", "--instance", tiny_path, "--k", "2",
                            "--p", "1.0", "--seed", "9", capsys=capsys)
        assert code == 0
        assert out.strip().splitlines()[0] == "0 2"

    def test_quality(self, tiny_path, capsys):
        code, out = run_cli("solve", "--instance", tiny_path, "--k", "2",
                            "--algorithm", "quality", capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0 1"
        assert lines[2] == "oracle_calls 2"  # just the final F evaluation, one per prefix

    def test_fixed_always_k_items(self, tiny_path, capsys):
        code, out = run_cli("solve", "--instance", tiny_path, "--k", "3",
                            "--algorithm", "fixed", "--seed", "2", capsys=capsys)
        assert code == 0
        assert len(out.strip().splitlines()[0].split()) == 3

    def test_infeasible_k(self, tiny_path, capsys):
        code, _ = run_cli("solve", "--instance", tiny_path, "--k", "5",
                          capsys=capsys)
        assert code == 3

    def test_enumeration_guard(self, tmp_path, capsys):
        # n = k = 20: 20 * 2^19 (set, next item) extensions, past the guard.
        big = str(tmp_path / "big.txt")
        run_cli("gen", "--family", "modular-penalty", "--n", "20",
                "--seed", "1", "--out", big, capsys=capsys)
        code, _ = run_cli("solve", "--instance", big, "--k", "20",
                          "--algorithm", "brute", "--constraint", "fixed",
                          capsys=capsys)
        assert code == 3

    def test_covdiv_needs_covdiv_family(self, tiny_path, capsys):
        code, _ = run_cli("solve", "--instance", tiny_path, "--k", "2",
                          "--algorithm", "covdiv")
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: the covdiv baseline needs a CoverageDiversityFn oracle, got ModularPenaltyFn")

    def test_missing_file(self, tmp_path, capsys):
        code, _ = run_cli("solve", "--instance", str(tmp_path / "ghost.txt"),
                          "--k", "2", capsys=capsys)
        assert code == 2

    def test_malformed_file(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as fh:
            fh.write("family modular-penalty\nn 3\nrewards 1 2\n")
        code, _ = run_cli("solve", "--instance", bad, "--k", "2", capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize("body, message", (
        ("family modular-penalty\nn 2\nrewards 1 1\npenalties inline\n0 1\n1\n",
         "error: penalties inline: not a float matrix"),
        ("family covdiv\nn 2\nratings 1 1\nalpha 1\nbeta 1\neta 2\n"
         "tags inline\n0.5 1.5\n0.2 0.1\n", "error: tags: tag entries must lie in [0, 1]"),
        ("family covdiv\nn 2\nratings 1 1\nalpha 1\nbeta 1\neta 2\n"
         "tags inline\n0.5 nan\n0.2 0.1\n", "error: tags: tag entries must be finite"),
        ("family covdiv\nn 2\nratings 1 1\nalpha 1\nbeta 1\neta 2\n"
         "tags inline\n0.5 0.5\n0.2 0.1\nsimilarity inline\n0 0.5\n0.5 0\n",
         "error: similarity and tags: give one of the two, not both"),
        ("family modular-penalty\nn -2\nrewards 1 1\n", "error: n: must be at least 1"),
        ("family modular-penalty\nn 2\nrewards 1_0 2\npenalties inline\n0 0\n0 0\n",
         "error: rewards: expected numbers"),
        # s_j * f is supermodular for s_j < 0, so it cannot fold into the weights.
        ("family modular-penalty\nn 2\nrewards 1 1\nscales 1 -1\npenalties inline\n0 0\n0 0\n",
         "error: scales: -1.0 is not finite and nonnegative"),
        ("family modular-penalty\nn 2\nrewards 1 1\nscales -0.0 -1e-300\npenalties inline\n"
         "0 0\n0 0\n", "error: scales: -1e-300 is not finite and nonnegative"),
        # A block or key line the family does not read is named, not dropped.
        ("family modular-penalty\nn 2\nrewards 1 1\npenalties inline\n0 1\n1 0\n"
         "similarity inline\n0 9\n9 0\n",
         "error: similarity: a modular-penalty instance has no similarity"),
        ("family modular-penalty\nn 2\nrewards 1 1\nalpha 5\npenalties inline\n0 1\n1 0\n"
         "similarity inline\n0 9\n9 0\n", "error: alpha: a modular-penalty instance has no alpha"),
        ("family covdiv\nn 2\nratings 1 1\nalpha 1\nbeta 1\neta 2\n"
         "tags inline\n0.5 0.5\n0.2 0.1\npenalties inline\n0 1\n1 0\n",
         "error: penalties: a covdiv instance has no penalties"),
    ), ids=("ragged-matrix", "tag-outside-unit", "nan-tag", "similarity-and-tags", "n-below-one",
            "underscore-on-key-line", "negative-scale", "tiny-negative-scale",
            "modular-similarity", "modular-alpha", "covdiv-penalties"))
    def test_malformed_block_is_bad_input(self, tmp_path, capsys, body, message):
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as fh:
            fh.write(body)
        code, _ = run_cli("solve", "--instance", bad, "--k", "1")
        assert code == 2
        assert capsys.readouterr().err.startswith(message)

    def test_scale_overflow_is_bad_input(self, tmp_path, capsys):
        # Each scale is fine alone; lambda_1 * s_1 overflows, and the error
        # names the scales, not the weights.
        path = str(tmp_path / "big.txt")
        with open(path, "w") as fh:
            fh.write("family modular-penalty\nn 2\nrewards 1 1\nscales 1e308 1\n"
                     "penalties inline\n0 1\n1 0\n")
        code, _ = run_cli("solve", "--instance", path, "--k", "2",
                          "--weights", "explicit:10,1")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: scales:")

    def test_bad_weight_specs(self, tiny_path, capsys):
        for spec in ("normal:abc,1", "normal:2", "explicit:1", "pareto:1",
                     "explicit:1_0,\u0662", "normal:1_5,1", "explicit:1,,2", "normal:2,inf"):
            code, _ = run_cli("solve", "--instance", tiny_path, "--k", "2",
                              "--weights", spec, capsys=capsys)
            assert code == 2, spec

    @pytest.mark.parametrize("flag, value", (
        ("--k", "0_2"), ("--k", "\u0662"), ("--k", "2.0"), ("--k", "1e0"),
        ("--seed", "\u0661"), ("--seed", "1_0"),
        ("--p", "nan"), ("--p", "inf"), ("--p", "0_5"),
    ))
    def test_numeric_flags_take_the_key_line_grammar(self, tiny_path, capsys, flag, value):
        args = {"--k": "2", "--seed": "1", "--p": "0.5", flag: value}
        argv = ["solve", "--instance", tiny_path, "--algorithm", "brute"]
        for key, text in args.items():
            argv += [key, text]
        code, _ = run_cli(*argv)
        assert code == 2
        assert f"argument {flag}: expected" in capsys.readouterr().err

    def test_signed_integer_flags_still_parse(self, tiny_path, capsys):
        code, _ = run_cli("solve", "--instance", tiny_path, "--k", "+2", "--seed", "-7",
                          capsys=capsys)
        assert code == 0

    @pytest.mark.parametrize("k", (8, 12, 20))
    def test_homog_prints_the_F_of_its_sequence(self, tmp_path, capsys, k):
        path = str(tmp_path / "mod.txt")
        write_instance(path, synthetic_modular_instance(20, seed=5))
        for seed in range(4):
            code, out = run_cli("solve", "--instance", path, "--k", str(k),
                                "--algorithm", "homog", "--seed", str(seed), capsys=capsys)
            assert code == 0
            items, value, calls = out.strip().splitlines()
            inst = read_instance(path)
            bundle = inst.bundle(make_weights(UserTypeDistribution.uniform(k)))
            seq = tuple(int(i) for i in items.split())
            assert value == f"F {evaluate_F(bundle, seq)!r}"
            assert len(seq) == k and calls.startswith("oracle_calls ")

    def test_unknown_algorithm_is_usage_error(self, tiny_path, capsys):
        code, _ = run_cli("solve", "--instance", tiny_path, "--k", "2",
                          "--algorithm", "magic", capsys=capsys)
        assert code == 2


SOLVE_NAMES = ("sg", "presampled", "fixed", "homog", "covdiv", "quality", "brute")


class TestSolveGolden:
    """Digests of ``solve``'s exit code and stdout (sequence, F and
    oracle_calls) for every algorithm under both constraints, below and above
    k = ceil(n/2), taken before the algorithm table replaced the if/elif
    dispatch.  Retaken once when ``brute`` stopped rescoring its optimum and
    ``presampled`` started padding under the fixed constraint: only the rows
    of those runs changed.  Retaken again when the SplitMix64 streams
    replaced Mersenne Twister ones: every seeded row changed.  Retaken when
    ``brute_force`` became a DP over prefix sets: only the ``oracle_calls``
    lines of the ``brute`` rows changed."""

    @pytest.mark.parametrize("family, digest", (
        ("modular-penalty", "f2ab4d0c09a6ee1fbe567146f3f3847c6403713d09c46d6d73249486c0e17cb6"),
        ("covdiv", "8d0874bf343eaff5f65eea8fe207d26bdb997bbf643dc21430ea77381469e412"),
    ), ids=("modular-penalty", "covdiv"))
    def test_stdout_unchanged(self, tmp_path, capsys, family, digest):
        path = str(tmp_path / "inst.txt")
        if family == "covdiv":
            inst = synthetic_covdiv_instance(7, d=4, seed=12, density=0.4, eta=3.0)
        else:
            inst = synthetic_modular_instance(7, seed=11)
        write_instance(path, inst)
        rows = []
        for name in SOLVE_NAMES:
            for constraint in ("flexible", "fixed"):
                for k, weights in ((3, "uniform"), (5, "normal:3,2")):
                    for seed in (0, 1):
                        code, out = run_cli("solve", "--instance", path, "--k", str(k),
                                            "--algorithm", name, "--constraint", constraint,
                                            "--weights", weights, "--seed", str(seed),
                                            capsys=capsys)
                        rows.append((name, constraint, k, seed, code, out))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


class TestCheck:
    def test_pass_on_demo(self, tiny_path, capsys):
        code, out = run_cli("check", "--instance", tiny_path, "--k", "2",
                            "--weights", "explicit:1,1", "--rounds", "400",
                            capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "PASS"
        assert any(l.startswith("opt 8.0") for l in lines)
        assert any(l.startswith("factor ") for l in lines)

    @pytest.mark.parametrize("flag, value", (
        ("--factor", "nan"), ("--factor", "inf"), ("--p", "nan"),
        ("--rounds", "1_0"), ("--rounds", "10.0"), ("--k", "\u0662"), ("--seed", "0x1"),
    ))
    def test_bad_numeric_flags_are_bad_input(self, tiny_path, capsys, flag, value):
        args = {"--k": "2", "--rounds": "10", flag: value}
        argv = ["check", "--instance", tiny_path]
        for key, text in args.items():
            argv += [key, text]
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 2
        assert "FAIL" not in out

    @pytest.mark.parametrize("rounds", ("0", "-3"))
    def test_non_positive_rounds_are_bad_input(self, tiny_path, capsys, rounds):
        code, _ = run_cli("check", "--instance", tiny_path, "--k", "2", "--rounds", rounds)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == "error: rounds must be positive"

    def test_absurd_factor_fails(self, tiny_path, capsys):
        code, out = run_cli("check", "--instance", tiny_path, "--k", "2",
                            "--rounds", "100", "--factor", "10.0", capsys=capsys)
        assert code == 1
        assert out.strip().splitlines()[-1] == "FAIL"


class TestOneRead:
    """Each command reads its instance through ``read_instance`` once, so a
    wrapper of that one function sees every parse."""

    @pytest.mark.parametrize("argv", (
        ("solve", "--k", "2", "--algorithm", "homog"),
        ("check", "--k", "2", "--rounds", "5"),
        ("experiment",),
    ))
    def test_commands_call_read_instance_once(self, tmp_path, capsys, monkeypatch, argv):
        path = str(tmp_path / "inst.txt")
        write_instance(path, synthetic_modular_instance(6, seed=3))
        original, reads = read_instance, []

        def counting(instance_path):
            reads.append(instance_path)
            return original(instance_path)

        for name, module in list(sys.modules.items()):
            if name == "seqsubmod" or name.startswith("seqsubmod."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        command, *flags = argv
        if command == "experiment":
            spec = str(tmp_path / "exp.txt")
            with open(spec, "w") as fh:
                fh.write("instance inst.txt\nk 2\nrounds 2\nalgorithms sg\n")
            flags = ["--spec", spec, "--out", str(tmp_path / "r.csv")]
        else:
            flags = ["--instance", path, *flags]
        assert run_cli(command, *flags, capsys=capsys)[0] == 0
        assert reads == [path]


class TestScaledInstances:
    """A scales line folds into the weights: a scaled instance under
    ``normal:10,4`` prints what the same instance without scales prints under
    the explicit weights lambda_j * s_j, F and oracle_calls included."""

    @pytest.mark.parametrize("argv, k", (
        (("solve", "--algorithm", "sg"), 6),
        (("solve", "--algorithm", "homog"), 3),
        (("solve", "--algorithm", "homog"), 6),
        (("check", "--mode", "homogeneous", "--rounds", "200"), 5),
    ), ids=("sg", "homog-below-half", "homog-two-block", "check-homogeneous"))
    def test_same_stdout_as_the_folded_weights(self, tmp_path, capsys, argv, k):
        base = synthetic_modular_instance(8, seed=7)
        scales = tuple(np.random.default_rng(k).uniform(0.5, 1.5, k).tolist())
        scaled, plain = str(tmp_path / "scaled.txt"), str(tmp_path / "plain.txt")
        write_instance(scaled, dataclasses.replace(base, scales=scales))
        write_instance(plain, base)
        lams = make_weights(UserTypeDistribution.normal(k, 10.0, 4.0)).lambdas
        folded = "explicit:" + ",".join(repr(lam * s) for lam, s in zip(lams, scales))
        command, *flags = argv
        for seed in range(3):
            rest = [*flags, "--k", str(k), "--seed", str(seed), "--weights"]
            want = run_cli(command, "--instance", plain, *rest, folded, capsys=capsys)
            got = run_cli(command, "--instance", scaled, *rest, "normal:10,4", capsys=capsys)
            assert want[0] == 0
            assert got == want


@pytest.fixture
def overflow_path(tmp_path):
    """A finite instance whose sums overflow: item 2's penalties against items
    0 and 1 take its running gains and the value of {0, 1} past the float range."""
    big = 1.7e308
    pens = np.array([[0.0, 0.0, big], [0.0, 0.0, big], [big, big, 0.0]])
    path = str(tmp_path / "overflow.txt")
    write_instance(path, Instance(family="modular-penalty", n=3, ratings=(1e308,) * 3,
                                  penalties=pens))
    return path


class TestOracleOverflow:
    """A non-finite oracle result is bad input: exit 2 with an ``error:``
    line, never exit 1, which means a failed bound check."""

    def test_solve(self, overflow_path, capsys):
        code = main(["solve", "--instance", overflow_path, "--k", "3", "--algorithm", "homog"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: oracle at position 1: non-finite marginal inf")

    def test_check(self, overflow_path, capsys):
        code = main(["check", "--instance", overflow_path, "--k", "3",
                     "--mode", "homogeneous", "--rounds", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: oracle at position 2: non-finite value inf")


class TestExperiment:
    def _setup(self, tmp_path, algorithms="sg quality"):
        inst_path = str(tmp_path / "inst.txt")
        write_instance(inst_path, synthetic_modular_instance(6, seed=3))
        spec_path = str(tmp_path / "exp.txt")
        with open(spec_path, "w") as fh:
            fh.write(f"instance inst.txt\nk 3\nrounds 10\nseed 5\n"
                     f"algorithms {algorithms}\n"
                     f"distribution uniform\ndistribution normal 2 1\n")
        return spec_path

    def test_runs_and_writes(self, tmp_path, capsys):
        spec = self._setup(tmp_path)
        out = str(tmp_path / "results.csv")
        code, text = run_cli("experiment", "--spec", spec, "--out", out,
                             capsys=capsys)
        assert code == 0
        assert f"wrote {out}" in text
        stats, meta = read_results(out)
        assert meta["rounds"] == "10" and meta["seed"] == "5"
        # 2 algorithms x 2 distributions x 2 constraints
        assert len(stats.cells) == 8
        assert all(c.rounds == 10 for c in stats.cells)

    def test_rerun_byte_identical(self, tmp_path, capsys):
        spec = self._setup(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli("experiment", "--spec", spec, "--out", a, capsys=capsys)[0] == 0
        assert run_cli("experiment", "--spec", spec, "--out", b, capsys=capsys)[0] == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_round_override(self, tmp_path, capsys):
        spec = self._setup(tmp_path)
        out = str(tmp_path / "results.csv")
        code, _ = run_cli("experiment", "--spec", spec, "--out", out,
                          "--rounds", "4", capsys=capsys)
        assert code == 0
        stats, meta = read_results(out)
        assert meta["rounds"] == "4"
        assert all(c.rounds == 4 for c in stats.cells)

    def test_seed_override(self, tmp_path, capsys):
        spec = self._setup(tmp_path)
        with open(spec) as fh:
            text = fh.read()
        seeded = str(tmp_path / "seeded.txt")
        with open(seeded, "w") as fh:
            fh.write(text.replace("seed 5\n", "seed 11\n"))
        paths = {name: str(tmp_path / f"{name}.csv") for name in ("override", "spec", "own")}
        assert run_cli("experiment", "--spec", spec, "--out", paths["override"],
                       "--seed", "11", capsys=capsys)[0] == 0
        assert run_cli("experiment", "--spec", seeded, "--out", paths["spec"], capsys=capsys)[0] == 0
        assert run_cli("experiment", "--spec", spec, "--out", paths["own"], capsys=capsys)[0] == 0
        data = {}
        for name, path in paths.items():
            with open(path, "rb") as fh:
                data[name] = fh.read()
        assert data["override"] == data["spec"]
        assert data["override"] != data["own"]

    @pytest.mark.parametrize("key", ("k", "p", "seed", "rounds"))
    def test_bare_spec_key_is_bad_input(self, tmp_path, capsys, key):
        spec = self._setup(tmp_path)
        with open(spec) as fh:
            lines = [line for line in fh.read().splitlines()
                     if line.split()[0] != key]
        with open(spec, "w") as fh:
            fh.write("\n".join(lines + [key]) + "\n")
        code, _ = run_cli("experiment", "--spec", spec, "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert f"{key}: expected one" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", (("--rounds", "1_0"), ("--seed", "\u0665"),
                                             ("--rounds", "2.5")))
    def test_bad_override_is_bad_input(self, tmp_path, capsys, flag, value):
        spec = self._setup(tmp_path)
        out = tmp_path / "r.csv"
        code, _ = run_cli("experiment", "--spec", spec, "--out", str(out), flag, value)
        assert code == 2
        assert not out.exists()
        assert f"argument {flag}: expected an integer" in capsys.readouterr().err

    def test_empty_algorithms_line_writes_nothing(self, tmp_path, capsys):
        spec = self._setup(tmp_path, algorithms="")
        out = tmp_path / "r.csv"
        code, _ = run_cli("experiment", "--spec", spec, "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert "algorithms: expected at least one name" in capsys.readouterr().err

    @pytest.mark.parametrize("profile", ("normal 1 5e-324", "normal 1 1e200", "normal 1e200 1"))
    def test_out_of_range_normal_is_bad_input(self, tmp_path, capsys, profile):
        spec = self._setup(tmp_path)
        with open(spec, "a") as fh:
            fh.write(f"distribution {profile}\n")
        out = tmp_path / "r.csv"
        code, _ = run_cli("experiment", "--spec", spec, "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert "outside the float range" in capsys.readouterr().err

    def test_repeated_profile_label_writes_nothing(self, tmp_path, capsys):
        spec = self._setup(tmp_path)
        with open(spec, "a") as fh:
            fh.write("distribution normal 2 5\n")
        out = tmp_path / "r.csv"
        code, _ = run_cli("experiment", "--spec", spec, "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: distribution label M-2 is repeated")

    @pytest.mark.parametrize("algorithms, line, error", (
        ("sg sg", "", "error: algorithm sg is repeated; "),
        ("sg quality", "k 2\n", "error: k: given twice\n"),
        ("sg quality", "algorithms quality\n", "error: algorithms: given twice\n"),
    ), ids=("algorithm", "k", "algorithms"))
    def test_repeated_spec_entry_writes_nothing(self, tmp_path, capsys, algorithms, line, error):
        spec = self._setup(tmp_path, algorithms=algorithms)
        with open(spec, "a") as fh:
            fh.write(line)
        out = tmp_path / "r.csv"
        code, _ = run_cli("experiment", "--spec", spec, "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(error)

    def test_repeated_instance_key_is_bad_input(self, tmp_path, capsys):
        spec = self._setup(tmp_path)
        with open(tmp_path / "inst.txt", "a") as fh:
            fh.write("rewards 1 1 1 1 1 1\n")
        out = tmp_path / "r.csv"
        code, _ = run_cli("experiment", "--spec", spec, "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: rewards: given twice\n"

    def test_spec_rounds_are_checked_under_an_override(self, tmp_path, capsys):
        # The spec file is checked as written before --rounds replaces its value.
        spec = self._setup(tmp_path)
        with open(spec) as fh:
            text = fh.read()
        with open(spec, "w") as fh:
            fh.write(text.replace("rounds 10\n", "rounds 0\n"))
        out = tmp_path / "r.csv"
        code, _ = run_cli("experiment", "--spec", spec, "--out", str(out), "--rounds", "4")
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: rounds must be positive\n"

    def test_covdiv_on_wrong_family(self, tmp_path, capsys):
        spec = self._setup(tmp_path, algorithms="sg covdiv")
        code, _ = run_cli("experiment", "--spec", spec,
                          "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: the covdiv baseline needs a CoverageDiversityFn oracle, got ModularPenaltyFn")

    def test_scaled_instance_is_bad_input(self, tmp_path, capsys):
        # The spec's distribution lines set the weights; an ExperimentSpec has no scales.
        spec = self._setup(tmp_path)
        scaled = dataclasses.replace(read_instance(str(tmp_path / "inst.txt")),
                                     scales=(1.0, 0.5, 2.0))
        write_instance(str(tmp_path / "inst.txt"), scaled)
        out = tmp_path / "r.csv"
        code = main(["experiment", "--spec", spec, "--out", str(out)])
        assert code == 2
        assert "scales" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# Fuzzing: small valid files, mutated a few lines at a time.

_MODULAR = """family modular-penalty
n 4
rewards 1.03 2.68 2.58 2.48
penalties inline
0.0 0.0 0.0 1.89
0.0 0.0 0.84 0.0
0.0 0.84 0.0 1.09
1.89 0.0 1.09 0.0
"""

_COVDIV = """family covdiv
n 4
alpha 1.0
beta 0.5
eta 2.0
ratings 2.55 4.75 0.72 4.74
tags inline
0.0 0.5 1.0
0.25 0.0 0.0
1.0 1.0 0.0
0.0 0.75 0.5
"""

_SPEC = """instance inst.txt
k 2
rounds 3
seed 5
p 0.5
constraint both
algorithms sg fixed homog covdiv quality
distribution uniform
distribution normal 1 1
"""

_WORDS = ("nan", "-inf", "1e309", "-1", "0", "0.5", "2", "4", "1_0", "\u0663", "x", "-0.0",
          "5e-324", "1.7976931348623157e308", "inline", "file", "missing.txt", "#",
          "family", "covdiv", "modular-penalty", "n", "rewards", "ratings", "penalties",
          "similarity", "tags", "scales", "alpha", "beta", "eta", "instance", "k", "p",
          "seed", "rounds", "constraint", "both", "algorithms", "sg", "homog",
          "distribution", "uniform", "normal", "explicit")


@st.composite
def _mutated(draw, text):
    """``text`` after one to three line edits: a word replaced, a line
    dropped, duplicated or cut short, or a line of random words inserted."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(("replace", "drop", "duplicate", "cut", "insert")))
        if op == "insert" or i == len(lines):
            lines.insert(i, " ".join(draw(st.lists(st.sampled_from(_WORDS), max_size=4))))
        elif op == "replace":
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(_WORDS))
            lines[i] = " ".join(words)
        elif op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines) + "\n"


def _quiet_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


class TestFuzz:
    """A mutated instance or spec file either parses or raises
    InstanceFormatError, and main() keeps its exit codes on it: 2 for bad
    input, 3 for an infeasible request, 1 only for a check that failed."""

    @given(st.sampled_from((_MODULAR, _COVDIV)).flatmap(_mutated),
           st.sampled_from(("sg", "fixed", "homog", "brute", "covdiv", "quality")))
    @settings(max_examples=200, deadline=None)
    def test_instance_files(self, text, algorithm):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inst.txt")
            with open(path, "w") as fh:
                fh.write(text)
            try:
                read_instance(path)
            except InstanceFormatError:
                pass
            code, _ = _quiet_main(["solve", "--instance", path, "--k", "2",
                                   "--algorithm", algorithm])
            assert code in (0, 2, 3)
            code, out = _quiet_main(["check", "--instance", path, "--k", "2", "--rounds", "3"])
            assert code in (0, 2, 3) or (code == 1 and out.endswith("FAIL\n"))

    @given(_mutated(_SPEC))
    @settings(max_examples=100, deadline=None)
    def test_spec_files(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "inst.txt"), "w") as fh:
                fh.write(_COVDIV)
            spec = os.path.join(tmp, "exp.txt")
            with open(spec, "w") as fh:
                fh.write(text)
            try:
                read_experiment(spec)
            except InstanceFormatError:
                pass
            code, _ = _quiet_main(["experiment", "--spec", spec, "--rounds", "2",
                                   "--out", os.path.join(tmp, "results.csv")])
            assert code in (0, 2, 3)
