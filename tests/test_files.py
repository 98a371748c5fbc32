import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsubmod import (
    FIXED,
    FLEXIBLE,
    ExperimentSpec,
    Instance,
    InstanceFormatError,
    P_STAR,
    UserTypeDistribution,
    comparative_experiment,
    evaluate_F,
    heterogeneous_bundle,
    read_experiment,
    read_instance,
    read_matrix,
    read_results,
    synthetic_covdiv_instance,
    synthetic_modular_instance,
    write_instance,
    write_matrix,
    write_results,
)
from seqsubmod.cli import main
from seqsubmod.functions import ModularPenaltyFn, similarity_from_tags, tiny_instance

from oracles import ScaledFn


class TestMatrixIO:
    def test_round_trip_is_exact(self, tmp_path):
        path = str(tmp_path / "m.txt")
        matrix = np.random.default_rng(3).uniform(-2, 2, (4, 7))
        write_matrix(path, matrix)
        back = read_matrix(path)
        assert back.shape == (4, 7)
        assert np.array_equal(back, matrix)  # repr round-trips floats exactly

    def test_single_row(self, tmp_path):
        path = str(tmp_path / "m.txt")
        write_matrix(path, np.array([[1.5, 2.5]]))
        assert read_matrix(path).shape == (1, 2)

    def test_garbage_raises(self, tmp_path):
        path = str(tmp_path / "m.txt")
        with open(path, "w") as fh:
            fh.write("1.0 banana\n")
        with pytest.raises(InstanceFormatError):
            read_matrix(path)


class TestInstanceRoundTrip:
    def test_modular_penalty(self, tmp_path):
        inst = synthetic_modular_instance(7, seed=12, penalty_prob=0.6)
        path = str(tmp_path / "inst.txt")
        write_instance(path, inst)
        assert read_instance(path) == inst

    def test_covdiv(self, tmp_path):
        inst = synthetic_covdiv_instance(9, d=4, seed=12, density=0.4)
        path = str(tmp_path / "inst.txt")
        write_instance(path, inst)
        back = read_instance(path)
        assert back == inst
        probe = frozenset({0, 3, 4})
        assert back.oracle()(probe) == inst.oracle()(probe)

    def test_heterogeneous_scales(self, tmp_path):
        # f_j = s_j * f folds into the homogeneous objective under lambda_j * s_j.
        rng = np.random.default_rng(4)
        base = synthetic_modular_instance(12, seed=4)
        scales = (1.0, 0.5, 0.0, 0.25, -0.0, *rng.uniform(0.5, 1.5, 3).tolist())
        inst = Instance(family=base.family, n=12, ratings=base.ratings,
                        penalties=base.penalties, scales=scales)
        path = str(tmp_path / "inst.txt")
        write_instance(path, inst)
        back = read_instance(path)
        assert back == inst
        lams = tuple(rng.uniform(0.1, 1.0, len(scales)).tolist())
        bundle = back.bundle(lams)
        assert bundle.homogeneous
        assert bundle.weights.lambdas == tuple(lam * s for lam, s in zip(lams, scales))
        fn = base.oracle()
        reference = heterogeneous_bundle(tuple(ScaledFn(fn, s) for s in scales), lams, n=12)
        for length in (0, 1, 3, 7, 8, 12):
            for _ in range(5):
                seq = tuple(int(i) for i in rng.permutation(12)[:length])
                want = evaluate_F(reference, seq)
                assert evaluate_F(bundle, seq) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_matrix_in_side_file(self, tmp_path):
        inst = synthetic_modular_instance(4, seed=7)
        write_matrix(str(tmp_path / "pen.txt"), inst.penalties)
        spec = (f"family modular-penalty\nn 4\n"
                f"rewards {' '.join(repr(r) for r in inst.ratings)}\n"
                f"penalties file pen.txt\n")
        path = str(tmp_path / "inst.txt")
        with open(path, "w") as fh:
            fh.write(spec)
        assert read_instance(path) == inst

    def test_tags_build_similarity(self, tmp_path):
        tags = np.array([[1.0, 0.0], [0.5, 0.2], [0.0, 0.3]])
        lines = ["family covdiv", "n 3", "ratings 1.0 2.0 3.0",
                 "alpha 1.0", "beta 0.5", "eta 2.0", "tags inline"]
        lines += [" ".join(repr(float(v)) for v in row) for row in tags]
        path = str(tmp_path / "inst.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        inst = read_instance(path)
        assert np.array_equal(inst.similarity, similarity_from_tags(tags))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        inst = synthetic_modular_instance(3, seed=1)
        path = str(tmp_path / "inst.txt")
        write_instance(path, inst)
        with open(path) as fh:
            body = fh.read()
        with open(path, "w") as fh:
            fh.write("# generated fixture\n\n" + body + "\n# trailing note\n")
        assert read_instance(path) == inst


def _same_bytes(a, b) -> bool:
    """Equal dtype, shape and bytes, which tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_exact_round_trip(path, inst):
    write_instance(path, inst)
    back = read_instance(path)
    assert back == inst
    assert _same_bytes(back.ratings, inst.ratings)
    for key in ("similarity", "penalties", "tags"):
        if getattr(inst, key) is not None:
            assert _same_bytes(getattr(back, key), np.asarray(getattr(inst, key), dtype=float))
    if inst.scales is not None:
        assert _same_bytes(back.scales, inst.scales)
    return back


EXTREME_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  0.1, 1 / 3, 2.0 ** 52 + 1.0)


NUMBER_CHARS = "0123456789+-.eEinfatyINFATYx_\u0661\u00bd\uff11"


class TestExactParse:
    """write_instance -> read_instance gives byte-equal arrays."""

    @given(st.one_of(st.text(NUMBER_CHARS, min_size=1, max_size=10),
                     st.sampled_from(("1_0", "0_5", "\u0661", "nan", "-inf", "Infinity",
                                      "1e400", "5e-324", ".5", "5.", "1e", "0x10"))))
    @settings(max_examples=400, deadline=None)
    def test_key_lines_take_the_numbers_matrix_rows_take(self, tmp_path_factory, token):
        try:
            want = float(np.loadtxt([token], ndmin=1)[0])
        except ValueError:
            want = None
        path = str(tmp_path_factory.mktemp("grammar") / "inst.txt")
        with open(path, "w") as fh:
            fh.write(f"family modular-penalty\nn 1\nrewards {token}\npenalties inline\n0\n")
        if want is None or not np.isfinite(want):
            with pytest.raises(InstanceFormatError, match="^rewards"):
                read_instance(path)
        else:
            assert _same_bytes(np.array(read_instance(path).ratings), np.array([want]))

    @pytest.mark.parametrize("n", (1, 2, 50, 300))
    def test_covdiv(self, tmp_path, n):
        inst = synthetic_covdiv_instance(n, d=6, seed=100 + n, density=0.4)
        _assert_exact_round_trip(str(tmp_path / "inst.txt"), inst)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_modular_penalty(self, tmp_path, seed):
        inst = synthetic_modular_instance(40, seed=seed, penalty_prob=0.7)
        _assert_exact_round_trip(str(tmp_path / "inst.txt"), inst)

    def test_scales(self, tmp_path):
        base = synthetic_modular_instance(12, seed=8)
        scales = tuple(np.random.default_rng(8).uniform(0.5, 1.5, 5))
        inst = Instance(family=base.family, n=12, ratings=base.ratings,
                        penalties=base.penalties, scales=scales)
        _assert_exact_round_trip(str(tmp_path / "inst.txt"), inst)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_finite_floats(self, tmp_path_factory, data):
        # Penalties take any nonnegative finite float (the diagonal may be
        # -0.0), rewards any finite float.
        n = data.draw(st.integers(1, 5))
        extreme = st.sampled_from(EXTREME_FLOATS)
        magnitude = st.one_of(extreme, st.floats(0.0, allow_nan=False, allow_infinity=False))
        signed = st.one_of(extreme, extreme.map(lambda x: -x),
                           st.floats(allow_nan=False, allow_infinity=False))
        pen = np.zeros((n, n))
        for i in range(n):
            pen[i, i] = data.draw(st.sampled_from((0.0, -0.0)))
            for j in range(i + 1, n):
                pen[i, j] = pen[j, i] = data.draw(magnitude)
        rewards = tuple(data.draw(signed) for _ in range(n))
        inst = Instance(family="modular-penalty", n=n, ratings=rewards, penalties=pen)
        path = str(tmp_path_factory.mktemp("exact") / "inst.txt")
        _assert_exact_round_trip(path, inst)

    def test_extreme_floats_in_every_block(self, tmp_path):
        n = len(EXTREME_FLOATS)
        sim = np.zeros((n, n))
        for i, x in enumerate(EXTREME_FLOATS):
            sim[i, :] = sim[:, i] = x
        inst = Instance(family="covdiv", n=n, ratings=EXTREME_FLOATS[:n], alpha=1.0,
                        beta=5e-324, eta=1.7976931348623157e308, similarity=sim)
        with np.errstate(over="ignore"):  # the row sums of the largest entry overflow
            back = _assert_exact_round_trip(str(tmp_path / "inst.txt"), inst)
        assert np.signbit(back.similarity[1, 1])

    def test_comments_and_blank_lines_inside_the_block(self, tmp_path):
        inst = synthetic_modular_instance(4, seed=5)
        path = str(tmp_path / "inst.txt")
        write_instance(path, inst)
        with open(path) as fh:
            lines = fh.read().splitlines()
        start = lines.index("penalties inline") + 1
        edited = lines[:start]
        for row in lines[start:]:
            edited += ["", f"{row}   # row note", "   # a comment-only line"]
        with open(path, "w") as fh:
            fh.write("\n".join(edited) + "\n")
        back = read_instance(path)
        assert back == inst and _same_bytes(back.penalties, inst.penalties)

    def test_tags_inline_then_another_key(self, tmp_path):
        tags = np.array([[1.0, 0.0], [0.5, 0.2], [5e-324, 0.3]])
        lines = ["family covdiv", "n 3", "alpha 1.0", "tags inline"]
        lines += [" ".join(repr(float(v)) for v in row) + "  # tag row" for row in tags]
        lines += ["", "ratings 1.0 2.0 3.0", "beta 0.5", "eta 2.0"]
        path = str(tmp_path / "inst.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        inst = read_instance(path)
        assert _same_bytes(inst.similarity, similarity_from_tags(tags))
        assert inst.ratings == (1.0, 2.0, 3.0) and inst.eta == 2.0


def _matrix_keys(path) -> list[str]:
    """The first word of each matrix key line of an instance file."""
    with open(path) as fh:
        return [line.split()[0] for line in fh
                if line.split()[:1] in (["similarity"], ["penalties"], ["tags"])]


class TestTagsForm:
    """A covdiv instance that carries its tags is written as them, and the
    reader derives the similarity from them with the same bits."""

    @pytest.mark.parametrize("d", (1, 4, 25))
    @pytest.mark.parametrize("n", (1, 2, 9, 257, 500))
    def test_round_trip(self, tmp_path, n, d):
        inst = synthetic_covdiv_instance(n, d=d, seed=1000 + n + d, density=0.4)
        path = str(tmp_path / "inst.txt")
        back = _assert_exact_round_trip(path, inst)
        assert _matrix_keys(path) == ["tags"]
        assert np.array_equal(back.tags, inst.tags)
        assert back.similarity.tobytes() == inst.similarity.tobytes()

    def test_gen_writes_tags(self, tmp_path, capsys):
        path = str(tmp_path / "inst.txt")
        assert main(["gen", "--family", "covdiv", "--n", "12", "--seed", "3",
                     "--out", path]) == 0
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert "tags inline" in lines
        assert not any(line.startswith("similarity") for line in lines)

    @pytest.mark.parametrize("edit", ("doubled", "one-ulp", "negative-zero", "float32", "dropped"))
    def test_tags_that_disagree_with_similarity_are_refused(self, tmp_path, edit):
        inst = synthetic_covdiv_instance(9, d=4, seed=5, density=0.5)
        sim = inst.similarity.copy()
        if edit == "doubled":
            sim = 2.0 * sim
        elif edit == "one-ulp":
            sim[3, 3] = np.nextafter(sim[3, 3], 2.0)
        elif edit == "negative-zero":
            assert np.any(sim == 0.0)
            sim[sim == 0.0] = -0.0
        elif edit == "float32":
            sim = sim.astype(np.float32)
        else:
            sim = None
        path = tmp_path / "inst.txt"
        with pytest.raises(InstanceFormatError, match="^tags: similarity is not"):
            write_instance(str(path), dataclasses.replace(inst, similarity=sim))
        assert not path.exists()

    def test_without_tags_the_dense_form_is_written(self, tmp_path):
        tagged = synthetic_covdiv_instance(30, d=6, seed=8, density=0.3)
        inst = dataclasses.replace(tagged, tags=None)
        path = str(tmp_path / "inst.txt")
        back = _assert_exact_round_trip(path, inst)
        assert _matrix_keys(path) == ["similarity"]
        assert back.tags is None and back != tagged


class TestInstanceErrors:
    def _write(self, tmp_path, text):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def test_unknown_family(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            read_instance(self._write(tmp_path, "family mystery\nn 2\nratings 1 2\n"))

    def test_missing_required_keys(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            read_instance(self._write(tmp_path, "family covdiv\nn 2\n"))

    def test_rating_count_mismatch(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            read_instance(self._write(
                tmp_path, "family modular-penalty\nn 3\nrewards 1 2\n"
                          "penalties inline\n0 0 0\n0 0 0\n0 0 0\n"))

    def test_covdiv_needs_matrix(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            read_instance(self._write(
                tmp_path, "family covdiv\nn 2\nratings 1 2\n"
                          "alpha 1\nbeta 1\neta 2\n"))

    def test_modular_needs_penalties(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            read_instance(self._write(
                tmp_path, "family modular-penalty\nn 2\nrewards 1 2\n"))

    def test_asymmetric_penalties_rejected(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            read_instance(self._write(
                tmp_path, "family modular-penalty\nn 2\nrewards 1 2\n"
                          "penalties inline\n0 1\n2 0\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            read_instance(self._write(
                tmp_path, "family modular-penalty\nn 2\nrewards 1 2\n"
                          "penalties inline\n0 0\n0 0\nflavor mint\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            read_instance(str(tmp_path / "nope.txt"))

    def test_binary_file(self, tmp_path):
        path = str(tmp_path / "blob.bin")
        with open(path, "wb") as fh:
            fh.write(b"family \xff\xfe covdiv\n")
        with pytest.raises(InstanceFormatError):
            read_instance(path)

    MODULAR = "family modular-penalty\nn {n}\nrewards 1 1 1\npenalties inline\n{rows}"
    COVDIV_TAGS = "family covdiv\nn 3\nratings 1 1 1\nalpha 1\nbeta 1\neta 2\ntags inline\n{rows}"

    @pytest.mark.parametrize("body, key", (
        (MODULAR.format(n=3, rows="0 0 0\n0 0\n0 0 0\n"), "penalties"),
        (MODULAR.format(n=3, rows="0 0 0\n0 0 0\n"), "penalties"),
        (MODULAR.format(n=3, rows="0 0 0\n0 0 0\nscales 1 1\n"), "penalties"),
        (MODULAR.format(n=3, rows="0 0 0\n0 1_0 0\n0 0 0\n"), "penalties"),
        (MODULAR.format(n=3, rows="0 0 0\n0 0 banana\n0 0 0\n"), "penalties"),
        (COVDIV_TAGS.format(rows="0.5 0.5\n0.5\n0.1 0.2\n"), "tags"),
        (COVDIV_TAGS.format(rows="0.5 0.5\n0.5 0.1\n"), "tags"),
        (COVDIV_TAGS.format(rows="0.5 0.5\n0.5 1.5\n0.1 0.2\n"), "tags"),
        (COVDIV_TAGS.format(rows="0.5 0.5\n0.5 -0.25\n0.1 0.2\n"), "tags"),
        (COVDIV_TAGS.format(rows="0.5 0.5\nnan 0.1\n0.1 0.2\n"), "tags"),
        (COVDIV_TAGS.format(rows="0.5 0.5\ninf 0.1\n0.1 0.2\n"), "tags"),
        ("family modular-penalty\nn -2\nrewards 1\npenalties inline\n0\n", "n"),
        ("family modular-penalty\nn 0\nrewards\n", "n"),
        # Key lines take the numbers matrix rows take: no Python-only literals.
        (MODULAR.format(n=3, rows="0 0 0\n0 0 0\n0 0 0\n").replace("rewards 1 1", "rewards 1_0 1"),
         "rewards"),
        (COVDIV_TAGS.format(rows="0.5 0.5\n0.5 0.1\n0.1 0.2\n").replace("ratings 1 1", "ratings 1 \u0661"),
         "ratings"),
        (COVDIV_TAGS.format(rows="0.5 0.5\n0.5 0.1\n0.1 0.2\n").replace("alpha 1", "alpha 1_0"),
         "alpha"),
        (MODULAR.format(n=3, rows="0 0 0\n0 0 0\n0 0 0\n") + "scales 1 1_0\n", "scales"),
        (COVDIV_TAGS.format(rows="0.5 0.5\n1_0 0.1\n0.1 0.2\n"), "tags"),
        # Integer key lines too: int() alone would read these as 3.
        (MODULAR.format(n="0_3", rows="0 0 0\n0 0 0\n0 0 0\n"), "n"),
        (MODULAR.format(n="\u0663", rows="0 0 0\n0 0 0\n0 0 0\n"), "n"),
        # A row past the block is one of its rows, not an unknown key.
        (MODULAR.format(n=3, rows="0 0 0\n0 0 0\n0 0 0\n1 0 0\n"),
         "penalties: expected 3 inline rows, got 4"),
        (COVDIV_TAGS.format(rows="0.5 0.5\n0.5 0.1\n0.1 0.2\n0.3 0.3\n-1 0\n"),
         "tags: expected 3 inline rows, got 5"),
        (COVDIV_TAGS.replace("tags", "similarity").format(
            rows="0 0.5 0.5\n0.5 0 0.5\n0.5 0.5 0\n0.3 0.2 0.1\n"),
         "similarity: expected 3 inline rows, got 4"),
        # Two matrices for one W: neither is silently dropped.
        (COVDIV_TAGS.format(rows="0.5 0.5\n0.5 0.1\n0.1 0.2\n")
         + "similarity inline\n0 0.5 0.5\n0.5 0 0.5\n0.5 0.5 0\n", "similarity and tags"),
        (COVDIV_TAGS.replace("tags", "similarity").format(
            rows="0 0.5 0.5\n0.5 0 0.5\n0.5 0.5 0\n") + "tags inline\n0.5 0.5\n0.5 0.1\n0.1 0.2\n",
         "similarity and tags"),
        # A key the family does not read is named, not parsed and dropped.
        (MODULAR.format(n=3, rows="0 0 0\n0 0 0\n0 0 0\n")
         + "similarity inline\n0 9 9\n9 0 9\n9 9 0\n",
         "similarity: a modular-penalty instance has no similarity"),
        (MODULAR.format(n=3, rows="0 0 0\n0 0 0\n0 0 0\n") + "tags inline\n0.5\n0.5\n0.1\n",
         "tags: a modular-penalty instance has no tags"),
        (MODULAR.format(n=3, rows="0 0 0\n0 0 0\n0 0 0\n").replace("rewards", "alpha 5\nrewards")
         + "similarity inline\n0 9 9\n9 0 9\n9 9 0\n",
         "alpha: a modular-penalty instance has no alpha"),
        (COVDIV_TAGS.format(rows="0.5 0.5\n0.5 0.1\n0.1 0.2\n")
         + "penalties inline\n0 1 1\n1 0 1\n1 1 0\n",
         "penalties: a covdiv instance has no penalties"),
        # A key given twice is bad input, not overwritten by its last value.
        (MODULAR.format(n=3, rows="0 0 0\n0 0 0\n0 0 0\n").replace("rewards 1 1 1",
                                                                    "rewards 1 2 3\nrewards 5 6 7"),
         "rewards: given twice"),
        (MODULAR.format(n=3, rows="0 0 0\n0 0 0\n0 0 0\n").replace("rewards 1 1 1",
                                                                    "ratings 1 2 3\nrewards 5 6 7"),
         "rewards: given twice"),
        (MODULAR.format(n=3, rows="0 0 0\n0 0 0\n0 0 0\npenalties inline\n0 1 1\n1 0 1\n1 1 0\n"),
         "penalties: given twice"),
        (MODULAR.format(n=3, rows="0 0 0\n0 0 0\n0 0 0\nn 3\n"), "n: given twice"),
        (COVDIV_TAGS.format(rows="0.5 0.5\n0.5 0.1\n0.1 0.2\n") + "eta 3\n", "eta: given twice"),
    ), ids=("ragged", "short", "short-then-key", "underscore", "word",
            "ragged-tags", "short-tags", "tag-above-one", "negative-tag", "nan-tag",
            "inf-tag", "negative-n", "zero-n", "underscore-rewards", "arabic-digit-ratings",
            "underscore-alpha", "underscore-scales", "underscore-tag-row",
            "underscore-n", "arabic-digit-n", "extra-row", "extra-tag-rows",
            "extra-similarity-row", "tags-then-similarity", "similarity-then-tags",
            "modular-similarity", "modular-tags", "modular-alpha", "covdiv-penalties",
            "rewards-twice", "ratings-then-rewards", "penalties-twice", "n-twice", "eta-twice"))
    def test_bad_block_names_its_key(self, tmp_path, body, key):
        with pytest.raises(InstanceFormatError, match=rf"^{key}\b"):
            read_instance(self._write(tmp_path, body))

    def test_non_finite_tags_are_rejected_at_the_source(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="tag entries must be finite"):
                similarity_from_tags([[0.5, bad], [0.1, 0.2]])

    @pytest.mark.parametrize("bad", ("nan", "inf", "-inf"))
    def test_non_finite_numbers_rejected(self, tmp_path, bad):
        modular = "family modular-penalty\nn 2\nrewards {r}\npenalties inline\n0 1\n1 0\n"
        covdiv = ("family covdiv\nn 2\nratings {r}\nalpha {a}\nbeta 1\neta 2\n"
                  "similarity inline\n0 0.5\n0.5 0\n")
        bodies = (modular.format(r=f"{bad} 1"),
                  modular.format(r="1 1") + f"scales 1 {bad}\n",
                  covdiv.format(r=f"1 {bad}", a="1"),
                  covdiv.format(r="1 1", a=bad))
        for body in bodies:
            with pytest.raises(InstanceFormatError, match="finite"):
                read_instance(self._write(tmp_path, body))

    def test_scales_length_checked_at_bundle(self):
        base = synthetic_modular_instance(4, seed=2)
        inst = Instance(family=base.family, n=4, ratings=base.ratings,
                        penalties=base.penalties, scales=(1.0, 0.5))
        with pytest.raises(ValueError):
            inst.bundle((0.5, 0.3, 0.2))

    @pytest.mark.parametrize("scales, lams, message", (
        # A negative scale times a zero weight folds to -0.0, which a weight
        # profile accepts; the scale itself is what is wrong.
        ((-1.0, 1.0), (0.0, 1.0), "scales: -1.0 is not finite and nonnegative"),
        ((1.0, math.inf), (1.0, 1.0), "scales: inf is not finite and nonnegative"),
        ((1e308, 1.0), (10.0, 1.0), "scales: lambda_1 * 1e+308 = inf is not finite"),
    ), ids=("negative", "infinite", "overflowing-product"))
    def test_scales_checked_at_bundle(self, scales, lams, message):
        inst = dataclasses.replace(synthetic_modular_instance(4, seed=1), scales=scales)
        with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
            inst.bundle(lams)


class TestInstanceOracle:
    """An instance builds its oracle once: at read time, or on the first
    ``oracle()`` call, and every later call and bundle shares it."""

    def test_read_and_bundle_build_one_oracle(self, tmp_path, monkeypatch):
        path = str(tmp_path / "inst.txt")
        write_instance(path, synthetic_modular_instance(6, seed=2))
        built = []
        init = ModularPenaltyFn.__init__

        def counting_init(fn, *args, **kwargs):
            built.append(fn)
            init(fn, *args, **kwargs)

        monkeypatch.setattr(ModularPenaltyFn, "__init__", counting_init)
        inst = read_instance(path)
        bundle = inst.bundle((0.5, 0.5))
        assert len(built) == 1
        assert bundle.base_oracle is built[0]
        assert inst.oracle() is inst.oracle() is built[0]

    def test_fields_are_frozen(self):
        inst = synthetic_modular_instance(4, seed=1)
        oracle = inst.oracle()
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.ratings = (0.0,) * 4
        assert inst.oracle() is oracle
        # replace builds a new instance, which builds its own oracle.
        zeroed = dataclasses.replace(inst, ratings=(0.0,) * 4)
        assert zeroed.oracle() is not oracle
        assert zeroed.oracle()(frozenset({0})) == 0.0 != oracle(frozenset({0}))


class TestSynthetic:
    def test_modular_preset_is_demo_instance(self):
        inst = synthetic_modular_instance(3, seed=0)
        demo = tiny_instance()
        assert inst.ratings == tuple(demo.rewards)
        assert np.array_equal(inst.penalties, np.asarray(demo.penalties))

    def test_modular_values_nonnegative_everywhere(self):
        # Rewards absorb half the incident penalty mass, so every subset
        # value stays nonnegative -- the premise the flexible bound needs.
        import itertools
        for seed in (1, 2, 3):
            inst = synthetic_modular_instance(7, seed=seed, penalty_prob=0.8)
            fn = inst.oracle()
            for r in range(8):
                for sub in itertools.combinations(range(7), r):
                    assert fn(frozenset(sub)) >= -1e-12

    def test_covdiv_shapes(self):
        inst = synthetic_covdiv_instance(11, d=6, seed=3, density=0.3, eta=35.0)
        assert inst.n == 11
        assert len(inst.ratings) == 11
        assert inst.similarity.shape == (11, 11)
        assert inst.eta == 35.0
        fn = inst.oracle()
        probe = frozenset({0, 5})
        assert fn(probe) == pytest.approx(
            fn.alpha * (inst.ratings[0] + inst.ratings[5])
            + fn.beta * fn.diversity_value(probe))

    def test_seeds_differ(self):
        a = synthetic_modular_instance(6, seed=1)
        b = synthetic_modular_instance(6, seed=2)
        assert a != b


class TestExperimentFiles:
    @staticmethod
    def _write(tmp_path, body, instance=None):
        """The spec ``body`` next to an instance file ``inst.txt`` (a covdiv
        one by default, which the default algorithms can run on)."""
        write_instance(str(tmp_path / "inst.txt"),
                       instance or synthetic_covdiv_instance(6, d=4, seed=1, density=0.5))
        spec_path = str(tmp_path / "exp.txt")
        with open(spec_path, "w") as fh:
            fh.write(body)
        return spec_path

    def test_parse_full_spec(self, tmp_path):
        spec_path = self._write(
            tmp_path, "instance inst.txt\nk 3\np 0.4\nseed 17\nrounds 50\n"
                      "constraint both\nalgorithms sg quality\n"
                      "distribution uniform\ndistribution normal 2 1\n"
                      "distribution explicit 0.5 0.25 0.25\n",
            synthetic_modular_instance(5, seed=9))
        exp = read_experiment(spec_path)
        assert exp.n == 5 and exp.ratings == read_instance(str(tmp_path / "inst.txt")).ratings
        assert exp.k == 3 and exp.p == 0.4 and exp.base_seed == 17 and exp.rounds == 50
        assert exp.constraints == (FLEXIBLE, FIXED)
        assert exp.algorithms == ("sg", "quality")
        kinds = [d.kind for d in exp.distributions]
        assert kinds == ["uniform", "normal", "explicit"]
        assert exp.distributions[1].mu == 2.0
        assert exp.distributions[2].values == (0.5, 0.25, 0.25)

    def test_defaults(self, tmp_path):
        exp = read_experiment(self._write(tmp_path, "instance inst.txt\nk 2\n"))
        assert exp.p == pytest.approx(P_STAR)
        assert exp.rounds == 100
        assert exp.constraints == (FLEXIBLE, FIXED)
        assert [d.kind for d in exp.distributions] == ["uniform"]

    def test_single_constraint(self, tmp_path):
        spec_path = self._write(tmp_path, "instance inst.txt\nk 2\nconstraint fixed\n")
        assert read_experiment(spec_path).constraints == (FIXED,)

    def test_same_cells_from_another_directory(self, tmp_path, monkeypatch):
        spec_path = self._write(
            tmp_path, "instance inst.txt\nk 3\nrounds 4\nseed 8\nconstraint fixed\n"
                      "distribution normal 2 1\n")
        inst = read_instance(str(tmp_path / "inst.txt"))
        by_hand = ExperimentSpec(
            oracle=inst.oracle(), ratings=inst.ratings, n=inst.n, k=3,
            algorithms=("sg", "covdiv", "quality"),
            distributions=(UserTypeDistribution.normal(3, 2.0, 1.0),),
            constraints=(FIXED,), rounds=4, base_seed=8)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        got = comparative_experiment(read_experiment(spec_path)).cells
        assert got == comparative_experiment(by_hand).cells
        assert len(got) == 3

    def test_scaled_instance_is_refused(self, tmp_path):
        # The distribution lines set the weights; an ExperimentSpec has no scales.
        scaled = dataclasses.replace(synthetic_modular_instance(5, seed=9), scales=(1.0, 2.0))
        spec_path = self._write(tmp_path, "instance inst.txt\nk 2\nalgorithms sg\n", scaled)
        with pytest.raises(InstanceFormatError,
                           match="^experiments run on instances without scales$"):
            read_experiment(spec_path)

    @pytest.mark.parametrize("lines, message", (
        ("k 2\nrounds 0\n", "rounds must be positive"),
        ("k 7\n", "k=7 outside 1..6"),
        ("k 2\nalgorithms sg sg\n", "algorithm sg is repeated"),
        ("k 2\nalgorithms sg covdiv\n", "the covdiv baseline needs a CoverageDiversityFn oracle"),
        ("k 2\nalgorithms sg\np 2\n", r"p=2\.0 outside \[0, 1\]$"),
        ("k 2\nalgorithms sg\np nan\n", r"p=nan outside \[0, 1\]$"),
    ), ids=("rounds", "k", "repeated-algorithm", "covdiv", "p", "p-nan"))
    def test_spec_errors_are_format_errors(self, tmp_path, lines, message):
        spec_path = self._write(tmp_path, "instance inst.txt\n" + lines,
                                synthetic_modular_instance(6, seed=1))
        with pytest.raises(InstanceFormatError, match=f"^{message}"):
            read_experiment(spec_path)

    @pytest.mark.parametrize("key, lines", (
        ("k", "k 2\nk 3\n"),
        ("algorithms", "k 2\nalgorithms sg\nalgorithms quality\n"),
        ("instance", "k 2\ninstance inst.txt\n"),
        ("constraint", "k 2\nconstraint fixed\nconstraint fixed\n"),
        ("seed", "k 2\nseed 1\nseed 1\n"),
    ))
    def test_repeated_key_is_bad_input(self, tmp_path, key, lines):
        spec_path = self._write(tmp_path, "instance inst.txt\n" + lines)
        with pytest.raises(InstanceFormatError, match=f"^{key}: given twice$"):
            read_experiment(spec_path)

    def test_bad_lines(self, tmp_path):
        # a.txt is a valid instance, so each body fails on its own line.
        write_instance(str(tmp_path / "a.txt"),
                       synthetic_covdiv_instance(6, d=4, seed=1, density=0.5))
        spec_path = str(tmp_path / "exp.txt")
        with open(spec_path, "w") as fh:
            fh.write("instance a.txt\nk 2\n")
        read_experiment(spec_path)
        for body in ("k 2\n",                        # no instance
                     "instance a.txt\n",             # no k
                     "instance a.txt\nk 2\nconstraint sometimes\n",
                     "instance a.txt\nk 2\ndistribution pareto 1\n",
                     "instance a.txt\nk 2\nwhat now\n",
                     "instance a.txt\nk\n",        # bare keys
                     "instance a.txt\nk 2\np\n",
                     "instance a.txt\nk 2\nseed\n",
                     "instance a.txt\nk 2\nrounds\n",
                     "instance a.txt\nk 2 3\n",    # extra value
                     "instance a.txt\nk 1e400\n",
                     "instance a.txt\nk 2\np 0_5\n",  # not a number in matrix rows either
                     "instance a.txt\nk 2\ndistribution normal 1_0 2\n",
                     "instance a.txt\nk 2\ndistribution normal 2 inf\n",
                     "instance a.txt\nk 2\nalgorithms\n",
                     "instance a.txt\nk 0_2\n",     # integers take the same grammar
                     "instance a.txt\nk 2\nseed 1_7\n",
                     "instance a.txt\nk 2\nrounds \u0665\n"):
            with open(spec_path, "w") as fh:
                fh.write(body)
            with pytest.raises(InstanceFormatError):
                read_experiment(spec_path)


class TestResultsFiles:
    def _stats(self):
        inst = synthetic_modular_instance(5, seed=6)
        spec = ExperimentSpec(
            oracle=inst.oracle(), ratings=inst.ratings, n=5, k=2,
            algorithms=("sg", "quality"),
            distributions=(UserTypeDistribution.uniform(2),
                           UserTypeDistribution.normal(2, 1.0, 1.0)),
            constraints=(FLEXIBLE,), rounds=12, base_seed=2, p=P_STAR)
        return comparative_experiment(spec)

    def test_round_trip(self, tmp_path):
        stats = self._stats()
        path = str(tmp_path / "results.csv")
        write_results(path, stats, {"instance": "synthetic", "k": 2})
        back, meta = read_results(path)
        assert meta["instance"] == "synthetic"
        assert meta["k"] == "2"
        assert len(back.cells) == len(stats.cells)
        for orig in stats.cells:
            echo = back.cell(orig.algorithm, orig.distribution, orig.constraint)
            assert echo.values == orig.values  # repr floats survive exactly
            assert echo.lengths == orig.lengths
            assert echo.oracle_calls == orig.oracle_calls

    def test_rewrite_is_byte_identical(self, tmp_path):
        stats = self._stats()
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_results(a, stats, {"k": 2, "instance": "synthetic"})
        write_results(b, self._stats(), {"instance": "synthetic", "k": 2})
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_aggregate_footer_present(self, tmp_path):
        path = str(tmp_path / "results.csv")
        write_results(path, self._stats(), {})
        with open(path) as fh:
            text = fh.read()
        assert "algorithm,distribution,constraint,round,F,length,oracle_calls" in text
        assert "aggregates" in text
        assert "mean" in text

    def test_malformed_results(self, tmp_path):
        path = str(tmp_path / "broken.csv")
        with open(path, "w") as fh:
            fh.write("algorithm,distribution,constraint,round,F,length,oracle_calls\n"
                     "sg,UNIFORM,flexible,0,not-a-number,2,5\n")
        with pytest.raises(InstanceFormatError):
            read_results(path)
