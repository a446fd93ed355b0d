"""Probability files read in checked row blocks.

A binary probability file reaches the IS family, accuracy and the class
averages as a ``ProbabilityFile``: each pass reads it in row blocks and checks
every block as it goes by.  These tests hold it to the in-memory path: the
same reports, byte for byte, the same errors naming the file's rows, and no
N x K array in memory.
"""

import json
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

import condmetrics.metrics as metrics_mod
from condmetrics import (
    CollapseSchedule,
    InvalidInputError,
    MixtureSpec,
    TensorFileError,
    accuracy,
    average_class_probabilities,
    bcis,
    build_report,
    dirichlet_rows,
    gen_mixture,
    hungarian_max,
    inception_score,
    per_class_is,
    save_csv,
    save_tensor,
    sweep_label_noise,
    sweep_mode_collapse,
    wcis,
)
from condmetrics.cli import main
from condmetrics.report import assignment_to_json, report_to_json, reports_to_csv
from condmetrics.synth import rng_for
from condmetrics.tensorfile import ProbabilityFile, open_probabilities

# 300 columns: 109 rows per block, so the 1200 rows below take 12 blocks
K = 300


def noisy_probs(labels, k, seed, strength=0.5):
    """Rows peaked at (a permutation of) each row's label."""
    rng = rng_for(seed)
    rows = rng.uniform(0.0, 1.0 - strength, (labels.size, k))
    rows[np.arange(labels.size), labels] += strength
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Features, labels and probabilities for K classes, 4 rows per class per
    side, as arrays and as CFM1 files; generated class c is real class
    (c + 1) % K, which the probabilities reveal."""
    d = 3
    means = rng_for(5).normal(0.0, 3.0, (K, d))
    real_x, real_y = gen_mixture(MixtureSpec(means, [np.eye(d)] * K, [4] * K, seed=6))
    gen_x, gen_y = gen_mixture(MixtureSpec(
        means[(np.arange(K) + 1) % K] + 0.1, [np.eye(d)] * K, [4] * K, seed=7))
    order = rng_for(8).permutation(gen_y.size)  # labels spread over the blocks
    gen_x, gen_y = gen_x[order], gen_y[order]
    probs = noisy_probs((gen_y + 1) % K, K, seed=9)
    arrays = dict(real_features=real_x, real_labels=real_y, gen_features=gen_x,
                  gen_labels=gen_y, probs=probs)
    folder = tmp_path_factory.mktemp("probability-file")
    paths = {}
    for name, array in arrays.items():
        paths[name] = folder / f"{name}.cfm"
        save_tensor(paths[name], array)
    return arrays, paths


def cli_args(paths, out, *extra):
    args = []
    for name, path in paths.items():
        args += [f"--{name.replace('_', '-')}", str(path)]
    return [*args, "--out", str(out), *extra]


@pytest.fixture
def reads(monkeypatch):
    """The block sizes of every read of a ``ProbabilityFile``, in order."""
    reads = []
    blocks = ProbabilityFile.blocks

    def counted(self, rows):
        reads.append(rows)
        return blocks(self, rows)

    monkeypatch.setattr(ProbabilityFile, "blocks", counted)
    return reads


# every function that takes probabilities, as (probabilities, arrays) -> parts
PROBABILITY_FUNCTIONS = {
    "inception_score": lambda probs, a: (inception_score(probs),),
    "bcis": lambda probs, a: (bcis(probs, a["gen_labels"]),),
    "wcis": lambda probs, a: (wcis(probs, a["gen_labels"]),),
    "per_class_is": lambda probs, a: (per_class_is(probs, a["gen_labels"]),),
    "accuracy": lambda probs, a: accuracy(probs, a["gen_labels"]),
    "average_class_probabilities": lambda probs, a: (
        average_class_probabilities(probs, a["gen_labels"]),),
    "hungarian_max": lambda probs, a: astuple(
        hungarian_max(average_class_probabilities(probs, a["gen_labels"]))),
    "build_report": lambda probs, a: (
        report_to_json(build_report(**dict(a, probs=probs), pairing="hungarian")),),
}


@pytest.mark.parametrize("name", list(PROBABILITY_FUNCTIONS))
def test_every_probability_function_reads_a_file_as_its_array(inputs, reads, name):
    arrays, paths = inputs
    score = PROBABILITY_FUNCTIONS[name]
    from_file = score(open_probabilities(paths["probs"]), arrays)
    assert reads  # the file was read in blocks, not loaded and passed on
    from_array = score(arrays["probs"], arrays)
    assert len(from_file) == len(from_array)
    assert all(np.array_equal(f, a) for f, a in zip(from_file, from_array))


class TestSameReports:
    """A report read from a binary probability file is == the report of the
    loaded arrays."""

    @pytest.mark.parametrize("pairing", ["identity", "hungarian"])
    def test_metrics(self, inputs, tmp_path, pairing):
        arrays, paths = inputs
        out = tmp_path / "report.json"
        assert main(["metrics", *cli_args(paths, out, "--pairing", pairing)]) == 0
        assert out.read_text() == report_to_json(build_report(**arrays, pairing=pairing))

    def test_label_noise_sweep(self, inputs, tmp_path):
        arrays, paths = inputs
        out = tmp_path / "sweep.csv"
        grid = [0.0, 0.3, 1.0]
        assert main(["sweep", "--experiment", "label_noise", "--grid", "0,0.3,1",
                     "--pairing", "hungarian", "--seed", "4",
                     *cli_args(paths, out)]) == 0
        expected = sweep_label_noise(grid=grid, pairing="hungarian", seed=4, **arrays)
        assert out.read_text() == reports_to_csv(expected)

    def test_mode_collapse_sweep(self, inputs, tmp_path):
        arrays, paths = inputs
        out = tmp_path / "collapse.csv"
        assert main(["sweep", "--experiment", "mode_collapse", "--steps", "3",
                     "--per-class-sample", "3", "--collapsed-classes", "0,1", "--seed", "2",
                     *cli_args(paths, out)]) == 0
        schedule = CollapseSchedule(steps=3, per_class_sample=3, collapsed_classes=(0, 1))
        expected = sweep_mode_collapse(schedule=schedule, seed=2, **arrays)
        assert out.read_text() == reports_to_csv(expected)

    def test_match(self, inputs, tmp_path):
        arrays, paths = inputs
        out = tmp_path / "match.json"
        assert main(["match", "--probs", str(paths["probs"]),
                     "--gen-labels", str(paths["gen_labels"]), "--out", str(out)]) == 0
        averages = average_class_probabilities(arrays["probs"], arrays["gen_labels"])
        best = hungarian_max(averages)
        assert out.read_text() == assignment_to_json(best.mapping, best.score, averages)
        assert best.mapping.tolist() == [(c + 1) % K for c in range(K)]

    def test_csv_probabilities_give_the_same_bytes(self, inputs, tmp_path):
        arrays, paths = inputs
        csv_paths = dict(paths, probs=tmp_path / "probs.csv")
        save_csv(csv_paths["probs"], arrays["probs"])
        from_binary, from_csv = tmp_path / "binary.json", tmp_path / "csv.json"
        assert main(["metrics", *cli_args(paths, from_binary, "--pairing", "hungarian")]) == 0
        assert main(["metrics", *cli_args(csv_paths, from_csv, "--pairing", "hungarian")]) == 0
        assert from_binary.read_bytes() == from_csv.read_bytes()

    def test_label_noise_sweep_reads_the_file_once(self, tmp_path, reads):
        # eleven points' K x K class sums (88 MB at K=1000) come from one read
        k = 1000
        labels = rng_for(13).permutation(k)
        probs = noisy_probs(labels, k, seed=14)
        path = write_probs(tmp_path / "p.cfm", probs)
        options = dict(gen_labels=labels, grid=np.linspace(0.0, 1.0, 11), seed=3)
        from_file = sweep_label_noise(probs=ProbabilityFile(path), **options)
        assert len(reads) == 1
        in_memory = sweep_label_noise(probs=probs, **options)
        assert [report_to_json(r) for _, r in from_file] == [
            report_to_json(r) for _, r in in_memory]

    def test_empty_label_noise_grid_reads_nothing(self, inputs, reads):
        arrays, paths = inputs
        with pytest.raises(InvalidInputError, match="^grid is empty$"):
            sweep_label_noise(grid=[], **dict(arrays, probs=ProbabilityFile(paths["probs"])))
        assert reads == []

    def test_mode_collapse_class_count_fault_reads_nothing(self, inputs, reads):
        # one generated row per class leaves bcfid/wcfid no covariance: the
        # class split of the first step fails before any step reads the file
        arrays, paths = inputs
        schedule = CollapseSchedule(steps=5, per_class_sample=1)
        with pytest.raises(InvalidInputError, match="needs >= 2 on the generated side"):
            sweep_mode_collapse(schedule=schedule, **dict(
                arrays, probs=ProbabilityFile(paths["probs"])))
        assert reads == []


def assert_sums_equal_add_at(monkeypatch, probs, labels, k, rows,
                             source=metrics_mod.ProbabilityRows):
    """_is_pass's class sums, over blocks of at most ``rows`` rows of
    ``source(probs)``, equal np.add.at's row-order sums of the cleaned rows."""
    monkeypatch.setattr(metrics_mod, "_IS_BLOCK", rows * probs.shape[1])
    cleaned = metrics_mod._clean_rows(probs, np.empty_like(probs))
    _, (sums,) = metrics_mod._is_pass(source(probs), [labels], k)
    expected = np.zeros((k, cleaned.shape[1]))
    np.add.at(expected, labels, cleaned)
    assert np.array_equal(sums, expected)


class TestScatter:
    @pytest.mark.parametrize("k, n, rows", [(1000, 64, 32), (128, 512, 256), (3, 40, 7),
                                            (1, 5, 2), (2, 300, 300)])
    @pytest.mark.parametrize("order", ["shuffled", "sorted"])
    def test_class_sums_equal_add_at(self, monkeypatch, k, n, rows, order):
        # rows repeating a label within a block are added after the block's
        # first of that label, still in row order
        labels = rng_for(k, n).integers(0, k, n)
        if order == "sorted":
            labels = np.sort(labels)
        probs = dirichlet_rows(np.full(max(k, 2), 0.5), n, seed=k)
        assert_sums_equal_add_at(monkeypatch, probs, labels, k, rows)

    def test_block_with_a_long_run_of_one_label(self, monkeypatch):
        # the first 100-row block holds 97 rows of class 0 and 3 of class 1:
        # the plain add takes each label's first row, np.add.at the 98 others
        labels = np.repeat(np.arange(5), [97, 83, 80, 80, 60])
        probs = dirichlet_rows(np.full(5, 0.5), labels.size, seed=15)
        assert_sums_equal_add_at(monkeypatch, probs, labels, 5, 100)

    @pytest.mark.parametrize("order", ["shuffled", "sorted"])
    def test_fortran_ordered_rows_give_the_same_pass(self, monkeypatch, order):
        # the row quantities and class sums do not depend on the memory layout
        # of the caller's rows
        labels = rng_for(21).integers(0, 10, 400)
        if order == "sorted":
            labels = np.sort(labels)
        probs = dirichlet_rows(np.full(10, 0.5), labels.size, seed=21)
        assert_sums_equal_add_at(monkeypatch, probs, labels, 10, 100)
        (c_rows, (c_sums,)), (f_rows, (f_sums,)) = (
            metrics_mod._is_pass(metrics_mod.ProbabilityRows(p), [labels], 10)
            for p in (probs, np.asfortranarray(probs)))
        assert np.array_equal(c_sums, f_sums)
        assert all(np.array_equal(c, f) for c, f in zip(c_rows, f_rows))


class CutRows(metrics_mod.ProbabilityRows):
    """Checked rows in blocks that end at ``cuts(rows, n)``, not at multiples
    of ``rows``; each block has at most ``rows`` rows."""

    def __init__(self, p, cuts):
        super().__init__(p)
        self.cuts = cuts

    def blocks(self, rows):
        ends = [*self.cuts(rows, self.shape[0]), self.shape[0]]
        for start, stop in zip([0, *ends], ends):
            assert 0 < stop - start <= rows
            yield start, self.p[start:stop]


def offset_cuts(rows, n):
    return range(rows // 2, n, rows)


def random_cuts(rows, n):
    ends = np.cumsum(rng_for(24, rows).integers(1, rows + 1, n))
    return ends[ends < n].tolist()


@pytest.mark.parametrize("cuts", [offset_cuts, random_cuts])
@pytest.mark.parametrize("k, n, rows", [(20, 400, 50), (24, 1000, 128), (300, 900, 120)])
@pytest.mark.parametrize("order", ["shuffled", "sorted"])
def test_class_sums_do_not_depend_on_block_cuts(monkeypatch, cuts, k, n, rows, order):
    # a source may cut its blocks anywhere: each block's first rows are found
    # from the block itself
    labels = rng_for(23, k).integers(0, k, n)
    if order == "sorted":
        labels = np.sort(labels)
    probs = dirichlet_rows(np.full(k, 0.5), n, seed=23)
    assert_sums_equal_add_at(monkeypatch, probs, labels, k, rows,
                             lambda p: CutRows(p, cuts))


class AddAtTargets:
    """numpy, except that ``add.at`` records the ndim of each target and index."""

    def __init__(self):
        self.ndims = []
        self.add = self

    def at(self, target, index, values):
        self.ndims.append((target.ndim, np.ndim(index)))
        np.add.at(target, index, values)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("order", ["shuffled", "sorted"])
def test_class_sums_add_later_rows_into_flat_targets(monkeypatch, order):
    # more than 8 rows per label per 100-row block, in either order: every
    # later row goes through one np.add.at on the flattened sums with a flat
    # index, never a 2-D target
    labels = rng_for(22).integers(0, 4, 400)
    if order == "sorted":
        labels = np.sort(labels)
    probs = dirichlet_rows(np.full(4, 0.5), labels.size, seed=22)
    proxy = AddAtTargets()
    monkeypatch.setattr(metrics_mod, "np", proxy)
    assert_sums_equal_add_at(monkeypatch, probs, labels, 4, 100)
    assert proxy.ndims == [(1, 1)] * 4  # at most one add.at per block


class RepeatedRows(metrics_mod.ProbabilityRows):
    """n checked rows that repeat one block: a long source in little memory."""

    def __init__(self, block, n):
        super().__init__(block)
        self.shape = (n, block.shape[1])

    def blocks(self, rows):
        for start in range(0, self.shape[0], rows):
            yield start, self.p[:min(rows, self.shape[0] - start)]


def test_pass_holds_no_array_per_row_and_point():
    # twelve points at N=100000: a pass holds each point's class sums and one
    # block's scratch, and no array per row and point
    k, n, points = 200, 100_000, 12
    source = RepeatedRows(dirichlet_rows(np.full(k, 0.3), metrics_mod._block_rows(k), seed=16), n)
    labelled = [rng_for(17, i).integers(0, k, n) for i in range(points)]
    tracemalloc.start()
    try:
        _, sums = metrics_mod._is_pass(source, labelled, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(s.base.nbytes for s in sums)
    assert peak - held <= 3 * 2**20, (peak, held)


def write_probs(path, probs):
    save_tensor(path, probs)
    return path


class TestReader:
    def test_blocks_are_the_checked_rows(self, tmp_path):
        probs = dirichlet_rows([0.5, 1.0, 2.0], 50, seed=1)
        probs[3] = [1.0 + 5e-10, -5e-10, 0.0]  # in range within the tolerance: clipped
        reader = ProbabilityFile(write_probs(tmp_path / "p.cfm", probs))
        assert reader.shape == (50, 3)
        # each block is read into the same buffer
        blocks = [(start, block.copy()) for start, block in reader.blocks(8)]
        assert [start for start, _ in blocks] == list(range(0, 50, 8))
        assert np.array_equal(np.vstack([b for _, b in blocks]),
                              metrics_mod._probability_rows(probs).p)

    def test_take_reads_rows_in_any_order(self, tmp_path):
        probs = dirichlet_rows(np.ones(4), 1000, seed=2)
        reader = ProbabilityFile(write_probs(tmp_path / "p.cfm", probs))
        index = np.array([999, 3, 3, 0, 512, 191])
        assert np.array_equal(reader.take(index).p, probs[index])

    @pytest.mark.parametrize("fault, message", [
        ("row-sum", "probability row 995 sums to"),
        ("range", "probability entries outside [0, 1] at row 995"),
        ("nan", "non-finite value at row 995"),
    ])
    def test_errors_name_the_row_of_the_file(self, tmp_path, fault, message):
        probs = dirichlet_rows(np.ones(40), 1000, seed=3)  # 819 rows per block
        probs[995] = {"row-sum": 0.5 * probs[995], "range": np.r_[1.5, -0.5, probs[995, 2:]],
                      "nan": np.r_[np.nan, probs[995, 1:]]}[fault]
        reader = ProbabilityFile(write_probs(tmp_path / "p.cfm", probs))
        with pytest.raises(InvalidInputError, match=message.replace("[", r"\[")):
            list(reader.blocks(819))

    @pytest.mark.parametrize("array, code, message", [
        (np.full(4, 0.25), "bad-rank", "probabilities must be rank 2"),
        (np.eye(2, dtype=np.int64), "bad-dtype", "probabilities must be float64"),
    ])
    def test_header_faults_are_found_on_opening(self, tmp_path, array, code, message):
        path = tmp_path / "p.cfm"
        save_tensor(path, array)
        with pytest.raises(TensorFileError) as err:
            ProbabilityFile(path)
        assert err.value.code == code
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("array, message", [
        (np.zeros((0, 3)), "probability matrix has no rows"),
        (np.ones((4, 1)), "probability matrix needs at least 2 classes, got 1"),
    ])
    def test_shape_faults_are_found_on_opening(self, tmp_path, array, message):
        path = tmp_path / "p.cfm"
        save_tensor(path, array)
        with pytest.raises(InvalidInputError, match=message):
            ProbabilityFile(path)

    def test_file_cut_short_during_a_pass_is_truncated(self, tmp_path):
        # blocks of 16000 bytes, larger than the file object's read-ahead
        probs = dirichlet_rows(np.ones(4), 2000, seed=4)
        path = write_probs(tmp_path / "p.cfm", probs)
        blocks = ProbabilityFile(path).blocks(500)
        next(blocks)
        with open(path, "r+b") as fh:
            fh.truncate(28 + 8 * 4 * 700)  # the header, then 700 rows
        with pytest.raises(TensorFileError) as err:
            list(blocks)
        assert err.value.code == "truncated"
        assert str(err.value) == (
            f"{path}: payload starting at byte 28 has 22400 bytes, expected 64000")

    def test_header_rewritten_after_opening_is_bad_value(self, tmp_path):
        path = write_probs(tmp_path / "p.cfm", dirichlet_rows(np.ones(4), 10, seed=5))
        reader = ProbabilityFile(path)
        save_tensor(path, dirichlet_rows(np.ones(4), 12, seed=5))
        with pytest.raises(TensorFileError) as err:
            list(reader.blocks(5))
        assert err.value.code == "bad-value"

    def test_csv_is_loaded_whole(self, tmp_path):
        probs = dirichlet_rows(np.ones(3), 5, seed=6)
        save_csv(tmp_path / "p.csv", probs)
        assert np.array_equal(open_probabilities(tmp_path / "p.csv"), probs)


class TestCliFaults:
    def test_bad_row_sum_in_the_last_block(self, inputs, tmp_path, capsys):
        arrays, paths = inputs
        probs = arrays["probs"].copy()
        probs[-1] *= 0.5
        bad = dict(paths, probs=write_probs(tmp_path / "bad.cfm", probs))
        out = tmp_path / "report.json"
        assert main(["metrics", *cli_args(bad, out)]) == 2
        row = probs.shape[0] - 1
        assert f"invalid input: probability row {row} sums to" in capsys.readouterr().err
        assert not out.exists()

    def test_file_truncated_after_opening(self, inputs, tmp_path, monkeypatch, capsys):
        import condmetrics.cli as cli_mod

        arrays, paths = inputs
        path = write_probs(tmp_path / "p.cfm", arrays["probs"])

        def open_then_truncate(p):
            reader = open_probabilities(p)
            with open(p, "r+b") as fh:
                fh.truncate(path.stat().st_size - 8)
            return reader

        monkeypatch.setattr(cli_mod, "open_probabilities", open_then_truncate)
        out = tmp_path / "report.json"
        assert main(["metrics", *cli_args(dict(paths, probs=path), out)]) == 2
        size = arrays["probs"].nbytes
        assert capsys.readouterr().err == (
            f"invalid input: {path}: payload starting at byte 28 has {size - 8} bytes, "
            f"expected {size}\n")
        assert not out.exists()


def test_cli_holds_no_probability_matrix(tmp_path):
    # a 20000 x 200 file is 32 MB; the pass holds a few row blocks, the label
    # vector and a K x K class sum
    k, n = 200, 20000
    labels = rng_for(11).integers(0, k, n)
    probs_path = write_probs(tmp_path / "p.cfm", dirichlet_rows(np.full(k, 0.3), n, seed=12))
    labels_path = tmp_path / "y.cfm"
    save_tensor(labels_path, labels)
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        assert main(["metrics", "--probs", str(probs_path), "--gen-labels", str(labels_path),
                     "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert json.loads(out.read_text())["bcis"] > 1.0


@pytest.mark.parametrize("name", ["inception_score", "bcis", "wcis", "per_class_is", "accuracy"])
def test_probability_functions_hold_no_probability_matrix(tmp_path, name):
    # the 32 MB file of the CLI test above, scored by the library function
    k, n = 200, 20000
    labels = rng_for(11).integers(0, k, n)
    path = write_probs(tmp_path / "p.cfm", dirichlet_rows(np.full(k, 0.3), n, seed=12))
    score = PROBABILITY_FUNCTIONS[name]
    tracemalloc.start()
    try:
        parts = score(open_probabilities(path), dict(gen_labels=labels))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert np.all(parts[0] > 0.0)
