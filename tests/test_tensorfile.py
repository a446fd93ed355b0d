import struct
import tracemalloc

import numpy as np
import pytest

from condmetrics import (
    TensorFileError,
    load_features,
    load_labels,
    load_probabilities,
    load_tensor,
    save_csv,
    save_tensor,
)
from condmetrics.tensorfile import MAGIC


class TestRoundTrip:
    def test_float_matrix_bit_exact(self, tmp_path):
        path = tmp_path / "m.cfm"
        original = np.array([[1.25, -3.5], [1e-300, 7.125]])
        save_tensor(path, original)
        loaded = load_tensor(path)
        assert loaded.dtype == np.float64
        assert original.tobytes() == loaded.tobytes()

    def test_int_labels(self, tmp_path):
        path = tmp_path / "labels.cfm"
        labels = np.array([0, 3, 1, 2], dtype=np.int64)
        save_tensor(path, labels)
        loaded = load_labels(path, k=4)
        assert np.array_equal(loaded, labels)
        assert loaded.dtype == np.int64

    def test_save_load_twice_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.cfm", tmp_path / "b.cfm"
        arr = np.random.default_rng(0).standard_normal((7, 3))
        save_tensor(a, arr)
        save_tensor(b, arr)
        assert a.read_bytes() == b.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.cfm"
        save_tensor(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        version, dtype_code, rank = struct.unpack_from("<IBB", raw, 4)
        assert (version, dtype_code, rank) == (1, 1, 2)
        assert raw[10:12] == b"\x00\x00"
        assert struct.unpack_from("<2Q", raw, 12) == (2, 3)
        assert len(raw) == 12 + 16 + 6 * 8


    @pytest.mark.parametrize("array", [
        np.array([0.5, -2.25, 1e-300]),
        np.arange(12, dtype=np.float64).reshape(4, 3) / 7,
        np.array([3, -1, 2**62], dtype=np.int64),
        np.arange(6, dtype=np.int64).reshape(2, 3),
        np.zeros((0, 3)),
    ], ids=["float64-rank1", "float64-rank2", "int64-rank1", "int64-rank2", "empty"])
    def test_round_trip_is_one_writable_contiguous_array(self, tmp_path, array):
        path = tmp_path / "t.cfm"
        save_tensor(path, array)
        loaded = load_tensor(path)
        assert loaded.dtype == array.dtype and loaded.shape == array.shape
        assert loaded.tobytes() == array.tobytes()
        assert loaded.flags.writeable and loaded.flags.c_contiguous
        assert loaded.flags.owndata

    def test_load_peaks_at_the_payload(self, tmp_path):
        path = tmp_path / "big.cfm"
        array = np.random.default_rng(3).standard_normal((2000, 500))
        save_tensor(path, array)
        tracemalloc.start()
        try:
            loaded = load_tensor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded, array)
        assert peak <= array.nbytes + 2**20


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cfm"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert err.value.code == "bad-magic"

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        path = tmp_path / "trunc.cfm"
        save_tensor(path, np.zeros((4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert err.value.code == "truncated"
        assert "120" in str(err.value) and "128" in str(err.value)

    @pytest.mark.parametrize("extra, actual", [(-8, 120), (8, 136)],
                             ids=["truncated", "over-long"])
    def test_payload_length_mismatch_names_byte_counts(self, tmp_path, extra, actual):
        path = tmp_path / "bad.cfm"
        save_tensor(path, np.zeros((4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:extra] if extra < 0 else raw + b"\x00" * extra)
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert err.value.code == "truncated"
        assert str(err.value) == (
            f"{path}: payload starting at byte 28 has {actual} bytes, expected 128")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("shape, where, row", [((3, 2), (2, 1), 2), ((5,), (3,), 3)],
                             ids=["rank2", "rank1"])
    def test_each_non_finite_value_names_row(self, tmp_path, value, shape, where, row):
        path = tmp_path / "bad.cfm"
        arr = np.full(shape, 0.5)
        arr[where] = value
        save_tensor(path, arr)
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert err.value.code == "non-finite"
        assert str(err.value) == f"{path}: non-finite value at row {row}"

    def test_non_finite_entry_names_row(self, tmp_path):
        path = tmp_path / "nan.cfm"
        arr = np.ones((3, 2))
        arr[2, 1] = np.nan
        save_tensor(path, arr)
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert err.value.code == "non-finite"
        assert "row 2" in str(err.value)

    def test_row_sum_violation(self, tmp_path):
        path = tmp_path / "p.cfm"
        save_tensor(path, np.array([[0.5, 0.5], [0.9, 0.3]]))
        with pytest.raises(TensorFileError) as err:
            load_probabilities(path)
        assert err.value.code == "row-sum"
        assert "row 1" in str(err.value)

    def test_labels_must_be_integral(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("0\n1.5\n")
        with pytest.raises(TensorFileError) as err:
            load_labels(path)
        assert err.value.code == "bad-value"

    @pytest.mark.parametrize("labels, k, code, text", [
        (np.array([0, -1, 1]), None, "bad-value", "non-negative"),
        (np.array([0, 3, 1]), 3, "bad-value", "[0, 3)"),
        (np.zeros(0, dtype=np.int64), None, "bad-value", "empty"),
        (np.array([[0, 1], [1, 0]]), None, "bad-rank", "1-D"),
    ], ids=["negative", "out-of-range", "empty", "two-columns"])
    def test_label_checks_map_to_codes(self, tmp_path, labels, k, code, text):
        path = tmp_path / "l.cfm"
        save_tensor(path, labels)
        with pytest.raises(TensorFileError) as err:
            load_labels(path, k=k)
        assert err.value.code == code
        assert text in str(err.value) and str(path) in str(err.value)

    def test_non_integral_label_names_row(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("0\n1\n2.5\n")
        with pytest.raises(TensorFileError, match="row 2"):
            load_labels(path)

    def test_bad_rank_for_features(self, tmp_path):
        path = tmp_path / "v.cfm"
        save_tensor(path, np.arange(4, dtype=np.float64))
        with pytest.raises(TensorFileError) as err:
            load_features(path)
        assert err.value.code == "bad-rank"


class TestCSV:
    def test_csv_equals_binary(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((5, 3))
        bin_path, csv_path = tmp_path / "x.cfm", tmp_path / "x.csv"
        save_tensor(bin_path, arr)
        save_csv(csv_path, arr)
        assert np.array_equal(load_tensor(bin_path), load_tensor(csv_path))

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f0,f1\n1.5,2.5\n3.5,4.5\n")
        assert np.array_equal(load_tensor(path), [[1.5, 2.5], [3.5, 4.5]])

    def test_probabilities_from_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.25,0.75\n1,0\n")
        probs = load_probabilities(path)
        assert probs.shape == (2, 2)

    def test_labels_single_column(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("2\n0\n1\n")
        assert np.array_equal(load_labels(path, k=3), [2, 0, 1])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert err.value.code == "bad-value"
