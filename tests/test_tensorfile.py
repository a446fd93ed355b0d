import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from condmetrics import (
    TensorFileError,
    load_features,
    load_labels,
    load_tensor,
    save_csv,
    save_tensor,
)
from condmetrics.metrics import _probability_rows
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
        loaded = load_labels(path)
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

    @staticmethod
    def _header(version=1, code=1, rank=2, padding=b"\x00\x00", dims=(2, 2)):
        return (MAGIC + struct.pack("<IBB", version, code, rank) + padding
                + struct.pack(f"<{len(dims)}Q", *dims))

    @pytest.mark.parametrize("fields, cut, code, message", [
        ({}, 7, "truncated", "header truncated at byte 7, expected 12"),
        ({"version": 2}, None, "bad-version", "unsupported version 2"),
        ({"code": 3}, None, "bad-dtype", "unknown dtype code 3"),
        ({"rank": 0, "dims": ()}, None, "bad-rank", "unsupported rank 0"),
        ({"rank": 3, "dims": (1, 1, 1)}, None, "bad-rank", "unsupported rank 3"),
        ({"padding": b"\x00\x01"}, None, "bad-padding", "non-zero padding at byte 10"),
        ({}, 20, "truncated", "dims truncated at byte 20, expected 28"),
    ], ids=["short-header", "version", "dtype", "rank0", "rank3", "padding", "short-dims"])
    def test_header_errors(self, tmp_path, fields, cut, code, message):
        path = tmp_path / "h.cfm"
        path.write_bytes(self._header(**fields)[:cut] + b"\x00" * 32 * (cut is None))
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert err.value.code == code
        assert str(err.value) == f"{path}: {message}"

    def test_integer_matrix_is_not_features(self, tmp_path):
        path = tmp_path / "i.cfm"
        save_tensor(path, np.arange(4, dtype=np.int64).reshape(2, 2))
        with pytest.raises(TensorFileError) as err:
            load_features(path)
        assert err.value.code == "bad-dtype"
        assert str(err.value) == f"{path}: features must be float64"

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

    def test_labels_must_be_integral(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("0\n1.5\n")
        with pytest.raises(TensorFileError) as err:
            load_labels(path)
        assert err.value.code == "bad-value"

    @pytest.mark.parametrize("labels, code, text", [
        (np.array([0, -1, 1]), "bad-value", "non-negative"),
        (np.zeros(0, dtype=np.int64), "bad-value", "empty"),
        (np.array([[0, 1], [1, 0]]), "bad-rank", "1-D"),
    ], ids=["negative", "empty", "two-columns"])
    def test_label_checks_map_to_codes(self, tmp_path, labels, code, text):
        path = tmp_path / "l.cfm"
        save_tensor(path, labels)
        with pytest.raises(TensorFileError) as err:
            load_labels(path)
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
        probs = _probability_rows(load_features(path)).p
        assert np.array_equal(probs, [[0.25, 0.75], [1.0, 0.0]])

    def test_labels_single_column(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("2\n0\n1\n")
        assert np.array_equal(load_labels(path), [2, 0, 1])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert err.value.code == "bad-value"

    def test_ragged_row_message_is_numpys(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3,4\n5\n")
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert str(err.value).startswith(f"{path}: the number of columns changed from 2 to 1")

    @pytest.mark.parametrize("text, bad", [
        ("1,x\n3,4\n5,6\n", "'x'"),
        ("x,1\n3,4\n", "'x'"),
        ("f0,f1\n1,2\n3,y\n", "'y'"),
        ("1_000,2\n", "'1_000'"),
        ("1,2,\n3,4,\n", "''"),
    ], ids=["first-row-typo", "first-row-typo-first-cell", "later-row", "underscore",
            "trailing-comma"])
    def test_unparseable_cell_is_bad_value(self, tmp_path, text, bad):
        path = tmp_path / "b.csv"
        path.write_text(text)
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert err.value.code == "bad-value"
        assert str(err.value).startswith(f"{path}: could not convert string {bad} to float64")

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n\n3\n", "the number of columns changed from 2 to 1 at line 4;"),
        ("1,2\n\n3,x\n", "could not convert string 'x' to float64 at line 3, column 2."),
        ("1,x\n3,4\n", "could not convert string 'x' to float64 at line 1, column 2."),
        ("\nf0,f1\n\n1,2\n \n3,x\n",
         "could not convert string 'x' to float64 at line 6, column 2."),
        ("\nf0,f1\n\n1,2\n\t\n3,4,5\n", "the number of columns changed from 2 to 3 at line 6;"),
    ], ids=["columns-after-header", "cell-after-blank", "cell-first-line", "cell-after-both",
            "columns-after-both"])
    def test_malformed_row_names_its_file_line(self, tmp_path, text, message):
        path = tmp_path / "b.csv"
        path.write_text(text)
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert err.value.code == "bad-value"
        assert str(err.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("text", ["", "\n \n\t\n", "f0,f1\n", "\nf0,f1\n  \n"],
                             ids=["empty", "blank-lines", "header-only", "header-and-blanks"])
    def test_no_data_rows_is_truncated(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert err.value.code == "truncated"
        assert str(err.value) == f"{path}: CSV file has no data rows"

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("\n  \nf0,f1\r\n1.5, 2.5\n\t\n\n3.5 ,4.5\n \n")
        loaded = load_tensor(path)
        assert loaded.shape == (2, 2)
        assert np.array_equal(loaded, [[1.5, 2.5], [3.5, 4.5]])

    @pytest.mark.parametrize("writer", [save_tensor, save_csv])
    @pytest.mark.parametrize("array, code", [
        (np.float64(1.5), "bad-rank"),
        (np.zeros((2, 2, 2)), "bad-rank"),
        (np.array([True, False]), "bad-dtype"),
        (np.array([1, 2], dtype=np.uint8), "bad-dtype"),
        (np.array([1j]), "bad-dtype"),
        (np.array(["1"]), "bad-dtype"),
    ], ids=["rank0", "rank3", "bool", "uint8", "complex", "str"])
    def test_writers_reject_what_cannot_be_read_back(self, tmp_path, writer, array, code):
        path = tmp_path / "x.csv"
        with pytest.raises(TensorFileError) as err:
            writer(path, array)
        assert err.value.code == code
        assert not path.exists()

    @pytest.mark.parametrize("array, expected", [
        (np.array([[0.1, -0.0, 5e-324], [-1.7976931348623157e308, 1 / 3, 2.5]]),
         b"0.10000000000000001,-0,4.9406564584124654e-324\n"
         b"-1.7976931348623157e+308,0.33333333333333331,2.5\n"),
        (np.array([-2**63, 2**63 - 1, 0, 7]),
         b"-9223372036854775808\n9223372036854775807\n0\n7\n"),
        (np.array([[-2**63, 2**63 - 1], [0, 7]]),
         b"-9223372036854775808,9223372036854775807\n0,7\n"),
    ], ids=["float64", "int64-rank1", "int64-rank2"])
    def test_save_csv_golden_bytes(self, tmp_path, array, expected):
        path = tmp_path / "g.csv"
        save_csv(path, array)
        assert path.read_bytes() == expected

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([[0.0, -0.0], [5e-324, -2.2250738585072014e-308],
                       [np.finfo(np.float64).max, -np.finfo(np.float64).max]]))
    @settings(max_examples=60, deadline=None)
    def test_float_round_trip_is_bit_exact(self, tmp_path_factory, array):
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        save_csv(path, array)
        loaded = load_tensor(path)
        assert loaded.dtype == np.float64 and loaded.shape == array.shape
        assert loaded.tobytes() == array.tobytes()

    @given(hnp.arrays(np.int64, st.integers(1, 20), elements=st.integers(0, 2**53)))
    @settings(max_examples=40, deadline=None)
    def test_label_round_trip(self, tmp_path_factory, labels):
        path = tmp_path_factory.mktemp("csv") / "l.csv"
        save_csv(path, labels)
        loaded = load_labels(path)
        assert loaded.dtype == np.int64
        assert loaded.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("shape", [(5000, 512), (200000, 1)], ids=["wide", "one-column"])
    def test_load_peaks_near_the_array(self, tmp_path, shape):
        path = tmp_path / "big.csv"
        array = np.random.default_rng(4).standard_normal(shape)
        save_csv(path, array)
        tracemalloc.start()
        try:
            loaded = load_tensor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.tobytes() == array.tobytes()
        assert peak <= 1.5 * array.nbytes


class TestBlockedRead:
    """A binary file is read in blocks of about ``metrics._IS_BLOCK`` entries,
    each checked for finiteness as it is read: one scan of the payload."""

    @staticmethod
    def _recorded(monkeypatch) -> list:
        import condmetrics.tensorfile as tensorfile_mod

        seen = []
        check = tensorfile_mod._finite_range

        def recorded(path, start, block):
            seen.append((start, block.shape[0]))
            return check(path, start, block)

        monkeypatch.setattr(tensorfile_mod, "_finite_range", recorded)
        return seen

    def test_each_row_is_checked_once(self, tmp_path, monkeypatch):
        from condmetrics.metrics import _IS_BLOCK

        path = tmp_path / "x.cfm"
        array = np.random.default_rng(5).standard_normal((5000, 20))
        save_tensor(path, array)
        seen = self._recorded(monkeypatch)
        assert load_tensor(path).tobytes() == array.tobytes()
        rows = _IS_BLOCK // 20
        assert seen == [(start, min(rows, 5000 - start)) for start in range(0, 5000, rows)]
        assert len(seen) > 1

    def test_labels_are_read_in_blocks_unchecked(self, tmp_path, monkeypatch):
        path = tmp_path / "y.cfm"
        labels = np.random.default_rng(6).integers(0, 7, 100_000)
        save_tensor(path, labels)
        seen = self._recorded(monkeypatch)
        assert np.array_equal(load_labels(path), labels)
        assert seen == []

    @pytest.mark.parametrize("shape, where, row", [
        ((5000, 20), (4999, 3), 4999), ((5000, 20), (1639, 0), 1639), ((100_000,), (70_000,), 70_000)
    ], ids=["last-row", "second-block", "rank1"])
    def test_non_finite_value_in_a_later_block_names_its_row(self, tmp_path, shape, where, row):
        path = tmp_path / "bad.cfm"
        array = np.zeros(shape)
        array[where] = np.inf
        save_tensor(path, array)
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert err.value.code == "non-finite"
        assert str(err.value) == f"{path}: non-finite value at row {row}"
