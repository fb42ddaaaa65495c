import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsig import synth

from fracsig.records import (
    ManifestEntry,
    MultichannelRecord,
    RecordFormatError,
    load_manifest,
    load_record,
    write_manifest,
    write_record,
)


class TestMultichannelRecord:
    def _record(self, **kwargs):
        return MultichannelRecord([[1.0, 2.0], [3.0, 4.0]], ("a", "b"), **kwargs)

    def test_shape(self):
        rec = self._record()
        assert rec.n_channels == 2
        assert rec.n_samples == 2
        assert rec.channels.shape == (2, 2)

    def test_matrix_is_the_read_only_channels(self):
        rec = self._record()
        assert rec.channels.dtype == np.float64 and rec.channels.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            rec.channels[0, 0] = 9.0

    def test_contiguous_input_is_viewed_not_copied(self):
        X = np.arange(6.0).reshape(2, 3)
        rec = MultichannelRecord(X)
        assert np.shares_memory(rec.channels, X)
        assert X.flags.writeable

    def test_default_labels(self):
        rec = MultichannelRecord(np.zeros((11, 4)))
        assert rec.labels == tuple(f"ch{i:02d}" for i in range(11))
        assert rec.labels[:2] == ("ch00", "ch01") and rec.labels[10] == "ch10"

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="equal length"):
            MultichannelRecord([[1.0, 2.0], [3.0]], ("a", "b"))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError, match="need 2 unique channel labels"):
            MultichannelRecord(np.zeros((2, 4)), ("a", "b", "c"))

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_cell(self, cell):
        X = np.zeros((2, 4))
        X[1, 2] = cell
        with pytest.raises(ValueError, match="finite"):
            MultichannelRecord(X)

    @pytest.mark.parametrize("shape", [(0, 4), (2, 0), (4,), (1, 2, 2)])
    def test_rejects_empty_or_non_matrix(self, shape):
        with pytest.raises(ValueError, match="nonempty"):
            MultichannelRecord(np.zeros(shape))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            MultichannelRecord([[1.0], [2.0]], ("a", "a"))

    def test_rejects_bad_stage(self):
        with pytest.raises(ValueError, match="stage"):
            self._record(stage_label=5)

    def test_stage_none_ok(self):
        assert self._record().stage_label is None


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = tuple(f"ch{i}" for i in range(3))
        rec = MultichannelRecord(
            rng.standard_normal((3, 37)), labels, subject_id="s1", stage_label=2
        )
        path = tmp_path / "rec.csv"
        write_record(rec, path)
        back = load_record(path)
        assert back.labels == rec.labels
        np.testing.assert_array_equal(back.channels, rec.channels)
        assert not back.channels.flags.writeable

    def test_subject_case_round_trip(self, tmp_path):
        case = synth.synth_viral_cohort(1, 1, seed=4, side_samples=300)[0]
        path = tmp_path / "case.csv"
        write_record(case, path)
        back = load_record(path)
        assert back.labels == case.labels == ("ch00", "ch01", "ch02")
        np.testing.assert_array_equal(back.channels, case.channels)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=40,
        )
    )
    def test_round_trip_any_floats(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("rt") / "rec.csv"
        rec = MultichannelRecord([values], ("x",))
        write_record(rec, path)
        back = load_record(path)
        np.testing.assert_array_equal(back.channels, rec.channels)

    def test_bytes_match_csv_writer(self, tmp_path):
        values = [-0.0, 5e-324, 1e22, 0.1, -1.5e-7, 1.0, -1.7976931348623157e308, 123456.789]
        # 2400 rows: more than one block of the writer
        three = np.tile([values, values[::-1], np.roll(values, 3)], (1, 300))
        # random bit patterns: every exponent, some subnormals, and -0.0 for the non-finite
        bits = np.random.default_rng(0).integers(0, 2**64, size=(4, 2100), dtype=np.uint64)
        patterns = bits.view(np.float64)
        patterns[~np.isfinite(patterns)] = -0.0
        for matrix in (three, three[:1], patterns):
            rec = MultichannelRecord(matrix, ("a", "b c", "d", "e")[: len(matrix)])
            ref = tmp_path / "ref.csv"
            with ref.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(rec.labels)
                for row in matrix.T:
                    writer.writerow([repr(float(v)) for v in row])
            path = tmp_path / "rec.csv"
            write_record(rec, path)
            assert path.read_bytes() == ref.read_bytes()

    def test_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(RecordFormatError, match=r"row 3, column 2"):
            load_record(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        # row 4, column 1 is bad too: the first cell in reading order is named
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n{cell},4.0\n")
        with pytest.raises(
            RecordFormatError, match=r"bad\.csv: row 3, column 2: non-finite"
        ):
            load_record(path)

    def test_repeated_header_label_names_both_columns(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,b, a\n1.0,2.0,3.0\n")
        with pytest.raises(
            RecordFormatError,
            match=r"dup\.csv: row 1: channel label 'a' repeated in columns 1 and 3",
        ):
            load_record(path)

    def test_error_on_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(RecordFormatError, match=r"row 2"):
            load_record(path)

    def test_error_on_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(RecordFormatError, match="empty"):
            load_record(path)

    def test_error_on_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(RecordFormatError, match="no data rows"):
            load_record(path)


def _reference_load(path):
    """Oracle: the CSV reader's cell walk over the whole body, then one
    finiteness check; returns (labels, matrix) or raises."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise RecordFormatError(f"{path}: empty file") from None
        labels = tuple(h.strip() for h in header)
        if not labels or "" in labels:
            raise RecordFormatError(f"{path}: row 1: blank channel label in header")
        for col, label in enumerate(labels):
            first = labels.index(label)
            if first != col:
                raise RecordFormatError(
                    f"{path}: row 1: channel label {label!r} repeated in "
                    f"columns {first + 1} and {col + 1}"
                )
        ncol = len(labels)
        columns = [[] for _ in labels]
        for rownum, row in enumerate(reader, start=2):
            if len(row) != ncol:
                raise RecordFormatError(
                    f"{path}: row {rownum}: expected {ncol} columns, got {len(row)}"
                )
            for colnum, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise RecordFormatError(
                        f"{path}: row {rownum}, column {colnum}: "
                        f"non-numeric value {cell!r}"
                    ) from None
                columns[colnum - 1].append(value)
        if not columns[0]:
            raise RecordFormatError(f"{path}: no data rows after header")
    matrix = np.array(columns)
    bad = ~np.isfinite(matrix)
    if bad.any():
        row = int(np.argmax(bad.any(axis=0)))
        col = int(np.argmax(bad[:, row]))
        raise RecordFormatError(
            f"{path}: row {row + 2}, column {col + 1}: "
            f"non-finite value {float(matrix[col, row])!r}"
        )
    return labels, matrix


_GOOD = "a,b,c\r\n" + "".join(f"{0.5 * i!r},{-i / 3!r},{i}\r\n" for i in range(12))
# longer than one read block: the fast path takes whole blocks before an anomaly
_LONG = "a,b\r\n" + "".join(f"{float(np.sin(i))!r},{float(np.cos(i))!r}\r\n" for i in range(6000))

LOADER_CASES = {
    "written": _GOOD,
    "lf": _GOOD.replace("\r\n", "\n"),
    "cr-only": _GOOD.replace("\r\n", "\r"),
    "no-final-newline": _GOOD[:-2],
    "mixed-endings": "a,b\r\n1,2\n3,4\r\n",
    "cr-cell-then-lf-cell": "a,b\r\n1,2\r3,\n4,5\r\n",
    "blank-line": _GOOD.replace("\r\n6", "\r\n\r\n6", 1),
    "ragged-short": _GOOD + "1,2\r\n",
    "ragged-long": _GOOD + "1,2,3,4\r\n",
    "ragged-pair": _GOOD + "1,2,3,4\r\n5,6\r\n",
    "quoted-cell": _GOOD + '"1.5",2,3\r\n',
    "quoted-comma": _GOOD + '"1,5",2\r\n',
    "spaces": _GOOD + " 1.5 ,2,3\r\n",
    "underscore": _GOOD + "1_0,2,3\r\n",
    "nan": _GOOD + "nan,2,3\r\n",
    "inf": _GOOD + "1,-inf,3\r\n",
    "overflow-to-inf": _GOOD + "1e400,2,3\r\n",
    "nan-before-bad-cell": _GOOD.replace("\r\n1.0,", "\r\nnan,", 1) + "abc,1,2\r\n",
    "trailing-comma": _GOOD + "1,2,3,\r\n",
    "empty-last-cell": "a,b\r\n1,\r\n",
    "empty-cell": _GOOD + ",2,3\r\n",
    "header-only": "a,b,c\r\n",
    "header-only-no-newline": "a,b,c",
    "one-column": "a\r\n1\r\n2\r\n",
    "one-column-blank-line": "a\r\n1\r\n\r\n2\r\n",
    "long": _LONG,
    "long-bad-cell-late": _LONG + "x,1\r\n",
    "long-lf-late": _LONG + "1,2\n3,4\n",
    "long-nan-early-bad-cell-late": _LONG.replace("\r\n0.0,", "\r\nnan,", 1) + "x,1\r\n",
}


class TestLoaderMatchesCellWalk:
    @pytest.mark.parametrize("name", LOADER_CASES)
    def test_same_matrix_or_same_message(self, tmp_path, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(LOADER_CASES[name].encode("utf-8"))
        try:
            labels, expected = _reference_load(path)
        except RecordFormatError as exc:
            with pytest.raises(RecordFormatError) as got:
                load_record(path)
            assert str(got.value) == str(exc)
            return
        rec = load_record(path)
        assert rec.labels == labels
        np.testing.assert_array_equal(rec.channels, expected)
        assert rec.channels.flags.c_contiguous

    def test_written_lines_take_the_one_pass_parse(self):
        from fracsig import records

        assert len(_LONG) > 2 * records._READ_BLOCK  # the long cases span blocks
        body = _LONG.splitlines(keepends=True)[1:]
        values = records._parse_block(body, 2)
        np.testing.assert_array_equal(values, [f(i) for i in range(6000) for f in (np.sin, np.cos)])
        assert records._parse_block(body[:-1] + ["1,2,3\r\n"], 2) is None


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [
            ManifestEntry("r0.csv", "s0", "clinic-a", 3),
            ManifestEntry("r1.csv", "s1", extra={"infected": True}),
        ]
        path = tmp_path / "manifest.json"
        write_manifest(entries, path)
        back = load_manifest(path)
        assert back[0].subject_id == "s0"
        assert back[0].institution == "clinic-a"
        assert back[0].stage == 3
        assert back[1].stage is None
        assert back[1].extra == {"infected": True}

    def test_paths_resolved_relative_to_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest([ManifestEntry("sub/r.csv", "s")], path)
        back = load_manifest(path)
        assert back[0].path == str((tmp_path / "sub/r.csv").resolve())

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('[{"path": "r.csv"}]')
        with pytest.raises(RecordFormatError, match="subject_id"):
            load_manifest(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{nope")
        with pytest.raises(RecordFormatError, match="invalid JSON"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "stage, named",
        [('"x"', "entry 1: stage 'x' is not an integer"),
         ("7", "entry 1: stage 7 is not in 0..4"),
         ("[1]", "entry 1: stage [1] is not an integer"),
         ("2.9", "entry 1: stage 2.9 is not an integer"),
         ("true", "entry 1: stage True is not an integer")],
    )
    def test_bad_stage_names_entry(self, tmp_path, stage, named):
        path = tmp_path / "manifest.json"
        path.write_text(
            '[{"path": "a.csv", "subject_id": "a", "stage": 0},'
            f' {{"path": "b.csv", "subject_id": "b", "stage": {stage}}}]'
        )
        with pytest.raises(RecordFormatError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: {named}"

    @pytest.mark.parametrize(
        "field, value, named",
        [("path", "5", "entry 1: path 5 is not a string"),
         ("path", "null", "entry 1: path None is not a string"),
         ("subject_id", '["a"]', "entry 1: subject_id ['a'] is not a string"),
         ("subject_id", "null", "entry 1: subject_id None is not a string"),
         ("institution", '["a"]', "entry 1: institution ['a'] is not a string"),
         ("institution", "null", "entry 1: institution None is not a string"),
         ("path", None, "entry 1: missing field 'path'")],
        ids=["path-int", "path-null", "subject-list", "subject-null", "institution-list",
             "institution-null", "path-missing"],
    )
    def test_bad_field_names_entry(self, tmp_path, field, value, named):
        fields = {"path": '"b.csv"', "subject_id": '"b"', "institution": '"x"', field: value}
        path = tmp_path / "manifest.json"
        path.write_text(
            '[{"path": "a.csv", "subject_id": "a"}, {'
            + ", ".join(f'"{k}": {v}' for k, v in fields.items() if v is not None)
            + "}]"
        )
        with pytest.raises(RecordFormatError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: {named}"

    def test_integer_over_the_digit_limit_is_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('[{"path": "a.csv", "subject_id": "a", "stage": 1' + "0" * 5000 + "}]")
        with pytest.raises(RecordFormatError) as info:
            load_manifest(path)
        assert str(info.value).startswith(f"{path}: invalid JSON: Exceeds the limit")

    def test_null_stage_is_unlabeled(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('[{"path": "a.csv", "subject_id": "a", "stage": null}]')
        assert load_manifest(path)[0].stage is None

    def test_non_array(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{}")
        with pytest.raises(RecordFormatError, match="array"):
            load_manifest(path)
