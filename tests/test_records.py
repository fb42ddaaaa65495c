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
        matrix = np.tile([values, values[::-1], np.roll(values, 3)], (1, 300))
        rec = MultichannelRecord(matrix, ("a", "b c", "d"))
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
         ("[1]", "entry 1: stage [1] is not an integer")],
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

    def test_non_array(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{}")
        with pytest.raises(RecordFormatError, match="array"):
            load_manifest(path)
