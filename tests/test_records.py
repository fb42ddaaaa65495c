import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsig.records import (
    ManifestEntry,
    MultichannelRecord,
    RecordFormatError,
    TimeSeries,
    load_manifest,
    load_record,
    write_manifest,
    write_record,
)


class TestTimeSeries:
    def test_basic(self):
        ts = TimeSeries([1.0, 2.0, 3.0], 4.0, label="eda")
        assert len(ts) == 3
        assert ts.rate_hz == 4.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries([], 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0, np.nan], 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0], 0.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((2, 2)), 1.0)


class TestMultichannelRecord:
    def _record(self, **kwargs):
        chans = (
            TimeSeries([1.0, 2.0], 1.0, label="a"),
            TimeSeries([3.0, 4.0], 1.0, label="b"),
        )
        return MultichannelRecord(chans, **kwargs)

    def test_shape(self):
        rec = self._record()
        assert rec.n_channels == 2
        assert rec.n_samples == 2
        assert rec.as_matrix().shape == (2, 2)

    def test_rejects_ragged(self):
        chans = (
            TimeSeries([1.0, 2.0], 1.0, label="a"),
            TimeSeries([3.0], 1.0, label="b"),
        )
        with pytest.raises(ValueError, match="equal length"):
            MultichannelRecord(chans)

    def test_rejects_mixed_rates(self):
        chans = (
            TimeSeries([1.0, 2.0], 1.0, label="a"),
            TimeSeries([3.0, 4.0], 2.0, label="b"),
        )
        with pytest.raises(ValueError, match="rate"):
            MultichannelRecord(chans)

    def test_rejects_duplicate_labels(self):
        chans = (
            TimeSeries([1.0], 1.0, label="a"),
            TimeSeries([2.0], 1.0, label="a"),
        )
        with pytest.raises(ValueError, match="unique"):
            MultichannelRecord(chans)

    def test_rejects_bad_stage(self):
        with pytest.raises(ValueError, match="stage"):
            self._record(stage_label=5)

    def test_stage_none_ok(self):
        assert self._record().stage_label is None


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        chans = tuple(
            TimeSeries(rng.standard_normal(37), 8.0, label=f"ch{i}") for i in range(3)
        )
        rec = MultichannelRecord(chans, subject_id="s1", stage_label=2)
        path = tmp_path / "rec.csv"
        write_record(rec, path)
        back = load_record(path, 8.0, subject_id="s1", stage_label=2)
        assert back.labels() == rec.labels()
        np.testing.assert_array_equal(back.as_matrix(), rec.as_matrix())

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
        rec = MultichannelRecord((TimeSeries(values, 1.0, label="x"),))
        write_record(rec, path)
        back = load_record(path, 1.0)
        np.testing.assert_array_equal(back.as_matrix(), rec.as_matrix())

    def test_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(RecordFormatError, match=r"row 3, column 2"):
            load_record(path, 1.0)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        # row 4, column 1 is bad too: the first cell in reading order is named
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n{cell},4.0\n")
        with pytest.raises(
            RecordFormatError, match=r"bad\.csv: row 3, column 2: non-finite"
        ):
            load_record(path, 1.0)

    def test_error_on_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(RecordFormatError, match=r"row 2"):
            load_record(path, 1.0)

    def test_error_on_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(RecordFormatError, match="empty"):
            load_record(path, 1.0)

    def test_error_on_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(RecordFormatError, match="no data rows"):
            load_record(path, 1.0)


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

    def test_non_array(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{}")
        with pytest.raises(RecordFormatError, match="array"):
            load_manifest(path)
