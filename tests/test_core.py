import csv
import re

import numpy as np
import pytest

from driftcast.core import (
    ConfigError,
    Dataset,
    DriftMeta,
    TimeSeries,
    derive_series_seed,
    load_dataset,
    save_dataset,
)


# ids that need csv quoting, and floats whose repr is easy to get wrong
EDGE_IDS = ("", "a,b", 'q"t', "line\nbreak")
EDGE_VALUES = (-0.0, 5e-324, 1e16, 1e-5, 0.1)


def reference_dataset_csv(dataset, path):
    """The per-row writer that ``save_dataset`` replaced: the oracle for
    its bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series_id", "t", "value"])
        for s in dataset.series:
            for t, value in enumerate(s.values, start=1):
                writer.writerow([s.id, t, repr(float(value))])


def make_series(sid="s0", n=30, train_len=20, kind="none", **drift):
    rng = np.random.default_rng(hash(sid) % 2**32)
    return TimeSeries(
        id=sid,
        values=rng.normal(size=n),
        train_len=train_len,
        drift=DriftMeta(kind=kind, **drift),
    )


class TestSeedDerivation:
    def test_identity_offset(self):
        assert derive_series_seed(1000, 0) == 1000

    def test_additive(self):
        assert derive_series_seed(1000, 7) == 1007

    def test_wraps(self):
        assert derive_series_seed(2**64 - 1, 1) == 0

    def test_injective_over_range(self):
        seeds = {derive_series_seed(123456, i) for i in range(5000)}
        assert len(seeds) == 5000

    def test_negative_ordinal_rejected(self):
        with pytest.raises(ValueError):
            derive_series_seed(1, -1)


class TestDriftMeta:
    def test_sudden_needs_t_drift(self):
        DriftMeta(kind="sudden", t_drift=10)
        with pytest.raises(ConfigError):
            DriftMeta(kind="sudden")
        with pytest.raises(ConfigError):
            DriftMeta(kind="sudden", t_drift=10, t_start=5)

    def test_incremental_ordering(self):
        DriftMeta(kind="incremental", t_start=5, t_end=9)
        with pytest.raises(ConfigError):
            DriftMeta(kind="incremental", t_start=9, t_end=5)

    def test_gradual_carries_no_indices(self):
        DriftMeta(kind="gradual", seed=42)
        with pytest.raises(ConfigError):
            DriftMeta(kind="gradual", t_drift=3)

    def test_index_bounds(self):
        meta = DriftMeta(kind="sudden", t_drift=31)
        with pytest.raises(ConfigError):
            meta.validate_indices(30)
        meta.validate_indices(31)

    def test_roundtrip_dict(self):
        meta = DriftMeta(kind="incremental", t_start=3, t_end=8, seed=99)
        assert DriftMeta.from_dict(meta.to_dict()) == meta


class TestTimeSeries:
    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            TimeSeries(id="x", values=[1.0, np.nan], train_len=1)
        with pytest.raises(ConfigError):
            TimeSeries(id="x", values=[1.0, np.inf], train_len=1)

    def test_train_len_bounds(self):
        with pytest.raises(ConfigError):
            TimeSeries(id="x", values=[1.0, 2.0], train_len=0)
        with pytest.raises(ConfigError):
            TimeSeries(id="x", values=[1.0, 2.0], train_len=3)

    def test_rejects_carriage_return_in_id(self):
        # csv.writer would leave it unquoted, and csv.reader split the row
        with pytest.raises(ConfigError, match="carriage return"):
            TimeSeries(id="cr\rx", values=[1.0, 2.0], train_len=1)
        TimeSeries(id="line\nbreak", values=[1.0, 2.0], train_len=1)

    def test_values_frozen(self):
        s = make_series()
        with pytest.raises(ValueError):
            s.values[0] = 99.0


class TestDataset:
    def test_uniform_shape_required(self):
        a = make_series("a", n=30)
        b = make_series("b", n=31, train_len=20)
        with pytest.raises(ConfigError):
            Dataset(name="d", series=(a, b))

    def test_unique_ids(self):
        a = make_series("a")
        with pytest.raises(ConfigError):
            Dataset(name="d", series=(a, a))

    def test_values_matrix(self):
        ds = Dataset(name="d", series=(make_series("a"), make_series("b")))
        assert ds.values_matrix().shape == (2, 30)


class TestDatasetIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        series = []
        for i, sid in enumerate(("s0", "s1", "s2") + EDGE_IDS):
            values = rng.normal(size=40) * 10.0 ** float(rng.integers(-8, 8))
            values[: len(EDGE_VALUES)] = EDGE_VALUES
            series.append(
                TimeSeries(
                    id=sid,
                    values=values,
                    train_len=25,
                    drift=DriftMeta(kind="sudden", t_drift=7, seed=i),
                )
            )
        ds = Dataset(name="roundtrip", series=tuple(series), generator_config={"base_seed": 5})
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        reference_dataset_csv(ds, tmp_path / "reference.csv")
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
        loaded = load_dataset(path)
        assert loaded.name == ds.name
        assert loaded.generator_config == ds.generator_config
        for orig, back in zip(ds.series, loaded.series):
            assert back.id == orig.id
            assert back.train_len == orig.train_len
            assert back.drift == orig.drift
            assert np.array_equal(back.values, orig.values)
            assert np.array_equal(np.signbit(back.values), np.signbit(orig.values))

    @pytest.mark.parametrize(
        "row",
        ["a,2", "a,2,0.5,9", "a,two,0.5", "a,2,half", "cr\rx,2,0.5"],  # the last splits into two rows
    )
    def test_malformed_row_rejected(self, tmp_path, row):
        path = tmp_path / "ds.csv"
        save_dataset(Dataset(name="d", series=(make_series("a", n=3, train_len=2),)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [row] + lines[3:]) + "\n", newline="")
        with pytest.raises(ConfigError, match=re.escape(f"line 3 of {path}")):
            load_dataset(path)

    def test_csv_shape(self, tmp_path):
        ds = Dataset(name="d", series=(make_series("a", n=5, train_len=3),))
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        text = path.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == "series_id,t,value"
        assert lines[1].startswith("a,1,")
        assert lines[5].startswith("a,5,")
        assert "\r" not in text

    def test_missing_files(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dataset(tmp_path / "absent.csv")
