import csv
import json
import re
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftcast import core
from driftcast.core import (
    ConfigError,
    Dataset,
    DriftMeta,
    SeriesIndex,
    Spans,
    TimeSeries,
    derive_series_seed,
    load_dataset,
    save_dataset,
    sidecar_path,
)
from reference import from_series


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


def reference_load_dataset(csv_path):
    """The row-by-row loader that the columnar ``load_dataset`` replaced
    (csv.reader, ``float()``): the oracle for what it reads."""
    csv_path = Path(csv_path)
    with open(sidecar_path(csv_path), encoding="utf-8") as fh:
        meta = json.load(fh)
    values_by_id = {}
    with open(csv_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["series_id", "t", "value"]:
            raise ConfigError(f"unexpected dataset header {header!r} in {csv_path}")
        try:
            for sid, t, value in reader:
                bucket = values_by_id.setdefault(sid, [])
                if int(t) != len(bucket) + 1:
                    raise ConfigError(f"non-contiguous t for series {sid!r} in {csv_path}")
                bucket.append(float(value))
        except (ValueError, csv.Error) as exc:
            raise ConfigError(f"malformed row at line {reader.line_num} of {csv_path}: {exc}") from exc
    series = []
    for entry in meta["series"]:
        if entry["id"] not in values_by_id:
            raise ConfigError(f"series {entry['id']!r} in sidecar but not in CSV")
        drift = DriftMeta.from_dict(entry["drift"])
        series.append(TimeSeries(entry["id"], np.array(values_by_id[entry["id"]]), meta["train_len"], drift))
    if set(values_by_id) - {s.id for s in series}:
        raise ConfigError("CSV contains series absent from the sidecar")
    return from_series(meta["name"], series, meta.get("generator_config"))


def write_rows(path, header, rows):
    """A CSV file as csv.writer writes it, one row per tuple."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, in bytes, as
    ``tracemalloc`` counts it (numpy reports its arrays' data there)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bits(values):
    """Each float64's bit pattern: equal bits mean equal values and signs."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def make_series(sid="s0", n=30, train_len=20, kind="none", **drift):
    rng = np.random.default_rng(hash(sid) % 2**32)
    return TimeSeries(
        id=sid,
        values=rng.normal(size=n),
        train_len=train_len,
        drift=DriftMeta(kind=kind, **drift),
    )


class TestSpans:
    def test_sums_seconds_and_calls_per_name(self, monkeypatch):
        clock = iter([0.0, 1.0, 1.5, 4.0, 10.0, 10.25])
        monkeypatch.setattr(core.time, "perf_counter", lambda: next(clock))
        spans = Spans()
        with spans("outer"):
            with spans("inner"):
                pass
        with pytest.raises(ValueError):
            with spans("inner"):  # a block that raises is timed too
                raise ValueError
        assert spans.to_dict() == {"outer": {"seconds": 4.0, "calls": 1}, "inner": {"seconds": 0.75, "calls": 2}}


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
        kinds = [
            DriftMeta(kind="sudden", t_drift=7, seed=3),
            DriftMeta(kind="incremental", t_start=3, t_end=8, seed=99),
            DriftMeta(kind="gradual", seed=42),
            DriftMeta(kind="none"),
        ]
        for meta in kinds:
            d = meta.to_dict()
            assert list(d) == ["kind", "t_drift", "t_start", "t_end", "seed"]  # the sidecar's key order
            assert DriftMeta.from_dict(d) == meta
            assert DriftMeta.from_dict({**d, "extra": 1}) == meta
            assert DriftMeta.from_dict({k: v for k, v in d.items() if k != "seed"}) == replace(meta, seed=0)


class TestTimeSeries:
    # a series is checked by the dataset that holds it, as a row of its array
    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError, match="non-finite"):
            from_series(name="d", series=(TimeSeries(id="x", values=[1.0, np.nan], train_len=1),))
        with pytest.raises(ConfigError, match="non-finite"):
            from_series(name="d", series=(TimeSeries(id="x", values=[1.0, np.inf], train_len=1),))

    def test_train_len_bounds(self):
        for train_len in (0, 3):
            with pytest.raises(ConfigError, match=rf"train_len={train_len} outside \[1, 2\]"):
                from_series(name="d", series=(TimeSeries(id="x", values=[1.0, 2.0], train_len=train_len),))

    def test_rejects_carriage_return_in_id(self):
        # csv.writer would leave it unquoted, and csv.reader split the row
        with pytest.raises(ConfigError, match="carriage return"):
            from_series(name="d", series=(TimeSeries(id="cr\rx", values=[1.0, 2.0], train_len=1),))
        from_series(name="d", series=(TimeSeries(id="line\nbreak", values=[1.0, 2.0], train_len=1),))

    def test_values_frozen(self):
        ds = from_series(name="d", series=(make_series(),))
        s = ds.series[0]
        with pytest.raises(ValueError):
            s.values[0] = 99.0
        assert np.shares_memory(s.values, ds.values)


class TestDataset:
    def test_uniform_shape_required(self):
        a = make_series("a", n=30)
        b = make_series("b", n=31, train_len=20)
        with pytest.raises(ConfigError):
            from_series(name="d", series=(a, b))

    def test_unique_ids(self):
        a = make_series("a")
        with pytest.raises(ConfigError):
            from_series(name="d", series=(a, a))

    def test_values_array(self):
        a, b = make_series("a"), make_series("b", kind="sudden", t_drift=4)
        ds = from_series(name="d", series=(a, b))
        assert ds.values.shape == (2, 30) and ds.values.dtype == np.float64
        assert ds.ids == ("a", "b") and ds.drifts == (a.drift, b.drift) and ds.train_len == 20
        assert np.array_equal(ds.values[1], b.values)
        with pytest.raises(ValueError):
            ds.values[0, 0] = 1.0
        assert [(s.id, s.drift) for s in ds.series] == [("a", a.drift), ("b", b.drift)]
        assert np.array_equal(ds.series[1].values, b.values)

    def test_compares_by_identity(self):
        # equal values make neither two datasets nor two series equal, and
        # comparing or hashing them answers instead of raising
        a, b = (from_series(name="d", series=(make_series("a"), make_series("b"))) for _ in range(2))
        assert a == a and a != b and len({a, b}) == 2
        s, t = a.series[0], a.series[0]
        assert s == s and s != t and len({s, t}) == 2

    def test_index_built_once_and_kept(self, monkeypatch):
        assert [f.name for f in fields(Dataset)] == ["name", "index", "values", "generator_config"]
        built = []
        check = SeriesIndex.__post_init__
        monkeypatch.setattr(SeriesIndex, "__post_init__", lambda index: built.append(index) or check(index))
        drifts = (DriftMeta(kind="none"), DriftMeta(kind="sudden", t_drift=4))
        ds = Dataset("d", SeriesIndex(["a", "b"], 5, 3, drifts), np.ones((2, 5)))
        assert len(built) == 1 and ds.index is built[0]
        # the series facts are the index's, read through it
        assert (ds.ids, ds.series_length, ds.train_len, ds.drifts, len(ds)) == (("a", "b"), 5, 3, drifts, 2)

    def test_index_handed_over_is_kept_unchecked(self, monkeypatch, tmp_path):
        index = SeriesIndex(("a", "b"), 5, 3, [DriftMeta(kind="none"), DriftMeta(kind="sudden", t_drift=4)])
        save_dataset(Dataset("d", index, np.ones((2, 5))), tmp_path / "d.csv")
        built = []
        check = SeriesIndex.__post_init__
        monkeypatch.setattr(SeriesIndex, "__post_init__", lambda index: built.append(index) or check(index))
        assert Dataset("d", index, np.ones((2, 5))).index is index
        assert built == []
        # load_dataset checks the sidecar's index once and hands it over
        assert load_dataset(tmp_path / "d.csv").index is built[0] and len(built) == 1

    def test_index_needs_a_drift_per_id(self):
        drift = DriftMeta(kind="sudden", t_drift=4)
        with pytest.raises(ConfigError, match="2 series ids and 1 drifts"):
            SeriesIndex(("a", "b"), 5, 3, [drift])
        with pytest.raises(ConfigError, match="1 series ids and 2 drifts"):
            SeriesIndex(("a",), 5, 3, [drift, drift])

    def test_values_copied(self):
        values = np.ones((2, 5))
        ds = Dataset("d", SeriesIndex(["a", "b"], 5, 3, [DriftMeta(kind="none")] * 2), values)
        values[0, 0] = 7.0
        assert ds.values[0, 0] == 1.0 and values.flags.writeable

    def test_handed_over_values_kept(self):
        owned = np.ones((2, 5))
        owned.setflags(write=False)
        index = SeriesIndex(["a", "b"], 5, 3, [DriftMeta(kind="none")] * 2)
        assert np.shares_memory(Dataset("d", index, owned).values, owned)
        # its caller may still change a writable array or a view, and a
        # float32 array is no float64 one: each is copied
        view = owned[:, :]
        single = np.ones((2, 5), dtype=np.float32)
        single.setflags(write=False)
        for values in (np.ones((2, 5)), view, single):
            assert not np.shares_memory(Dataset("d", index, values).values, values)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"values": [[1.0, 2.0, np.nan], [1.0, 2.0, 3.0]]}, "'a' contains non-finite"),
            ({"values": [[1.0, 2.0, 3.0], [1.0, -np.inf, 3.0]]}, "'b' contains non-finite"),
            ({"values": [1.0, 2.0]}, "non-empty"),
            ({"values": np.zeros((2, 0))}, "non-empty"),
            ({"ids": ["a"]}, "an id and a drift per row"),
            ({"drifts": [DriftMeta(kind="none")]}, "an id and a drift per row"),
            ({"ids": ["a", "a"]}, "unique"),
            ({"ids": ["a", "cr\rx"]}, "carriage return"),
            ({"train_len": 0}, "train_len"),
            ({"train_len": 4}, "train_len"),
            ({"drifts": [DriftMeta(kind="none"), DriftMeta(kind="sudden", t_drift=4)]}, "t_drift=4 outside"),
            ({"values": np.ones((1, 3))}, "an id and a drift per row"),
            ({"values": np.ones((2, 4))}, "of shape (2, 3)"),
        ],
    )
    def test_validated_once_over_the_array(self, change, message):
        facts = {"ids": ["a", "b"], "values": np.ones((2, 3)), "train_len": 2, "drifts": [DriftMeta(kind="none")] * 2}
        facts.update(change)
        with pytest.raises(ConfigError, match=re.escape(message)):
            Dataset("d", SeriesIndex(facts["ids"], 3, facts["train_len"], facts["drifts"]), facts["values"])

    def test_from_series_needs_series(self):
        with pytest.raises(ConfigError):
            from_series("d", [])


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
        ds = from_series(name="roundtrip", series=tuple(series), generator_config={"base_seed": 5})
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
        save_dataset(from_series(name="d", series=(make_series("a", n=3, train_len=2),)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [row] + lines[3:]) + "\n", newline="")
        with pytest.raises(ConfigError, match=re.escape(f"line 3 of {path}")):
            load_dataset(path)

    def test_csv_shape(self, tmp_path):
        ds = from_series(name="d", series=(make_series("a", n=5, train_len=3),))
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

    def test_load_holds_one_value_array(self, tmp_path):
        n, length = 64, 5000
        values = np.random.default_rng(3).normal(size=(n, length))
        dataset = Dataset("d", SeriesIndex([f"s{i}" for i in range(n)], length, 10, [DriftMeta(kind="none")] * n), values)
        save_dataset(dataset, tmp_path / "d.csv")
        loaded, peak = traced_peak(load_dataset, tmp_path / "d.csv")
        # the array the reader fills becomes the dataset's: no second copy
        assert np.array_equal(loaded.values, values) and peak < 1.5 * values.nbytes


# ids that need quoting, ids with outer spaces, an empty id, or any text
# the files' utf-8 can hold but "\r", which a Dataset rejects
IDS = st.sampled_from(EDGE_IDS + (" a", "b ", " ", "\n", 'x"\ny', ",")) | st.text(
    st.characters(codec="utf-8", exclude_characters="\r"), max_size=6
)
VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    EDGE_VALUES + (-5e-324, 2.2250738585072014e-308, -2.225073858507201e-308, 1.7976931348623157e308)
)


class TestDatasetReader:
    """The columnar ``load_dataset`` against the row-by-row oracle."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_row_by_row_oracle(self, data):
        ids = data.draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
        length = data.draw(st.integers(1, 6))
        values = data.draw(arrays(np.float64, (len(ids), length), elements=VALUES))
        drifts = [DriftMeta(kind="sudden", t_drift=length, seed=i) for i in range(len(ids))]
        dataset = Dataset("d", SeriesIndex(ids, length, length, drifts), values, {"base_seed": 3})
        # the series interleaved, each keeping its own order of t
        order = data.draw(st.permutations([i for i in range(len(ids)) for _ in range(length)]))
        written = [0] * len(ids)
        rows = []
        for i in order:
            written[i] += 1
            rows.append((ids[i], written[i], repr(float(values[i, written[i] - 1]))))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = Path(tmp) / "ds.csv"
            save_dataset(dataset, path)
            write_rows(path, ["series_id", "t", "value"], rows)
            mp.setattr(core, "CSV_CHUNK_ROWS", data.draw(st.integers(1, 7)))
            got, expected = load_dataset(path), reference_load_dataset(path)
        for loaded in (got, expected):
            assert (loaded.name, loaded.ids, loaded.train_len, loaded.drifts) == ("d", tuple(ids), length, tuple(drifts))
            assert loaded.generator_config == {"base_seed": 3}
            assert np.array_equal(bits(loaded.values), bits(values))

    @pytest.mark.parametrize(
        "rows",
        [
            [("a", 1, "1.0"), ("a", 3, "2.0"), ("b", 1, "1.0"), ("b", 2, "2.0")],  # a gap
            [("a", 1, "1.0"), ("a", 1, "2.0"), ("b", 1, "1.0"), ("b", 2, "2.0")],  # a repeat
            [("a", 2, "1.0"), ("a", 1, "2.0"), ("b", 1, "1.0"), ("b", 2, "2.0")],  # out of order
            [("a", 1, "1.0"), ("a", 2, "2.0")],  # a series of the sidecar missing
            [("a", 1, "1.0"), ("a", 2, "2.0"), ("b", 1, "1.0"), ("b", 2, "2.0"), ("c", 1, "1.0")],  # one more
            [("a", 1, "1.0"), ("a", 2, "2.0"), ("b", 1, "1.0")],  # a short series
            [("a", 1, "1.0"), ("a", 2, "2.0"), ("a", 3, "3.0"), ("b", 1, "1.0"), ("b", 2, "2.0")],  # a long one
            [("a", 1, "1.0"), ("a", 2, "inf"), ("b", 1, "1.0"), ("b", 2, "2.0")],  # not finite
        ],
    )
    @pytest.mark.parametrize("chunk", [1, 2, 64])
    def test_inconsistent_rows_rejected(self, tmp_path, monkeypatch, rows, chunk):
        path = tmp_path / "ds.csv"
        save_dataset(from_series("d", [make_series("a", n=2, train_len=1), make_series("b", n=2, train_len=1)]), path)
        write_rows(path, ["series_id", "t", "value"], rows)
        monkeypatch.setattr(core, "CSV_CHUNK_ROWS", chunk)
        with pytest.raises(ConfigError):
            reference_load_dataset(path)
        with pytest.raises(ConfigError):
            load_dataset(path)

    def test_every_series_must_hold_the_sidecar_length(self, tmp_path):
        # a check the row-by-row loader did not make: it took the length
        # from the rows, as long as every series had the same
        path = tmp_path / "ds.csv"
        save_dataset(from_series("d", [make_series("a", n=3, train_len=1)]), path)
        write_rows(path, ["series_id", "t", "value"], [("a", 1, "1.0"), ("a", 2, "2.0")])
        assert len(reference_load_dataset(path).values[0]) == 2
        with pytest.raises(ConfigError, match=re.escape("series 'a' holds 2 of 3 positions")):
            load_dataset(path)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 64])
    @pytest.mark.parametrize("bad", ["a,two,0.5", "a,2,half", "a,2", "a,2,0.5,9"])
    @pytest.mark.parametrize("at", [0, 1, 4])
    def test_malformed_row_names_its_line(self, tmp_path, monkeypatch, chunk, bad, at):
        # the line counts the header and every row before, in earlier
        # chunks too; a row whose id holds a quoted line break counts once
        path = tmp_path / "ds.csv"
        save_dataset(from_series("d", [make_series("x\ny", n=3, train_len=1), make_series("a", n=3, train_len=1)]), path)
        rows = [f'"x\ny",{t},1.0\n' for t in (1, 2, 3)] + [f"a,{t},1.0\n" for t in (1, 2, 3)]
        rows.insert(at, bad + "\n")
        path.write_text("series_id,t,value\n" + "".join(rows), encoding="utf-8", newline="")
        monkeypatch.setattr(core, "CSV_CHUNK_ROWS", chunk)
        with pytest.raises(ConfigError, match=re.escape(f"malformed row at line {at + 2} of {path}")):
            load_dataset(path)

    def test_blank_line_is_skipped(self, tmp_path):
        # the row-by-row loader rejected a blank line (exit 1); loadtxt skips it
        path = tmp_path / "ds.csv"
        save_dataset(from_series("d", [make_series("a", n=3, train_len=1)]), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n", encoding="utf-8", newline="")
        with pytest.raises(ConfigError, match="line 3"):
            reference_load_dataset(path)
        assert np.array_equal(bits(load_dataset(path).values), bits(make_series("a", n=3, train_len=1).values[None]))

    def test_underscore_in_a_number_is_malformed(self, tmp_path):
        # float() reads "1_0" as 10.0; loadtxt rejects it
        path = tmp_path / "ds.csv"
        save_dataset(from_series("d", [make_series("a", n=2, train_len=1)]), path)
        write_rows(path, ["series_id", "t", "value"], [("a", 1, "1_0"), ("a", 2, "2.0")])
        assert reference_load_dataset(path).values[0, 0] == 10.0
        with pytest.raises(ConfigError, match=re.escape(f"malformed row at line 2 of {path}")):
            load_dataset(path)
        write_rows(path, ["series_id", "t", "value"], [("a", 1, "1.0"), ("a", "2_0", "2.0")])
        with pytest.raises(ConfigError, match=re.escape(f"malformed row at line 3 of {path}")):
            load_dataset(path)

    @pytest.mark.parametrize("header", ["", "series_id,t", "series_id,t,value,x", '"series_id",t,value', "t,series_id,value"])
    def test_header_checked(self, tmp_path, header):
        path = tmp_path / "ds.csv"
        save_dataset(from_series("d", [make_series("a", n=2, train_len=1)]), path)
        path.write_text(header + ("\n" if header else "") + "a,1,1.0\na,2,2.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unexpected header"):
            load_dataset(path)
