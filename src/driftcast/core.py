"""Shared domain types, seeding policy, and dataset file I/O.

Conventions used throughout the package:

* Time indices are 1-based in all file formats and drift metadata
  (``t = 1`` is the first observation). Internally arrays are 0-based.
* Randomness comes from numpy's PCG64 generator, always explicitly
  seeded. Per-series seeds are ``base_seed + ordinal`` (wrapping at
  2**64); independent sub-streams are derived with ``SeedSequence``
  spawn keys. See README for the full policy.
* Values are float64 and must be finite. A :class:`Dataset` checks its
  whole value array once, when it is built, and rejects non-finite input.
  It keeps a read-only float64 array that owns its memory as it is
  given, and copies anything else. The loaders build their arrays for
  it and hand them over: a builder that hands an array over must not
  make it writable again.
"""

from __future__ import annotations

import csv
import io
import json
import re
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

SEED_MODULUS = 2**64

DRIFT_KINDS = ("sudden", "incremental", "gradual", "none")


class DriftcastError(Exception):
    """Base class for package errors."""


class ConfigError(DriftcastError):
    """Invalid configuration or file content."""


class FitError(DriftcastError):
    """A model fit could not be completed (degenerate data, etc.)."""


class Spans:
    """Seconds and calls per phase name: each ``with spans(name):`` block
    adds its wall time, by ``time.perf_counter``, and one call to
    ``name``. Blocks may nest, and a block's time includes that of the
    blocks inside it. Phases keep the order of their first start."""

    def __init__(self) -> None:
        self.phases: dict[str, list] = {}  # name -> [seconds, calls]

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        entry = self.phases.setdefault(name, [0.0, 0])
        start = time.perf_counter()
        try:
            yield
        finally:
            entry[0] += time.perf_counter() - start
            entry[1] += 1

    def to_dict(self) -> dict:
        """``{name: {"seconds": s, "calls": n}}``, seconds rounded to the
        microsecond."""
        return {name: {"seconds": round(seconds, 6), "calls": calls} for name, (seconds, calls) in self.phases.items()}


def derive_series_seed(base_seed: int, series_ordinal: int) -> int:
    """Deterministic per-series seed: ``base_seed + ordinal`` mod 2**64.

    Injective over any contiguous ordinal range smaller than the seed
    space, and independent of platform or thread count.
    """
    if series_ordinal < 0:
        raise ValueError("series_ordinal must be nonnegative")
    return (base_seed + series_ordinal) % SEED_MODULUS


@dataclass(frozen=True)
class DriftMeta:
    """Where and how a series drifts. Indices are 1-based.

    ``kind='sudden'`` uses ``t_drift``; ``kind='incremental'`` uses
    ``t_start < t_end``; ``kind='gradual'`` is fully determined by
    ``seed`` (the Bernoulli stream that picked between the two source
    trajectories).
    """

    kind: str
    t_drift: Optional[int] = None
    t_start: Optional[int] = None
    t_end: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise ConfigError(f"unknown drift kind {self.kind!r}")
        if self.kind == "sudden":
            if self.t_drift is None or self.t_start is not None or self.t_end is not None:
                raise ConfigError("sudden drift needs t_drift only")
        elif self.kind == "incremental":
            if self.t_drift is not None or self.t_start is None or self.t_end is None:
                raise ConfigError("incremental drift needs t_start and t_end only")
            if not self.t_start < self.t_end:
                raise ConfigError("incremental drift needs t_start < t_end")
        else:
            if self.t_drift is not None or self.t_start is not None or self.t_end is not None:
                raise ConfigError(f"{self.kind} drift carries no drift indices")
        if not 0 <= self.seed < SEED_MODULUS:
            raise ConfigError("seed must fit in 64 bits")

    def validate_indices(self, length: int) -> None:
        """Check that all drift indices lie in [1, length]."""
        for name in ("t_drift", "t_start", "t_end"):
            t = getattr(self, name)
            if t is not None and not 1 <= t <= length:
                raise ConfigError(f"{name}={t} outside [1, {length}]")

    def to_dict(self) -> dict:
        """Every field by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "DriftMeta":
        """The inverse of :meth:`to_dict`: keys that name no field are
        ignored, and a field without a key takes its default."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One row of a :class:`Dataset`, as :attr:`Dataset.series` yields
    it: the row's id, values and drift, and the dataset's ``train_len``
    (the first test point sits at 1-based index ``train_len + 1``). A
    record that checks nothing, as its dataset checked it; instances
    compare by identity."""

    id: str
    values: np.ndarray
    train_len: int
    drift: DriftMeta = field(default_factory=lambda: DriftMeta(kind="none"))


@dataclass(frozen=True)
class SeriesIndex:
    """What a dataset says of its series besides their values, as its
    sidecar holds it: series ``i`` is ``ids[i]`` with ``drifts[i]``, and
    every series has ``series_length`` positions, the first
    ``train_len`` of them for training.

    Checked when built: one drift per id, ids unique and free of
    ``\\r``, ``train_len`` and every drift index in [1, series_length].
    A :class:`Dataset` is its index plus its values.
    """

    ids: tuple
    series_length: int
    train_len: int
    drifts: tuple

    def __post_init__(self) -> None:
        ids, drifts = tuple(self.ids), tuple(self.drifts)
        if len(drifts) != len(ids):
            raise ConfigError(f"{len(ids)} series ids and {len(drifts)} drifts: an index needs an id and a drift per row")
        if len(set(ids)) != len(ids):
            raise ConfigError("series ids must be unique")
        # csv.writer leaves "\r" unquoted with "\n" line ends, and the
        # file then splits the row: such an id could not be read back
        for sid in ids:
            if "\r" in sid:
                raise ConfigError(f"series id {sid!r} holds a carriage return")
        if not 1 <= self.train_len <= self.series_length:
            raise ConfigError(f"train_len={self.train_len} outside [1, {self.series_length}]")
        for drift in drifts:
            drift.validate_indices(self.series_length)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "drifts", drifts)

    @classmethod
    def from_sidecar(cls, meta: dict) -> "SeriesIndex":
        """The index of a sidecar that :func:`read_sidecar` returned."""
        series = meta["series"]
        drifts = [DriftMeta.from_dict(entry["drift"]) for entry in series]
        return cls([entry["id"] for entry in series], meta["series_length"], meta["train_len"], drifts)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A homogeneous collection of series plus the config that built it.

    ``index`` says everything of the series but their values: series
    ``i`` is ``ids[i]``, row ``i`` of the read-only (n_series,
    series_length) float64 array ``values`` and ``drifts[i]``; all share
    ``train_len``. ``generator_config`` is a plain-dict snapshot of the
    simulation config (or None for externally loaded data).

    ``values`` given as a read-only float64 array that owns its memory
    is kept, not copied: its builder hands it over and must not make it
    writable again. Anything else, a writable array, a view or a list,
    is copied. Datasets compare and hash by identity.
    """

    name: str
    index: SeriesIndex
    values: np.ndarray
    generator_config: Optional[dict] = None

    def __post_init__(self) -> None:
        values = self.values
        # keep a read-only float64 array that owns its memory (its builder
        # hands it over); copy anything else, which its caller may still change
        owned = isinstance(values, np.ndarray) and values.dtype == np.float64 and values.flags.owndata
        if not owned or values.flags.writeable:
            values = np.array(values, dtype=np.float64)
        shape = (len(self.ids), self.series_length)
        if values.size == 0 or values.shape != shape:
            raise ConfigError(f"a dataset needs a non-empty value array of shape {shape}, an id and a drift per row")
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise ConfigError(f"series {self.ids[np.argmin(finite)]!r} contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def ids(self) -> tuple:
        return self.index.ids

    @property
    def drifts(self) -> tuple:
        return self.index.drifts

    @property
    def train_len(self) -> int:
        return self.index.train_len

    @property
    def series_length(self) -> int:
        return self.index.series_length

    @property
    def series(self) -> tuple:
        """Every series as a :class:`TimeSeries`, its values a view of its row."""
        return tuple(map(TimeSeries, self.ids, self.values, [self.train_len] * len(self), self.drifts))


# The CSV text contract of every output file (datasets, traces, weight
# traces, reports): fields quoted as csv.writer's QUOTE_MINIMAL quotes
# them, floats as ``repr``, rows ended by "\n". The helpers below build
# that text a column at a time instead of calling csv.writer once per row.


def format_floats(values) -> list[str]:
    """The shortest decimal text that round-trips each float64 of a 1-D
    array exactly (``repr``), in one pass."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def csv_field(text: str) -> str:
    """``text`` as csv.writer quotes it among other fields of a row.

    Alone in a row, csv.writer writes an empty field as ``""``; among
    others it writes nothing. The text is taken from a two-field row, so
    no output file holds a row of one empty field.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def csv_rows(lead: Sequence[str], *columns: Sequence[str]) -> str:
    """CSV text of one row per element of the columns: the fields
    ``lead`` start every row, then one field from each column. All
    fields must already be CSV text (:func:`csv_field`,
    :func:`format_floats`)."""
    if not len(columns[0]):
        return ""
    prefix = "".join(field + "," for field in lead)
    return prefix + ("\n" + prefix).join(map(",".join, zip(*columns))) + "\n"


def open_csv(path: str | Path, header: Sequence[str]) -> TextIO:
    """A CSV file opened for writing, its ``header`` row written: the
    caller writes the chunks of rows (from :func:`csv_rows`) and closes
    it."""
    fh = open(path, "w", encoding="utf-8", newline="")
    fh.write(",".join(map(csv_field, header)) + "\n")
    return fh


def write_csv(path: str | Path, header: Sequence[str], chunks: Iterable[str]) -> Path:
    """Write a CSV file: the ``header`` row, then each chunk of rows
    (from :func:`csv_rows`) as it is produced."""
    path = Path(path)
    with open_csv(path, header) as fh:
        fh.writelines(chunks)
    return path


# rows per np.loadtxt call of read_csv: a chunk's fields, ids as Python
# strings, are held in memory at once
CSV_CHUNK_ROWS = 1 << 12


def read_csv(path: str | Path, columns: dict) -> Iterator[np.ndarray]:
    """Read a CSV file that :func:`write_csv` wrote: check that its header
    row names ``columns`` (name -> dtype, ``object`` for text), then yield
    its rows as structured arrays of up to ``CSV_CHUNK_ROWS`` rows. A
    quoted field may hold commas, quotes and line breaks; a blank line is
    skipped. A row that does not parse raises ConfigError naming its
    line: the header is line 1, and each row one line."""
    path = Path(path)
    dtype = np.dtype(list(columns.items()))
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n")
        if header != ",".join(map(csv_field, columns)):
            raise ConfigError(f"unexpected header {header!r} in {path}")
        done = 0  # rows read
        while True:
            try:
                with warnings.catch_warnings():  # of a blank line, or of no rows left
                    warnings.simplefilter("ignore", UserWarning)
                    chunk = np.loadtxt(
                        fh, dtype, comments=None, delimiter=",", quotechar='"', max_rows=CSV_CHUNK_ROWS, ndmin=1
                    )
            except ValueError as exc:  # a wrong field count or an unparsable field
                # loadtxt numbers the rows of its chunk from 0 in a conversion
                # error and from 1 in a column-count error
                row = re.search(r"at row (\d+)", str(exc))
                line = done + 1 + int(row[1]) + str(exc).startswith("could not convert") if row else None
                where = f"at line {line}" if row else f"after line {done + 1}"
                raise ConfigError(f"malformed row {where} of {path}: {exc}") from exc
            if len(chunk):
                yield chunk
            done += len(chunk)
            if len(chunk) < CSV_CHUNK_ROWS:
                return


def key_runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop of each run of consecutive rows that agree in every
    column of ``keys``. A file written a series at a time holds one run
    per series, so its ids are looked up once per run, not per row."""
    starts = np.ones(len(keys[0]), dtype=bool)
    starts[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    starts = np.flatnonzero(starts)
    return starts, np.append(starts[1:], len(keys[0]))


# The JSON contract of every JSON file (dataset sidecars, configs, the
# manifest): one object, written indented by 2 and ended by "\n".


def write_json(path: str | Path, document: dict) -> Path:
    """Write ``document`` as a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8", newline="")
    return path


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object in the file ``path``. A file that is missing, not
    UTF-8, not JSON or not an object raises ConfigError naming ``what``
    and the path."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{what} {path} is missing")
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"{what} {path} is not a JSON object")
    return document


DATASET_COLUMNS = {"series_id": object, "t": np.int64, "value": np.float64}


def save_dataset(dataset: Dataset, csv_path: str | Path) -> Path:
    """Write ``<path>.csv`` plus a ``<stem>.meta.json`` sidecar.

    CSV columns are ``series_id,t,value`` with t 1-based; the sidecar
    carries name, train_len, per-series drift metadata, and the
    generator config snapshot. Returns the sidecar path.
    """
    csv_path = Path(csv_path)
    positions = [str(t) for t in range(1, dataset.series_length + 1)]
    write_csv(
        csv_path,
        list(DATASET_COLUMNS),
        (csv_rows((csv_field(sid),), positions, format_floats(row)) for sid, row in zip(dataset.ids, dataset.values)),
    )
    meta = {
        "name": dataset.name,
        "series_length": dataset.series_length,
        "train_len": dataset.train_len,
        "generator_config": dataset.generator_config,
        "series": [{"id": sid, "drift": drift.to_dict()} for sid, drift in zip(dataset.ids, dataset.drifts)],
    }
    return write_json(sidecar_path(csv_path), meta)


def sidecar_path(csv_path: str | Path) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_suffix(".meta.json")


_SIDECAR_KEYS = ("name", "series_length", "train_len", "generator_config", "series")


def _holds(obj, *keys: str) -> bool:
    return isinstance(obj, dict) and all(key in obj for key in keys)


def read_sidecar(csv_path: str | Path) -> dict:
    """The sidecar of the dataset file ``csv_path``. One that is not
    JSON, lacks a key of ``_SIDECAR_KEYS`` or a series' ``id``,
    ``drift`` or drift ``kind``, or holds an id that is not a string or
    a ``series_length``, ``train_len``, drift index or drift ``seed``
    that is not an integer raises ConfigError naming it, and so does a
    missing sidecar. A drift index may be null, for DriftMeta to
    check."""
    meta_path = sidecar_path(csv_path)
    meta = read_json(meta_path, "sidecar")
    if not (
        _holds(meta, *_SIDECAR_KEYS)
        and isinstance(meta["series"], list)
        and all(_holds(entry, "id", "drift") and _holds(entry["drift"], "kind") for entry in meta["series"])
    ):
        raise ConfigError(f"sidecar {meta_path} lacks a key of {_SIDECAR_KEYS}, or a series' id, drift or drift kind")
    numbers = [("series_length", meta["series_length"]), ("train_len", meta["train_len"])]
    for entry in meta["series"]:
        if not isinstance(entry["id"], str):
            raise ConfigError(f"sidecar {meta_path} holds series id {entry['id']!r}, not a string")
        drift = entry["drift"]
        numbers += [(name, drift[name]) for name in ("t_drift", "t_start", "t_end") if drift.get(name) is not None]
        numbers.append(("seed", drift.get("seed", 0)))
    for name, value in numbers:
        if type(value) is not int:  # a JSON integer; not a bool, a float, a string or null
            raise ConfigError(f"sidecar {meta_path} holds {name}={value!r}, not an integer")
    return meta


def load_dataset(csv_path: str | Path) -> Dataset:
    """Inverse of :func:`save_dataset`; positions and values round-trip
    exactly. The CSV must hold, for every series of the sidecar and no
    other, the positions t = 1..series_length in order; the series may
    come in any order, and interleave. The sidecar is checked as a
    :class:`SeriesIndex` before the CSV is read, and so is its size: a
    sidecar that gives more values than the CSV holds bytes raises
    ConfigError naming it."""
    csv_path = Path(csv_path)
    meta_path = sidecar_path(csv_path)
    if not csv_path.exists() or not meta_path.exists():
        raise ConfigError(f"dataset files missing: {csv_path} / {meta_path}")
    meta = read_sidecar(csv_path)
    index = SeriesIndex.from_sidecar(meta)
    ids, length, size = index.ids, index.series_length, csv_path.stat().st_size
    # each value needs a row of its own, of more than a byte: the sidecar
    # sizes the value array, which must not outgrow the file that fills it
    if len(ids) * length > size:
        raise ConfigError(
            f"sidecar {meta_path} gives {len(ids)} series of {length} positions, "
            f"more values than the {size} bytes of {csv_path} can hold"
        )
    row_of = {sid: i for i, sid in enumerate(ids)}
    values = np.empty((len(ids), length))
    filled = np.zeros(len(ids), dtype=int)  # values read so far, per series
    for chunk in read_csv(csv_path, DATASET_COLUMNS):
        sid, t = chunk["series_id"], chunk["t"]
        for start, stop in zip(*key_runs(sid)):
            if sid[start] not in row_of:
                raise ConfigError(f"CSV contains series {sid[start]!r} absent from the sidecar")
            i = row_of[sid[start]]
            n, m = filled[i], stop - start
            if n + m > length or not np.array_equal(t[start:stop], np.arange(n + 1, n + m + 1)):
                raise ConfigError(f"non-contiguous t for series {sid[start]!r} in {csv_path}")
            values[i, n : n + m] = chunk["value"][start:stop]
            filled[i] += m
    short = np.flatnonzero(filled < length)
    if short.size:
        raise ConfigError(f"series {ids[short[0]]!r} holds {filled[short[0]]} of {length} positions in {csv_path}")
    values.setflags(write=False)  # handed over to the Dataset, which keeps it
    return Dataset(meta["name"], index, values, meta["generator_config"])


def spawned_seed(seed: int, stream: int) -> int:
    """A 64-bit seed deterministically derived from (seed, stream)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def require_finite(x: Sequence[float] | np.ndarray, what: str) -> np.ndarray:
    """Return ``x`` as a float64 array, rejecting NaN/inf."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} contains non-finite values")
    return arr
