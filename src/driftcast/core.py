"""Shared domain types, seeding policy, and dataset file I/O.

Conventions used throughout the package:

* Time indices are 1-based in all file formats and drift metadata
  (``t = 1`` is the first observation). Internally arrays are 0-based.
* Randomness comes from numpy's PCG64 generator, always explicitly
  seeded. Per-series seeds are ``base_seed + ordinal`` (wrapping at
  2**64); independent sub-streams are derived with ``SeedSequence``
  spawn keys. See README for the full policy.
* Values are float64 and must be finite; non-finite input is rejected
  at construction time.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

SEED_MODULUS = 2**64

DRIFT_KINDS = ("sudden", "incremental", "gradual", "none")


class DriftcastError(Exception):
    """Base class for package errors."""


class ConfigError(DriftcastError):
    """Invalid configuration or file content."""


class FitError(DriftcastError):
    """A model fit could not be completed (degenerate data, etc.)."""


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
        return {
            "kind": self.kind,
            "t_drift": self.t_drift,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DriftMeta":
        return cls(
            kind=d["kind"],
            t_drift=d.get("t_drift"),
            t_start=d.get("t_start"),
            t_end=d.get("t_end"),
            seed=d.get("seed", 0),
        )


@dataclass(frozen=True)
class TimeSeries:
    """One series: values, train/test split, and drift provenance.

    ``train_len`` is the number of training observations, so the first
    test point sits at 1-based index ``train_len + 1``. The value array
    is frozen after construction; instances are safe to share.
    """

    id: str
    values: np.ndarray
    train_len: int
    drift: DriftMeta = field(default_factory=lambda: DriftMeta(kind="none"))

    def __post_init__(self) -> None:
        # csv.writer leaves "\r" unquoted with "\n" line ends, and
        # csv.reader then splits the row: such an id could not be read back
        if "\r" in self.id:
            raise ConfigError(f"series id {self.id!r} holds a carriage return")
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ConfigError("values must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"series {self.id!r} contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if not 1 <= self.train_len <= len(values):
            raise ConfigError(
                f"train_len={self.train_len} outside [1, {len(values)}] for series {self.id!r}"
            )
        self.drift.validate_indices(len(values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Dataset:
    """A homogeneous collection of series plus the config that built it.

    ``generator_config`` is a plain-dict snapshot of the simulation
    config (or None for externally loaded data) so that the sidecar
    metadata round-trips without pulling in the simulator.
    """

    name: str
    series: tuple
    generator_config: Optional[dict] = None

    def __post_init__(self) -> None:
        series = tuple(self.series)
        if not series:
            raise ConfigError("dataset needs at least one series")
        object.__setattr__(self, "series", series)
        lengths = {len(s) for s in series}
        train_lens = {s.train_len for s in series}
        if len(lengths) != 1 or len(train_lens) != 1:
            raise ConfigError("all series must share length and train_len")
        ids = [s.id for s in series]
        if len(set(ids)) != len(ids):
            raise ConfigError("series ids must be unique")

    def __len__(self) -> int:
        return len(self.series)

    @property
    def series_length(self) -> int:
        return len(self.series[0])

    @property
    def train_len(self) -> int:
        return self.series[0].train_len

    def values_matrix(self) -> np.ndarray:
        """All series stacked as an (n_series, length) array."""
        return np.vstack([s.values for s in self.series])


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


def write_csv(path: str | Path, header: Sequence[str], chunks: Iterable[str]) -> Path:
    """Write a CSV file: the ``header`` row, then each chunk of rows
    (from :func:`csv_rows`) as it is produced."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(csv_field, header)) + "\n")
        fh.writelines(chunks)
    return path


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
        ["series_id", "t", "value"],
        (csv_rows((csv_field(s.id),), positions, format_floats(s.values)) for s in dataset.series),
    )
    meta = {
        "name": dataset.name,
        "series_length": dataset.series_length,
        "train_len": dataset.train_len,
        "generator_config": dataset.generator_config,
        "series": [{"id": s.id, "drift": s.drift.to_dict()} for s in dataset.series],
    }
    meta_path = sidecar_path(csv_path)
    with open(meta_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return meta_path


def sidecar_path(csv_path: str | Path) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_suffix(".meta.json")


def load_dataset(csv_path: str | Path) -> Dataset:
    """Inverse of :func:`save_dataset`; positions and values round-trip
    exactly."""
    csv_path = Path(csv_path)
    meta_path = sidecar_path(csv_path)
    if not csv_path.exists() or not meta_path.exists():
        raise ConfigError(f"dataset files missing: {csv_path} / {meta_path}")
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    values_by_id: dict[str, list[float]] = {}
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
        except (ValueError, csv.Error) as exc:  # a wrong field count or an unparsable number
            raise ConfigError(f"malformed row at line {reader.line_num} of {csv_path}: {exc}") from exc
    series = []
    for entry in meta["series"]:
        sid = entry["id"]
        if sid not in values_by_id:
            raise ConfigError(f"series {sid!r} in sidecar but not in CSV")
        series.append(
            TimeSeries(
                id=sid,
                values=np.array(values_by_id[sid]),
                train_len=meta["train_len"],
                drift=DriftMeta.from_dict(entry["drift"]),
            )
        )
    if set(values_by_id) - {s.id for s in series}:
        raise ConfigError("CSV contains series absent from the sidecar")
    return Dataset(name=meta["name"], series=tuple(series), generator_config=meta.get("generator_config"))


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
