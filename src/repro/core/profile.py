"""Fine-grain power profiles: the output of the FinGraV methodology.

A profile is a cloud of (time, power) points stitched together from the logs
of interest of many runs (paper step 9).  Three kinds are produced:

* ``ssp`` -- power at different times of interest within the steady-state-power
  execution.  This is the time-series view of average power the paper treats
  as *the* power profile of a kernel.
* ``sse`` -- same, for the steady-state-execution (first post-warm-up)
  execution; the naive profile a typical user would report.
* ``run`` -- power over the whole run (warm-ups through SSP), used for the
  methodology-evaluation figures (Figs 5, 6, 8).

Profiles are stored **columnar**: one time / run-index / execution-index array
bundle plus one power array per component (:class:`ProfileColumns`).  At paper
scale a profile holds tens of thousands of stitched points, so statistics,
smoothing, restriction and export are pure array operations; the legacy
per-point :class:`ProfilePoint` view is materialised lazily, only when a
consumer actually indexes ``profile.points``.

Profiles carry per-component series (total / xcd / iod / hbm), support
polynomial smoothing (the paper's degree-4 regression for low-run-count
profiles), and expose the power / energy summary statistics the analysis and
insight layers consume.
"""

from __future__ import annotations

import enum
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .records import COMPONENT_KEYS, LogOfInterest, component_column


class ProfileKind(str, enum.Enum):
    """Which execution a profile describes."""

    SSP = "ssp"
    SSE = "sse"
    RUN = "run"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ProfilePoint:
    """One stitched point of a fine-grain power profile."""

    time_s: float
    powers_w: Mapping[str, float]
    run_index: int = -1
    execution_index: int = -1

    def power(self, component: str = "total") -> float:
        try:
            return float(self.powers_w[component])
        except KeyError as exc:
            raise KeyError(f"profile point has no component {component!r}") from exc

    def has_component(self, component: str) -> bool:
        return component in self.powers_w


def point_from_loi(loi: LogOfInterest, components: Sequence[str] = COMPONENT_KEYS) -> ProfilePoint:
    """Convert a log of interest into a profile point keyed by TOI."""
    powers = {}
    for component in components:
        if loi.reading.has_component(component):
            powers[component] = loi.reading.component(component)
    return ProfilePoint(
        time_s=loi.toi_s,
        powers_w=powers,
        run_index=loi.run_index,
        execution_index=loi.execution_index,
    )


class ProfileColumns:
    """Structure-of-arrays storage behind :class:`FineGrainProfile`.

    ``powers_w`` maps component names to full-length value arrays; a component
    missing from *some* points carries ``NaN`` at the missing positions and a
    boolean presence array in ``masks``.  Components present in every point
    (the overwhelmingly common case) have no mask entry.  Constructors
    normalise masks: an all-true mask is dropped, an all-false component is
    removed entirely.
    """

    __slots__ = ("time_s", "run_index", "execution_index", "powers_w", "masks")

    def __init__(
        self,
        time_s: np.ndarray,
        run_index: np.ndarray,
        execution_index: np.ndarray,
        powers_w: Mapping[str, np.ndarray],
        masks: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        self.time_s = np.asarray(time_s, dtype=float)
        self.run_index = np.asarray(run_index, dtype=np.int64)
        self.execution_index = np.asarray(execution_index, dtype=np.int64)
        self.powers_w: dict[str, np.ndarray] = {}
        self.masks: dict[str, np.ndarray] = {}
        raw_masks = dict(masks or {})
        for name, values in powers_w.items():
            values = np.asarray(values, dtype=float)
            mask = raw_masks.get(name)
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if not mask.any():
                    continue
                if mask.all():
                    mask = None
            self.powers_w[name] = values
            if mask is not None:
                self.masks[name] = mask

    def __len__(self) -> int:
        return int(self.time_s.shape[0])

    def freeze(self) -> "ProfileColumns":
        """Mark every array read-only (profiles are immutable by convention)."""
        for array in self._arrays():
            array.setflags(write=False)
        return self

    def _arrays(self) -> Iterable[np.ndarray]:
        yield self.time_s
        yield self.run_index
        yield self.execution_index
        yield from self.powers_w.values()
        yield from self.masks.values()

    # ------------------------------------------------------------------ #
    def sorted_by_time(self) -> "ProfileColumns":
        """Stable-sorted (by time) view; the same permutation as sorting points."""
        if len(self) <= 1 or bool(np.all(np.diff(self.time_s) >= 0)):
            return self
        return self.take(np.argsort(self.time_s, kind="stable"))

    def take(self, indices: np.ndarray) -> "ProfileColumns":
        """A new column bundle holding the rows at ``indices`` (in that order)."""
        indices = np.asarray(indices, dtype=np.int64)
        return ProfileColumns(
            time_s=self.time_s[indices],
            run_index=self.run_index[indices],
            execution_index=self.execution_index[indices],
            powers_w={name: values[indices] for name, values in self.powers_w.items()},
            masks={name: mask[indices] for name, mask in self.masks.items()},
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def empty() -> "ProfileColumns":
        return ProfileColumns(
            np.empty(0, dtype=float),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            {},
        )

    @staticmethod
    def from_points(points: Sequence[ProfilePoint]) -> "ProfileColumns":
        """Columnise a sequence of points (component order: first seen)."""
        points = tuple(points)
        n = len(points)
        if n == 0:
            return ProfileColumns.empty()
        time_s = np.empty(n, dtype=float)
        run_index = np.empty(n, dtype=np.int64)
        execution_index = np.empty(n, dtype=np.int64)
        values: dict[str, np.ndarray] = {}
        present: dict[str, np.ndarray] = {}
        for i, point in enumerate(points):
            time_s[i] = point.time_s
            run_index[i] = point.run_index
            execution_index[i] = point.execution_index
            for name, value in point.powers_w.items():
                column = values.get(name)
                if column is None:
                    column = np.full(n, np.nan)
                    values[name] = column
                    present[name] = np.zeros(n, dtype=bool)
                column[i] = value
                present[name][i] = True
        return ProfileColumns(time_s, run_index, execution_index, values, present)

    def to_points(self) -> tuple[ProfilePoint, ...]:
        """Materialise the legacy per-point view."""
        names = list(self.powers_w)
        points = []
        for i in range(len(self)):
            powers: dict[str, float] = {}
            for name in names:
                mask = self.masks.get(name)
                if mask is None or mask[i]:
                    powers[name] = float(self.powers_w[name][i])
            points.append(
                ProfilePoint(
                    time_s=float(self.time_s[i]),
                    powers_w=powers,
                    run_index=int(self.run_index[i]),
                    execution_index=int(self.execution_index[i]),
                )
            )
        return tuple(points)

    @staticmethod
    def concatenate(chunks: Sequence["ProfileColumns"]) -> "ProfileColumns":
        """Stack column bundles; components missing from a chunk become masked."""
        chunks = [chunk for chunk in chunks if chunk is not None]
        if not chunks:
            return ProfileColumns.empty()
        if len(chunks) == 1:
            return chunks[0]
        names: list[str] = []
        for chunk in chunks:
            for name in chunk.powers_w:
                if name not in names:
                    names.append(name)
        powers: dict[str, np.ndarray] = {}
        masks: dict[str, np.ndarray] = {}
        for name in names:
            parts: list[np.ndarray] = []
            mask_parts: list[np.ndarray] = []
            for chunk in chunks:
                n = len(chunk)
                if name in chunk.powers_w:
                    parts.append(chunk.powers_w[name])
                    mask = chunk.masks.get(name)
                    mask_parts.append(mask if mask is not None else np.ones(n, dtype=bool))
                else:
                    parts.append(np.full(n, np.nan))
                    mask_parts.append(np.zeros(n, dtype=bool))
            powers[name] = np.concatenate(parts)
            masks[name] = np.concatenate(mask_parts)
        return ProfileColumns(
            np.concatenate([chunk.time_s for chunk in chunks]),
            np.concatenate([chunk.run_index for chunk in chunks]),
            np.concatenate([chunk.execution_index for chunk in chunks]),
            powers,
            masks,
        )

    # ------------------------------------------------------------------ #
    # Equality.
    # ------------------------------------------------------------------ #
    def equals(self, other: "ProfileColumns") -> bool:
        """Structural equality, matching the per-point view's semantics.

        Component order is irrelevant (point dictionaries compare unordered),
        masked-out positions are ignored, and ``NaN`` at a *present* position
        compares unequal -- exactly as materialised point tuples would.
        """
        if self is other:
            return True
        if len(self) != len(other):
            return False
        if not (
            np.array_equal(self.time_s, other.time_s)
            and np.array_equal(self.run_index, other.run_index)
            and np.array_equal(self.execution_index, other.execution_index)
        ):
            return False
        if set(self.powers_w) != set(other.powers_w):
            return False
        for name, values in self.powers_w.items():
            theirs = other.powers_w[name]
            mask = self.masks.get(name)
            other_mask = other.masks.get(name)
            if mask is None and other_mask is None:
                if not np.array_equal(values, theirs):
                    return False
                continue
            # Constructors drop all-true masks, so None-vs-array means the
            # presence patterns genuinely differ.
            if mask is None or other_mask is None or not np.array_equal(mask, other_mask):
                return False
            if not np.array_equal(values[mask], theirs[mask]):
                return False
        return True

    # ------------------------------------------------------------------ #
    # The canonical columnar payload: the one shape that crosses every
    # process/disk boundary (pickle, the sweep cache's NPZ spill, viz export).
    # ------------------------------------------------------------------ #
    def to_payload(self) -> dict[str, np.ndarray]:
        """Flatten the bundle to named arrays.

        Keys: ``time_s`` / ``run_index`` / ``execution_index``, one
        ``power_<component>_w`` array per component, a ``mask_<component>``
        boolean array for each partially present component, and a
        ``components`` string array pinning the component order (the PR 3-era
        export lacked it; :meth:`from_payload` falls back to key order).
        """
        arrays: dict[str, np.ndarray] = {
            "time_s": self.time_s,
            "run_index": self.run_index,
            "execution_index": self.execution_index,
            "components": np.asarray(list(self.powers_w), dtype=np.str_),
        }
        for name, values in self.powers_w.items():
            arrays[f"power_{name}_w"] = values
        for name, mask in self.masks.items():
            arrays[f"mask_{name}"] = mask
        return arrays

    @staticmethod
    def from_payload(arrays: Mapping[str, np.ndarray]) -> "ProfileColumns":
        """Rebuild a bundle from :meth:`to_payload` arrays, zero-copy.

        Arrays that already carry the canonical dtype are adopted as-is --
        memory-mapped inputs stay memory-mapped -- so deserialising a spilled
        profile touches no payload bytes until a consumer reads them.
        """
        if "components" in arrays:
            names = [str(name) for name in np.asarray(arrays["components"]).tolist()]
        else:
            # PR 3-era export files: component order is the file's key order.
            names = [
                key[len("power_"):-len("_w")]
                for key in arrays
                if key.startswith("power_") and key.endswith("_w")
            ]
        columns = ProfileColumns.__new__(ProfileColumns)
        columns.time_s = _canonical_array(arrays["time_s"], np.dtype(float))
        columns.run_index = _canonical_array(arrays["run_index"], np.dtype(np.int64))
        columns.execution_index = _canonical_array(
            arrays["execution_index"], np.dtype(np.int64)
        )
        columns.powers_w = {}
        columns.masks = {}
        for name in names:
            values = _canonical_array(arrays[f"power_{name}_w"], np.dtype(float))
            mask = arrays.get(f"mask_{name}")
            if mask is not None:
                mask = _canonical_array(mask, np.dtype(bool))
                if not mask.any():
                    continue
                if mask.all():
                    mask = None
            columns.powers_w[name] = values
            if mask is not None:
                columns.masks[name] = mask
        return columns

    def to_npz(self, path: str | Path, compressed: bool = False) -> Path:
        """Write the payload arrays to an ``.npz`` file (lossless, dtype-exact).

        Uncompressed (the default) members can be memory-mapped back by
        :meth:`from_npz`; compression trades that away for smaller files.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        save = np.savez_compressed if compressed else np.savez
        with path.open("wb") as handle:
            save(handle, **self.to_payload())
        return path

    @staticmethod
    def from_npz(path: str | Path, mmap_mode: str | None = None) -> "ProfileColumns":
        """Read a bundle written by :meth:`to_npz` (bit-identical round trip).

        ``mmap_mode="r"`` maps uncompressed members read-only straight out of
        the archive instead of copying them into RAM (see
        :func:`load_npz_payload`).
        """
        return ProfileColumns.from_payload(load_npz_payload(path, mmap_mode=mmap_mode))

    # ------------------------------------------------------------------ #
    # Pickle: columns serialise as their canonical payload arrays.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict[str, object]:
        return {
            "time_s": self.time_s,
            "run_index": self.run_index,
            "execution_index": self.execution_index,
            "powers_w": self.powers_w,
            "masks": self.masks,
        }

    def __setstate__(self, state: Mapping[str, object]) -> None:
        self.time_s = state["time_s"]
        self.run_index = state["run_index"]
        self.execution_index = state["execution_index"]
        self.powers_w = dict(state["powers_w"])
        self.masks = dict(state["masks"])


def _canonical_array(array: object, dtype: np.dtype) -> np.ndarray:
    """Adopt an array as-is when already canonical (keeps memmaps mapped)."""
    if isinstance(array, np.ndarray) and array.dtype == dtype and array.ndim == 1:
        return array
    return np.asarray(array, dtype=dtype).reshape(-1)


def load_npz_payload(path: str | Path, mmap_mode: str | None = None) -> dict[str, np.ndarray]:
    """Load every member array of an ``.npz`` archive.

    With ``mmap_mode="r"`` each uncompressed member is returned as a read-only
    :class:`np.memmap` view directly into the archive file, so payload bytes
    are paged in lazily on first access.  (``np.load(..., mmap_mode=...)``
    silently ignores the flag for zip members and copies them into RAM; this
    loader parses the member offsets itself.)  Compressed, zero-size, object-
    dtype or otherwise irregular members fall back to a plain eager read.
    """
    path = Path(path)
    if mmap_mode is None:
        with np.load(path, allow_pickle=False) as bundle:
            return {name: bundle[name] for name in bundle.files}
    if mmap_mode != "r":
        raise ValueError(f"unsupported mmap_mode {mmap_mode!r}; only 'r' is supported")
    payload: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            payload[name] = _npz_member_array(path, archive, info)
    return payload


def _npz_member_array(
    path: Path, archive: zipfile.ZipFile, info: zipfile.ZipInfo
) -> np.ndarray:
    """One ``.npz`` member: memory-mapped when possible, eagerly read otherwise."""
    if info.compress_type == zipfile.ZIP_STORED:
        mapped = _mapped_npz_member(path, info)
        if mapped is not None:
            return mapped
    with archive.open(info) as handle:
        return np.lib.format.read_array(handle, allow_pickle=False)


def _mapped_npz_member(path: Path, info: zipfile.ZipInfo) -> np.ndarray | None:
    """Read-only :class:`np.memmap` of one stored member, or None if unmappable.

    The data offset inside the archive is the member's local-header offset
    plus the 30-byte fixed local header, its name and extra fields (which can
    differ from the central directory's), plus the ``.npy`` header itself.
    """
    try:
        with path.open("rb") as handle:
            handle.seek(info.header_offset)
            local_header = handle.read(30)
            if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
                return None
            name_len = int.from_bytes(local_header[26:28], "little")
            extra_len = int.from_bytes(local_header[28:30], "little")
            handle.seek(info.header_offset + 30 + name_len + extra_len)
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
            else:
                return None
            offset = handle.tell()
        if dtype.hasobject or not shape or any(extent == 0 for extent in shape):
            return None  # np.memmap cannot map empty or object arrays
        return np.memmap(
            path,
            dtype=dtype,
            mode="r",
            offset=offset,
            shape=shape,
            order="F" if fortran else "C",
        )
    except Exception:
        return None


class FineGrainProfile:
    """A stitched fine-grain power profile of one kernel.

    Point data lives in a :class:`ProfileColumns` bundle; every statistic and
    transformation below is an array operation over it.  ``points`` remains
    available for legacy consumers and is materialised (then cached) only when
    first accessed.  Construct either from ``points`` (the retained
    object-based path) or from ``columns`` (the columnar hot path) -- the two
    are interchangeable and produce bit-identical results.
    """

    def __init__(
        self,
        kernel_name: str,
        kind: ProfileKind,
        points: Sequence[ProfilePoint] | None = None,
        execution_time_s: float | None = None,
        metadata: Mapping[str, object] | None = None,
        *,
        columns: ProfileColumns | None = None,
    ) -> None:
        if execution_time_s is None:
            raise TypeError("execution_time_s is required")
        if (points is None) == (columns is None):
            raise TypeError("provide exactly one of points= or columns=")
        self.kernel_name = kernel_name
        self.kind = kind
        self.execution_time_s = execution_time_s
        self.metadata: Mapping[str, object] = dict(metadata or {})
        self._points: tuple[ProfilePoint, ...] | None
        self._columns: ProfileColumns | None
        if columns is not None:
            self._columns = columns.sorted_by_time().freeze()
            self._points = None
        else:
            self._points = tuple(sorted(points, key=lambda p: p.time_s))
            self._columns = None

    # ------------------------------------------------------------------ #
    # Storage views.
    # ------------------------------------------------------------------ #
    @property
    def points(self) -> tuple[ProfilePoint, ...]:
        """Per-point view, materialised from the columns on first access."""
        if self._points is None:
            self._points = self._columns.to_points()
        return self._points

    def columns(self) -> ProfileColumns:
        """The columnar storage (built once from points on the legacy path)."""
        if self._columns is None:
            # Points were sorted at construction; no re-sort needed.
            self._columns = ProfileColumns.from_points(self._points).freeze()
        return self._columns

    # ------------------------------------------------------------------ #
    # Basic accessors.
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self._points is not None:
            return len(self._points)
        return len(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FineGrainProfile):
            return NotImplemented
        if not (
            self.kernel_name == other.kernel_name
            and self.kind == other.kind
            and self.execution_time_s == other.execution_time_s
            and dict(self.metadata) == dict(other.metadata)
        ):
            return False
        if self._columns is not None and other._columns is not None:
            # Both sides are columnar: compare the arrays directly instead of
            # materialising (and caching) O(n) ProfilePoint objects.
            return self._columns.equals(other._columns)
        return self.points == other.points

    __hash__ = None  # mutable metadata mapping; profiles are not hashable

    # ------------------------------------------------------------------ #
    # Pickle: only the columns cross process/disk boundaries.  The point
    # tuple -- even a materialised cache of it -- is a pure adapter view and
    # is never serialised; point-built profiles are columnised on the way out.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict[str, object]:
        return {
            "kernel_name": self.kernel_name,
            "kind": self.kind,
            "execution_time_s": self.execution_time_s,
            "metadata": dict(self.metadata),
            "columns": self.columns(),
        }

    def __setstate__(self, state: Mapping[str, object]) -> None:
        self.kernel_name = state["kernel_name"]
        self.kind = state["kind"]
        self.execution_time_s = state["execution_time_s"]
        self.metadata = dict(state["metadata"])
        # Columns were sorted at construction time; re-freezing is enough.
        self._columns = state["columns"].freeze()
        self._points = None

    def __repr__(self) -> str:
        return (
            f"FineGrainProfile(kernel_name={self.kernel_name!r}, kind={self.kind!r}, "
            f"points=<{len(self)}>, execution_time_s={self.execution_time_s!r})"
        )

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def components(self) -> tuple[str, ...]:
        """Components present in *any* point (canonical keys first)."""
        powers = self.columns().powers_w
        present = [c for c in COMPONENT_KEYS if c in powers]
        extra = [c for c in powers if c not in COMPONENT_KEYS]
        return tuple(present + sorted(extra))

    def times(self) -> np.ndarray:
        """Point times as a read-only float array."""
        return self.columns().time_s

    def series(self, component: str = "total") -> np.ndarray:
        """Per-component power array, aligned with :meth:`times`.

        Positions whose point lacks the component are ``NaN`` (see
        :meth:`component_mask`); statistics below skip them.  An empty profile
        yields an empty array for any component name.
        """
        cols = self.columns()
        try:
            return cols.powers_w[component]
        except KeyError as exc:
            if len(cols) == 0:
                return cols.time_s  # the (read-only) empty float array
            raise KeyError(f"profile point has no component {component!r}") from exc

    def component_mask(self, component: str) -> np.ndarray | None:
        """Presence mask for a partially present component (None = everywhere)."""
        self.series(component)  # raise KeyError for unknown components
        return self.columns().masks.get(component)

    def run_indices(self) -> list[int]:
        return self.columns().run_index.tolist()

    def _component_values(self, component: str) -> np.ndarray:
        """The component's values at the points that actually carry it."""
        values = self.series(component)
        mask = self.columns().masks.get(component)
        return values if mask is None else values[mask]

    def component_points(self, component: str) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) restricted to points that carry the component.

        For fully present components this is ``(times(), series(component))``;
        for partially present ones the NaN holes are dropped.  Consumers that
        fit or plot a single component should use this instead of reading
        :meth:`series` raw, so missing points never poison a fit with NaNs.
        """
        values = self.series(component)
        mask = self.columns().masks.get(component)
        if mask is None:
            return self.times(), values
        return self.times()[mask], values[mask]

    # ------------------------------------------------------------------ #
    # Statistics.
    #
    # Empty-profile contract: a profile with zero points has no power, so
    # every summary statistic (mean / median / max / min / energy) returns a
    # clean ``float("nan")`` -- quietly, never through NumPy's
    # mean-of-empty-slice warning path -- on both the columnar and the
    # object storage.  ``power_std_w`` keeps its documented 0.0 for fewer
    # than two values.  Consumers that must not silently propagate NaN
    # should check :attr:`is_empty` first (as :func:`measurement_error`
    # does).
    # ------------------------------------------------------------------ #
    def mean_power_w(self, component: str = "total") -> float:
        """Mean power over the profile's points (NaN for an empty profile)."""
        if self.is_empty:
            return float("nan")
        return float(np.mean(self._component_values(component)))

    def median_power_w(self, component: str = "total") -> float:
        """Median power over the profile's points (NaN for an empty profile)."""
        if self.is_empty:
            return float("nan")
        return float(np.median(self._component_values(component)))

    def max_power_w(self, component: str = "total") -> float:
        """Maximum power over the profile's points (NaN for an empty profile)."""
        if self.is_empty:
            return float("nan")
        return float(np.max(self._component_values(component)))

    def min_power_w(self, component: str = "total") -> float:
        """Minimum power over the profile's points (NaN for an empty profile)."""
        if self.is_empty:
            return float("nan")
        return float(np.min(self._component_values(component)))

    def power_std_w(self, component: str = "total") -> float:
        """Sample standard deviation of power (0.0 with fewer than 2 values)."""
        if len(self) < 2:
            return 0.0
        values = self._component_values(component)
        if values.shape[0] < 2:
            return 0.0
        return float(np.std(values, ddof=1))

    def energy_j(self, component: str = "total") -> float:
        """Energy of one kernel execution implied by the profile.

        Energy is power integrated over time (paper Section I); for a profile
        of a single execution this is the mean profile power multiplied by the
        kernel execution time (NaN for an empty profile).
        """
        return self.mean_power_w(component) * self.execution_time_s

    def component_summary(self) -> dict[str, float]:
        """Mean power per component (the quantity plotted in Figs 7 and 10)."""
        return {component: self.mean_power_w(component) for component in self.components}

    # ------------------------------------------------------------------ #
    # Smoothing / resampling.
    # ------------------------------------------------------------------ #
    def smoothed(
        self, component: str = "total", degree: int = 4, num_points: int = 100
    ) -> tuple[np.ndarray, np.ndarray]:
        """Polynomial-regression trend of the profile (paper Figure 5, 50-run fit).

        Returns ``(times, fitted_power)`` with ``num_points`` evenly spaced
        times across the profile's span.  Falls back to a lower degree when
        there are too few points to support the requested one.
        """
        if self.is_empty:
            raise ValueError("cannot smooth an empty profile")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        times, powers = self.component_points(component)
        effective_degree = min(degree, max(len(times) - 1, 0))
        grid = np.linspace(float(times.min()), float(times.max()), num_points)
        if effective_degree == 0 or float(times.max()) == float(times.min()):
            return grid, np.full(num_points, float(np.mean(powers)))
        coefficients = np.polyfit(times, powers, deg=effective_degree)
        return grid, np.polyval(coefficients, grid)

    def binned_mean(
        self, component: str = "total", bins: int = 20
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean power in equal-width time bins (a robust alternative to polyfit).

        One :func:`np.bincount` pass over the bin assignments replaces the
        per-bin Python mask loop.
        """
        if self.is_empty:
            raise ValueError("cannot bin an empty profile")
        times, powers = self.component_points(component)
        edges = np.linspace(float(times.min()), float(times.max()) + 1e-12, bins + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        which = np.clip(np.digitize(times, edges) - 1, 0, bins - 1)
        counts = np.bincount(which, minlength=bins)
        sums = np.bincount(which, weights=powers, minlength=bins)
        valid = counts > 0
        return centers[valid], sums[valid] / counts[valid]

    # ------------------------------------------------------------------ #
    # Construction / transformation helpers.
    # ------------------------------------------------------------------ #
    def restricted_to_runs(self, run_indices: Iterable[int]) -> "FineGrainProfile":
        cols = self.columns()
        wanted = np.fromiter((int(i) for i in run_indices), dtype=np.int64)
        keep = np.nonzero(np.isin(cols.run_index, wanted))[0]
        return FineGrainProfile(
            kernel_name=self.kernel_name,
            kind=self.kind,
            execution_time_s=self.execution_time_s,
            metadata=dict(self.metadata),
            columns=cols.take(keep),
        )

    def subsampled(self, max_points: int, seed: int = 0) -> "FineGrainProfile":
        """Randomly keep at most ``max_points`` points (used for #runs ablations)."""
        if max_points <= 0:
            raise ValueError("max_points must be positive")
        if len(self) <= max_points:
            return self
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(self), size=max_points, replace=False)
        return FineGrainProfile(
            kernel_name=self.kernel_name,
            kind=self.kind,
            execution_time_s=self.execution_time_s,
            metadata=dict(self.metadata),
            columns=self.columns().take(np.sort(chosen)),
        )

    def to_rows(self) -> list[dict[str, float]]:
        """Flatten the profile to rows for CSV/JSON export."""
        cols = self.columns()
        names = list(cols.powers_w)
        rows = []
        for i in range(len(cols)):
            row: dict[str, float] = {"time_s": float(cols.time_s[i])}
            for name in names:
                mask = cols.masks.get(name)
                if mask is None or mask[i]:
                    row[f"{name}_w"] = float(cols.powers_w[name][i])
            row["run_index"] = int(cols.run_index[i])
            row["execution_index"] = int(cols.execution_index[i])
            rows.append(row)
        return rows


def columns_from_lois(
    lois: Sequence[LogOfInterest], components: Sequence[str] = COMPONENT_KEYS
) -> ProfileColumns:
    """Columnise logs of interest directly -- no intermediate point objects."""
    lois = list(lois)
    n = len(lois)
    if n == 0:
        return ProfileColumns.empty()
    time_s = np.fromiter((loi.toi_s for loi in lois), dtype=float, count=n)
    run_index = np.fromiter((loi.run_index for loi in lois), dtype=np.int64, count=n)
    execution_index = np.fromiter(
        (loi.execution_index for loi in lois), dtype=np.int64, count=n
    )
    readings = [loi.reading for loi in lois]
    powers: dict[str, np.ndarray] = {}
    masks: dict[str, np.ndarray] = {}
    for component in components:
        column = component_column(readings, component)
        if column is None:
            continue
        values, mask = column
        powers[component] = values
        if mask is not None:
            masks[component] = mask
    return ProfileColumns(time_s, run_index, execution_index, powers, masks)


def profile_from_lois(
    kernel_name: str,
    kind: ProfileKind,
    lois: Sequence[LogOfInterest],
    execution_time_s: float,
    components: Sequence[str] = COMPONENT_KEYS,
    metadata: Mapping[str, object] | None = None,
) -> FineGrainProfile:
    """Build a profile directly from logs of interest (TOI on the x-axis).

    The columns are filled straight from the LOIs; no :class:`ProfilePoint`
    objects are created.  :func:`profile_from_lois_reference` is the retained
    object-based construction, pinned bit-identical by the equivalence tests.
    """
    return FineGrainProfile(
        kernel_name=kernel_name,
        kind=kind,
        execution_time_s=execution_time_s,
        metadata=dict(metadata or {}),
        columns=columns_from_lois(lois, components),
    )


def profile_from_lois_reference(
    kernel_name: str,
    kind: ProfileKind,
    lois: Sequence[LogOfInterest],
    execution_time_s: float,
    components: Sequence[str] = COMPONENT_KEYS,
    metadata: Mapping[str, object] | None = None,
) -> FineGrainProfile:
    """Object-based reference construction (one frozen point per LOI)."""
    points = tuple(point_from_loi(loi, components) for loi in lois)
    return FineGrainProfile(
        kernel_name=kernel_name,
        kind=kind,
        points=points,
        execution_time_s=execution_time_s,
        metadata=dict(metadata or {}),
    )


def measurement_error(
    sse_profile: FineGrainProfile,
    ssp_profile: FineGrainProfile,
    component: str = "total",
) -> float:
    """Relative power/energy error of using the SSE profile instead of SSP.

    The paper quantifies the cost of skipping power-profile differentiation as
    the relative difference between the SSE and SSP profiles (up to 80 % for
    CB-2K-GEMM, about 20 % for CB-8K-GEMM).  Empty profiles are rejected
    explicitly (their statistics are NaN by contract, which would silently
    poison the relative error).
    """
    if sse_profile.is_empty or ssp_profile.is_empty:
        raise ValueError("measurement error needs non-empty SSE and SSP profiles")
    ssp_power = ssp_profile.mean_power_w(component)
    sse_power = sse_profile.mean_power_w(component)
    if ssp_power <= 0:
        raise ValueError("SSP power must be positive to compute a relative error")
    return abs(ssp_power - sse_power) / ssp_power


def idle_normalized(value_w: float, idle_w: float, peak_w: float) -> float:
    """Normalise a power value to the [idle, peak] range (for relative plots)."""
    if peak_w <= idle_w:
        raise ValueError("peak power must exceed idle power")
    return (value_w - idle_w) / (peak_w - idle_w)


__all__ = [
    "ProfileKind",
    "ProfilePoint",
    "ProfileColumns",
    "FineGrainProfile",
    "load_npz_payload",
    "point_from_loi",
    "component_column",
    "columns_from_lois",
    "profile_from_lois",
    "profile_from_lois_reference",
    "measurement_error",
    "idle_normalized",
]
