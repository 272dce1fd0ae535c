"""Canonical in-memory model for sensor, touch, and key recordings.

All timestamps are integer milliseconds relative to session start.
Sub-millisecond sources must be floored before these types are built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class Sensor(str, enum.Enum):
    ACC = "acc"
    GYR = "gyr"
    MAG = "mag"


class Condition(str, enum.Enum):
    SITTING = "sitting"
    WALKING = "walking"


# Fixed sensor order used everywhere a deterministic layout matters.
SENSOR_ORDER: tuple[Sensor, ...] = (Sensor.ACC, Sensor.GYR, Sensor.MAG)


class CorpusError(ValueError):
    """Invalid recording data (bad ordering, malformed rows, broken invariants)."""


@dataclass
class SensorStream:
    """One sensor's time series for one session.

    t_ms must be strictly increasing: duplicate or backwards timestamps
    are construction errors, never silently reordered.
    """

    sensor: Sensor
    nominal_rate_hz: float
    t_ms: np.ndarray          # (n,) int64
    values: np.ndarray        # (n, 3) float64, columns x, y, z

    def __post_init__(self) -> None:
        self.t_ms = np.asarray(self.t_ms, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != 3:
            raise CorpusError(f"values must be (n, 3), got {self.values.shape}")
        if len(self.t_ms) != len(self.values):
            raise CorpusError("t_ms and values length mismatch")
        if self.nominal_rate_hz <= 0:
            raise CorpusError("nominal_rate_hz must be positive")
        if len(self.t_ms) > 1 and not np.all(np.diff(self.t_ms) > 0):
            raise CorpusError(f"{self.sensor.value}: timestamps not strictly increasing")

    def __len__(self) -> int:
        return len(self.t_ms)


# Channel order of the HMOG windows (the axes, then the magnitude) and in
# feature names.
CHANNELS: tuple[str, ...] = ("x", "y", "z", "m")


def downsample(stream: SensorStream, k: int) -> SensorStream:
    """Keep every k-th reading starting at index 0; rate divides by k.

    The values are a read-only strided view of the stream's values, so
    they keep the full-rate buffer alive; a caller who needs a buffer of
    its own copies them. The timestamps are a contiguous copy: searchsorted
    copies a strided array on every call.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise CorpusError(f"downsample factor must be a positive integer, got {k!r}")
    values = stream.values[::k]
    values.flags.writeable = False
    return SensorStream(
        sensor=stream.sensor,
        nominal_rate_hz=stream.nominal_rate_hz / k,
        t_ms=stream.t_ms[::k].copy(),
        values=values,
    )


@dataclass
class TapTable:
    """Touch-down/touch-up intervals with their raw screen samples, one row
    per tap. The samples of tap i are rows offsets[i]:offsets[i + 1] of the
    flat sample arrays; offsets starts at 0 and has one entry more than
    there are taps."""

    tap_id: np.ndarray = ()         # (n,) int64
    t_start_ms: np.ndarray = ()     # (n,) int64
    t_end_ms: np.ndarray = ()       # (n,) int64
    offsets: np.ndarray = (0,)      # (n + 1,) int64, nondecreasing
    t_samples: np.ndarray = ()      # (m,) int64, nondecreasing per tap, inside [start, end]
    xy_px: np.ndarray = ()          # (m, 2) float64
    contact_size: np.ndarray = ()   # (m,) float64, nonnegative

    _FAULTS = ("end before start", "zero touch samples", "touch samples out of order",
               "samples outside tap interval", "negative contact size")

    def __post_init__(self) -> None:
        for name in ("tap_id", "t_start_ms", "t_end_ms", "offsets", "t_samples"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        self.xy_px = np.asarray(self.xy_px, dtype=np.float64).reshape(-1, 2)
        self.contact_size = np.asarray(self.contact_size, dtype=np.float64)
        n, t, counts = len(self.tap_id), self.t_samples, np.diff(self.offsets)
        if not (len(self.t_start_ms) == len(self.t_end_ms) == n == len(self.offsets) - 1
                and self.offsets[0] == 0 and np.all(counts >= 0)
                and len(t) == len(self.xy_px) == len(self.contact_size) == self.offsets[-1]):
            raise CorpusError("taps: column lengths disagree with offsets")
        tap_of = np.repeat(np.arange(n), counts)
        # (check, tap) faults, in the order of _FAULTS
        fault = np.zeros((len(self._FAULTS), n), dtype=bool)
        fault[:2] = self.t_end_ms < self.t_start_ms, counts == 0
        check, sample = np.nonzero([
            (np.diff(t, prepend=t[:1]) < 0) & (np.diff(tap_of, prepend=-1) == 0),
            (t < self.t_start_ms[tap_of]) | (t > self.t_end_ms[tap_of]),
            self.contact_size < 0])
        fault[2 + check, tap_of[sample]] = True
        if fault.any():
            # the first offending tap, by its first failing check
            tap = fault.any(axis=0).argmax()
            raise CorpusError(f"tap {self.tap_id[tap]}: {self._FAULTS[fault[:, tap].argmax()]}")

    def __len__(self) -> int:
        return len(self.tap_id)


@dataclass
class KeyTable:
    """Key presses, one row per press."""

    key: np.ndarray = ()            # (n,) object, key codes as str
    t_press_ms: np.ndarray = ()     # (n,) int64
    t_release_ms: np.ndarray = ()   # (n,) int64

    def __post_init__(self) -> None:
        self.key = np.asarray(self.key, dtype=object)
        self.t_press_ms = np.asarray(self.t_press_ms, dtype=np.int64)
        self.t_release_ms = np.asarray(self.t_release_ms, dtype=np.int64)
        if not len(self.key) == len(self.t_press_ms) == len(self.t_release_ms):
            raise CorpusError("keys: key columns disagree in length")
        early = np.flatnonzero(self.t_release_ms < self.t_press_ms)
        if len(early):
            raise CorpusError(f"key {self.key[early[0]]!r}: release before press")

    def __len__(self) -> int:
        return len(self.key)


@dataclass
class Session:
    """All recordings of one user session."""

    user_id: str
    session_id: str
    condition: Condition
    streams: dict[Sensor, SensorStream] = field(default_factory=dict)
    taps: TapTable = field(default_factory=TapTable)
    keys: KeyTable = field(default_factory=KeyTable)

    def validate(self) -> "Session":
        for sensor, stream in self.streams.items():
            if stream.sensor is not sensor:
                raise CorpusError(f"stream keyed {sensor.value} labelled {stream.sensor.value}")
        taps = self.taps
        overlap = np.flatnonzero(taps.t_start_ms[1:] <= taps.t_end_ms[:-1])
        if len(overlap):
            raise CorpusError(f"session {self.session_id}: taps overlap or out of order"
                              f" at tap {taps.tap_id[overlap[0] + 1]}")
        if np.any(np.diff(self.keys.t_press_ms) < 0):
            raise CorpusError(f"session {self.session_id}: key presses out of order")
        return self
