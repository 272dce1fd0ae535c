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

    def magnitudes(self) -> np.ndarray:
        return np.sqrt(np.sum(self.values ** 2, axis=1))

    def channel_matrix(self) -> np.ndarray:
        """(n, 4) matrix with columns x, y, z, magnitude."""
        return np.column_stack([self.values, self.magnitudes()])


# Channel order inside channel_matrix and in feature names.
CHANNELS: tuple[str, ...] = ("x", "y", "z", "m")


def downsample(stream: SensorStream, k: int) -> SensorStream:
    """Keep every k-th reading starting at index 0; rate divides by k."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise CorpusError(f"downsample factor must be a positive integer, got {k!r}")
    return SensorStream(
        sensor=stream.sensor,
        nominal_rate_hz=stream.nominal_rate_hz / k,
        t_ms=stream.t_ms[::k].copy(),
        values=stream.values[::k].copy(),
    )


@dataclass
class TapEvent:
    """A touch-down/touch-up interval with its raw screen samples."""

    tap_id: int
    t_start_ms: int
    t_end_ms: int
    t_samples: np.ndarray     # (k,) int64, nondecreasing, inside [start, end]
    xy_px: np.ndarray         # (k, 2) float64
    contact_size: np.ndarray  # (k,) float64, nonnegative

    def __post_init__(self) -> None:
        self.t_samples = np.asarray(self.t_samples, dtype=np.int64)
        self.xy_px = np.asarray(self.xy_px, dtype=np.float64)
        self.contact_size = np.asarray(self.contact_size, dtype=np.float64)
        if self.t_end_ms < self.t_start_ms:
            raise CorpusError(f"tap {self.tap_id}: end before start")
        if len(self.t_samples) == 0:
            raise CorpusError(f"tap {self.tap_id}: zero touch samples")
        if len(self.t_samples) != len(self.xy_px) or len(self.t_samples) != len(self.contact_size):
            raise CorpusError(f"tap {self.tap_id}: sample array length mismatch")
        if np.any(np.diff(self.t_samples) < 0):
            raise CorpusError(f"tap {self.tap_id}: touch samples out of order")
        if self.t_samples[0] < self.t_start_ms or self.t_samples[-1] > self.t_end_ms:
            raise CorpusError(f"tap {self.tap_id}: samples outside tap interval")
        if np.any(self.contact_size < 0):
            raise CorpusError(f"tap {self.tap_id}: negative contact size")

    @property
    def duration_ms(self) -> int:
        return self.t_end_ms - self.t_start_ms


@dataclass(frozen=True)
class KeyEvent:
    key: str
    t_press_ms: int
    t_release_ms: int

    def __post_init__(self) -> None:
        if self.t_release_ms < self.t_press_ms:
            raise CorpusError(f"key {self.key!r}: release before press")

    @property
    def hold_ms(self) -> int:
        return self.t_release_ms - self.t_press_ms


@dataclass
class Session:
    """All recordings of one user session."""

    user_id: str
    session_id: str
    condition: Condition
    streams: dict[Sensor, SensorStream] = field(default_factory=dict)
    taps: list[TapEvent] = field(default_factory=list)
    keys: list[KeyEvent] = field(default_factory=list)

    def validate(self) -> "Session":
        for sensor, stream in self.streams.items():
            if stream.sensor is not sensor:
                raise CorpusError(f"stream keyed {sensor.value} labelled {stream.sensor.value}")
        prev_end = None
        for tap in self.taps:
            if prev_end is not None and tap.t_start_ms <= prev_end:
                raise CorpusError(
                    f"session {self.session_id}: taps overlap or out of order at tap {tap.tap_id}")
            prev_end = tap.t_end_ms
        prev_press = None
        for ev in self.keys:
            if prev_press is not None and ev.t_press_ms < prev_press:
                raise CorpusError(f"session {self.session_id}: key presses out of order")
            prev_press = ev.t_press_ms
        return self
