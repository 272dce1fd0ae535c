"""Deterministic synthetic session generator.

Each user is a SynthProfile: per-sensor baseline offsets, tap-impulse
amplitudes with exponential decay, optional periodic gait (walking), and
tap/key timing distributions. The same (profile, seed) pair always yields
byte-identical sessions.

Those bytes depend on the order of each session's draws from its own
generator, so the order is part of the contract:

1. the tap times: a lead-in offset, then per tap its duration and the gap
   to the next, until a tap no longer fits;
2. the tap block: per tap x0, y0, its x-steps, its y-steps and its contact
   sizes, drawn as one block;
3. the keys: a lead-in offset, then per key its letter, hold and gap;
4. per sensor, in SENSOR_ORDER: the (n, 3) noise block, the three gait
   phases when walking, then one jitter per tap whose impulse reaches a
   sample.

The tap and key loops stay sequential because where they stop depends on
their draws; the rest draws in blocks that return the values scalar calls
would, in the same order. tests/oracles.py keeps the per-tap version.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace

import numpy as np

from .types import CONDITIONS, CorpusError, KeyTable, SENSOR_ORDER, SensorStream, Session, TapTable

# canonical 35-key alphabet: 26 letters, 5 layout/control keys, 4 specials
KEY_ALPHABET: tuple[str, ...] = tuple("abcdefghijklmnopqrstuvwxyz") + (
    "shift", "switch", "delete", "done", "return",
    "space", "dot", "comma", "apostrophe",
)

_IMPULSE_TAIL_MS = 400      # impulse support after tap start
_MIN_TAP_GAP_MS = 360       # floor between tap end and next tap start
_SESSION_LEAD_MS = 400      # quiet lead-in before the first tap


def _arr(shape, value):
    out = np.zeros(shape)
    out[...] = value
    return out


@dataclass(frozen=True)
class SynthProfile:
    """Generative parameters for one user.

    Array fields are indexed [sensor, axis] with sensors ordered acc, gyr,
    mag and axes x, y, z. A profile checks itself when it is built.
    """

    user_id: str
    condition: str = "sitting"
    sessions: int = 4
    session_seconds: float = 300.0
    sample_rate_hz: float = 100.0
    base_offset: np.ndarray = field(default_factory=lambda: _arr((3, 3), 0.0))
    noise_sd: np.ndarray = field(default_factory=lambda: np.array([0.08, 0.02, 0.3]))
    impulse_amp: np.ndarray = field(default_factory=lambda: _arr((3, 3), 0.0))
    impulse_decay_ms: float = 40.0
    gait_amp: np.ndarray = field(default_factory=lambda: _arr((3, 3), 0.0))
    gait_freq_hz: float = 1.9
    tap_rate_hz: float = 1.5
    tap_duration_mean_ms: float = 95.0
    tap_duration_sd_ms: float = 12.0
    touch_sample_step_ms: int = 10
    contact_size_mean: float = 0.45
    contact_size_sd: float = 0.04
    tap_center_px: tuple[float, float] = (540.0, 960.0)
    tap_spread_px: float = 120.0
    key_rate_hz: float = 1.0
    key_hold_mean_ms: float = 90.0
    key_hold_sd_ms: float = 14.0
    key_style: float = 0.0

    def __post_init__(self) -> None:
        if self.condition not in CONDITIONS:
            raise CorpusError(f"unknown condition {self.condition!r}")
        if self.sessions < 1:
            raise CorpusError("sessions must be >= 1")
        if self.session_seconds <= 0 or self.sample_rate_hz <= 0:
            raise CorpusError("session length and sample rate must be positive")
        if not np.isfinite(self.session_seconds):
            raise CorpusError("session length must be finite")
        if self.impulse_decay_ms <= 0 or self.tap_duration_mean_ms <= 0:
            raise CorpusError("impulse decay and tap duration must be positive")
        if self.tap_rate_hz < 0 or self.key_rate_hz < 0:
            raise CorpusError("event rates must be nonnegative")
        if self.touch_sample_step_ms < 1:
            raise CorpusError("touch sample step must be >= 1 ms")


def _tap_times(profile: SynthProfile, duration_ms: int, rng: np.random.Generator):
    """Tap (start, end) pairs leaving room for the 100 ms / 200 ms context."""
    if profile.tap_rate_hz == 0:
        return []
    mean_cycle = 1000.0 / profile.tap_rate_hz
    taps = []
    t = _SESSION_LEAD_MS + int(rng.uniform(0, mean_cycle))
    while True:
        dur = int(min(max(rng.normal(profile.tap_duration_mean_ms, profile.tap_duration_sd_ms),
                          30), 340))
        if t + dur + 300 >= duration_ms:
            break
        taps.append((t, t + dur))
        cycle = max(dur + _MIN_TAP_GAP_MS, rng.normal(mean_cycle, 0.25 * mean_cycle))
        t = t + int(cycle)
    return taps


def _make_taps(profile: SynthProfile, times, rng: np.random.Generator) -> TapTable:
    starts, ends = np.array(times, dtype=np.int64).reshape(-1, 2).T
    step = profile.touch_sample_step_ms
    counts = (ends - starts) // step + 1
    offsets = np.concatenate([[0], np.cumsum(counts)])
    n, m = len(starts), offsets[-1]
    # sample j of tap i is at starts[i] + step * (j - offsets[i])
    t = np.repeat(starts - step * offsets[:-1], counts) + step * np.arange(m)
    # tap i draws x0, y0, then k x-steps, k y-steps and k sizes (k = counts[i]),
    # so its draws start at 2 * i + 3 * offsets[i]. Draw j of the block is
    # normal(loc[j], scale[j]): the same C routine, so the same value, as the
    # scalar call it replaces
    first = 2 * np.arange(n) + 3 * offsets[:-1]
    x_step = np.repeat(first + 2 - offsets[:-1], counts) + np.arange(m)
    y_step = x_step + np.repeat(counts, counts)
    size_at = y_step + np.repeat(counts, counts)
    loc, scale = np.zeros(2 * n + 3 * m), np.full(2 * n + 3 * m, 0.7)
    scale[first] = scale[first + 1] = profile.tap_spread_px
    loc[size_at], scale[size_at] = profile.contact_size_mean, profile.contact_size_sd
    draws = rng.normal(loc, scale)
    origin = np.array(profile.tap_center_px) + draws[first[:, None] + [0, 1]]
    steps = draws[np.column_stack([x_step, y_step])]
    # tap i's steps open row i of one zero-padded (taps, longest, 2) array;
    # cumsum runs sequentially along axis 1, so each tap's running sum is the
    # one a 1-D cumsum over its own steps gives, and no padding enters it
    inside = np.arange(counts.max(initial=0)) < counts[:, None]
    padded = np.zeros(inside.shape + (2,))
    padded[inside] = steps
    xy = (origin[:, None] + np.cumsum(padded, axis=1))[inside]
    return TapTable(tap_id=np.arange(n), t_start_ms=starts, t_end_ms=ends,
                    offsets=offsets, t_samples=t, xy_px=xy,
                    contact_size=np.clip(draws[size_at], 0.01, 2.0))


def _key_hold_offset(profile: SynthProfile, key_index: int) -> float:
    # stable per-user per-key habit, no extra rng state needed
    return 18.0 * np.sin(profile.key_style + 0.9 * key_index)


def _make_keys(profile: SynthProfile, duration_ms: int, rng: np.random.Generator) -> KeyTable:
    if profile.key_rate_hz == 0:
        return KeyTable()
    weights = np.exp(0.9 * np.sin(profile.key_style + 2.3 * np.arange(len(KEY_ALPHABET))))
    weights /= weights.sum()
    # rng.choice(len(KEY_ALPHABET), p=weights) draws one uniform and finds it
    # in this cdf with searchsorted(side="right"); bisect_right is the same search
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    hold_mean = [profile.key_hold_mean_ms + _key_hold_offset(profile, i)
                 for i in range(len(KEY_ALPHABET))]
    mean_gap = 1000.0 / profile.key_rate_hz
    keys, press, release = [], [], []
    t = 200 + int(rng.uniform(0, mean_gap))
    while t < duration_ms - 500:
        idx = bisect.bisect_right(cdf, rng.random())
        hold = min(max(rng.normal(hold_mean[idx], profile.key_hold_sd_ms), 20), 400)
        keys.append(KEY_ALPHABET[idx])
        press.append(t)
        release.append(t + int(hold))
        t += max(120, int(rng.normal(mean_gap, 0.3 * mean_gap)))
    return KeyTable(key=keys, t_press_ms=press, t_release_ms=release)


def _make_streams(profile: SynthProfile, duration_ms: int, tap_starts: np.ndarray,
                  rng: np.random.Generator) -> dict[str, SensorStream]:
    step = 1000.0 / profile.sample_rate_hz
    n = int(duration_ms / step)
    t = np.floor(np.arange(n) * step).astype(np.int64)
    # the samples each tap's impulse reaches, in tap order; a tap reaching
    # none draws no jitter
    i0 = np.searchsorted(t, tap_starts, side="left")
    lengths = np.searchsorted(t, tap_starts + _IMPULSE_TAIL_MS, side="right") - i0
    hit = lengths > 0
    i0, lengths = i0[hit], lengths[hit]
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    rows = np.repeat(i0 - bounds[:-1], lengths) + np.arange(bounds[-1])
    decay = np.exp(-((t[rows] - np.repeat(tap_starts[hit], lengths)) / profile.impulse_decay_ms))
    streams = {}
    for s_idx, sensor in enumerate(SENSOR_ORDER):
        values = profile.base_offset[s_idx] + rng.normal(0, profile.noise_sd[s_idx], (n, 3))
        if profile.condition == "walking":
            phase = rng.uniform(0, 2 * np.pi, 3)
            wave = np.sin(2 * np.pi * profile.gait_freq_hz * (t[:, None] / 1000.0) + phase)
            values = values + profile.gait_amp[s_idx] * wave
        jitter = 1.0 + rng.normal(0, 0.08, len(lengths))
        # impulse tails overlap; add.at adds them in tap order
        np.add.at(values, rows,
                  (np.repeat(jitter, lengths) * decay)[:, None] * profile.impulse_amp[s_idx])
        streams[sensor] = SensorStream(nominal_rate_hz=profile.sample_rate_hz,
                                       t_ms=t, values=values)
    return streams


def synthesize_user(profile: SynthProfile,
                    seed: int | np.random.SeedSequence) -> list[Session]:
    """Generate profile.sessions sessions; deterministic in (profile, seed)."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    sessions = []
    for s_idx, child in enumerate(ss.spawn(profile.sessions)):
        rng = np.random.default_rng(child)
        duration_ms = int(profile.session_seconds * 1000)
        times = _tap_times(profile, duration_ms, rng)
        taps = _make_taps(profile, times, rng)
        keys = _make_keys(profile, duration_ms, rng)
        streams = _make_streams(profile, duration_ms, taps.t_start_ms, rng)
        sessions.append(Session(
            user_id=profile.user_id,
            session_id=f"s{s_idx + 1:02d}",
            condition=profile.condition,
            streams=streams,
            taps=taps,
            keys=keys,
        ))
    return sessions


def make_profiles(n_users: int, condition: str, seed: int, *,
                  separation: float = 1.0, **overrides) -> list[SynthProfile]:
    """Draw n distinct user profiles; deterministic in (n_users, condition, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    profiles = []
    for u in range(n_users):
        tilt = rng.normal(0, 0.12 * separation, 3) + np.array([0.0, 0.0, 1.0])
        tilt /= np.linalg.norm(tilt)
        base = np.zeros((3, 3))
        base[0] = 9.81 * tilt                                  # acc: gravity through grip tilt
        base[1] = rng.normal(0, 0.02 * separation, 3)          # gyr: drift
        base[2] = np.array([20.0, 5.0, 40.0]) + rng.normal(0, 4.0 * separation, 3)
        amp = np.zeros((3, 3))
        amp[0] = rng.uniform(0.6, 2.4, 3) * rng.choice([-1, 1], 3) * separation
        amp[1] = rng.uniform(0.12, 0.5, 3) * rng.choice([-1, 1], 3) * separation
        amp[2] = rng.uniform(0.05, 0.2, 3) * rng.choice([-1, 1], 3) * separation
        gait = np.zeros((3, 3))
        gait[0] = rng.uniform(0.6, 1.8, 3) * separation
        gait[1] = rng.uniform(0.15, 0.7, 3) * separation
        gait[2] = rng.uniform(0.02, 0.1, 3)
        profile = SynthProfile(
            user_id=f"u{u + 1:02d}",
            condition=condition,
            base_offset=base,
            noise_sd=np.array([0.10, 0.025, 0.35]),
            impulse_amp=amp,
            impulse_decay_ms=float(rng.uniform(28, 60)),
            gait_amp=gait,
            gait_freq_hz=float(rng.uniform(1.6, 2.3)),
            tap_rate_hz=float(rng.uniform(1.4, 1.9)),
            tap_duration_mean_ms=float(rng.uniform(210, 250)),
            tap_duration_sd_ms=float(rng.uniform(18, 30)),
            contact_size_mean=float(rng.uniform(0.30, 0.62)),
            contact_size_sd=float(rng.uniform(0.02, 0.05)),
            tap_spread_px=float(rng.uniform(80, 160)),
            key_rate_hz=float(rng.uniform(0.8, 1.4)),
            key_hold_mean_ms=float(rng.uniform(70, 130)),
            key_hold_sd_ms=float(rng.uniform(8, 18)),
            key_style=float(rng.uniform(0, 2 * np.pi)),
        )
        profiles.append(replace(profile, **overrides) if overrides else profile)
    return profiles


def make_corpus(profiles: list[SynthProfile], seed: int) -> list[Session]:
    """Synthesize every profile; per-user streams are decoupled."""
    ss = np.random.SeedSequence(seed)
    sessions: list[Session] = []
    for child, profile in zip(ss.spawn(len(profiles)), profiles):
        sessions.extend(synthesize_user(profile, child))
    return sessions
