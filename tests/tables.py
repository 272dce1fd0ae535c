"""Tap and key tables for test fixtures, built from one tuple per event,
and the tap table read back one tuple per tap for the per-tap oracles."""

from dataclasses import fields

import numpy as np

from hmogkit.corpus.types import KeyTable, TapTable


def tap_table(taps) -> TapTable:
    """TapTable of (tap_id, t_start_ms, t_end_ms, t_samples, xy_px,
    contact_size) tuples, one per tap."""
    if not taps:
        return TapTable()
    ids, starts, ends, t, xy, size = zip(*taps)
    return TapTable(tap_id=ids, t_start_ms=starts, t_end_ms=ends,
                    offsets=np.cumsum([0] + [len(samples) for samples in t]),
                    t_samples=np.concatenate(t), xy_px=np.concatenate(xy),
                    contact_size=np.concatenate(size))


def tap_rows(taps: TapTable):
    """(tap_id, t_start_ms, t_end_ms, t_samples, xy_px, contact_size) per tap."""
    for i in range(len(taps)):
        rows = slice(taps.offsets[i], taps.offsets[i + 1])
        yield (int(taps.tap_id[i]), int(taps.t_start_ms[i]), int(taps.t_end_ms[i]),
               taps.t_samples[rows], taps.xy_px[rows], taps.contact_size[rows])


def key_table(keys) -> KeyTable:
    """KeyTable of (key, t_press_ms, t_release_ms) tuples, one per press."""
    key, press, release = zip(*keys) if keys else ((), (), ())
    return KeyTable(key=key, t_press_ms=press, t_release_ms=release)


def table_equal(a, b) -> bool:
    """Every column of two tap tables, or of two key tables, equal."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
