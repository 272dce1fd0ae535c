"""Labelled feature matrices shared by all extractors and the pipeline.

Rows are feature vectors tagged with user, session, and timestamp; NaN
cells mark invalid/missing values and serialize as empty CSV fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .table import write_table


@dataclass
class FeatureMatrix:
    columns: tuple[str, ...]
    values: np.ndarray        # (n, d) float64, NaN = missing
    user_ids: np.ndarray      # (n,) object
    session_ids: np.ndarray   # (n,) object
    t_ms: np.ndarray          # (n,) int64
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        self.columns = tuple(self.columns)
        self.user_ids = np.asarray(self.user_ids, dtype=object)
        self.session_ids = np.asarray(self.session_ids, dtype=object)
        self.t_ms = np.asarray(self.t_ms, dtype=np.int64)
        # the row count comes from the labels: with no columns the values
        # cannot tell it
        n = len(self.user_ids)
        values = np.asarray(self.values, dtype=np.float64)
        if not (values.size == n * len(self.columns) and len(self.session_ids) == n
                and len(self.t_ms) == n):
            raise ValueError("row label arrays disagree with values")
        self.values = values.reshape(n, len(self.columns))

    @property
    def n_rows(self) -> int:
        return len(self.values)

    @property
    def n_features(self) -> int:
        return len(self.columns)

    def col_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"no feature {name!r}") from None

    def select_columns(self, names) -> "FeatureMatrix":
        idx = [self.col_index(name) for name in names]
        return FeatureMatrix(tuple(names), self.values[:, idx],
                             self.user_ids, self.session_ids, self.t_ms)

    def take(self, index) -> "FeatureMatrix":
        index = np.asarray(index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        return FeatureMatrix(self.columns, self.values[index], self.user_ids[index],
                             self.session_ids[index], self.t_ms[index])

    def for_user(self, user_id: str) -> "FeatureMatrix":
        return self.take(self.user_ids == user_id)

    def users(self) -> list[str]:
        return sorted(set(self.user_ids.tolist()))

    @classmethod
    def empty(cls, columns) -> "FeatureMatrix":
        columns = tuple(columns)
        return cls(columns, np.empty((0, len(columns))), np.empty(0, dtype=object),
                   np.empty(0, dtype=object), np.empty(0, dtype=np.int64))

    @classmethod
    def vstack(cls, parts: list["FeatureMatrix"]) -> "FeatureMatrix":
        if not parts:
            raise ValueError("nothing to stack")
        columns = parts[0].columns
        for part in parts[1:]:
            if part.columns != columns:
                raise ValueError("column mismatch in vstack")
        return cls(
            columns,
            np.vstack([p.values for p in parts]),
            np.concatenate([p.user_ids for p in parts]),
            np.concatenate([p.session_ids for p in parts]),
            np.concatenate([p.t_ms for p in parts]),
        )

    # -- CSV ---------------------------------------------------------------

    def write_csv(self, path: str, header_comments=()) -> None:
        cells = np.where(np.isnan(self.values), None, self.values).tolist()
        write_table(path, ("user_id", "session_id", "t_ms", *self.columns),
                    ((user, session, t, *row) for user, session, t, row in zip(
                        self.user_ids.tolist(), self.session_ids.tolist(),
                        self.t_ms.tolist(), cells)),
                    header_comments)
