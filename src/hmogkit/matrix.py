"""Labelled feature matrices shared by all extractors and the pipeline.

Rows are feature vectors tagged with an int32 session code, an index into
the matrix's sorted table of (user_id, session_id) pairs, and a timestamp;
a user's code is its rank among the table's users, so codes sort as names
do. NaN cells mark invalid/missing values and serialize as empty CSV fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .table import write_table


def encode(*names):
    """(table, codes): the sorted distinct entries, and each sequence as int32 codes."""
    table = tuple(sorted(set().union(*names)))
    index = {name: i for i, name in enumerate(table)}
    return table, [np.array([index[name] for name in seq], dtype=np.int32) for seq in names]


@dataclass
class FeatureMatrix:
    columns: tuple[str, ...]
    values: np.ndarray        # (n, d) float64, NaN = missing
    session: np.ndarray       # (n,) int32 row of sessions
    t_ms: np.ndarray          # (n,) int64
    sessions: tuple[tuple[str, str], ...] = ()  # sorted distinct (user_id, session_id)
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        self.columns = tuple(self.columns)
        self.session = np.asarray(self.session, dtype=np.int32)
        self.t_ms = np.asarray(self.t_ms, dtype=np.int64)
        # the row count comes from the labels: with no columns the values
        # cannot tell it
        n = len(self.session)
        values = np.asarray(self.values, dtype=np.float64)
        if not (values.size == n * len(self.columns) and len(self.t_ms) == n):
            raise ValueError("row label arrays disagree with values")
        self.values = values.reshape(n, len(self.columns))
        # the table's users in string order, and each table session's user code
        self.user_names, (self._session_user,) = encode([u for u, _ in self.sessions])

    @property
    def n_rows(self) -> int:
        return len(self.values)

    @property
    def n_features(self) -> int:
        return len(self.columns)

    @property
    def user(self) -> np.ndarray:
        """(n,) int32 code of each row's user in user_names."""
        return self._session_user[self.session]

    def col_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"no feature {name!r}") from None

    def select_columns(self, names) -> "FeatureMatrix":
        idx = [self.col_index(name) for name in names]
        return FeatureMatrix(tuple(names), self.values[:, idx], self.session, self.t_ms,
                             self.sessions)

    def take(self, index) -> "FeatureMatrix":
        index = np.asarray(index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        return FeatureMatrix(self.columns, self.values[index], self.session[index],
                             self.t_ms[index], self.sessions)

    def for_user(self, code: int) -> "FeatureMatrix":
        return self.take(self.user == code)

    def users(self) -> list[int]:
        return np.unique(self.user).tolist()

    @classmethod
    def empty(cls, columns) -> "FeatureMatrix":
        columns = tuple(columns)
        return cls(columns, np.empty((0, len(columns))), np.empty(0, dtype=np.int32),
                   np.empty(0, dtype=np.int64))

    # -- CSV ---------------------------------------------------------------

    def write_csv(self, path: str, header_comments=()) -> None:
        labels = np.array(self.sessions, dtype=object).reshape(-1, 2)[self.session].tolist()
        cells = np.where(np.isnan(self.values), None, self.values).tolist()
        write_table(path, ("user_id", "session_id", "t_ms", *self.columns),
                    ((*label, t, *row) for label, t, row in zip(labels, self.t_ms.tolist(), cells)),
                    header_comments)
