"""Row labels by name for the tests: feature matrices and score sets built
from user and session names, and the names read back from their codes."""

import numpy as np

from hmogkit.matrix import FeatureMatrix, encode
from hmogkit.verify import ScoreSet


def labelled(columns, values, users, sessions, t_ms, table=()) -> FeatureMatrix:
    """A matrix whose rows carry the given user and session names; its
    session table holds their pairs and the (user, session) pairs of table."""
    table, (_, code) = encode(table, list(zip(users, sessions)))
    return FeatureMatrix(tuple(columns), np.asarray(values, dtype=np.float64), code,
                         t_ms, table)


def stacked(parts) -> FeatureMatrix:
    """The rows of every matrix in order, labelled by name, over the union
    of their session tables."""
    return labelled(parts[0].columns, np.concatenate([p.values for p in parts]),
                    np.concatenate([user_ids(p) for p in parts]),
                    np.concatenate([session_ids(p) for p in parts]),
                    np.concatenate([p.t_ms for p in parts]),
                    [pair for p in parts for pair in p.sessions])


def user_ids(fm: FeatureMatrix) -> np.ndarray:
    """(n,) object array of each row's user name."""
    return np.array(fm.user_names, dtype=object)[fm.user]


def session_ids(fm: FeatureMatrix) -> np.ndarray:
    """(n,) object array of each row's session name."""
    return np.array([s for _, s in fm.sessions], dtype=object)[fm.session]


def scores_of(claimed, actual, t_ms, score) -> ScoreSet:
    """A score set of decisions given by user name."""
    users, (claimed, actual) = encode(list(claimed), list(actual))
    return ScoreSet(claimed, actual, t_ms, score, users)


def claimed_ids(scores: ScoreSet) -> np.ndarray:
    return np.array(scores.users, dtype=object)[scores.claimed]


def actual_ids(scores: ScoreSet) -> np.ndarray:
    return np.array(scores.users, dtype=object)[scores.actual]
