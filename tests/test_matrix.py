import csv

import numpy as np
import pytest

from hmogkit.matrix import FeatureMatrix


def make_fm(values, users=None, sessions=None, t=None, columns=None):
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    return FeatureMatrix(
        columns or tuple(f"f{i}" for i in range(values.shape[1])),
        values,
        np.array(users or ["u1"] * n, dtype=object),
        np.array(sessions or ["s1"] * n, dtype=object),
        np.array(t if t is not None else range(n), dtype=np.int64),
    )


def test_select_columns_reorders():
    fm = make_fm([[1.0, 2.0, 3.0]], columns=("a", "b", "c"))
    sub = fm.select_columns(["c", "a"])
    assert sub.columns == ("c", "a")
    np.testing.assert_array_equal(sub.values, [[3.0, 1.0]])


def test_col_and_unknown_column():
    fm = make_fm([[1.0, 2.0], [3.0, 4.0]], columns=("a", "b"))
    np.testing.assert_array_equal(fm.select_columns(["b"]).values[:, 0], [2.0, 4.0])
    with pytest.raises(KeyError):
        fm.col_index("zz")
    with pytest.raises(KeyError):
        fm.select_columns(["a", "zz"])


def test_take_bool_and_index():
    fm = make_fm([[1.0], [2.0], [3.0]], users=["u1", "u2", "u1"])
    np.testing.assert_array_equal(fm.take([2, 0]).values[:, 0], [3.0, 1.0])
    np.testing.assert_array_equal(
        fm.take(fm.user_ids == "u1").values[:, 0], [1.0, 3.0])
    assert fm.for_user("u2").n_rows == 1


def test_users_sessions_sorted():
    fm = make_fm([[1.0]] * 4, users=["b", "a", "b", "a"],
                 sessions=["s2", "s1", "s1", "s2"])
    assert fm.users() == ["a", "b"]


def test_vstack():
    a = make_fm([[1.0, 2.0]])
    b = make_fm([[3.0, 4.0]], users=["u2"])
    out = FeatureMatrix.vstack([a, b])
    assert out.n_rows == 2
    assert list(out.user_ids) == ["u1", "u2"]
    with pytest.raises(ValueError):
        FeatureMatrix.vstack([])


def test_vstack_rejects_column_mismatch():
    a = make_fm([[1.0]], columns=("a",))
    b = make_fm([[1.0]], columns=("b",))
    with pytest.raises(ValueError):
        FeatureMatrix.vstack([a, b])


def test_empty():
    fm = FeatureMatrix.empty(("a", "b"))
    assert fm.n_rows == 0 and fm.n_features == 2


def test_zero_columns_take_rows_from_labels():
    fm = FeatureMatrix.empty(())
    assert fm.n_rows == 0 and fm.n_features == 0
    assert fm.values.shape == (0, 0)
    fm = make_fm(np.empty((3, 0)), columns=())
    assert fm.n_rows == 3 and fm.values.shape == (3, 0)
    assert fm.take([2]).n_rows == 1
    with pytest.raises(ValueError, match="disagree"):
        FeatureMatrix((), np.empty((3, 0)), ["u1"] * 3, ["s1"] * 2, [0, 1, 2])


def read_back(path):
    """Header and rows of a written matrix CSV, comment lines skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
    assert header[:3] == ["user_id", "session_id", "t_ms"]
    values = np.array([[float(c) if c else np.nan for c in row[3:]] for row in rows])
    return tuple(header[3:]), values, np.array([int(row[2]) for row in rows])


def test_csv_roundtrip_with_nan(tmp_path):
    fm = make_fm([[1.5, np.nan], [np.nan, -2.25]], users=["u1", "u2"],
                 sessions=["s1", "s1"], t=[10, 20])
    path = tmp_path / "m.csv"
    fm.write_csv(str(path), ["config_hash=abc", "seed=7"])
    text = path.read_text()
    assert text.startswith("# config_hash=abc\n# seed=7\n")
    assert "np.float64" not in text
    columns, values, t_ms = read_back(path)
    assert columns == fm.columns
    np.testing.assert_array_equal(t_ms, fm.t_ms)
    np.testing.assert_array_equal(np.isnan(values), np.isnan(fm.values))
    assert values[0, 0] == 1.5 and values[1, 1] == -2.25


def test_csv_roundtrip_exact_floats(tmp_path):
    rng = np.random.default_rng(5)
    fm = make_fm(rng.normal(size=(20, 3)))
    path = tmp_path / "m.csv"
    fm.write_csv(str(path))
    np.testing.assert_array_equal(read_back(path)[1], fm.values)
