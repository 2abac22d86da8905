"""Plain-text matrix serialization round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milac import DimensionError, load_matrix, save_matrix
from milac.matio import format_complex


def test_format_complex_repr_round_trip():
    values = [0j, 1 + 2j, -1.5 - 0.25j, 1e-17 + 3j, complex(np.pi, -np.e)]
    for z in values:
        assert complex(format_complex(z)) == z


def test_save_load_exact(tmp_path):
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    path = tmp_path / "m.txt"
    save_matrix(path, M)
    out = load_matrix(path)
    assert out.shape == (4, 3)
    assert np.array_equal(out, M)


def test_save_load_real_matrix(tmp_path):
    M = np.array([[1.0, -2.5], [0.0, 3.25]])
    path = tmp_path / "m.txt"
    save_matrix(path, M)
    assert np.array_equal(load_matrix(path), M.astype(complex))


def test_header_shape(tmp_path):
    path = tmp_path / "m.txt"
    save_matrix(path, np.zeros((2, 5), dtype=complex))
    first = path.read_text().splitlines()[0]
    assert first.split() == ["2", "5"]


@pytest.mark.parametrize("text", [
    "",                              # no header
    "2 2\n1+0j 0+0j\n",              # missing row
    "1 2\n1+0j\n",                   # short row
    "1 1\nnot-a-number\n",           # bad token
    "x y\n",                         # bad header
    "1 2 3\n1+0j 2+0j\n",            # header with three fields
])
def test_malformed_input_raises(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DimensionError):
        load_matrix(path)


def test_save_rejects_non_matrix(tmp_path):
    with pytest.raises(DimensionError, match="2-D"):
        save_matrix(tmp_path / "v.txt", np.ones(3))


complex_entries = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_round_trip_property(tmp_path_factory, rows, cols, data):
    M = np.array([
        [data.draw(complex_entries) for _ in range(cols)]
        for _ in range(rows)
    ])
    path = tmp_path_factory.mktemp("mat") / "m.txt"
    save_matrix(path, M)
    assert np.array_equal(load_matrix(path), M)
