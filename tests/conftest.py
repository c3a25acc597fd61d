import numpy as np
import pytest

from polycrit import poly


def disk_points(rng, n, min_sep=0.0, max_mod=1.0):
    """polycrit.poly.disk_points scaled to the disk of radius max_mod,
    redrawn until pairwise separations exceed min_sep."""
    while True:
        arr = max_mod * poly.disk_points(rng, n)
        if min_sep == 0.0:
            return arr
        d = np.abs(arr[:, None] - arr[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > min_sep:
            return arr


def roots_of_unity(n, radius=1.0, phase=0.0):
    return radius * np.exp(1j * (2 * np.pi * np.arange(n) / n + phase))


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
