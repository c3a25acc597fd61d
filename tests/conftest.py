import warnings

import numpy as np
import pytest
from hypothesis import settings

from polycrit import poly

# property tests draw the same examples on every run and keep no database
settings.register_profile("polycrit", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("polycrit")

# Hypothesis reports a falsifying example through libcst, whose import
# raises a DeprecationWarning from mypy_extensions; under
# filterwarnings = error that import, made while pytest writes the report,
# aborts the whole session.  Importing it here first lets a failing
# property test fail like any other test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


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


def scaled(p, s):
    """p_s(z) = s^n p(z / s): coefficient k times s^(n - k), so the roots,
    the critical points and every distance between them scale by s."""
    n = p.degree
    return poly.Polynomial(tuple(c * s ** (n - k) for k, c in enumerate(p.coeffs)))


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
