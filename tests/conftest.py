"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the code paths of the library: matrix
exponentials via truncated Taylor series, eigenphases via polynomial roots,
principal angles via scipy's independent implementation.
"""

import numpy as np
import pytest

from unicover.entropy import MARGIN


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def taylor_expm(x, terms: int = 40) -> np.ndarray:
    """Truncated Taylor series for the matrix exponential; accurate to
    machine precision for the small-norm matrices used in tests."""
    x = np.asarray(x)
    acc = np.eye(x.shape[0], dtype=complex)
    term = np.eye(x.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ x / k
        acc = acc + term
    return acc


def charpoly_phases(u) -> np.ndarray:
    """Eigenphases via the roots of the characteristic polynomial — fully
    independent of the eigh/schur paths used by the library."""
    coeffs = np.poly(np.asarray(u, dtype=complex))
    roots = np.roots(coeffs)
    return np.sort(np.angle(roots))


def random_skew(n, rng, complex_=True):
    if complex_:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        a = rng.standard_normal((n, n)).astype(float)
    return 0.5 * (a - a.conj().T)


def cuts(space, epsilon):
    """The thresholds the packing loop compares a pair's bounds on sin^2(d / w)
    with at epsilon: an upper bound at most near puts the pair within
    epsilon, a lower bound above far puts it beyond."""
    s = space.bracket.sin2(epsilon)
    return s - MARGIN, s + MARGIN
