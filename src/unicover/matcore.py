"""Dense matrix kernels: unitarily invariant norms, exp/log on the unitary
group, eigenphases and principal angles.

Everything here is a pure function on numpy arrays.  The single decomposition
primitive is the complex Hermitian eigendecomposition; the real case is
handled by embedding into the complex case and taking real parts at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Default tolerances: algebraic identities, decomposition-backed claims,
# optimization-backed claims.  Overridable per call.
TOL_ALG = 1e-10
TOL_DECOMP = 1e-8
TOL_OPT = 1e-4

SKEW_TOL = 1e-12
PHASE_BRANCH_TOL = 1e-9


class InvalidArgumentError(ValueError):
    """Input violates a documented precondition (shape, finiteness, symmetry)."""


class BranchAmbiguityError(ValueError):
    """The principal matrix logarithm is ambiguous: an eigenvalue sits at -1."""


def _as_square(x) -> np.ndarray:
    a = np.asarray(x)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidArgumentError("matrix has non-finite entries")
    return a


@dataclass(frozen=True)
class NormSpec:
    """A unitarily invariant matrix norm, given by a symmetric gauge applied
    to the singular values.

    kind is one of "operator", "schatten" (with exponent p >= 1) or "gauge"
    (an arbitrary symmetric gauge supplied as a callback on the singular
    value vector).
    """

    kind: str = "operator"
    p: Optional[float] = None
    gauge_fn: Optional[Callable[[np.ndarray], float]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("operator", "schatten", "gauge"):
            raise InvalidArgumentError(f"unknown norm kind {self.kind!r}")
        if self.kind == "schatten":
            if self.p is None or self.p < 1:
                raise InvalidArgumentError("schatten norm needs p >= 1")
        if self.kind == "gauge" and self.gauge_fn is None:
            raise InvalidArgumentError("gauge norm needs a callback")

    @classmethod
    def operator(cls) -> "NormSpec":
        return cls("operator")

    @classmethod
    def schatten(cls, p: float) -> "NormSpec":
        return cls("schatten", p=float(p))

    @classmethod
    def gauge(cls, fn: Callable[[np.ndarray], float]) -> "NormSpec":
        return cls("gauge", gauge_fn=fn)

    @property
    def is_operator(self) -> bool:
        # schatten(inf) and operator coincide on every matrix
        return self.kind == "operator" or (
            self.kind == "schatten" and np.isinf(self.p)
        )

    def of_singular_values(self, s):
        """Apply the symmetric gauge to a vector of nonnegative reals; a
        stack of vectors is reduced over its last axis, one value per row."""
        s = np.abs(np.asarray(s, dtype=float))
        if self.is_operator:
            out = np.max(s, axis=-1, initial=0.0)
        elif self.kind == "schatten":
            out = np.sum(s ** self.p, axis=-1) ** (1.0 / self.p)
        else:
            # a custom gauge is a scalar callback, so it runs row by row
            out = np.apply_along_axis(self.gauge_fn, -1, s)
        return float(out) if s.ndim == 1 else out


OPERATOR = NormSpec.operator()
FROBENIUS = NormSpec.schatten(2)


def schatten_norm(x, spec: NormSpec = OPERATOR) -> float:
    """Unitarily invariant norm of x: the gauge of spec applied to the
    singular values of x."""
    a = _as_square(x)
    s = np.linalg.svd(a, compute_uv=False)
    return spec.of_singular_values(s)


def opnorm(x) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.norm(np.asarray(x), 2))


def is_skew(x, tol: float = SKEW_TOL) -> bool:
    a = np.asarray(x)
    return bool(np.max(np.abs(a + a.conj().T)) <= tol * max(1.0, np.max(np.abs(a))))


def expm_skew(x, tol: float = SKEW_TOL) -> np.ndarray:
    """Matrix exponential of a skew-Hermitian (or real skew-symmetric) x.

    Computed from the eigendecomposition of the Hermitian matrix -ix; the
    result is unitary by construction.  Real input yields a real
    (special-orthogonal) output.
    """
    a = _as_square(x)
    if not is_skew(a, tol):
        raise InvalidArgumentError("matrix is not skew-Hermitian within tolerance")
    real_input = not np.iscomplexobj(a)
    h = -1j * a.astype(complex)  # Hermitian
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * w)) @ v.conj().T
    if real_input:
        return u.real
    return u


def eigenphases(u, tol: float = TOL_ALG) -> np.ndarray:
    """Phases of the spectrum of a unitary u, each in (-pi, pi], sorted by
    decreasing absolute value.  Ties at phase pi resolve to +pi."""
    a = _as_square(u)
    if opnorm(a.conj().T @ a - np.eye(a.shape[0])) > max(tol, 1e-10):
        raise InvalidArgumentError("matrix is not unitary within tolerance")
    phases = _unitary_phases(a)
    order = np.argsort(-np.abs(phases), kind="stable")
    return phases[order]


def _unitary_phases(u: np.ndarray) -> np.ndarray:
    """Unsorted eigenphases in (-pi, pi] via a complex Schur form (exact
    orthonormal eigenbasis for normal matrices)."""
    from scipy.linalg import schur

    t, _ = schur(u.astype(complex), output="complex")
    phases = np.angle(np.diag(t))
    # np.angle returns [-pi, pi]; fold -pi to the +pi side of the branch cut
    phases = np.where(phases <= -np.pi + 1e-15, np.pi, phases)
    return phases


def logm_unitary(u, branch_tol: float = PHASE_BRANCH_TOL) -> np.ndarray:
    """Principal logarithm of a unitary u: the unique skew x with exp(x) = u
    and operator norm < pi.

    Refuses inputs with an eigenvalue within branch_tol of -1, where the
    principal branch is ambiguous.
    """
    from scipy.linalg import schur

    a = _as_square(u)
    if opnorm(a.conj().T @ a - np.eye(a.shape[0])) > 1e-8:
        raise InvalidArgumentError("matrix is not unitary within tolerance")
    real_input = not np.iscomplexobj(a)
    t, q = schur(a.astype(complex), output="complex")
    phases = np.angle(np.diag(t))
    if np.any(np.pi - np.abs(phases) < branch_tol):
        raise BranchAmbiguityError(
            "eigenvalue at -1: principal logarithm branch is ambiguous"
        )
    x = (q * (1j * phases)) @ q.conj().T
    x = 0.5 * (x - x.conj().T)  # clean up numerical skewness
    if real_input:
        return x.real if opnorm(x.imag) < 1e-9 else x
    return x


def principal_angles(e, f, tol: float = TOL_ALG) -> np.ndarray:
    """Principal angles between the column spans of two orthonormal n-by-k
    frames, in [0, pi/2], sorted descending."""
    ea = np.asarray(e)
    fa = np.asarray(f)
    if ea.ndim != 2 or fa.ndim != 2 or ea.shape != fa.shape:
        raise InvalidArgumentError(
            f"frames must share a shape, got {ea.shape} and {fa.shape}"
        )
    k = ea.shape[1]
    for frame in (ea, fa):
        gram = frame.conj().T @ frame
        if opnorm(gram - np.eye(k)) > max(tol, 1e-10):
            raise InvalidArgumentError("frame columns are not orthonormal")
    s = np.linalg.svd(ea.conj().T @ fa, compute_uv=False)
    angles = np.arccos(np.clip(s, 0.0, 1.0))
    return np.sort(angles)[::-1]
