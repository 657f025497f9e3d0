"""Dense matrix kernels: unitarily invariant norms, exp/log on the unitary
group, eigenphases and principal angles.

Everything here is a pure function on numpy arrays.  Eigenphases come from
batched eigvals, the exponential from the complex Hermitian eigendecomposition
(real input taken through the complex case), norms and principal angles from
singular values; only logm_unitary, which needs eigenvectors, uses a Schur form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Tolerance of algebraic identities: unitarity, orthonormal frames.
TOL_ALG = 1e-10

SKEW_TOL = 1e-12
PHASE_BRANCH_TOL = 1e-9


class InvalidArgumentError(ValueError):
    """Input violates a documented precondition (shape, finiteness, symmetry)."""


class BranchAmbiguityError(ValueError):
    """The principal matrix logarithm is ambiguous: an eigenvalue sits at -1."""


def _as_square(x, stack: bool = False) -> np.ndarray:
    """x as an array of one square matrix or, with stack, of shape
    (..., n, n); finite entries."""
    a = np.asarray(x)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
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
        # the ndarray methods, not np.max and np.sum: the same reductions
        # without the wrappers' dispatch, which shows in the coset search
        if self.is_operator:
            out = s.max(axis=-1, initial=0.0)
        elif self.kind == "schatten":
            out = (s ** self.p).sum(axis=-1) ** (1.0 / self.p)
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


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def opnorm(x):
    """Operator (spectral) norm; a stack of shape (..., m, n) gives an array
    of one norm per matrix."""
    out = np.linalg.norm(np.asarray(x), 2, axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def is_skew(x, tol: float = SKEW_TOL) -> bool:
    """Whether x, or every matrix of a stack x, is skew within tol times the
    larger of 1 and its own largest entry."""
    a = np.asarray(x)
    axes = (-2, -1)
    scale = np.maximum(1.0, np.max(np.abs(a), axis=axes))
    return bool(np.all(np.max(np.abs(a + _adjoint(a)), axis=axes) <= tol * scale))


def expm_skew(x) -> np.ndarray:
    """Matrix exponential of a skew-Hermitian (or real skew-symmetric) x,
    or of each matrix of a stack of shape (..., n, n).

    Computed from the eigendecomposition of the Hermitian matrix -ix; the
    result is unitary by construction.  Real input yields a real
    (special-orthogonal) output.  A stack is validated once, as a whole,
    and each of its matrices gives the same bits as its own call.
    """
    a = _as_square(x, stack=True)
    if not is_skew(a):
        raise InvalidArgumentError("matrix is not skew-Hermitian within tolerance")
    real_input = not np.iscomplexobj(a)
    h = -1j * a.astype(complex)  # Hermitian
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * w)[..., np.newaxis, :]) @ _adjoint(v)
    if real_input:
        return u.real
    return u


def eigenphases(u) -> np.ndarray:
    """Phases of the spectrum of a unitary u, each in (-pi, pi], sorted by
    decreasing absolute value.  Ties at phase pi resolve to +pi."""
    a = _as_square(u)
    if opnorm(a.conj().T @ a - np.eye(a.shape[0])) > TOL_ALG:
        raise InvalidArgumentError("matrix is not unitary within tolerance")
    phases = np.angle(np.linalg.eigvals(a))
    # np.angle returns [-pi, pi]; fold -pi to the +pi side of the branch cut
    phases = np.where(phases <= -np.pi + 1e-15, np.pi, phases)
    order = np.argsort(-np.abs(phases), kind="stable")
    return phases[order]


def _phase_dists(a: np.ndarray, b: np.ndarray, norm: NormSpec) -> np.ndarray:
    """Intrinsic distances between the unitaries of two broadcast-compatible
    stacks a and b: the gauge of the eigenphases of each a* b, from one
    batched eigvals; two single matrices give a float."""
    w = np.einsum("...ji,...jl->...il", a.conj(), b)
    return norm.of_singular_values(np.angle(np.linalg.eigvals(w)))


def logm_unitary(u) -> np.ndarray:
    """Principal logarithm of a unitary u: the unique skew x with exp(x) = u
    and operator norm < pi.

    Refuses inputs with an eigenvalue within PHASE_BRANCH_TOL of -1, where
    the principal branch is ambiguous.
    """
    from scipy.linalg import schur

    a = _as_square(u)
    if opnorm(a.conj().T @ a - np.eye(a.shape[0])) > 1e-8:
        raise InvalidArgumentError("matrix is not unitary within tolerance")
    real_input = not np.iscomplexobj(a)
    t, q = schur(a.astype(complex), output="complex")
    phases = np.angle(np.diag(t))
    if np.any(np.pi - np.abs(phases) < PHASE_BRANCH_TOL):
        raise BranchAmbiguityError(
            "eigenvalue at -1: principal logarithm branch is ambiguous"
        )
    x = (q * (1j * phases)) @ q.conj().T
    x = 0.5 * (x - x.conj().T)  # clean up numerical skewness
    if real_input:
        return x.real if opnorm(x.imag) < 1e-9 else x
    return x


def principal_angles(e, f) -> np.ndarray:
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
        if opnorm(gram - np.eye(k)) > TOL_ALG:
            raise InvalidArgumentError("frame columns are not orthonormal")
    s = np.linalg.svd(ea.conj().T @ fa, compute_uv=False)
    angles = np.arccos(np.clip(s, 0.0, 1.0))
    return np.sort(angles)[::-1]
