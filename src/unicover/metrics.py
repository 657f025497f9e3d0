"""Extrinsic, intrinsic and quotient distances on U(n), SO(n) and their
homogeneous spaces; curve length and one-parameter-subgroup geodesics.

The intrinsic metric induced by a unitarily invariant norm evaluates, on the
group, to the gauge of the eigenphase vector of u*v (principal branch).  On a
quotient the distance is exact, in every such norm, where a closed form
exists (trivial subgroup, Grassmann, the determinant circle of U(n)/SU(n));
elsewhere only an upper bound is certified, by local search over the fibre.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .matcore import (
    OPERATOR,
    BranchAmbiguityError,
    InvalidArgumentError,
    NormSpec,
    expm_skew,
    logm_unitary,
    principal_angles,
    schatten_norm,
    _unitary_phases,
)
from .groups import (
    GroupElement,
    HomSpace,
    _mat,
    component_basis,
    _project_H_mat,
)


def extrinsic_dist(u, v, norm: NormSpec = OPERATOR) -> float:
    """Norm distance ||u - v|| inherited from the matrix algebra."""
    a, b = _mat(u), _mat(v)
    if a.shape != b.shape:
        raise InvalidArgumentError("size mismatch")
    return schatten_norm(a - b, norm)


def intrinsic_dist(
    u, v, norm: NormSpec = OPERATOR, branch_tol: float = 1e-9
) -> float:
    """Geodesic distance: the gauge of the principal-log eigenphases of u*v.

    For the operator norm the value at the branch boundary (eigenvalue -1)
    is still well-defined by continuity; for any other norm an eigenvalue
    at -1 raises, since the minimizing log branch is then norm-dependent.
    """
    a, b = _mat(u), _mat(v)
    if a.shape != b.shape:
        raise InvalidArgumentError("size mismatch")
    w = a.conj().T @ b
    phases = _unitary_phases(w)
    if not norm.is_operator and np.any(np.pi - np.abs(phases) < branch_tol):
        raise BranchAmbiguityError(
            "eigenvalue at -1: intrinsic distance branch is norm-dependent"
        )
    return norm.of_singular_values(np.abs(phases))


@dataclass(frozen=True)
class Curve:
    """Polygonal curve: sample points joined by geodesic segments.

    Consecutive samples must be closer than pi/2 so each joining geodesic is
    unambiguous.
    """

    points: Sequence = field()
    times: Optional[Sequence[float]] = None

    def __post_init__(self):
        pts = [_mat(p) for p in self.points]
        if len(pts) < 1:
            raise InvalidArgumentError("curve needs at least one point")
        times = self.times
        if times is None:
            k = len(pts)
            times = tuple(np.linspace(0.0, 1.0, k)) if k > 1 else (0.0,)
        if len(times) != len(pts):
            raise InvalidArgumentError("times and points must align")
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "times", tuple(float(t) for t in times))


def curve_length(curve: Curve, norm: NormSpec = OPERATOR) -> float:
    """Length of the polygonal geodesic interpolant: the sum of intrinsic
    distances between consecutive samples."""
    total = 0.0
    pts = curve.points
    for a, b in zip(pts[:-1], pts[1:]):
        gap = intrinsic_dist(a, b, OPERATOR)
        if gap >= np.pi / 2:
            raise InvalidArgumentError(
                f"consecutive samples {gap:.4f} apart; need < pi/2"
            )
        total += intrinsic_dist(a, b, norm)
    return total


def geodesic_point(u, x, t: float):
    """The point u exp(t x) on the one-parameter-subgroup coset through u."""
    return _mat(u) @ expm_skew(t * _mat(x))


def grassmann_dist(e, f, norm: NormSpec = OPERATOR) -> float:
    """Distance between subspaces: the gauge applied to the principal-angle
    vector (operator norm: the largest principal angle).

    This equals the quotient metric of the Grassmannian only in the
    operator norm; in other norms the quotient metric takes each of the
    largest angles twice (see quotient_dist_upper)."""
    angles = principal_angles(e, f)
    return norm.of_singular_values(angles)


@dataclass(frozen=True)
class CosetPoint:
    """A point of M = G/H, stored as a group representative."""

    representative: GroupElement
    space: HomSpace

    def same_coset(self, other: "CosetPoint", tol: float = 1e-6) -> bool:
        return quotient_dist_upper(self, other) <= tol


def _closed_form_dists(
    space: HomSpace, a: np.ndarray, stack: np.ndarray
) -> Optional[np.ndarray]:
    """Exact quotient distances, in the norm of the space, from the
    representative a to each representative in stack (shape (m, n, n));
    None when the subgroup has no closed form (tensor factors, three or
    more blocks).

    Each value is the gauge of the singular values of the shortest
    logarithm that joins the two cosets:
    - trivial: the eigenphases of a* b;
    - grassmann(k): the min(k, n - k) largest principal angles between the
      k-frames, each taken twice (the complement element rotating one
      subspace onto the other has these singular values);
    - special: (phi / n)(1, ..., 1), phi the principal phase of det(a* b),
      spread evenly by a scalar.
    """
    sub = space.subgroup
    norm = space.norm
    n = space.n
    if sub.kind == "trivial":
        w = np.einsum("ji,kjl->kil", a.conj(), stack)
        return norm.of_singular_values(np.angle(np.linalg.eigvals(w)))
    if sub.kind == "grassmann":
        k = sub.k
        gram = np.einsum("ji,kjl->kil", a[:, :k].conj(), stack[:, :, :k])
        s = np.linalg.svd(gram, compute_uv=False)
        # s descends, so the largest angles come from its tail; past
        # k = n / 2 the first 2k - n cosines are one
        angles = np.arccos(np.clip(s[:, max(0, 2 * k - n):], 0.0, 1.0))
        return norm.of_singular_values(np.repeat(angles, 2, axis=1))
    if sub.kind == "special":
        w = np.einsum("ji,kjl->kil", a.conj(), stack)
        phi = np.angle(np.linalg.det(w))
        return np.abs(phi) / n * norm.of_singular_values(np.ones(n))
    return None


def quotient_dist_upper(
    p: CosetPoint,
    q: CosetPoint,
    restarts: int = 8,
    max_iter: int = 200,
    rng=0,
) -> float:
    """Certified upper bound on the quotient distance between two cosets.

    Exact in every unitarily invariant norm where the space has a closed
    form (trivial, Grassmann and determinant-one subgroups).  Otherwise the
    best value of a multi-start local minimization of
    h -> intrinsic_dist(u, v exp(h)) over the subalgebra.
    """
    if p.space != q.space:
        raise InvalidArgumentError("cosets live in different spaces")
    u = _mat(p.representative)
    v = _mat(q.representative)
    exact = _closed_form_dists(p.space, u, v[np.newaxis])
    if exact is not None:
        return float(exact[0])
    return _optimize_coset_dist(p, q, restarts, max_iter, rng)


def _optimize_coset_dist(p, q, restarts, max_iter, rng) -> float:
    space = p.space
    norm = space.norm
    u = _mat(p.representative)
    v = _mat(q.representative)
    basis = component_basis(space, "H")
    dim = len(basis)
    stack = np.stack(basis)
    rng = np.random.default_rng(rng)

    vc = v
    uh = u.conj().T

    def phases_at(c):
        # lean path: the combination of basis elements is skew by
        # construction, so exponentiate via eigh without re-validation
        hm = np.tensordot(c, stack, axes=(0, 0))
        w_, v_ = np.linalg.eigh(-1j * hm.astype(complex))
        eh = (v_ * np.exp(1j * w_)) @ v_.conj().T
        w = uh @ (vc @ eh)
        return np.abs(np.angle(np.linalg.eigvals(w)))

    def f(c):
        return norm.of_singular_values(phases_at(c))

    def f_smooth(c):
        # strictly convex gauge surrogate of the operator norm; smooths the
        # max over phases so the local search does not stall at kinks
        ph = phases_at(c)
        return float(np.sum(ph**8) ** (1.0 / 8))

    def coords(h):
        return np.array([np.real(np.vdot(b, h)) for b in basis])

    w0 = uh @ v
    starts = [np.zeros(dim)]
    try:
        # undo the subalgebra part of log(u* v): the linearized alignment
        starts.append(coords(-_project_H_mat(space, logm_unitary(w0))))
    except BranchAmbiguityError:
        pass  # an eigenvalue at -1: no principal logarithm to start from
    while len(starts) < max(2, restarts):
        starts.append(rng.normal(scale=1.0, size=dim))

    ranked = sorted(starts, key=f)[: max(2, min(4, len(starts)))]
    best = np.inf
    if _branch_safe(w0, norm):
        best = intrinsic_dist(u, v, norm)
    surrogate = f_smooth if norm.is_operator else f
    for c0 in ranked:
        f0 = float(f(c0))
        if f0 > best + 0.25 and best < np.inf:
            continue  # cannot plausibly beat the incumbent
        res = minimize(
            surrogate,
            c0,
            method="Powell",
            options={"maxiter": max_iter, "xtol": 1e-7, "ftol": 1e-9},
        )
        best = min(best, f0, float(f(res.x)))
        res2 = minimize(
            f,
            res.x,
            method="Powell",
            options={"maxiter": max_iter, "xtol": 1e-7, "ftol": 1e-10},
        )
        best = min(best, float(res2.fun))
        if best <= 1e-9:
            break
    return best


def _branch_safe(w, norm) -> bool:
    if norm.is_operator:
        return True
    return bool(np.all(np.pi - np.abs(_unitary_phases(w)) >= 1e-9))
