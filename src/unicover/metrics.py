"""Extrinsic, intrinsic and quotient distances on U(n), SO(n) and their
homogeneous spaces, and the length of polygonal geodesic curves.

The intrinsic metric induced by a unitarily invariant norm evaluates, on the
group, to the gauge of the eigenphase vector of u*v (principal branch).  On a
quotient the distance is exact, in every such norm, where a closed form
exists (trivial subgroup, Grassmann, the determinant circle of U(n)/SU(n));
elsewhere only an upper bound is certified, by local search over the fibre.
_dists is the one place that chooses between the two, for every caller:
the public distances check their points and pass plain arrays to it.

The local search calls the LAPACK gufuncs eigh_lo and eigvals of numpy
2.x's private numpy.linalg._umath_linalg directly: np.linalg.eigh and
np.linalg.eigvals wrap the same routines, so the values are theirs bit for
bit, without their per-call checks.

scipy loads only on the first coset search (scipy.optimize, see minimize)
or logm_unitary (scipy.linalg): a run on closed forms imports numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo, eigvals

from .matcore import (
    OPERATOR,
    BranchAmbiguityError,
    InvalidArgumentError,
    NormSpec,
    logm_unitary,
    principal_angles,
    schatten_norm,
    _phase_dists,
)
from .groups import (
    GroupElement,
    GroupSpec,
    HomSpace,
    _elements,
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


def intrinsic_dist(u, v, norm: NormSpec = OPERATOR) -> float:
    """Geodesic distance: the gauge of the principal-log eigenphases of u*v.
    Raises InvalidArgumentError unless u and v are unitary matrices of one
    size.

    At an eigenvalue -1 the two log branches give the phases +pi and -pi,
    whose absolute values agree, so the value is the same in every norm.
    """
    a, b = _mat(u), _mat(v)
    if a.shape != b.shape:
        raise InvalidArgumentError("size mismatch")
    group = GroupSpec("U", a.shape[-1] if a.ndim else 0)
    return _phase_dists(_elements(group, a, stack=False), _elements(group, b, stack=False), norm)


@dataclass(frozen=True)
class Curve:
    """Polygonal curve: sample points joined by geodesic segments.

    Consecutive samples must be closer than pi/2 so each joining geodesic is
    unambiguous.
    """

    points: Sequence = field()

    def __post_init__(self):
        pts = [_mat(p) for p in self.points]
        if len({p.shape for p in pts}) != 1:
            raise InvalidArgumentError("curve needs one or more points of one shape")
        object.__setattr__(self, "points", tuple(pts))


def curve_length(curve: Curve, norm: NormSpec = OPERATOR) -> float:
    """Length of the polygonal geodesic interpolant: the sum of intrinsic
    distances between consecutive samples."""
    return float(_polyline_length(np.array(curve.points), norm))


def _polyline_length(pts: np.ndarray, norm: NormSpec) -> np.ndarray:
    """Lengths of the polygonal geodesic interpolants through the points of
    pts, shape (..., m, n, n), one per polyline: the intrinsic distances of
    consecutive points, summed in curve order.  Each gap must be below pi/2
    in the operator norm, so that its joining geodesic is unique."""
    gaps = _phase_dists(pts[..., :-1, :, :], pts[..., 1:, :, :], OPERATOR)
    if np.any(gaps >= np.pi / 2):
        gap = gaps[gaps >= np.pi / 2][0]
        raise InvalidArgumentError(f"consecutive samples {gap:.4f} apart; need < pi/2")
    if not norm.is_operator:
        gaps = _phase_dists(pts[..., :-1, :, :], pts[..., 1:, :, :], norm)
    length = np.zeros(gaps.shape[:-1])
    for j in range(gaps.shape[-1]):
        length = length + gaps[..., j]
    return length


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
    """A point of M = G/H, stored as a group representative: a matrix that
    is not already a GroupElement of the space's group is checked as one."""

    representative: GroupElement
    space: HomSpace

    def __post_init__(self):
        rep, group = self.representative, self.space.group
        if not isinstance(rep, GroupElement):
            object.__setattr__(self, "representative", GroupElement(_mat(rep), group))
        elif rep.group != group:
            raise InvalidArgumentError("representative lies in another group")


def _dists(space: HomSpace, a: np.ndarray, b: np.ndarray, restarts: int = 8, rng=0) -> np.ndarray:
    """Quotient distances between the points of two broadcast-compatible
    stacks a and b (shape (..., n, n), checked by the caller), as an array
    of their broadcast batch shape (pass a[:, None] and b[None] for all
    pairs): the subgroup's closed form where it has one, exact and batched,
    otherwise one coset search per pair (an upper bound) with restarts and
    rng."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    if 0 in shape:
        return np.zeros(shape)
    d = space.subgroup.exact_dists(a, b, space.norm)
    if d is not None:
        return d
    n = space.n
    a, b = (np.broadcast_to(x, shape + x.shape[-2:]).reshape(-1, n, n) for x in (a, b))
    return np.array([
        _optimize_coset_dist(space, x, y, restarts, rng) for x, y in zip(a, b)
    ]).reshape(shape)


def quotient_dist_upper(p: CosetPoint, q: CosetPoint, restarts: int = 8, rng=0) -> float:
    """Certified upper bound on the quotient distance between two cosets.

    Exact in every unitarily invariant norm where the space has a closed
    form (trivial, Grassmann and determinant-one subgroups).  Otherwise the
    best value of a multi-start local minimization of
    h -> intrinsic_dist(u, v exp(h)) over the subalgebra.
    """
    if p.space != q.space:
        raise InvalidArgumentError("cosets live in different spaces")
    return float(_dists(p.space, _mat(p.representative), _mat(q.representative), restarts, rng))


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call."""
    from scipy import optimize
    return optimize.minimize(*args, **kwargs)


def _optimize_coset_dist(space: HomSpace, u: np.ndarray, v: np.ndarray, restarts: int, rng) -> float:
    """Powell over the subalgebra from the best few of several starts."""
    norm = space.norm
    basis = component_basis(space, "H")
    dim = len(basis)
    n = space.n
    # -i h is Hermitian for each skew basis element h, so c @ hflat is the
    # Hermitian matrix whose eigenphases exponentiate sum_j c_j h_j
    hflat = (-1j * np.stack(basis).astype(complex)).reshape(dim, n * n)
    rng = np.random.default_rng(rng)
    uh = u.conj().T

    def phases_at(c):
        # the gufuncs behind np.linalg.eigh and eigvals, without their
        # per-call checks: u and v are checked group elements and c is
        # Powell's finite iterate; a LAPACK failure sets the invalid flag,
        # which the errstate below turns into an error
        w_, v_ = eigh_lo((c @ hflat).reshape(n, n))
        eh = (v_ * np.exp(1j * w_)) @ v_.conj().T
        return np.abs(np.angle(eigvals(uh @ (v @ eh))))

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

    with np.errstate(invalid="raise"):
        scored = sorted(((f(c), c) for c in starts), key=lambda fc: fc[0])
        best = _phase_dists(u, v, norm)
        surrogate = f_smooth if norm.is_operator else f
        for f0, c0 in scored[: max(2, min(4, len(starts)))]:
            f0 = float(f0)
            if f0 > best + 0.25:
                continue  # cannot plausibly beat the incumbent
            res = minimize(
                surrogate,
                c0,
                method="Powell",
                options={"maxiter": 200, "xtol": 1e-7, "ftol": 1e-9},
            )
            best = min(best, f0, float(f(res.x)))
            res2 = minimize(
                f,
                res.x,
                method="Powell",
                options={"maxiter": 200, "xtol": 1e-7, "ftol": 1e-10},
            )
            best = min(best, float(res2.fun))
            if best <= 1e-9:
                break
    return best
