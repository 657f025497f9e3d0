"""Extrinsic, intrinsic and quotient distances on U(n), SO(n) and their
homogeneous spaces; curve length and one-parameter-subgroup geodesics.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo, eigvals
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

    def same_coset(self, other: "CosetPoint") -> bool:
        return quotient_dist_upper(self, other) <= 1e-6


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


# Rounding bound delta on each product the bracket takes (e1, e2 and the
# sums s below) for representatives unitary to rounding: each is a sum of
# 2 n^2 products whose absolute values add to at most n, so it is off by at
# most about 2 n^3 ulps, 1.4e-14 at n = 4 and 2e-13 at n = 10.  It keeps
# lo <= d <= hi sound, and near 0 its square root, 1e-6, is far wider than
# the 5e-8 floor of the Grassmann closed form.
_BRACKET_SLACK = 1e-12
# The Pluecker root r = sqrt(e1^2 - 4 e2) has an argument off by at most
# 8 delta, and |sqrt(x) - sqrt(y)| <= |x - y| / sqrt(x) and <= sqrt(|x - y|),
# so r is off by at most 8 delta / max(r, sqrt(8 delta)) and the largest
# sin^2, 1 - (e1 - r) / 2, by half of delta plus that: at most about 1.4e-6
# at a double root, about 1e-11 where the two angles are apart.
_ROOT_FLOOR = np.sqrt(8 * _BRACKET_SLACK)


def _bracket_features(space: HomSpace, x: np.ndarray) -> np.ndarray:
    """Per-point feature rows for _bracket: the real and imaginary parts of
    the matrix itself (trivial), or of the projector onto the span of the
    smaller side's frame (grassmann(k)) followed, for a 2-frame, by its
    wedge, the antisymmetric matrix of its Pluecker coordinates, flattened.
    Zero-width rows where the space has no bracket."""
    rows = space.subgroup.bracket_rows(x) if space.norm.is_operator else None
    if rows is None:
        return np.zeros((len(x), 0))
    # a complex array viewed as floats interleaves real and imaginary parts
    return np.ascontiguousarray(rows).view(float)


def _bracket(space: HomSpace, fa: np.ndarray, fb: np.ndarray):
    """Bounds lo <= d <= hi on the operator-norm distance between each
    point of fa and each point of fb (their _bracket_features rows), as two
    (len(fa), len(fb)) arrays from one GEMM over the projector (or matrix)
    columns and, for a Grassmannian of 2-frames, one over the wedge
    columns; lo = 0 and hi = inf where the space has no bracket.

    The subgroup's kind gives (s, m, w) from the first inner products: s
    is a sum of m nonnegative terms, the largest of which is sin^2(d / w),
    so sin^2(d / w) lies in [s/m, s]:
    - grassmann(k): for the frames of the smaller side, m = min(k, n - k)
      columns, e1 = <P_a, P_b> is the sum of the squared cosines c_i of
      the principal angles, s = m - e1 the sum of their sin^2 (the chordal
      distance of Conway, Hardin and Sloane), and d is the largest; w = 1.
      For m = 2 the wedge product <W_a, W_b> = 2 det(E_a* E_b) gives
      e2 = |det(E_a* E_b)|^2 = c_1 c_2 as well (Cauchy-Binet), so
      sin^2 d = 1 - (e1 - sqrt(e1^2 - 4 e2)) / 2 exactly,
      to rounding (see _ROOT_FLOOR; up to about 1e-3 in angle where the
      two angles meet near d = 0 or d = pi/2, where arcsin of the square
      root is steep).
    - trivial on U(n): ||a - b||_F^2 = 2n - 2 Re tr(a* b) is the sum of
      4 sin^2(phi_j / 2) over the n eigenphases of a* b, and d = max
      |phi_j|; s = ||a - b||_F^2 / 4, m = n, w = 2.
    - trivial on SO(n): the phases come in pairs +-phi_j, so s =
      ||a - b||_F^2 / 8 sums m = floor(n / 2) terms; w = 2.
    """
    shape = (len(fa), len(fb))
    if fa.shape[1] == 0:
        return np.zeros(shape), np.full(shape, np.inf)
    cols = 2 * space.n ** 2  # the floats of one n x n complex matrix
    inner = fa[:, :cols] @ fb[:, :cols].T
    s, m, w = space.subgroup.bracket_terms(inner, space.group)
    if fa.shape[1] == cols:
        lo, hi = (s - _BRACKET_SLACK) / m, s + _BRACKET_SLACK
    else:
        h = fa[:, cols:].view(complex).conj() @ fb[:, cols:].view(complex).T
        root = np.sqrt(np.maximum(inner * inner - (h.real ** 2 + h.imag ** 2), 0.0))
        x = 1.0 - (inner - root) / 2
        slack = (_BRACKET_SLACK + 8 * _BRACKET_SLACK / np.maximum(root, _ROOT_FLOOR)) / 2
        lo, hi = x - slack, x + slack
    lo = w * np.arcsin(np.sqrt(np.clip(lo, 0.0, 1.0)))
    hi = w * np.arcsin(np.sqrt(np.clip(hi, 0.0, 1.0)))
    return lo, hi


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
        ranked = sorted(starts, key=f)[: max(2, min(4, len(starts)))]
        best = _phase_dists(u, v, norm)
        surrogate = f_smooth if norm.is_operator else f
        for c0 in ranked:
            f0 = float(f(c0))
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
