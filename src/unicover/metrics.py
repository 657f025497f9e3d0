"""Extrinsic, intrinsic and quotient distances on U(n), SO(n) and their
homogeneous spaces, and the length of polygonal geodesic curves.

The intrinsic metric induced by a unitarily invariant norm evaluates, on the
group, to the gauge of the eigenphase vector of u*v (principal branch).  On a
quotient the distance is exact, in every such norm, where a closed form
exists (trivial subgroup, Grassmann, the determinant circle of U(n)/SU(n));
elsewhere only an upper bound is certified, by local search over the fibre.
_closed_form is the one place that chooses between the two, and _dists,
which every caller uses, follows it: the public distances check their
points and pass plain arrays to it.

The local search calls the LAPACK gufuncs eigh_lo and eigvals of numpy
2.x's private numpy.linalg._umath_linalg directly: np.linalg.eigh and
np.linalg.eigvals wrap the same routines, so the values are theirs bit for
bit, without their per-call checks.  Its optimizer, minimize, is scipy's
unbounded Powell ported to this module with the same bits, so
scipy.optimize is never imported: scipy loads only with logm_unitary
(scipy.linalg), which gives the search its second start, and a run on
closed forms imports numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite, isnan, nan
from typing import NamedTuple, Sequence

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
    SubgroupSpec,
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
    the group's own distance where the subgroup is {e} (as SO(n)'s blocks
    of size 1 are), otherwise one coset search per pair (an upper bound)
    with restarts and rng."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    if 0 in shape:
        return np.zeros(shape)
    if _closed_form(space):
        d = space.subgroup.exact_dists(a, b, space.norm)
        return _phase_dists(a, b, space.norm) if d is None else d
    n = space.n
    a, b = (np.broadcast_to(x, shape + x.shape[-2:]).reshape(-1, n, n) for x in (a, b))
    return np.array([
        _optimize_coset_dist(space, x, y, restarts, rng) for x, y in zip(a, b)
    ]).reshape(shape)


def _closed_form(space: HomSpace) -> bool:
    """Whether _dists measures space by a closed form, exact and batched:
    the subgroup's exact_dists where its kind defines one, else the group's
    own distance where the fibre is trivial; if not, by the coset search."""
    return type(space.subgroup).exact_dists is not SubgroupSpec.exact_dists or not space.dim_H


def quotient_dist_upper(p: CosetPoint, q: CosetPoint, restarts: int = 8, rng=0) -> float:
    """Certified upper bound on the quotient distance between two cosets.

    Exact in every unitarily invariant norm where the space has a closed
    form (trivial, Grassmann and determinant-one subgroups).  Otherwise the
    best value of a multi-start local minimization of
    h -> intrinsic_dist(u, v exp(h)) over the subalgebra.
    """
    if p.space != q.space:
        raise InvalidArgumentError("cosets live in different spaces")
    _check_restarts(restarts)
    return float(_dists(p.space, _mat(p.representative), _mat(q.representative), restarts, rng))


def _check_restarts(restarts) -> None:
    """Raise unless restarts, the number of starts of a coset search, is an
    integer >= 1 (a bool is not one)."""
    if isinstance(restarts, bool) or not isinstance(restarts, (int, np.integer)) or restarts < 1:
        raise InvalidArgumentError(f"restarts must be an integer >= 1, got {restarts!r}")


class PowellResult(NamedTuple):
    """What minimize returns: the last iterate, its value and the number of
    evaluations of the objective."""

    x: np.ndarray
    fun: float
    nfev: int


# the constants of scipy's bracket and Brent: the golden ratio, rounded as
# scipy rounds it, and the golden-section fraction 2 - 1.618034
_GOLD = 1.618034
_CGOLD = 0.3819660


def minimize(fun, x0, method: str, options: dict) -> PowellResult:
    """Unbounded modified Powell, scipy.optimize.minimize(fun, x0,
    method="Powell", options=options) ported step for step: the same
    arithmetic in the same order, so x, fun and nfev are scipy's bits.

    options holds exactly xtol, ftol and maxiter, the ones ported.  x0 is
    taken as float64; fun returns a float and must not modify its argument,
    which is the iterate itself, not a copy.  No part of scipy is imported.
    """
    if method.lower() != "powell" or set(options) != {"xtol", "ftol", "maxiter"}:
        raise InvalidArgumentError(f"only Powell with xtol, ftol and maxiter is ported, "
                                   f"not {method!r} with {sorted(options)}")
    x = np.asarray(x0, dtype=float).flatten()
    n = len(x)
    maxiter, ftol, tol = options["maxiter"], options["ftol"], options["xtol"] * 100
    nfev = 0

    def func(y):
        nonlocal nfev
        nfev += 1
        return fun(y)

    direc = np.eye(n)
    fval = func(x)
    x1 = x  # no copy: iterates are new arrays, never modified in place
    it = 0
    while True:
        fx = fval
        bigind = 0
        delta = 0.0
        for i in range(n):
            fx2 = fval
            fval, x, _ = _linesearch(func, x, direc[i], fval, tol)
            if fx2 - fval > delta:
                delta = fx2 - fval
                bigind = i
        it += 1
        if (2.0 * (fx - fval) <= ftol * (abs(fx) + abs(fval)) + 1e-20
                or it >= maxiter or (isnan(fx) and isnan(fval))):
            break
        # extrapolate along the iteration's total step; take it as a new
        # direction, in place of the one of largest decrease, when the
        # extrapolated point is lower and Powell's test accepts it
        direc1 = x - x1
        x1 = x
        fx2 = func(x + direc1)
        if fx > fx2:
            t = 2.0 * (fx + fx2 - 2.0 * fval)
            temp = fx - fval - delta
            t *= temp * temp
            temp = fx - fx2
            t -= delta * temp * temp
            if t < 0.0:
                fval, x, direc1 = _linesearch(func, x, direc1, fval, tol)
                if direc1.any():
                    direc[bigind] = direc[-1]
                    direc[-1] = direc1
    return PowellResult(x, fval, nfev)


def _linesearch(func, p, xi, fval, tol):
    """Brent's minimum of func along p + alpha xi: the new value, point and
    step alpha xi (xi itself, untried, when it is zero)."""
    if not xi.any():
        return fval, p, xi

    def along(alpha):
        return func(p + alpha * xi)

    alpha, fret = _brent(along, tol)
    xi = alpha * xi
    return fret, p + xi, xi


def _bracket(f):
    """scipy's bracket(f) from 0 and 1: three points and their values, and
    whether they bracket a minimum (f(xb) at most both ends' and below one,
    strictly ordered, finite)."""
    xa, xb = 0.0, 1.0
    fa, fb = f(xa), f(xb)
    if fa < fb:
        xa, xb, fa, fb = xb, xa, fb, fa
    xc = xb + _GOLD * (xb - xa)
    fc = f(xc)
    it = 0
    while fc < fb:
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        denom = 2.0 * 1e-21 if abs(val) < 1e-21 else 2.0 * val
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + 110.0 * (xc - xb)
        if it > 1000:
            raise RuntimeError("no bracket within 1000 steps")
        it += 1
        if (w - xc) * (xb - w) > 0.0:
            fw = f(w)
            if fw < fc:
                xa, xb, fa, fb = xb, w, fb, fw
                break
            if fw > fb:
                xc, fc = w, fw
                break
            w = xc + _GOLD * (xc - xb)
            fw = f(w)
        elif (w - wlim) * (wlim - xc) >= 0.0:
            w = wlim
            fw = f(w)
        elif (w - wlim) * (xc - w) > 0.0:
            fw = f(w)
            if fw < fc:
                xb, xc = xc, w
                w = xc + _GOLD * (xc - xb)
                fb, fc = fc, fw
                fw = f(w)
        else:
            w = xc + _GOLD * (xc - xb)
            fw = f(w)
        xa, xb, xc = xb, xc, w
        fa, fb, fc = fb, fc, fw
    ok = (((fb < fc and fb <= fa) or (fb < fa and fb <= fc))
          and (xa < xb < xc or xc < xb < xa)
          and isfinite(xa) and isfinite(xb) and isfinite(xc))
    return xa, xb, xc, fa, fb, fc, ok


def _brent(f, tol):
    """scipy's Brent minimization of f (500 steps at most) from _bracket:
    the minimizer and its value.  Without a bracket, the best of its three
    points (nan where any is nan)."""
    xa, xb, xc, fa, fb, fc, ok = _bracket(f)
    if not ok:
        xs, fs = (xa, xb, xc), (fa, fb, fc)
        if any(isnan(z) for z in xs + fs):
            return nan, nan
        i = min(range(3), key=fs.__getitem__)
        return xs[i], fs[i]
    x = w = v = xb
    fw = fv = fx = fb
    a, b = (xa, xc) if xa < xc else (xc, xa)
    deltax = 0.0
    rat = 0.0  # first set by the golden step, since deltax starts at 0
    for _ in range(500):
        tol1 = tol * abs(x) + 1.0e-11
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if abs(deltax) <= tol1:
            deltax = a - x if x >= xmid else b - x  # golden section
            rat = _CGOLD * deltax
        else:
            # parabola through x, w and v; p / tmp2 is its step from x
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if p > tmp2 * (a - x) and p < tmp2 * (b - x) and abs(p) < abs(0.5 * tmp2 * dx_temp):
                rat = p / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = _CGOLD * deltax
        if abs(rat) < tol1:  # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = f(u)
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
    return x, fx


@lru_cache(maxsize=None)
def _fibre_basis(space: HomSpace):
    """component_basis(space, "H") and hflat, built once per space."""
    basis = tuple(component_basis(space, "H"))
    # -i h is Hermitian for each skew basis element h, so c @ hflat is the
    # Hermitian matrix whose eigenphases exponentiate sum_j c_j h_j
    hflat = (-1j * np.stack(basis).astype(complex)).reshape(len(basis), space.n ** 2)
    return basis, hflat


def _optimize_coset_dist(space: HomSpace, u: np.ndarray, v: np.ndarray, restarts: int, rng) -> float:
    """Powell over the subalgebra from the best few of several starts."""
    norm = space.norm
    basis, hflat = _fibre_basis(space)
    dim = len(basis)
    n = space.n
    rng = np.random.default_rng(rng)
    uh = u.conj().T

    seen = {}  # phases per point: about one evaluation in ten repeats one

    def phases_at(c):
        key = c.tobytes()
        ph = seen.get(key)
        if ph is None:
            # the gufuncs behind np.linalg.eigh and eigvals, without their
            # per-call checks: u and v are checked group elements and c is
            # Powell's finite iterate; a LAPACK failure sets the invalid
            # flag, which the errstate below turns into an error
            w_, v_ = eigh_lo((c @ hflat).reshape(n, n))
            eh = (v_ * np.exp(1j * w_)) @ v_.conj().T
            z = eigvals(uh @ (v @ eh))
            ph = seen[key] = np.abs(np.arctan2(z.imag, z.real))  # np.angle's bits
        return ph

    def f(c):
        return norm.of_singular_values(phases_at(c))

    def f_smooth(c):
        # strictly convex gauge surrogate of the operator norm; smooths the
        # max over phases so the local search does not stall at kinks
        return float((phases_at(c) ** 8).sum() ** (1.0 / 8))

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
