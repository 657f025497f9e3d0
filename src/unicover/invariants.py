"""Space invariants driving the entropy bounds: the complement-projection
norm kappa, the weaving threshold theta, and the diameter.

Exact values are tabulated where the structure gives a closed form; otherwise
only sampled bounds are reported (kappa and diameter from below, theta from
above via explicit witnesses).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .matcore import InvalidArgumentError, expm_skew, opnorm
from .groups import (
    HomSpace,
    _project_H_mat,
    _skew_gaussian,
    haar_samples,
    tangent_sample,
)
from .metrics import _check_restarts, _dists


def kappa_known(space: HomSpace) -> Optional[float]:
    """Closed-form complement-projection norm, when the structure pins it."""
    return space.subgroup.kappa


def kappa_lower(space: HomSpace, samples: int = 200, rng=0) -> float:
    """Sampled lower bound on the operator norm of the projection onto the
    complement of the subalgebra.

    Always >= 1 (the bound is seeded with an element of the complement, a
    fixed point of the projection); random sampling plus hill-climbing can
    only raise it.
    """
    if samples < 1:
        raise InvalidArgumentError("samples must be >= 1")
    rng = np.random.default_rng(rng)

    def ratio(x):
        nx = opnorm(x)
        if nx < 1e-14:
            return 0.0
        return opnorm(x - _project_H_mat(space, x)) / nx

    # a complement element certifies ratio 1 exactly
    seed_x = tangent_sample(space, "X", 1.0, rng).matrix
    best_x, best = seed_x, ratio(seed_x)
    for _ in range(samples):
        x = _skew_gaussian(space.group, rng)
        r = ratio(x)
        if r > best:
            best, best_x = r, x
    # hill climb from the best sample along random perturbation directions
    x = best_x / opnorm(best_x)
    step = 0.3
    for _ in range(50):
        d = _skew_gaussian(space.group, rng)
        cand = x + step * d / max(opnorm(d), 1e-14)
        r = ratio(cand)
        if r > best:
            best, x = r, cand / opnorm(cand)
        else:
            step *= 0.9
    return best


def theta_known(space: HomSpace) -> Optional[float]:
    """Closed-form weaving threshold, when known; see theta_units for the
    convention the value is quoted in."""
    return space.subgroup.theta


def theta_units(space: HomSpace) -> Optional[str]:
    """Units of theta_known: the multi-block and tensor-factor value 2 is
    the extrinsic norm value at intrinsic distance pi; the rest are
    intrinsic."""
    return space.subgroup.theta_units


def _theta_intrinsic(space: HomSpace) -> Optional[float]:
    """theta_known in intrinsic units: a chord t is the arc 2 arcsin(t / 2)."""
    t = theta_known(space)
    if t is None:
        return None
    if theta_units(space) == "extrinsic":
        return float(2 * np.arcsin(min(t, 2.0) / 2))
    return t


def _min_log_norm_diag(phases: np.ndarray, traceless: bool) -> float:
    """Minimal operator norm of a diagonal skew logarithm of
    diag(exp(i phases)), restricted to trace zero when traceless.

    Phases are assumed principal.  A trace-zero logarithm shifts branches
    phi_j - 2 pi k_j with sum k_j = K = sum phi / 2 pi; the max norm is
    least when the shifts fall on the K largest phases (or, for K < 0, +2 pi
    on the |K| smallest).
    """
    if not traceless:
        return float(np.max(np.abs(phases)))
    order = np.argsort(phases)
    K = int(round(np.sum(phases) / (2 * np.pi)))
    ks = np.zeros(len(phases))
    if K > 0:
        ks[order[len(phases) - K:]] = 1
    elif K < 0:
        ks[order[:-K]] = -1
    return float(np.max(np.abs(phases - 2 * np.pi * ks)))


def theta_witness_upper(
    space: HomSpace, search_budget: int = 200, rng=0
) -> Optional[float]:
    """Upper bound on theta from explicit witnesses: subgroup elements u
    whose every subalgebra logarithm has operator norm >= pi, scored by the
    intrinsic distance from u to the identity, the largest absolute phase.

    Searches maximal-torus (diagonal) directions of the subalgebra, the
    phase patterns of the subgroup's kind; returns the best distance found,
    or None when no witness exists in budget.
    """
    sub = space.subgroup
    rng = np.random.default_rng(rng)
    best: Optional[float] = None
    for phases in sub.witness_phases(space.group, rng, search_budget):
        phases = np.mod(phases + np.pi, 2 * np.pi) - np.pi
        phases = np.where(phases <= -np.pi + 1e-12, np.pi, phases)
        if _min_log_norm_diag(phases, sub.traceless) < np.pi - 1e-9:
            continue  # u is reachable inside the pi-ball of the subalgebra
        d = float(np.max(np.abs(phases)))
        if best is None or d < best:
            best = d
    return best


def diameter_known(space: HomSpace) -> Optional[float]:
    """Closed-form diameter in the norm of the space, when known."""
    return space.subgroup.diameter(space.group, space.norm)


def diameter_estimate(
    space: HomSpace, samples: int = 64, rng=0, restarts: int = 4
) -> float:
    """Sampled lower bound on the diameter: the max quotient distance over
    Haar pairs and one-parameter-subgroup sweeps through complement
    directions, with local refinement of the sweep parameter."""
    if samples < 2:
        raise InvalidArgumentError("samples must be >= 2")
    _check_restarts(restarts)
    rng = np.random.default_rng(rng)
    g = space.group
    base = g.identity()
    best = 0.0
    for _ in range(samples // 2):
        u, v = haar_samples(g, rng, 2)
        best = max(best, float(_dists(space, u, v, restarts, rng)))
    # sweeps along exp(t x), x in the complement with operator norm pi so
    # that t in (0, 1] reaches the antipode; the max over t is refined
    # locally after a coarse scan
    for _ in range(max(1, samples // 8)):
        x = tangent_sample(space, "X", np.pi, rng).matrix
        x = np.pi * x / opnorm(x)

        def dist_at(t):
            return float(_dists(space, base, expm_skew(t * x), restarts, rng))

        grid = np.linspace(1.0 / 16, 1.0, 16)
        vals = [dist_at(t) for t in grid]
        i = int(np.argmax(vals))
        best = max(best, vals[i])
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        for _ in range(12):  # ternary refinement around the coarse peak
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            d1, d2 = dist_at(m1), dist_at(m2)
            best = max(best, d1, d2)
            if d1 < d2:
                lo = m1
            else:
                hi = m2
    return best
