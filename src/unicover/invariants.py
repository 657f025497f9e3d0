"""Space invariants driving the entropy bounds: the complement-projection
norm kappa, the weaving threshold theta, and the diameter.

Exact values are tabulated where the structure gives a closed form; otherwise
only sampled bounds are reported (kappa and diameter from below, theta from
above via explicit witnesses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matcore import InvalidArgumentError, expm_skew, opnorm
from .groups import (
    GroupElement,
    HomSpace,
    _project_H_mat,
    _skew_gaussian,
    haar_sample,
    tangent_sample,
)
from .metrics import CosetPoint, intrinsic_dist, quotient_dist_upper


@dataclass(frozen=True)
class InvariantReport:
    """Known and sampled values of the invariants of one space."""

    dim_M: int
    kappa_known: Optional[float]
    kappa_lower_bound: float
    theta_known: Optional[float]
    theta_units: Optional[str]  # "intrinsic" or "extrinsic"
    theta_upper_bound: Optional[float]
    diam_known: Optional[float]
    diam_lower_bound: float


def kappa_known(space: HomSpace) -> Optional[float]:
    """Closed-form complement-projection norm, when the structure pins it."""
    if space.subgroup.kind in ("trivial", "grassmann"):
        return 1.0
    return None


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
    kind = space.subgroup.kind
    if kind in ("trivial", "grassmann"):
        return np.pi
    if kind in ("block_diagonal", "tensor_factor"):
        return 2.0
    return None  # special: only the witness upper bound


def theta_units(space: HomSpace) -> Optional[str]:
    """Units of theta_known: the multi-block and tensor-factor value 2 is
    the extrinsic norm value at intrinsic distance pi; the rest are
    intrinsic."""
    if theta_known(space) is None:
        return None
    if space.subgroup.kind in ("block_diagonal", "tensor_factor"):
        return "extrinsic"
    return "intrinsic"


def extrinsic_of_intrinsic(rho: float) -> float:
    """Norm distance of two unitaries at intrinsic operator distance rho."""
    return float(abs(1 - np.exp(1j * rho)))


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
    intrinsic distance from u to the identity.

    Searches maximal-torus (diagonal) directions of the subalgebra; returns
    the best distance found, or None when no witness exists in budget.
    """
    sub = space.subgroup
    n = space.n
    rng = np.random.default_rng(rng)
    best: Optional[float] = None

    def consider(phases: np.ndarray, traceless: bool):
        nonlocal best
        phases = np.mod(phases + np.pi, 2 * np.pi) - np.pi
        phases = np.where(phases <= -np.pi + 1e-12, np.pi, phases)
        if _min_log_norm_diag(phases, traceless) < np.pi - 1e-9:
            return  # u is reachable inside the pi-ball of the subalgebra
        u = np.diag(np.exp(1j * phases))
        d = intrinsic_dist(np.eye(n), u)
        if best is None or d < best:
            best = d

    if sub.kind == "trivial":
        return None

    if sub.kind == "special":
        # scalar witnesses exp(2 pi i j / n) I and random integer patterns
        for j in range(1, n):
            consider(np.full(n, 2 * np.pi * j / n), traceless=True)
        for _ in range(search_budget):
            v = rng.integers(-2, 3, size=n)
            if not np.any(v):
                continue
            phases = 2 * np.pi * (v - np.mean(v))
            consider(phases, traceless=True)
        return best

    # block-type subalgebras contain all imaginary diagonals (complex case):
    # any diagonal with a phase pinned at pi is a witness
    if space.group.is_complex and sub.kind in (
        "block_diagonal",
        "grassmann",
        "tensor_factor",
    ):
        if sub.kind == "tensor_factor":
            pattern = np.tile(
                np.concatenate([[np.pi], np.zeros(sub.k - 1)]), sub.m
            )
            consider(pattern, traceless=False)
        else:
            phases = np.zeros(n)
            phases[0] = np.pi
            consider(phases, traceless=False)
            phases2 = np.zeros(n)
            phases2[:2] = np.pi, -np.pi
            consider(phases2, traceless=False)
        for _ in range(search_budget):
            phases = rng.uniform(-np.pi, np.pi, size=n)
            phases[rng.integers(0, n)] = np.pi
            if sub.kind == "tensor_factor":
                phases = np.tile(phases[: sub.k], sub.m)
            consider(phases, traceless=False)
        return best

    # real (SO) block cases: the torus lives in 2x2 rotation blocks; a
    # rotation by pi inside one subgroup block is a witness when it fits
    for offset, b in zip(
        np.cumsum((0,) + sub.blocks(n))[:-1], sub.blocks(n)
    ):
        if b >= 2:
            phases = np.zeros(n)
            phases[offset] = np.pi
            phases[offset + 1] = -np.pi
            consider(phases, traceless=False)
    return best


def diameter_known(space_or_group) -> Optional[float]:
    """Closed-form diameter, when known."""
    if not isinstance(space_or_group, HomSpace):
        g = space_or_group
        if g.kind == "U" or g.n >= 3:
            return np.pi
        return None  # SO(2): a circle of circumference 2 pi, diameter pi too
    sub = space_or_group.subgroup
    if sub.kind == "trivial":
        return diameter_known(space_or_group.group)
    if sub.kind == "grassmann":
        return np.pi / 2
    if sub.kind == "special":
        return np.pi / space_or_group.n
    return None


def diameter_estimate(
    space: HomSpace, samples: int = 64, rng=0, restarts: int = 4
) -> float:
    """Sampled lower bound on the diameter: the max quotient distance over
    Haar pairs and one-parameter-subgroup sweeps through complement
    directions, with local refinement of the sweep parameter."""
    if samples < 2:
        raise InvalidArgumentError("samples must be >= 2")
    rng = np.random.default_rng(rng)
    g = space.group
    base = CosetPoint(GroupElement(g.identity(), g), space)
    best = 0.0
    for _ in range(samples // 2):
        u = haar_sample(g, rng)
        v = haar_sample(g, rng)
        d = quotient_dist_upper(
            CosetPoint(u, space), CosetPoint(v, space), restarts=restarts, rng=rng
        )
        best = max(best, d)
    # sweeps along exp(t x), x in the complement with operator norm pi so
    # that t in (0, 1] reaches the antipode; the max over t is refined
    # locally after a coarse scan
    for _ in range(max(1, samples // 8)):
        x = tangent_sample(space, "X", np.pi, rng).matrix
        x = np.pi * x / opnorm(x)

        def dist_at(t):
            u = GroupElement(expm_skew(t * x), g)
            return quotient_dist_upper(base, CosetPoint(u, space),
                                       restarts=restarts, rng=rng)

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


def invariant_report(
    space: HomSpace, samples: int = 200, rng=0
) -> InvariantReport:
    """Bundle of known values and sampled bounds for one space."""
    rng = np.random.default_rng(rng)
    kl = kappa_lower(space, samples=samples, rng=rng)
    tw = theta_witness_upper(space, search_budget=max(50, samples // 2), rng=rng)
    dk = diameter_known(space)
    dl = diameter_estimate(space, samples=max(8, samples // 8), rng=rng)
    return InvariantReport(
        dim_M=space.dim,
        kappa_known=kappa_known(space),
        kappa_lower_bound=kl,
        theta_known=theta_known(space),
        theta_units=theta_units(space),
        theta_upper_bound=tw,
        diam_known=dk,
        diam_lower_bound=min(dl, np.pi),
    )
