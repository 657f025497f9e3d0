"""Packing and covering constructions on groups and homogeneous spaces,
volume bounds, the exp-linearized covering scheme, and evaluation of the
two-sided entropy bounds.

Packings are verified epsilon-separated post hoc; net certification is
probabilistic against a Haar probe cloud (the exact covering number is
bracketed between the certified net and the packing count).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import List, Optional, Tuple, Union

import numpy as np

from .matcore import InvalidArgumentError, expm_skew, opnorm
from .groups import (
    GroupElement,
    GroupSpec,
    HomSpace,
    SubgroupSpec,
    _mat,
    component_basis,
    haar_sample,
)
from .metrics import CosetPoint, _closed_form_dists, quotient_dist_upper
from .invariants import (
    diameter_known,
    kappa_known,
    theta_known,
    theta_units,
)

SpaceLike = Union[GroupSpec, HomSpace]


@dataclass
class NetResult:
    """Outcome of a packing or net construction."""

    kind: str  # "packing_tilde" or "net_Npp"
    epsilon: float
    points: List[np.ndarray]
    count: int
    budget_exhausted: bool
    probe_count: int = 0
    probe_max_dist: float = 0.0


@dataclass(frozen=True)
class BoundReport:
    """Evaluated two-sided covering-number bound for one epsilon."""

    epsilon: float
    dim_M: int
    theta: Optional[float]
    diam: Optional[float]
    c: float
    C: float
    lower_bound: Optional[float]
    upper_bound: Optional[float]
    lower_applicable: bool
    upper_applicable: bool


def _as_space(space: SpaceLike) -> HomSpace:
    """A bare group is its quotient by the trivial subgroup."""
    if isinstance(space, GroupSpec):
        return HomSpace(space, SubgroupSpec.trivial())
    return space


def sample_point(space: SpaceLike, rng) -> np.ndarray:
    """Haar sample, stored as a group representative matrix."""
    return _mat(haar_sample(_as_space(space).group, rng))


def dists_to_centers(space: SpaceLike, a: np.ndarray, centers) -> np.ndarray:
    """Vector of distances from one point to each center: the intrinsic
    metric on a group, the quotient metric on a homogeneous space.  Batched
    over the centers where the space has a closed form; otherwise an
    optimizer upper bound per center."""
    space = _as_space(space)
    if len(centers) == 0:
        return np.zeros(0)
    d = _closed_form_dists(space, a, np.stack(centers))
    if d is not None:
        return d
    p = CosetPoint(GroupElement(a, space.group), space)
    return np.array([
        quotient_dist_upper(p, CosetPoint(GroupElement(c, space.group), space))
        for c in centers
    ])


def greedy_packing(
    space: SpaceLike,
    epsilon: float,
    sampler_budget: int = 2000,
    rng=0,
    initial=None,
) -> NetResult:
    """Greedy epsilon-separated set: a candidate point is accepted iff its
    distance to every accepted point exceeds epsilon.  The result is a
    packing, hence a lower bound on the packing number at epsilon.

    Optional initial candidates are processed before the random stream,
    under the same acceptance rule; seeding with an already-separated set
    (e.g. the centers of a matched net, or a packing at a larger epsilon)
    nests the constructions so the count comparisons of the
    covering/packing chain hold by construction.
    """
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    space = _as_space(space)
    rng = np.random.default_rng(rng)
    centers: List[np.ndarray] = []
    stream = list(initial) if initial is not None else []
    for i in range(len(stream) + sampler_budget):
        p = stream[i] if i < len(stream) else sample_point(space, rng)
        d = dists_to_centers(space, p, centers)
        if d.size == 0 or np.min(d) > epsilon:
            centers.append(p)
    verify_separated(space, centers, epsilon)
    return NetResult(
        kind="packing_tilde",
        epsilon=epsilon,
        points=centers,
        count=len(centers),
        budget_exhausted=True,
    )


def verify_separated(space: SpaceLike, centers, epsilon: float) -> None:
    """Exhaustive pairwise check that all distances strictly exceed
    epsilon; raises on any violation."""
    space = _as_space(space)
    for i, c in enumerate(centers):
        if i == 0:
            continue
        d = dists_to_centers(space, c, centers[:i])
        if np.min(d) <= epsilon:
            raise AssertionError(
                f"packing violation: pair at distance {np.min(d)} <= {epsilon}"
            )


def greedy_net(
    space: SpaceLike,
    epsilon: float,
    sampler_budget: int = 500,
    probe_budget: int = 4000,
    rng=0,
    slack: float = 0.01,
) -> NetResult:
    """Empirically certified net with centers in the space: farthest-point
    insertion over a Haar probe cloud until every probe lies within
    epsilon * (1 + slack) of a center, or the center budget runs out."""
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    space = _as_space(space)
    rng = np.random.default_rng(rng)
    probes = [sample_point(space, rng) for _ in range(probe_budget)]
    centers: List[np.ndarray] = [probes[0]]
    nearest = np.full(len(probes), np.inf)
    exhausted = False
    while True:
        nearest = np.minimum(nearest, dists_to_centers(space, centers[-1], probes))
        worst = int(np.argmax(nearest))
        if nearest[worst] <= epsilon * (1.0 + slack):
            break
        if len(centers) >= sampler_budget:
            exhausted = True
            break
        centers.append(probes[worst])
    return NetResult(
        kind="net_Npp",
        epsilon=epsilon,
        points=centers,
        count=len(centers),
        budget_exhausted=exhausted,
        probe_count=probe_budget,
        probe_max_dist=float(np.max(nearest)),
    )


def volume_bounds(d: int, R: float, epsilon: float) -> Tuple[float, float]:
    """Two-sided volume-comparison bound on the covering number of a ball of
    radius R in real dimension d: ((R/eps)^d, (1 + 2R/eps)^d)."""
    if epsilon <= 0 or epsilon > R:
        raise InvalidArgumentError("need 0 < epsilon <= R")
    return (R / epsilon) ** d, (1 + 2 * R / epsilon) ** d


def linearized_cover(
    space: HomSpace,
    epsilon: float,
    grid_resolution: Optional[float] = None,
    override_kappa_gate: bool = False,
) -> NetResult:
    """Covering centers for M built by a lattice in the complement of the
    subalgebra, pushed through exp and the quotient map (a contraction).

    Requires a space with known complement-projection norm equal to one
    (the surjectivity of the scheme depends on it) unless overridden.
    """
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    if kappa_known(space) != 1.0 and not override_kappa_gate:
        raise InvalidArgumentError(
            "linearized cover needs kappa = 1 (or an explicit override)"
        )
    R = diameter_known(space)
    if R is None:
        from .invariants import diameter_estimate

        R = diameter_estimate(space)
    if epsilon >= R:
        g = space.group
        return NetResult("net_Npp", epsilon, [g.identity()], 1, False)
    basis = component_basis(space, "X")
    dim = len(basis)
    mesh = grid_resolution if grid_resolution is not None else epsilon / np.sqrt(dim)
    stack = np.stack(basis)
    # the coefficient vector has Euclidean norm equal to the Frobenius norm
    # of the matrix, which bounds sqrt(n) times the operator norm
    reach = np.sqrt(space.n) * R
    half = int(np.ceil(reach / mesh))
    centers = []
    for idx in iter_product(range(-half, half + 1), repeat=dim):
        c = mesh * np.array(idx, dtype=float)
        if np.linalg.norm(c) > reach + mesh:
            continue
        x = np.tensordot(c, stack, axes=(0, 0))
        # keep lattice points inside the ball itself; boundary points round
        # inward, and the quotient's fold keeps the edge of the ball covered
        if opnorm(x) > R:
            continue
        centers.append(expm_skew(x))
    return NetResult(
        kind="net_Npp",
        epsilon=epsilon,
        points=centers,
        count=len(centers),
        budget_exhausted=False,
    )


def certify_cover(
    space: SpaceLike, net: NetResult, probe_budget: int = 2000, rng=0
) -> float:
    """Max distance from Haar probes to the nearest net center; stores it on
    the result and returns it."""
    space = _as_space(space)
    rng = np.random.default_rng(rng)
    worst = 0.0
    for _ in range(probe_budget):
        p = sample_point(space, rng)
        worst = max(worst, float(np.min(dists_to_centers(space, p, net.points))))
    net.probe_count = probe_budget
    net.probe_max_dist = worst
    return worst


def _theta_intrinsic(space: HomSpace) -> Optional[float]:
    t = theta_known(space)
    if t is None:
        return None
    if theta_units(space) == "extrinsic":
        return float(2 * np.arcsin(min(t, 2.0) / 2))
    return t


def theorem8_bounds(
    space: HomSpace,
    epsilon: float,
    c: float = 1.0 / 40,
    C: float = 9.0,
    diam: Optional[float] = None,
    theta: Optional[float] = None,
) -> BoundReport:
    """Evaluate the two-sided covering bound (c theta / eps)^d and
    (C diam / eps)^d with the supplied constants.

    The default constants are engineering defaults, not values the theory
    pins down; reports always carry the constants used.  The lower bound is
    flagged inapplicable outside (0, theta/4]; the upper outside
    (0, diam].
    """
    d = space.dim
    if diam is None:
        diam = diameter_known(space)
    if theta is None:
        theta = _theta_intrinsic(space)
    lower = upper = None
    lower_ok = upper_ok = False
    if theta is not None and 0 < epsilon <= theta / 4:
        lower_ok = True
    if theta is not None:
        lower = (c * theta / epsilon) ** d
    if diam is not None:
        upper = (C * diam / epsilon) ** d
        upper_ok = 0 < epsilon <= diam
    return BoundReport(
        epsilon=epsilon,
        dim_M=d,
        theta=theta,
        diam=diam,
        c=c,
        C=C,
        lower_bound=lower,
        upper_bound=upper,
        lower_applicable=lower_ok,
        upper_applicable=upper_ok,
    )


def _kappa_upper(space: HomSpace) -> float:
    k = kappa_known(space)
    if k is not None:
        return k
    # the subalgebra projection is a norm-one conditional expectation for
    # every supported subgroup, so the complement projection has norm <= 2
    return 2.0


def theorem11_gate(space: HomSpace, alpha: float) -> dict:
    """Structural applicability check for the dimension-gap / reducing
    subspace / full-unitary-factor covering bound.

    Returns the satisfied branch ("a", "b", "c" or "none") together with a
    witness description and the invariant gate value.
    """
    if not (0 < alpha <= 0.5):
        raise InvalidArgumentError("alpha must be in (0, 1/2]")
    n = space.n
    sub = space.subgroup
    theta = theta_known(space)
    diam = diameter_known(space)
    gate_vals = [1.0 / _kappa_upper(space)]
    if theta is not None:
        gate_vals.append(theta)
    if diam is not None:
        gate_vals.append(diam)
    gate = min(gate_vals)
    satisfied_gate = gate >= alpha

    # report the branch the subgroup structure canonically certifies:
    # tensor factors always provide a reducing subspace (b); block subgroups
    # with a large block carry a full unitary factor (c); otherwise the
    # dimension gap (a), then (b) as fallback
    branch = "none"
    witness = None
    dim_H = space.dim_H
    gap = dim_H <= (1 - alpha) * space.group.dim
    e_dim = _reducing_subspace_dim(sub, n, alpha)
    big = max(sub.blocks(n)) if sub.kind in ("block_diagonal", "grassmann") else 0
    if sub.kind == "tensor_factor" and e_dim is not None:
        branch, witness = "b", f"reducing subspace of dim {e_dim}"
    elif big >= alpha * n and sub.kind in ("block_diagonal", "grassmann"):
        branch, witness = "c", f"full unitary factor on a block of dim {big}"
    elif gap:
        branch, witness = "a", f"dim H = {dim_H} <= (1-alpha) dim G"
    elif e_dim is not None:
        branch, witness = "b", f"reducing subspace of dim {e_dim}"
    return {
        "satisfied": satisfied_gate and branch != "none",
        "branch": branch,
        "witness": witness,
        "gate_value": gate,
        "alpha": alpha,
    }


def _reducing_subspace_dim(sub, n: int, alpha: float) -> Optional[int]:
    """Dimension of a reducing subspace with alpha n <= dim <= (1-alpha) n,
    if the block structure provides one."""
    if sub.kind in ("block_diagonal", "grassmann"):
        sizes = sub.blocks(n)
        # subset sums of blocks are exactly the reducing-subspace dims
        sums = {0}
        for b in sizes:
            sums |= {s + b for s in sums}
        good = [s for s in sorted(sums) if alpha * n <= s <= (1 - alpha) * n]
        return good[0] if good else None
    if sub.kind == "tensor_factor":
        for j in range(1, sub.m):
            s = j * sub.k
            if alpha * n <= s <= (1 - alpha) * n:
                return s
    return None


def chain_consistent(
    net: NetResult, packing: NetResult, packing_half: Optional[NetResult] = None
) -> bool:
    """Covering/packing chain at matched epsilon: certified net count <=
    packing count, and (when given) packing at epsilon <= packing at
    epsilon / 2."""
    if net.epsilon != packing.epsilon:
        raise InvalidArgumentError("epsilon mismatch")
    ok = net.count <= packing.count
    if packing_half is not None:
        if abs(packing_half.epsilon - packing.epsilon / 2) > 1e-12:
            raise InvalidArgumentError("second packing must be at epsilon / 2")
        ok = ok and packing.count <= packing_half.count
    return ok
