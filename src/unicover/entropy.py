"""Packing and covering constructions on groups and homogeneous spaces,
the exp-linearized covering scheme, and evaluation of the two-sided entropy
bounds.

A packing is epsilon-separated by construction: the acceptance loop's
decisions are the certificate, each accepted pair cleared by its bracket or
by an exact distance, and verify_separated re-checks any point set from
scratch.  Net certification is probabilistic against a Haar probe cloud
(the exact covering number is bracketed between the certified net and the
packing count).

Each Haar cloud is drawn in one haar_samples call, in the stream order of
one-at-a-time draws.  In the operator norm, on the bare group and on
Grassmannians, the loops first bound every pair by metrics._bracket
(lo <= d <= hi, from products of feature rows; exact to rounding on the
Grassmannians with min(k, n - k) <= 2) and settle the pairs that clear
epsilon, or the distance in question, by MARGIN; only the remaining pairs
reach the exact distance.  Every decision near epsilon and every reported
value is an exact distance, so the results are those of the exhaustive
loops.  On spaces with no bracket every pair is measured.

Each public entry point checks the points a caller passes once, with
GroupElement's rule (finite, unitary, and on SO(n) real with determinant
one), and raises InvalidArgumentError; the loops take plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product as iter_product
from typing import Optional

import numpy as np

from .matcore import InvalidArgumentError, expm_skew, opnorm
from .groups import HomSpace, _elements, component_basis, haar_samples
from .metrics import _bracket, _bracket_features, _dists
from .invariants import (
    diameter_estimate,
    diameter_known,
    kappa_known,
    theta_known,
    theta_units,
)

# Candidates and probes are drawn, and their distances batched, this many at
# a time: enough to amortize the per-call overhead, few enough that a
# block's temporaries stay small beside the arrays of centers and probes.
BLOCK = 16

# A bracket settles a pair only when it clears the threshold by this much:
# far above the rounding of the bracket and of the exact distances, far
# below any separation a construction resolves.
MARGIN = 1e-9

# greedy_net covers every probe within epsilon * (1 + NET_SLACK).
NET_SLACK = 0.01

# linearized_cover walks every point of its lattice cube, (2 half + 1)^dim
# of them, one at a time; past this many it refuses instead.
LATTICE_LIMIT = 10**6


@dataclass
class NetResult:
    """Outcome of a packing or net construction."""

    kind: str  # "packing_tilde" or "net_Npp"
    epsilon: float
    points: np.ndarray  # (count, n, n) group representatives
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


def _all_farther(space, a, b, lo, hi, epsilon: float) -> np.ndarray:
    """For each point of a, whether its distance to every point of b
    exceeds epsilon, given the bracket lo <= d <= hi of each pair.  A pair
    with hi <= epsilon - MARGIN fails its row; the pairs of the other rows
    with lo <= epsilon + MARGIN are measured exactly, in one batched call."""
    far = ~np.any(hi <= epsilon - MARGIN, axis=1)
    rows, cols = np.nonzero(far[:, np.newaxis] & (lo <= epsilon + MARGIN))
    far[rows[_dists(space, a[rows], b[cols]) <= epsilon]] = False
    return far


def _push(buf: np.ndarray, count: int, row) -> np.ndarray:
    """buf with row stored at index count, doubled first when full."""
    if count == len(buf):
        grow = np.empty((max(count, BLOCK),) + buf.shape[1:], buf.dtype)
        buf = np.concatenate([buf, grow])
    buf[count] = row
    return buf


def _blocks(x: np.ndarray):
    """The consecutive slices of at most BLOCK rows of x."""
    return (x[i:i + BLOCK] for i in range(0, len(x), BLOCK))


def dists_to_centers(space: HomSpace, a: np.ndarray, centers) -> np.ndarray:
    """Vector of distances from one point to each center (a stack of shape
    (m, n, n)): the intrinsic metric on a group, the quotient metric on a
    homogeneous space.  Batched over the centers where the space has a
    closed form; otherwise an optimizer upper bound per center."""
    g = space.group
    return _dists(space, _elements(g, a, stack=False), _elements(g, centers))


def greedy_packing(
    space: HomSpace,
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

    Candidates are taken BLOCK at a time and checked against the centers
    accepted before the block (the bracket first, then one exact call for
    the undecided pairs); the survivors are then checked in order against
    the centers the block itself has accepted, so the accepted set is the
    one-at-a-time loop's.
    """
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    g = space.group
    rng = np.random.default_rng(rng)
    seeds = _elements(g, () if initial is None else initial)
    cands = haar_samples(g, rng, sampler_budget)
    blocks = chain(_blocks(seeds), _blocks(cands))
    centers = np.empty((0, g.n, g.n), np.result_type(seeds, g.identity()))
    feats = _bracket_features(space, centers)
    count = 0
    for block in blocks:
        fb = _bracket_features(space, block)
        lo, hi = _bracket(space, fb, feats[:count])
        far = _all_farther(space, block, centers[:count], lo, hi, epsilon)
        lo, hi = _bracket(space, fb, fb)
        taken = []  # rows of the block accepted so far
        for j in np.flatnonzero(far):
            if _all_farther(space, block[j:j + 1], block[taken],
                            lo[j:j + 1, taken], hi[j:j + 1, taken], epsilon)[0]:
                centers = _push(centers, count, block[j])
                feats = _push(feats, count, fb[j])
                taken.append(j)
                count += 1
    centers = centers[:count].copy()
    return NetResult(
        kind="packing_tilde",
        epsilon=epsilon,
        points=centers,
        count=count,
        budget_exhausted=True,
    )


def verify_separated(space: HomSpace, centers, epsilon: float) -> None:
    """Exhaustive pairwise check that all distances strictly exceed
    epsilon; raises on any violation.  Every pair is either certified by
    its bracket (lo > epsilon + MARGIN) or measured exactly."""
    pts = _elements(space.group, centers)
    feats = _bracket_features(space, pts)
    for start in range(0, len(pts), BLOCK):
        stop = min(start + BLOCK, len(pts))
        lo, _ = _bracket(space, feats[start:stop], feats[:stop])
        # each row against the points before it
        earlier = np.arange(stop) < np.arange(start, stop)[:, np.newaxis]
        rows, cols = np.nonzero(earlier & (lo <= epsilon + MARGIN))
        d = _dists(space, pts[start + rows], pts[cols])
        if d.size and np.min(d) <= epsilon:
            i = int(np.argmin(d))
            raise AssertionError(
                f"packing violation: points {cols[i]} and {start + rows[i]} "
                f"at distance {d[i]} <= {epsilon}"
            )


def greedy_net(
    space: HomSpace,
    epsilon: float,
    sampler_budget: int = 500,
    probe_budget: int = 4000,
    rng=0,
) -> NetResult:
    """Empirically certified net with centers in the space: farthest-point
    insertion over a Haar probe cloud until every probe lies within
    epsilon * (1 + NET_SLACK) of a center, or the center budget runs out.  A
    new center is measured exactly only against the probes its bracket
    might bring closer (lo < nearest + MARGIN)."""
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    rng = np.random.default_rng(rng)
    probes = haar_samples(space.group, rng, probe_budget)
    feats = _bracket_features(space, probes)
    chosen = [0]
    nearest = np.full(probe_budget, np.inf)
    exhausted = False
    while True:
        c = chosen[-1]
        lo, _ = _bracket(space, feats[c:c + 1], feats)
        near = np.flatnonzero(lo[0] < nearest + MARGIN)
        nearest[near] = np.minimum(nearest[near], _dists(space, probes[c], probes[near]))
        worst = int(np.argmax(nearest))
        if nearest[worst] <= epsilon * (1.0 + NET_SLACK):
            break
        if len(chosen) >= sampler_budget:
            exhausted = True
            break
        chosen.append(worst)
    return NetResult(
        kind="net_Npp",
        epsilon=epsilon,
        points=probes[chosen],
        count=len(chosen),
        budget_exhausted=exhausted,
        probe_count=probe_budget,
        probe_max_dist=float(np.max(nearest)),
    )


def linearized_cover(
    space: HomSpace,
    epsilon: float,
    override_kappa_gate: bool = False,
) -> NetResult:
    """Covering centers for M built by a lattice in the complement of the
    subalgebra, pushed through exp and the quotient map (a contraction).

    Requires a space with known complement-projection norm equal to one
    (the surjectivity of the scheme depends on it) unless overridden, and
    the operator norm: the lattice ball, its reach and its mesh are all
    measured in it.
    """
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    if not space.norm.is_operator:
        raise InvalidArgumentError("linearized cover needs the operator norm")
    if kappa_known(space) != 1.0 and not override_kappa_gate:
        raise InvalidArgumentError(
            "linearized cover needs kappa = 1 (or an explicit override)"
        )
    R = diameter_known(space)
    if R is None:
        R = diameter_estimate(space)
    if epsilon >= R:
        return NetResult("net_Npp", epsilon, space.group.identity()[np.newaxis], 1, False)
    basis = component_basis(space, "X")
    dim = len(basis)
    mesh = epsilon / np.sqrt(dim)
    stack = np.stack(basis)
    # the coefficient vector has Euclidean norm equal to the Frobenius norm
    # of the matrix, which bounds sqrt(n) times the operator norm
    reach = np.sqrt(space.n) * R
    half = int(np.ceil(reach / mesh))
    cube = (2 * half + 1) ** dim
    if cube > LATTICE_LIMIT:
        raise InvalidArgumentError(f"lattice cube of {cube} points exceeds {LATTICE_LIMIT}")
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
        points=np.array(centers),
        count=len(centers),
        budget_exhausted=False,
    )


def certify_cover(
    space: HomSpace, net: NetResult, probe_budget: int = 2000, rng=0
) -> float:
    """Max distance from Haar probes to the nearest net center; stores it on
    the result and returns it.  A probe's smallest bracket upper bound caps
    its nearest distance, so only the centers whose lower bound is within
    MARGIN of that cap are measured.  Each pair is measured from the center,
    as greedy_net measures it, so a net certified on its own probe stream
    gives back its probe_max_dist."""
    rng = np.random.default_rng(rng)
    centers = _elements(space.group, net.points)
    feats = _bracket_features(space, centers)
    worst = 0.0
    for block in _blocks(haar_samples(space.group, rng, probe_budget)):
        lo, hi = _bracket(space, _bracket_features(space, block), feats)
        rows, cols = np.nonzero(lo <= np.min(hi, axis=1, keepdims=True) + MARGIN)
        nearest = np.full(len(block), np.inf)
        np.minimum.at(nearest, rows, _dists(space, centers[cols], block[rows]))
        worst = max(worst, float(np.max(nearest)))
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
) -> BoundReport:
    """Evaluate the two-sided covering bound (c theta / eps)^d and
    (C diam / eps)^d with the supplied constants and the space's known
    theta (in intrinsic units) and diameter.

    The default constants are engineering defaults, not values the theory
    pins down; reports always carry the constants used.  The lower bound is
    flagged inapplicable outside (0, theta/4]; the upper outside
    (0, diam].
    """
    d = space.dim
    diam = diameter_known(space)
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
    # the subalgebra projection is a norm-one conditional expectation for
    # every supported subgroup, so the complement projection has norm <= 2
    kappa = kappa_known(space)
    known = (1.0 / (2.0 if kappa is None else kappa), theta_known(space),
             diameter_known(space))
    gate = min(v for v in known if v is not None)
    satisfied_gate = gate >= alpha

    # report the branch the subgroup structure canonically certifies:
    # tensor factors always provide a reducing subspace (b); block subgroups
    # with a large block carry a full unitary factor (c); otherwise the
    # dimension gap (a), then (b) as fallback
    branch = "none"
    witness = None
    dim_H = space.dim_H
    gap = dim_H <= (1 - alpha) * space.group.dim
    e_dim = next((s for s in sub.reducing_dims(n)
                  if alpha * n <= s <= (1 - alpha) * n), None)
    big = sub.full_block(n)
    if sub.reducing_first and e_dim is not None:
        branch, witness = "b", f"reducing subspace of dim {e_dim}"
    elif big >= alpha * n:
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
