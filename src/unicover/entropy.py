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
one-at-a-time draws.  greedy_curve draws, checks and featurizes one cloud
for a whole epsilon grid; each epsilon's net there is a prefix of one
farthest-point order, which does not depend on epsilon.  The loops first
bound every pair by the space's bracket (HomSpace.bracket: in the operator
norm, on the bare group and on Grassmannians, exact to rounding on those
with min(k, n - k) <= 2) and settle the pairs that clear epsilon, or the
distance in question, by MARGIN, against thresholds the bracket maps once
(its sin2_cut); only the remaining pairs reach the exact distance.  Every
decision near epsilon and every reported value is an exact distance, so
the results are those of the exhaustive loops.  On spaces with no bracket
every pair is measured.

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
from .groups import MARGIN, HomSpace, _elements, component_basis, haar_samples
from .metrics import _dists
from .invariants import _theta_intrinsic, diameter_known, kappa_known, theta_known

# Candidates and probes are drawn, and their distances batched, this many at
# a time: enough to amortize the per-call overhead, few enough that a
# block's temporaries stay small beside the arrays of centers and probes.
BLOCK = 16

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


def _all_farther(space, a, b, lo, hi, cuts, epsilon: float) -> np.ndarray:
    """For each point of a, whether its distance to every point of b
    exceeds epsilon, given the bracket bounds lo and hi of each pair and
    cuts, the sin2_cut of epsilon -+ MARGIN.  A pair with hi <= near fails
    its row; the pairs of the other rows with lo <= far, if any, are
    measured exactly, in one batched call."""
    near, far = cuts
    ok = ~np.any(hi <= near, axis=1)
    rows, cols = np.nonzero(ok[:, np.newaxis] & (lo <= far))
    if len(rows):
        ok[rows[_dists(space, a[rows], b[cols]) <= epsilon]] = False
    return ok


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
    """
    if not 0 < epsilon < np.inf:
        raise InvalidArgumentError("epsilon must be positive and finite")
    if sampler_budget < 0:
        raise InvalidArgumentError("sampler_budget must be nonnegative")
    g = space.group
    rng = np.random.default_rng(rng)
    seeds = _elements(g, () if initial is None else initial)
    points = np.concatenate([seeds, haar_samples(g, rng, sampler_budget)],
                            dtype=np.result_type(seeds, g.identity()))
    rows = np.arange(len(points))
    kept = _pack(space, points, space.bracket.bracket_rows(points),
                 rows[:len(seeds)], rows[len(seeds):], epsilon)
    return NetResult("packing_tilde", epsilon, points[kept], len(kept), True)


def _pack(space, points, feats, seeds, cands, epsilon: float) -> np.ndarray:
    """The rows of points (feats: their bracket_rows) that the greedy
    packing accepts from the rows seeds, then the rows cands.  Rows are
    taken BLOCK at a time (seeds and cands in separate blocks) and bounded
    by one bracket call against the points accepted before the block and
    the block itself.  A block is checked against the earlier
    points (the bracket, then one exact call for the undecided pairs); the
    survivors are then checked in order against the points the block
    itself accepted, so the accepted set is the one-at-a-time loop's."""
    # every row may be accepted, so these never need to grow; past count,
    # cfeats holds the current block's rows
    total = len(seeds) + len(cands)
    centers = np.empty((total,) + points.shape[1:], points.dtype)
    cfeats = np.empty((total, feats.shape[1]))
    kept = np.empty(total, int)
    bracket = space.bracket
    cuts = bracket.sin2_cut(epsilon - MARGIN, -np.inf), bracket.sin2_cut(epsilon + MARGIN, np.inf)
    count = 0
    for rows in chain(_blocks(seeds), _blocks(cands)):
        block, fb, base = points[rows], feats[rows], count
        cfeats[base:base + len(rows)] = fb
        lo, hi = bracket.sin2_bounds(fb, cfeats[:base + len(rows)], space.group)
        far = _all_farther(space, block, centers[:base], lo[:, :base], hi[:, :base], cuts, epsilon)
        lo, hi = lo[:, base:], hi[:, base:]  # the block against itself
        taken = []  # rows of the block accepted so far
        for j in np.flatnonzero(far):
            if _all_farther(space, block[j:j + 1], block[taken],
                            lo[j:j + 1, taken], hi[j:j + 1, taken], cuts, epsilon)[0]:
                centers[count], cfeats[count], kept[count] = block[j], fb[j], rows[j]
                taken.append(j)
                count += 1
    return kept[:count]


def verify_separated(space: HomSpace, centers, epsilon: float) -> None:
    """Exhaustive pairwise check that all distances strictly exceed
    epsilon; raises on any violation.  The packing's acceptance loop run on
    the points in order keeps them all exactly when no pair is within
    epsilon: it checks each against every earlier point it kept, by the
    bracket or an exact distance."""
    if not 0 < epsilon < np.inf:
        raise InvalidArgumentError("epsilon must be positive and finite")
    pts = _elements(space.group, centers)
    rows = np.arange(len(pts))
    kept = _pack(space, pts, space.bracket.bracket_rows(pts), rows, rows[:0], epsilon)
    if len(kept) < len(pts):
        # kept ascends, so it is rows up to the first point left out, j
        j = int(np.count_nonzero(kept == rows[:len(kept)]))
        d = _dists(space, pts[j], pts[:j])
        i = int(np.argmin(d))
        raise AssertionError(f"packing violation: points {i} and {j} at distance {d[i]} <= {epsilon}")


def greedy_net(
    space: HomSpace,
    epsilon: float,
    sampler_budget: int = 500,
    probe_budget: int = 4000,
    rng=0,
) -> NetResult:
    """Empirically certified net with centers in the space: farthest-point
    insertion over a Haar probe cloud until every probe lies within
    epsilon * (1 + NET_SLACK) of a center, or the center budget runs out.
    The insertion order does not depend on epsilon, only where it stops, so
    the net at a larger epsilon is a prefix of the net at a smaller one."""
    if not 0 < epsilon < np.inf:
        raise InvalidArgumentError("epsilon must be positive and finite")
    if sampler_budget < 1 or probe_budget < 1:
        raise InvalidArgumentError("sampler_budget and probe_budget must be positive")
    probes = haar_samples(space.group, np.random.default_rng(rng), probe_budget)
    feats = space.bracket.bracket_rows(probes)
    return _net(probes, *_farthest_points(space, probes, feats, sampler_budget, epsilon), epsilon)


def _farthest_points(space, probes, feats, budget: int, epsilon: float):
    """The chosen rows of farthest-point insertion over the probes (feats:
    their bracket_rows) from probe 0, and after each insertion the probes'
    largest distance to a chosen row; it stops at a radius of epsilon * (1 +
    NET_SLACK) or budget rows.  A new row is measured exactly only against
    the probes its bracket might bring closer: those whose lo is below the
    sin2_cut of nearest + MARGIN, kept per probe and recomputed where
    nearest drops."""
    bracket = space.bracket
    chosen, radii = [0], []
    nearest = np.full(len(probes), np.inf)
    cut = np.full(len(probes), np.inf)
    while True:
        c = chosen[-1]
        lo, _ = bracket.sin2_bounds(feats[c:c + 1], feats, space.group)
        near = np.flatnonzero(lo[0] < cut)
        d = _dists(space, probes[c], probes[near])
        drop = d < nearest[near]
        near, d = near[drop], d[drop]
        nearest[near], cut[near] = d, bracket.sin2_cut(d + MARGIN, np.inf)
        worst = int(np.argmax(nearest))
        radii.append(float(nearest[worst]))
        if radii[-1] <= epsilon * (1.0 + NET_SLACK) or len(chosen) >= budget:
            return chosen, radii
        chosen.append(worst)


def _net(probes, chosen, radii, epsilon: float) -> NetResult:
    """The net at epsilon from a _farthest_points run to epsilon or below:
    the shortest prefix of its rows whose radius is within epsilon * (1 +
    NET_SLACK), or all of them, the budget exhausted."""
    slack = epsilon * (1.0 + NET_SLACK)
    k = next((i + 1 for i, r in enumerate(radii) if r <= slack), len(radii))
    return NetResult("net_Npp", epsilon, probes[chosen[:k]], k, radii[k - 1] > slack,
                     len(probes), radii[k - 1])


def greedy_curve(
    space: HomSpace,
    epsilon_grid,
    budget: int,
    probe_budget: Optional[int] = None,
    rng=0,
) -> list:
    """Per epsilon of the grid, in its order, the pair (packing, net or
    None): greedy_net(space, epsilon, budget, probe_budget, rng) with a
    probe_budget, and greedy_packing(space, epsilon, budget, rng, initial)
    seeded with that net's centers and the previous epsilon's packing, so
    the chain count comparisons hold by construction.  For an integer seed
    the results equal those calls', from one Haar cloud of max(budget,
    probe_budget) points (the first probe_budget are the probes, the first
    budget the candidates) checked and featurized once, and one
    farthest-point run to the smallest epsilon."""
    grid = [float(e) for e in epsilon_grid]
    if not grid or not all(0 < e < np.inf for e in grid):
        raise InvalidArgumentError("epsilon_grid must be nonempty, positive and finite")
    if budget < 1 or (probe_budget is not None and probe_budget < 1):
        raise InvalidArgumentError("budget and probe_budget must be positive")
    cloud = haar_samples(space.group, np.random.default_rng(rng),
                         max(budget, probe_budget or 0))
    feats = space.bracket.bracket_rows(cloud)
    if probe_budget is not None:
        probes = cloud[:probe_budget]
        order = _farthest_points(space, probes, feats[:probe_budget], budget, min(grid))
    curve, kept = [], np.empty(0, int)
    for eps in grid:
        net = None if probe_budget is None else _net(probes, *order, eps)
        seeds = kept if net is None else np.concatenate([order[0][:net.count], kept])
        kept = _pack(space, cloud, feats, seeds, np.arange(budget), eps)
        curve.append((NetResult("packing_tilde", eps, cloud[kept], len(kept), True), net))
    return curve


def linearized_cover(
    space: HomSpace,
    epsilon: float,
    override_kappa_gate: bool = False,
) -> NetResult:
    """Covering centers for M built by a lattice in the complement of the
    subalgebra, pushed through exp and the quotient map (a contraction).

    Requires a space with known complement-projection norm equal to one
    (the surjectivity of the scheme depends on it) unless overridden, a
    known diameter, and the operator norm: the lattice ball, its reach and
    its mesh are all measured in it.
    """
    if not 0 < epsilon < np.inf:
        raise InvalidArgumentError("epsilon must be positive and finite")
    if not space.norm.is_operator:
        raise InvalidArgumentError("linearized cover needs the operator norm")
    if kappa_known(space) != 1.0 and not override_kappa_gate:
        raise InvalidArgumentError(
            "linearized cover needs kappa = 1 (or an explicit override)"
        )
    # a sampled diameter is a lower bound, the wrong side for the reach of
    # a covering ball
    R = diameter_known(space)
    if R is None:
        raise InvalidArgumentError("linearized cover needs a known diameter")
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
    return NetResult("net_Npp", epsilon, np.array(centers), len(centers), False)


def certify_cover(
    space: HomSpace, net: NetResult, probe_budget: int = 2000, rng=0
) -> float:
    """Max distance from Haar probes to the nearest net center; stores it on
    the result and returns it.  A probe's smallest bracket upper bound caps
    its nearest distance, so only the centers whose lower bound is within
    MARGIN of that cap (its sin2_cut) are measured.  Each pair is measured
    from the center, as greedy_net measures it, so a net certified on its
    own probe stream gives back its probe_max_dist."""
    if probe_budget < 1:
        raise InvalidArgumentError("probe_budget must be positive")
    centers = _elements(space.group, net.points)
    if len(centers) == 0:
        raise InvalidArgumentError("net has no centers")
    rng = np.random.default_rng(rng)
    bracket = space.bracket
    feats = bracket.bracket_rows(centers)
    worst = 0.0
    for block in _blocks(haar_samples(space.group, rng, probe_budget)):
        lo, hi = bracket.sin2_bounds(bracket.bracket_rows(block), feats, space.group)
        cap = bracket.sin2_dist(np.min(hi, axis=1, keepdims=True))
        rows, cols = np.nonzero(lo <= bracket.sin2_cut(cap + MARGIN, np.inf))
        nearest = np.full(len(block), np.inf)
        np.minimum.at(nearest, rows, _dists(space, centers[cols], block[rows]))
        worst = max(worst, float(np.max(nearest)))
    net.probe_count = probe_budget
    net.probe_max_dist = worst
    return worst


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
