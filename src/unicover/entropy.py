"""Packing and covering constructions on groups and homogeneous spaces,
and evaluation of the two-sided entropy bounds.

A packing is epsilon-separated by construction: the acceptance loop's
decisions are the certificate, each accepted pair cleared by its bracket or
by an exact distance, and verify_separated re-checks any point set from
scratch.  Net certification is probabilistic against a Haar probe cloud
(the exact covering number is bracketed between the certified net and the
packing count).

Each Haar cloud is drawn in one haar_samples call, in the stream order of
one-at-a-time draws.  greedy_curve draws, checks and featurizes one cloud
for a whole epsilon grid; each epsilon's net there is a prefix of one
farthest-point order, which does not depend on epsilon; on a closed form,
each packing there accepts that net unchecked and skips the rows its
bounds place within epsilon of it (see greedy_curve).  The loops first
bound every pair by the space's bracket (HomSpace.bracket: in the operator
norm, on the bare group and on Grassmannians, exact to rounding on those
with min(k, n - k) <= 2) and settle the pairs that clear epsilon, or the
distance in question, by MARGIN in s = sin^2(d / w), the coordinate of the
bounds; only the remaining pairs reach the exact distance.  The
farthest-point run keeps per probe bounds in s on its nearest distance,
and makes an exact call only where bounds cannot decide a comparison it
makes, or for a radius it reports.  Every decision near epsilon and every
reported value is an exact distance, so the results are those of the
exhaustive loops.  On spaces with no bracket every pair
is measured.

Each public entry point checks the points a caller passes once, with
GroupElement's rule (finite, unitary, and on SO(n) real with determinant
one), and raises InvalidArgumentError; the loops take plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .matcore import InvalidArgumentError
from .groups import HomSpace, _elements, haar_samples
from .metrics import _closed_form, _dists
from .invariants import _theta_intrinsic, diameter_known

# Candidates and probes are drawn, and their distances batched, this many at
# a time: enough to amortize the per-call overhead, few enough that a
# block's temporaries stay small beside the arrays of centers and probes.
BLOCK = 16

# A bracket settles a pair only when its bound clears the threshold in
# s = sin^2(d / w) by this much.  As |sin^2 x - sin^2 y| <= |x - y|, a gap
# of MARGIN in s is a gap of at least w MARGIN >= MARGIN in d: far above the
# rounding of the bracket and of the exact distances, far below any
# separation a construction resolves.  Where sin^2 is flat, near d = 0 and
# d = w pi/2, it is wider in d than MARGIN, and more pairs are measured.
MARGIN = 1e-9

# greedy_net covers every probe within epsilon * (1 + NET_SLACK).
NET_SLACK = 0.01


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
    cuts, sin2(epsilon) -+ MARGIN.  A pair with hi <= near fails its row;
    the pairs of the other rows with lo <= far, if any, are measured
    exactly, in one batched call."""
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


def _pack(space, points, feats, seeds, cands, epsilon: float, accepted=()) -> np.ndarray:
    """The rows of points (feats: their bracket_rows) that the greedy
    packing accepts from the rows seeds, then the rows cands, after the
    rows accepted, kept unchecked (pairwise farther apart than epsilon).
    Rows are taken BLOCK at a time (seeds and cands in separate blocks) and
    bounded by one bracket call against the points accepted before the
    block and the block itself.  A block is checked against the earlier
    points (the bracket, then one exact call for the undecided pairs); the
    survivors are then checked in order against the points the block
    itself accepted, so the accepted set is the one-at-a-time loop's."""
    # every row may be accepted, so these never need to grow; past count,
    # cfeats holds the current block's rows
    accepted = np.asarray(accepted, int)
    count = len(accepted)
    total = count + len(seeds) + len(cands)
    centers = np.empty((total,) + points.shape[1:], points.dtype)
    cfeats = np.empty((total, feats.shape[1]))
    kept = np.empty(total, int)
    centers[:count], cfeats[:count], kept[:count] = points[accepted], feats[accepted], accepted
    bracket = space.bracket
    cuts = bracket.sin2(epsilon) - MARGIN, bracket.sin2(epsilon) + MARGIN
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
    chosen, radii, _ = _farthest_points(space, probes, feats, sampler_budget, [epsilon])
    return _net(space, probes, chosen, radii, epsilon)


def _farthest_points(space, probes, feats, budget: int, epsilons):
    """The chosen rows of farthest-point insertion over the probes (feats:
    their bracket_rows) from probe 0, and per insertion its radius, the
    probes' largest distance to a chosen row, as (probe, center, lower,
    upper, dist): the pair that attains it, bounds in s on its distance
    and the distance, nan if not measured.  It stops at a radius of
    min(epsilons) * (1 + NET_SLACK) or budget rows.  Third, per epsilon,
    the probes' upper bounds at the first radius with lower bound at most
    sin2(epsilon * (1 + NET_SLACK)) + MARGIN, or the last: _net stops no
    sooner, so each probe's nearest row then is in the net at epsilon.

    Each probe keeps the same four for its nearest chosen row.  A new row's
    bracket takes a probe (hi below its lower bound) or leaves it (lo above
    its upper bound) when it clears by 2 MARGIN; where it settles every
    probe so, nothing is measured, and otherwise one exact call measures
    the row against every probe it does not leave and the unmeasured
    nearest distances of the undecided ones.  The next row is the first
    largest measured distance among the probes whose upper bound reaches
    the largest lower bound within 2 MARGIN (a lone one is not measured);
    the stop test is decided by the bounds unless they are within MARGIN
    of it.  Every pair is measured from the center, so rows and distances
    are those of measuring every pair at every insertion."""
    bracket, m = space.bracket, len(probes)
    owner = np.zeros(m, int)
    # before the first row, every distance is inf, and that row takes all
    lower, upper, dist = np.full((3, m), np.inf)

    def settle(rows, d):
        dist[rows] = d
        lower[rows] = upper[rows] = bracket.sin2(d)

    def measure(rows):
        rows = rows[np.isnan(dist[rows])]
        if len(rows):
            settle(rows, _dists(space, probes[owner[rows]], probes[rows]))

    chosen, radii = [0], []
    slack = min(epsilons) * (1.0 + NET_SLACK)
    cut = bracket.sin2(slack)
    tops = [bracket.sin2(e * (1.0 + NET_SLACK)) + MARGIN for e in epsilons]
    uppers = [None] * len(tops)
    while True:
        c = chosen[-1]
        lo, hi = (b[0] for b in bracket.sin2_bounds(feats[c:c + 1], feats, space.group))
        near = (lo <= upper + 2 * MARGIN).nonzero()[0]
        undecided = hi[near] >= lower[near] - 2 * MARGIN
        if not undecided.any():
            owner[near] = c
            lower[near], upper[near], dist[near] = lo[near], hi[near], np.nan
        else:
            # the taken probes are measured too, so that they do not go stale
            old = dist[near]
            stale = undecided & np.isnan(old)
            if stale.any():
                d = _dists(space, probes[np.concatenate([np.full(len(near), c), owner[near[stale]]])],
                           probes[np.concatenate([near, near[stale]])])
                d, old[stale] = d[:len(near)], d[len(near):]
            else:
                d = _dists(space, probes[c], probes[near])
            drop = ~undecided | (d < old)
            owner[near[drop]] = c
            settle(near, np.where(drop, d, old))
        i = lower.argmax()
        top = (upper >= lower[i] - 2 * MARGIN).nonzero()[0]
        if len(top) > 1:
            measure(top)
            i = top[dist[top].argmax()]
        worst, done = int(i), len(chosen) >= budget
        if not done and lower[worst] <= cut + MARGIN and upper[worst] > cut - MARGIN:
            measure(np.array([worst]))  # the bounds do not settle the stop test
        r = float(dist[worst])
        radii.append((worst, int(owner[worst]), float(lower[worst]), float(upper[worst]), r))
        for e, top in enumerate(tops):
            if uppers[e] is None and lower[worst] <= top:
                uppers[e] = upper.copy()
        if done or (upper[worst] <= cut if np.isnan(r) else r <= slack):
            return chosen, radii, [upper if u is None else u for u in uppers]
        chosen.append(worst)


def _net(space, probes, chosen, radii, epsilon: float) -> NetResult:
    """The net at epsilon from a _farthest_points run to epsilon or below:
    the shortest prefix of its rows whose radius is within epsilon * (1 +
    NET_SLACK), or all of them, the budget exhausted.  A radius is measured
    only where its bounds do not clear that threshold by MARGIN in s, and
    for the prefix it reports."""
    slack = epsilon * (1.0 + NET_SLACK)
    cut = space.bracket.sin2(slack)
    for k, (p, c, lo, hi, d) in enumerate(radii, 1):
        stop = k == len(radii) or hi <= cut - MARGIN
        if np.isnan(d) and (stop or lo <= cut + MARGIN):
            d = float(_dists(space, probes[c], probes[p]))
        if stop or d <= slack:
            return NetResult("net_Npp", epsilon, probes[chosen[:k]], k, d > slack, len(probes), d)


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
    farthest-point run to the smallest epsilon.  Each center was inserted
    as the farthest probe at a radius where the net did not stop, hence
    farther than epsilon * (1 + NET_SLACK) from the centers before it, so
    the packing accepts the net unchecked; it drops the later rows (seeds
    and candidates) whose upper bound from that run is at most
    sin2(epsilon) - MARGIN, as their nearest center is in the net.  Both
    rules take d(a, b) for d(b, a), which only a closed form (see
    metrics._closed_form) gives to rounding."""
    grid = [float(e) for e in epsilon_grid]
    if not grid or not all(0 < e < np.inf for e in grid):
        raise InvalidArgumentError("epsilon_grid must be nonempty, positive and finite")
    if budget < 1 or (probe_budget is not None and probe_budget < 1):
        raise InvalidArgumentError("budget and probe_budget must be positive")
    cloud = haar_samples(space.group, np.random.default_rng(rng),
                         max(budget, probe_budget or 0))
    feats = space.bracket.bracket_rows(cloud)
    rows, uppers, exact = np.arange(budget), [None] * len(grid), False
    if probe_budget is not None:
        probes = cloud[:probe_budget]
        chosen, radii, uppers = _farthest_points(space, probes, feats[:probe_budget], budget, grid)
        exact = _closed_form(space)
    curve, kept = [], rows[:0]
    for eps, upper in zip(grid, uppers):
        net = None if probe_budget is None else _net(space, probes, chosen, radii, eps)
        prefix = rows[:0] if net is None else np.array(chosen[:net.count])
        if exact:
            near = np.pad(upper <= space.bracket.sin2(eps) - MARGIN, (0, len(cloud) - len(upper)))
            kept = _pack(space, cloud, feats, kept[~near[kept]], rows[~near[:budget]], eps, accepted=prefix)
        else:
            kept = _pack(space, cloud, feats, np.concatenate([prefix, kept]), rows, eps)
        curve.append((NetResult("packing_tilde", eps, cloud[kept], len(kept), True), net))
    return curve


def certify_cover(
    space: HomSpace, net: NetResult, probe_budget: int = 2000, rng=0
) -> float:
    """Max distance from Haar probes to the nearest net center; stores it on
    the result and returns it.  A probe's smallest bracket upper bound caps
    its nearest distance, so only the centers whose lower bound is within
    MARGIN of that cap are measured.  Each pair is measured from the
    center, as greedy_net measures it, so a net certified on its own probe
    stream gives back its probe_max_dist."""
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
        rows, cols = np.nonzero(lo <= np.min(hi, axis=1, keepdims=True) + MARGIN)
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
    if not 0 < epsilon < np.inf:
        raise InvalidArgumentError("epsilon must be positive and finite")
    d = space.dim
    diam = diameter_known(space)
    theta = _theta_intrinsic(space)
    lower = upper = None
    lower_ok = upper_ok = False
    if theta is not None:
        lower = (c * theta / epsilon) ** d
        lower_ok = epsilon <= theta / 4
    if diam is not None:
        upper = (C * diam / epsilon) ** d
        upper_ok = epsilon <= diam
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
