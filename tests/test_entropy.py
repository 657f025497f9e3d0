"""Packing/covering construction tests: brute-force circle oracles, seed
stability, the linearized covering scheme and the two-sided bound
evaluation."""

import itertools
import time

import numpy as np
import pytest

from unicover import entropy, metrics
from unicover.matcore import FROBENIUS, InvalidArgumentError, NormSpec, expm_skew
from unicover.groups import GroupSpec, HomSpace, SubgroupSpec, haar_sample, haar_samples
from unicover.metrics import _dists
from unicover.entropy import (
    BLOCK,
    MARGIN,
    chain_consistent,
    certify_cover,
    greedy_curve,
    greedy_net,
    greedy_packing,
    dists_to_centers,
    linearized_cover,
    theorem8_bounds,
    theorem11_gate,
    verify_separated,
)

from conftest import cuts

U1 = HomSpace(GroupSpec("U", 1))
G31_REAL = HomSpace(GroupSpec("SO", 3), SubgroupSpec.grassmann(1))
G42 = HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2))
G53 = HomSpace(GroupSpec("U", 5), SubgroupSpec.grassmann(3))


def circle_max_packing_bruteforce(epsilon: float, grid: int = 720) -> int:
    """Largest epsilon-separated set on the circle (arc metric), found over
    a uniform grid of candidate phases.

    The first point is pinned at phase 0 (rotation invariance); earliest-fit
    is optimal on a circle by the standard exchange argument, so scanning the
    grid once finds the maximum."""
    phases = np.linspace(0, 2 * np.pi, grid, endpoint=False)
    count, last = 1, 0.0
    for p in phases:
        if p - last > epsilon and 2 * np.pi - p > epsilon:
            count += 1
            last = p
    return count


class TestGreedyPacking:
    def test_circle_matches_bruteforce(self):
        # greedy count never exceeds the true maximum, and reaches it at
        # separations where every maximal configuration is maximum
        for eps in (np.pi / 2, 2 * np.pi / 3 + 0.01, 1.0):
            oracle = circle_max_packing_bruteforce(eps)
            got = greedy_packing(U1, eps, 500, rng=0).count
            assert got <= oracle
        assert greedy_packing(U1, np.pi / 2, 500, rng=0).count == \
            circle_max_packing_bruteforce(np.pi / 2) == 3
        assert greedy_packing(U1, 2 * np.pi / 3 + 0.01, 500, rng=0).count == \
            circle_max_packing_bruteforce(2 * np.pi / 3 + 0.01) == 2

    def test_circle_half_pi_is_three(self):
        for seed in range(5):
            assert greedy_packing(U1, np.pi / 2, 500, rng=seed).count == 3

    def test_epsilon_above_diameter_gives_one(self):
        assert greedy_packing(HomSpace(GroupSpec("U", 2)), 3.5, 200, rng=0).count == 1

    def test_result_is_separated(self):
        res = greedy_packing(G31_REAL, 0.6, 300, rng=0)
        verify_separated(G31_REAL, res.points, 0.6)  # raises on violation

    def test_verify_separated_catches_violation(self):
        close_pair = [np.eye(2, dtype=complex),
                      np.diag(np.exp(1j * np.array([0.05, 0.05])))]
        with pytest.raises(AssertionError):
            verify_separated(HomSpace(GroupSpec("U", 2)), close_pair, 0.5)

    def test_seed_stability(self):
        a = greedy_packing(HomSpace(GroupSpec("SO", 3)), 1.0, 2000, rng=0).count
        b = greedy_packing(HomSpace(GroupSpec("SO", 3)), 1.0, 2000, rng=1).count
        assert abs(a - b) <= 0.2 * max(a, b)

    def test_count_nondecreasing_in_budget(self):
        small = greedy_packing(G31_REAL, 0.5, 100, rng=3).count
        large = greedy_packing(G31_REAL, 0.5, 400, rng=3).count
        assert large >= small

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidArgumentError):
            greedy_packing(U1, 0.0, 10)


class TestGreedyNet:
    def test_circle_counts_are_exact(self):
        for eps, want in [(np.pi, 1), (np.pi / 2, 2), (np.pi / 4, 4),
                          (np.pi / 8, 8)]:
            res = greedy_net(U1, eps, 100, 2000, rng=0)
            assert res.count == want
            assert res.probe_max_dist <= eps * 1.01 + 1e-12

    def test_probe_certification_grassmann(self):
        res = greedy_net(G31_REAL, 0.5, 200, 2000, rng=0)
        assert res.probe_max_dist <= 0.5 + 0.02
        assert not res.budget_exhausted

    def test_net_at_most_packing_when_seeded(self):
        # seeding the packing with the net's (epsilon-separated) centers
        # nests the constructions, so the chain inequality is structural
        for eps in (0.4, 0.6, 0.8):
            net = greedy_net(G31_REAL, eps, 200, 2000, rng=0)
            pack = greedy_packing(G31_REAL, eps, 600, rng=0,
                                  initial=net.points)
            assert net.count <= pack.count
            assert chain_consistent(net, pack)

    def test_seeded_packing_still_separated(self):
        net = greedy_net(G31_REAL, 0.5, 200, 2000, rng=0)
        pack = greedy_packing(G31_REAL, 0.5, 600, rng=0, initial=net.points)
        verify_separated(G31_REAL, pack.points, 0.5)

    def test_budget_exhaustion_reported(self):
        res = greedy_net(G31_REAL, 0.05, 3, 500, rng=0)
        assert res.budget_exhausted
        assert res.count == 3



def sequential_packing(space, epsilon, budget, rng, initial=()):
    """The one-candidate-at-a-time greedy loop the blocked construction must
    reproduce: each point of the stream (initial points, then Haar draws)
    is compared with every center accepted before it."""
    group = space.group if isinstance(space, HomSpace) else space
    rng = np.random.default_rng(rng)
    stream = list(initial) + [haar_sample(group, rng).matrix for _ in range(budget)]
    centers = []
    for p in stream:
        if all(d > epsilon for d in dists_to_centers(space, p, centers)):
            centers.append(p)
    return centers


class TestBlockedLoops:
    """The block-wise, bracketed loops accept, reject and report exactly
    what the sequential exhaustive loops do."""

    @pytest.mark.parametrize("space, epsilon, budget", [
        (G31_REAL, 0.5, 3 * BLOCK + 5),
        (HomSpace(GroupSpec("U", 2)), 1.2, 3 * BLOCK + 5),
        (HomSpace(GroupSpec("U", 3), SubgroupSpec.special()), 0.2, 3 * BLOCK + 5),
        (G42, 0.6, 6 * BLOCK + 5),
        (G53, 0.7, 6 * BLOCK + 5),
        (HomSpace(GroupSpec("SO", 4)), 0.8, 6 * BLOCK + 5),
    ], ids=["SO3-grassmann1", "U2", "U3-special", "U4-grassmann2", "U5-grassmann3", "SO4"])
    def test_packing_matches_sequential_loop(self, space, epsilon, budget):
        group = space.group if isinstance(space, HomSpace) else space
        # more seeds than one block, not separated among themselves
        seeds = list(haar_samples(group, np.random.default_rng(99), BLOCK + 7))
        for initial in (None, seeds):
            want = sequential_packing(space, epsilon, budget, 4, initial or ())
            got = greedy_packing(space, epsilon, budget, rng=4, initial=initial)
            assert got.count == len(want) == len(got.points)
            assert np.array_equal(got.points, np.array(want))

    def test_real_seeds_on_a_complex_group(self):
        seeds = [np.eye(3), np.diag([1.0, -1.0, -1.0])]
        want = sequential_packing(HomSpace(GroupSpec("U", 3)), 0.8, 40, 0, seeds)
        got = greedy_packing(HomSpace(GroupSpec("U", 3)), 0.8, 40, rng=0, initial=seeds)
        assert np.array_equal(got.points, np.array(want))

    def test_packing_without_closed_form_adds_no_optimizer_run(self, monkeypatch):
        space = HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1, 1]))
        seeds = list(haar_samples(space.group, np.random.default_rng(99), 3))
        calls = []
        real = metrics._optimize_coset_dist
        monkeypatch.setattr(metrics, "_optimize_coset_dist",
                            lambda *args: calls.append(1) or real(*args))
        for initial in (None, seeds):
            calls.clear()
            want = sequential_packing(space, 1.1, 6, 2, initial or ())
            sequential_calls = len(calls)
            calls.clear()
            got = greedy_packing(space, 1.1, 6, rng=2, initial=initial)
            assert np.array_equal(got.points, np.array(want))
            assert 1 < got.count < 6 + len(initial or ())  # some accepted, some not
            assert len(calls) <= sequential_calls

    @pytest.mark.parametrize("size", [2 * BLOCK + 1, 2 * BLOCK + 6])
    def test_verify_separated_finds_a_last_pair_violation(self, size):
        g = HomSpace(GroupSpec("U", 2))
        pack = greedy_packing(g, 0.5, 400, rng=0).points[:size - 1]
        near = pack[-1] @ np.diag(np.exp(1j * np.array([0.01, -0.01])))
        pts = np.concatenate([pack, near[np.newaxis]])
        pairs = [(i, j) for j in range(size) for i in range(j)
                 if dists_to_centers(g, pts[j], pts[i:i + 1])[0] <= 0.5]
        assert pairs == [(size - 2, size - 1)]
        verify_separated(g, pack, 0.5)
        with pytest.raises(AssertionError, match=f"points {size - 2} and {size - 1} "):
            verify_separated(g, pts, 0.5)

    def test_net_matches_farthest_point_loop(self):
        for space, epsilon in [(G31_REAL, 0.4), (G42, 0.6), (G53, 0.7),
                               (HomSpace(GroupSpec("SO", 4)), 0.8)]:
            group = space.group if isinstance(space, HomSpace) else space
            rng = np.random.default_rng(3)
            probes = np.array([haar_sample(group, rng).matrix for _ in range(300)])
            # every probe measured against every new center
            chosen, nearest = [0], np.full(300, np.inf)
            while True:
                nearest = np.minimum(nearest, dists_to_centers(space, probes[chosen[-1]], probes))
                worst = int(np.argmax(nearest))
                if nearest[worst] <= epsilon * 1.01:
                    break
                chosen.append(worst)
            net = greedy_net(space, epsilon, 300, 300, rng=3)
            assert np.array_equal(net.points, probes[chosen])
            assert net.probe_max_dist == np.max(nearest)

    def test_certify_cover_matches_per_probe_loop(self):
        # the last two have no bracket: U(3)/SU(3) is a closed form without
        # one, and the Frobenius norm switches the bare group's off
        so4, u3 = HomSpace(GroupSpec("SO", 4)), GroupSpec("U", 3)
        special, u3_frob = HomSpace(u3, SubgroupSpec.special()), HomSpace(u3, norm=FROBENIUS)
        for space, net in [(G31_REAL, linearized_cover(G31_REAL, 0.8)),
                           (G42, greedy_net(G42, 0.7, 200, 200, rng=1)),
                           (so4, greedy_net(so4, 0.9, 200, 200, rng=1)),
                           (special, greedy_net(special, 0.2, 200, 200, rng=1)),
                           (u3_frob, greedy_net(u3_frob, 2.0, 200, 200, rng=1))]:
            group = space.group if isinstance(space, HomSpace) else space
            rng = np.random.default_rng(0)
            probes = np.array([haar_sample(group, rng).matrix for _ in range(500)])
            # each probe against every center, measured from the center
            nearest = np.full(500, np.inf)
            for c in net.points:
                nearest = np.minimum(nearest, dists_to_centers(space, c, probes))
            assert certify_cover(space, net, probe_budget=500, rng=0) == np.max(nearest)

    @pytest.mark.parametrize("space, epsilon", [
        (G42, 0.7), (HomSpace(GroupSpec("U", 3)), 0.9),
        (HomSpace(GroupSpec("SO", 4)), 0.9), (G31_REAL, 0.5),
    ], ids=["U4-grassmann2", "U3", "SO4", "SO3-grassmann1"])
    def test_certify_cover_on_the_net_probes_gives_back_its_radius(self, space, epsilon):
        # the same seed and budget give certify_cover the probe stream the
        # net was built on; both measure d(center, probe), so the maximum
        # is the same float, not merely close (the two orders of a pair may
        # differ by an ulp)
        for seed in range(10):
            net = greedy_net(space, epsilon, 200, 150, rng=seed)
            radius = net.probe_max_dist
            assert certify_cover(space, net, probe_budget=150, rng=seed) == radius

    @pytest.mark.parametrize("space", [G42, HomSpace(GroupSpec("SO", 3)), HomSpace(GroupSpec("U", 3))],
                             ids=["U4-grassmann2", "SO3", "U3"])
    def test_verify_separated_at_epsilon(self, space):
        # a pair exactly epsilon apart is not separated; one at
        # epsilon * (1 + 1e-6) is, whether its bracket or its exact
        # distance decides (the two orders of a pair may differ by an ulp)
        group = space.group if isinstance(space, HomSpace) else space
        pair = haar_samples(group, np.random.default_rng(5), 2)
        d = [dists_to_centers(space, pair[i], pair[1 - i:2 - i])[0] for i in (0, 1)]
        with pytest.raises(AssertionError):
            verify_separated(space, pair, max(d))
        verify_separated(space, pair, min(d) / (1 + 1e-6))

    def test_bracket_spares_most_exact_distances(self, monkeypatch):
        # a bracket that were silently bypassed would send every pair to
        # the exact path; the results must not depend on it
        pairs = []
        real = entropy._dists

        def counted(space, a, b):
            d = real(space, a, b)
            pairs.append(d.size)
            return d

        monkeypatch.setattr(entropy, "_dists", counted)
        runs = {}
        for bracketed in (True, False):
            if not bracketed:
                monkeypatch.setattr(HomSpace, "bracket", SubgroupSpec())
            pairs.clear()
            net = greedy_net(G42, 0.6, 400, 400, rng=2)
            net_pairs = sum(pairs)
            pack = greedy_packing(G42, 0.6, 400, rng=2, initial=net.points)
            runs[bracketed] = (net_pairs, sum(pairs) - net_pairs, net, pack)
        (net_pairs, pack_pairs, net, pack), (_, _, net0, pack0) = runs[True], runs[False]
        # the Pluecker bracket pins every distance of U(4)/G(4,2) to
        # rounding: the net measures only the probes a new center brings
        # closer, the packing almost nothing
        assert net_pairs + pack_pairs < 0.05 * sum(runs[False][:2])
        assert pack_pairs <= 5
        assert np.array_equal(net.points, net0.points)
        assert net.probe_max_dist == net0.probe_max_dist
        assert np.array_equal(pack.points, pack0.points)


def top_pair(space, seed, gap):
    """A Haar point a and b = a exp(x) at distance w pi/2 - gap, w the
    bracket's scale: on a Grassmannian x turns columns 0 and 1 toward
    columns k and k + 1 (two equal principal angles), on U(n) it is one
    eigenphase, on SO(n) a rotation in one coordinate plane."""
    n, sub = space.n, space.subgroup
    d = space.bracket.w * np.pi / 2 - gap
    a = haar_samples(space.group, np.random.default_rng(seed), 1)[0]
    x = np.zeros((n, n), complex if space.group.is_complex else float)
    if sub.kind == "grassmann":
        for i in (0, 1):
            x[sub.k + i, i], x[i, sub.k + i] = d, -d
    elif space.group.is_complex:
        x[0, 0] = 1j * d
    else:
        x[1, 0], x[0, 1] = d, -d
    return a, a @ expm_skew(x)


TOP_SPACES = [G42, HomSpace(GroupSpec("U", 2)), HomSpace(GroupSpec("SO", 3))]
TOP_IDS = ["U4-grassmann2", "U2", "SO3"]


class TestTopBand:
    """Just below the largest distance w pi/2, sin^2 is too flat for a
    threshold in s to be compared soundly: there the bracket decides
    nothing and every pair is measured."""

    @pytest.mark.parametrize("scale", [1 - 2e-7, 1 + 2e-7], ids=["below", "above"])
    @pytest.mark.parametrize("space", TOP_SPACES, ids=TOP_IDS)
    def test_pair_just_below_the_top(self, space, scale):
        for seed in range(5):
            a, b = top_pair(space, seed, 1e-7)
            d = dists_to_centers(space, a, b[np.newaxis])[0]
            assert abs(d - (space.bracket.w * np.pi / 2 - 1e-7)) < 1e-9
            epsilon = d * scale
            pack = greedy_packing(space, epsilon, 0, initial=[a, b])
            assert pack.count == (2 if d > epsilon else 1)
            if d > epsilon:
                verify_separated(space, [a, b], epsilon)
            else:
                with pytest.raises(AssertionError):
                    verify_separated(space, [a, b], epsilon)

    @pytest.mark.parametrize("space", TOP_SPACES, ids=TOP_IDS)
    def test_band_cuts_decide_nothing(self, space):
        # MARGIN's image in s spans 1e3 ulps of s about 5.6e-5 w below
        # pi/2 in d / w; above that, and outside (0, pi/2), each cut is
        # its fill, so that neither a near nor a far decision is made
        bracket = space.bracket
        w = bracket.w
        top = w * np.pi / 2
        for d in (top - 5e-5 * w * w, top - 1e-7, top, top + 1e-9, 3 * top, 0.0, -MARGIN):
            assert bracket.sin2_cut(d, -np.inf) == -np.inf
            assert bracket.sin2_cut(d, np.inf) == np.inf
        for d in (MARGIN, 0.3, top - 6e-5 * w * w):
            assert bracket.sin2_cut(d, np.inf) == pytest.approx(np.sin(d / w) ** 2, abs=1e-15)
            # sin2_dist inverts the cut (the certificate's cap goes through it)
            assert bracket.sin2_dist(bracket.sin2_cut(d, np.inf)) == pytest.approx(d, rel=1e-6)

    @pytest.mark.parametrize("space", TOP_SPACES + [
        HomSpace(GroupSpec("U", 3)), HomSpace(GroupSpec("SO", 4)), G53,
        HomSpace(GroupSpec("U", 3), SubgroupSpec.grassmann(1)),
    ], ids=TOP_IDS + ["U3", "SO4", "U5-grassmann3", "U3-grassmann1"])
    def test_decided_pairs_agree_with_exact_distance(self, space):
        # Haar pairs and pairs at a few gaps below the top, on an epsilon
        # grid through the band and through every pair's own distance
        # within a few MARGIN: a pair the bracket decides near has
        # d <= epsilon, one it decides far has d > epsilon
        rng = np.random.default_rng(31)
        a, b = haar_samples(space.group, rng, 200), haar_samples(space.group, rng, 200)
        if space.subgroup.kind == "trivial" or min(space.subgroup.k, space.n - space.subgroup.k) >= 2:
            tops = [top_pair(space, s, gap) for s, gap in enumerate((1e-3, 1e-4, 5e-5, 1e-5, 1e-7))]
            a = np.concatenate([a, [p for p, _ in tops]])
            b = np.concatenate([b, [q for _, q in tops]])
        bracket = space.bracket
        lo, hi = bracket.sin2_bounds(bracket.bracket_rows(a), bracket.bracket_rows(b), space.group)
        lo, hi, d = lo.diagonal(), hi.diagonal(), _dists(space, a, b)
        top = bracket.w * np.pi / 2
        grid = [0.1, 0.5, 1.0, top - 1e-3, top - 2e-4, top - 5e-5, top - 1e-5, top - 1e-7,
                top, top + 1e-9]
        grid += [x + k * MARGIN for x in d[::10].tolist() + d[200:].tolist()
                 for k in (-4, -2, -1, -0.5, 0.5, 1, 2, 4)]
        decided = 0
        for epsilon in grid:
            near, far = cuts(space, epsilon)
            assert np.all(d[hi <= near] <= epsilon)
            assert np.all(d[lo > far] > epsilon)
            decided += np.count_nonzero(hi <= near) + np.count_nonzero(lo > far)
        # a grid the bracket never decided on would check nothing (the
        # bare groups' lower bound s / n is loose: about 8% on U(3))
        assert decided > 0.05 * len(grid) * len(d)


class TestGreedyCurve:
    """One Haar cloud and one farthest-point run give, at every epsilon,
    what the per-epsilon calls give."""

    @staticmethod
    def per_epsilon(space, grid, budget, probe_budget, seed):
        # each epsilon on its own: a net, then a packing seeded with its
        # centers and the packing at the previous epsilon
        curve, pack = [], None
        for eps in grid:
            net = None if probe_budget is None else greedy_net(space, eps, budget, probe_budget, rng=seed)
            initial = [p for r in (net, pack) if r is not None for p in r.points]
            pack = greedy_packing(space, eps, budget, rng=seed, initial=initial or None)
            curve.append((pack, net))
        return curve

    @pytest.mark.parametrize("space, grid, budget, probe_budget", [
        (G42, (1.2, 0.9, 0.6), 40, 300),
        (G42, (1.2, 0.9, 0.6), 120, 60),
        (HomSpace(GroupSpec("SO", 3)), (1.2, 0.8, 0.5), 80, 80),
        (HomSpace(GroupSpec("U", 3)), (1.5, 1.0, 0.7), 50, 150),
        (HomSpace(GroupSpec("U", 3), SubgroupSpec.special()), (0.6, 0.3, 0.1), 100, 40),
        (HomSpace(GroupSpec("U", 3), SubgroupSpec.special()), (0.6, 0.3, 0.1), 60, None),
        (G31_REAL, (1.0, 0.6, 0.4), 70, None),
    ], ids=["U4-grassmann2-probes-above", "U4-grassmann2-probes-below", "SO3-equal",
            "U3-probes-above", "U3-special-probes-below", "U3-special-packing", "SO3-grassmann1-packing"])
    def test_matches_per_epsilon_calls(self, space, grid, budget, probe_budget):
        for seed in (0, 1):
            want = self.per_epsilon(space, grid, budget, probe_budget, seed)
            got = greedy_curve(space, grid, budget, probe_budget, rng=seed)
            assert len(got) == len(grid)
            for (pack, net), (pack0, net0) in zip(got, want):
                assert pack.count == pack0.count == len(pack.points)
                assert np.array_equal(pack.points, pack0.points)
                assert (net is None) == (net0 is None)
                if net is not None:
                    assert net.count == net0.count
                    assert np.array_equal(net.points, net0.points)
                    assert net.probe_max_dist == net0.probe_max_dist
                    assert net.budget_exhausted == net0.budget_exhausted
                    assert net.probe_count == net0.probe_count == probe_budget

    def test_net_exhausted_only_at_the_smallest_epsilon(self):
        # the prefix rule across the stop: the budget runs out at 0.6 only,
        # and its net is the whole farthest-point run
        got = greedy_curve(G42, (1.2, 0.9, 0.6), 40, 300, rng=1)
        nets = [net for _, net in got]
        assert [net.budget_exhausted for net in nets] == [False, False, True]
        assert [net.count for net in nets] == [6, 18, 40]
        for small, large in zip(nets, nets[1:]):
            assert np.array_equal(large.points[:small.count], small.points)


class TestChain:
    def test_full_chain_with_half_epsilon(self):
        eps = 0.8
        net = greedy_net(G31_REAL, eps, 200, 2000, rng=0)
        pack = greedy_packing(G31_REAL, eps, 600, rng=0, initial=net.points)
        pack_half = greedy_packing(G31_REAL, eps / 2, 600, rng=0,
                                   initial=pack.points)
        assert chain_consistent(net, pack, pack_half)

    def test_epsilon_mismatch_rejected(self):
        net = greedy_net(U1, 1.0, 50, 500, rng=0)
        pack = greedy_packing(U1, 0.9, 100, rng=0)
        with pytest.raises(InvalidArgumentError):
            chain_consistent(net, pack)


class TestLinearizedCover:
    def test_kappa_gate(self):
        circle = HomSpace(GroupSpec("U", 2), SubgroupSpec.special())
        with pytest.raises(InvalidArgumentError):
            linearized_cover(circle, 0.5)
        # override lets it through
        res = linearized_cover(circle, 2.0, override_kappa_gate=True)
        assert res.count >= 1

    def test_epsilon_above_diameter_single_center(self):
        res = linearized_cover(G31_REAL, 2.0)
        assert res.count == 1

    def test_probe_certification(self):
        res = linearized_cover(G31_REAL, 0.8)
        worst = certify_cover(G31_REAL, res, probe_budget=2000, rng=0)
        assert worst <= 0.8 + 0.05

    def test_count_scaling_slope(self):
        # halving epsilon should scale the count like 2^dim
        n1 = linearized_cover(G31_REAL, 1.2).count
        n2 = linearized_cover(G31_REAL, 0.6).count
        slope = np.log(n2 / n1) / np.log(2)
        d = G31_REAL.dim
        assert abs(slope - d) <= 0.25 * d

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidArgumentError):
            linearized_cover(G31_REAL, -1.0)

    @pytest.mark.parametrize("norm", [FROBENIUS, NormSpec.schatten(1)])
    def test_refuses_non_operator_norm(self, norm):
        # the lattice ball, its reach and its mesh are operator-norm
        # quantities, so in another norm its centres certify nothing
        space = HomSpace(G31_REAL.group, G31_REAL.subgroup, norm)
        with pytest.raises(InvalidArgumentError, match="operator norm"):
            linearized_cover(space, 0.8)
        # schatten(inf) is the operator norm
        inf = HomSpace(G31_REAL.group, G31_REAL.subgroup, NormSpec.schatten(np.inf))
        assert linearized_cover(inf, 0.8).count == linearized_cover(G31_REAL, 0.8).count

    @pytest.mark.parametrize("space, epsilon", [
        (HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1, 1])), 0.8),
        (HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1, 1])), 2.0),
        (HomSpace(GroupSpec("SO", 4), SubgroupSpec.tensor_factor(2, 2)), 1.0),
    ], ids=["U3-block111-0.8", "U3-block111-2.0", "SO4-tensor2x2-1.0"])
    def test_refuses_unknown_diameter_at_once(self, space, epsilon):
        # a sampled diameter is a lower bound, the wrong side for the reach
        # of a covering ball, so no search for one may run
        t0 = time.perf_counter()
        with pytest.raises(InvalidArgumentError, match="diameter"):
            linearized_cover(space, epsilon, override_kappa_gate=True)
        assert time.perf_counter() - t0 < 1.0

    def test_refuses_oversized_lattice(self):
        # 41^8 lattice points on U(4)/G(4,2) at epsilon = 0.45
        t0 = time.perf_counter()
        with pytest.raises(InvalidArgumentError, match="lattice cube"):
            linearized_cover(G42, 0.45)
        assert time.perf_counter() - t0 < 1.0


class TestTheorem8Bounds:
    def test_grassmann_values_plugged(self):
        space = HomSpace(GroupSpec("SO", 4), SubgroupSpec.grassmann(2))
        rep = theorem8_bounds(space, 0.5)
        assert rep.dim_M == 4  # k(n-k) real
        assert rep.theta == pytest.approx(np.pi)
        assert rep.diam == pytest.approx(np.pi / 2)
        assert rep.lower_applicable and rep.upper_applicable
        assert rep.lower_bound <= rep.upper_bound

    def test_epsilon_above_diameter_not_applicable(self):
        rep = theorem8_bounds(G31_REAL, 2.0)
        assert not rep.upper_applicable

    def test_epsilon_above_quarter_theta_lower_not_applicable(self):
        rep = theorem8_bounds(G31_REAL, 1.0)
        assert not rep.lower_applicable

    def test_empirical_packing_between_bounds(self):
        for eps in (0.5, 0.8):
            rep = theorem8_bounds(G31_REAL, eps)
            count = greedy_packing(G31_REAL, eps, 600, rng=0).count
            assert rep.lower_bound <= count <= rep.upper_bound

    def test_constants_carried(self):
        rep = theorem8_bounds(G31_REAL, 0.5, c=0.1, C=5.0)
        assert rep.c == 0.1 and rep.C == 5.0


class TestTheorem11Gate:
    def test_trivial_subgroup_branch_a(self):
        space = HomSpace(GroupSpec("U", 3), SubgroupSpec.trivial())
        out = theorem11_gate(space, 1.0 / 3)
        assert out["branch"] == "a"
        assert out["satisfied"]

    def test_tensor_factor_branch_b(self):
        space = HomSpace(GroupSpec("U", 4), SubgroupSpec.tensor_factor(2, 2))
        out = theorem11_gate(space, 1.0 / 3)
        assert out["branch"] == "b"

    def test_big_block_branch_c(self):
        space = HomSpace(GroupSpec("U", 3),
                         SubgroupSpec.block_diagonal([2, 1]))
        out = theorem11_gate(space, 1.0 / 3)
        assert out["branch"] in ("a", "b", "c")
        assert out["satisfied"]

    def test_alpha_validation(self):
        with pytest.raises(InvalidArgumentError):
            theorem11_gate(G31_REAL, 0.7)


class TestPointDist:
    def test_group_path_is_intrinsic(self, rng):
        from unicover.metrics import intrinsic_dist
        from unicover.groups import haar_sample

        g = GroupSpec("U", 3)
        a = haar_sample(g, rng).matrix
        b = haar_sample(g, rng).matrix
        assert dists_to_centers(HomSpace(g), a, [b])[0] == pytest.approx(intrinsic_dist(a, b))

    def test_grassmann_path_is_principal_angle(self, rng):
        from unicover.groups import haar_sample
        from unicover.metrics import grassmann_dist

        a = haar_sample(G31_REAL.group, rng).matrix
        b = haar_sample(G31_REAL.group, rng).matrix
        assert dists_to_centers(G31_REAL, a, [b])[0] == pytest.approx(
            grassmann_dist(a[:, :1], b[:, :1])
        )


def _bad_points(group):
    """Named point lists that are not elements of group: a non-unitary
    matrix, a non-finite entry, a matrix of another size (alone and beside
    a good point), and on SO(n) a reflection."""
    n = group.n
    good = haar_samples(group, np.random.default_rng(8), 1)[0]
    nan = good.copy()
    nan[0, 1] = np.nan
    bad = {
        "non_unitary": [good, 2 * np.eye(n)],
        "non_finite": [good, nan],
        "wrong_shape": [np.eye(n + 1)],
        "ragged": [good, np.eye(n + 1)],
    }
    if group.kind == "SO":
        bad["det_minus_one"] = [good, np.diag([-1.0] + [1.0] * (n - 1))]
    return good, bad


ENTRY_SPACES = [G42, HomSpace(GroupSpec("SO", 4)),
                HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1, 1]))]


class TestEntryChecks:
    """The public constructions check caller points once, at the entry, with
    GroupElement's rule, whether or not the space has a closed form."""

    @pytest.mark.parametrize("space", ENTRY_SPACES, ids=["U4-grassmann2", "SO4", "U3-block111"])
    def test_each_entry_point_rejects_each_bad_point(self, space):
        good, bad = _bad_points(space.group)
        for case, pts in bad.items():
            net = entropy.NetResult("net_Npp", 0.5, pts, len(pts), False)
            calls = {
                "greedy_packing": lambda: greedy_packing(space, 0.5, 0, initial=pts),
                "verify_separated": lambda: verify_separated(space, pts, 0.5),
                "certify_cover": lambda: certify_cover(space, net, probe_budget=2),
                "dists_to_centers(centers)": lambda: dists_to_centers(space, good, pts),
                "dists_to_centers(point)": lambda: dists_to_centers(space, pts[-1], [good]),
            }
            for name, call in calls.items():
                with pytest.raises(InvalidArgumentError):
                    call()
                    pytest.fail(f"{name} accepted {case}")

    def test_scaled_identity_is_no_packing_seed(self):
        with pytest.raises(InvalidArgumentError):
            greedy_packing(G42, 0.5, 5, initial=[2 * np.eye(4)])

    def test_empty_point_lists_are_accepted(self):
        assert greedy_packing(G42, 0.5, 0, initial=[]).count == 0
        verify_separated(G42, [], 0.5)
        assert dists_to_centers(G42, np.eye(4), []).shape == (0,)

    def test_budgets_are_checked_before_any_draw(self):
        # a net needs a center and a probe, and a certificate a probe and a
        # center; a packing may hold only its initial candidates; a curve
        # needs an epsilon and candidates; every epsilon is positive and
        # finite (a nan one would pass every pair as separated)
        net = greedy_net(G42, 0.9, 5, 20, rng=0)
        empty = entropy.NetResult("net_Npp", 0.9, np.empty((0, 4, 4)), 0, False)
        calls = {
            "greedy_net(probe_budget=0)": lambda rng: greedy_net(G42, 0.9, 5, 0, rng=rng),
            "greedy_net(sampler_budget=0)": lambda rng: greedy_net(G42, 0.9, 0, 20, rng=rng),
            "greedy_packing(sampler_budget=-1)": lambda rng: greedy_packing(G42, 0.9, -1, rng=rng),
            "certify_cover(probe_budget=0)": lambda rng: certify_cover(G42, net, 0, rng=rng),
            "certify_cover(empty net)": lambda rng: certify_cover(G42, empty, 20, rng=rng),
            "greedy_curve(budget=0)": lambda rng: greedy_curve(G42, [0.9], 0, 20, rng=rng),
            "greedy_curve(probe_budget=0)": lambda rng: greedy_curve(G42, [0.9], 5, 0, rng=rng),
            "greedy_curve(epsilon=0)": lambda rng: greedy_curve(G42, [0.9, 0.0], 5, rng=rng),
            "greedy_curve(empty grid)": lambda rng: greedy_curve(G42, [], 5, 20, rng=rng),
        }
        for e in (np.nan, np.inf):
            calls.update({
                f"greedy_packing(epsilon={e})": lambda rng, e=e: greedy_packing(G42, e, 5, rng=rng),
                f"greedy_net(epsilon={e})": lambda rng, e=e: greedy_net(G42, e, 5, 20, rng=rng),
                f"greedy_curve(epsilon={e})": lambda rng, e=e: greedy_curve(G42, [0.9, e], 5, 20, rng=rng),
                f"verify_separated(epsilon={e})": lambda rng, e=e: verify_separated(G42, net.points, e),
                f"linearized_cover(epsilon={e})": lambda rng, e=e: linearized_cover(G42, e),
            })
        for name, call in calls.items():
            rng = np.random.default_rng(5)
            with pytest.raises(InvalidArgumentError):
                call(rng)
                pytest.fail(f"{name} was accepted")
            assert rng.random() == np.random.default_rng(5).random(), name
