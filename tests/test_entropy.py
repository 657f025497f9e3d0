"""Packing/covering construction tests: brute-force circle oracles, seed
stability, the linearized covering scheme and the two-sided bound
evaluation."""

import itertools
import time

import numpy as np
import pytest

from unicover import entropy, metrics
from unicover.matcore import FROBENIUS, InvalidArgumentError, NormSpec
from unicover.groups import GroupSpec, HomSpace, SubgroupSpec, haar_sample, haar_samples
from unicover.entropy import (
    BLOCK,
    chain_consistent,
    certify_cover,
    greedy_net,
    greedy_packing,
    dists_to_centers,
    linearized_cover,
    theorem8_bounds,
    theorem11_gate,
    verify_separated,
)

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
        with pytest.raises(AssertionError):
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
        so4 = HomSpace(GroupSpec("SO", 4))
        for space, net in [(G31_REAL, linearized_cover(G31_REAL, 0.8)),
                           (G42, greedy_net(G42, 0.7, 200, 200, rng=1)),
                           (so4, greedy_net(so4, 0.9, 200, 200, rng=1))]:
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
                monkeypatch.setattr(entropy, "_bracket_features",
                                    lambda space, x: np.zeros((len(x), 0)))
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
