"""Packing/covering construction tests: brute-force circle oracles, seed
stability, volume bounds, the linearized covering scheme and the two-sided
bound evaluation."""

import itertools

import numpy as np
import pytest

from unicover.matcore import InvalidArgumentError
from unicover.groups import GroupSpec, HomSpace, SubgroupSpec
from unicover.entropy import (
    chain_consistent,
    certify_cover,
    greedy_net,
    greedy_packing,
    dists_to_centers,
    linearized_cover,
    theorem8_bounds,
    theorem11_gate,
    verify_separated,
    volume_bounds,
)

U1 = GroupSpec("U", 1)
G31_REAL = HomSpace(GroupSpec("SO", 3), SubgroupSpec.grassmann(1))


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
        assert greedy_packing(GroupSpec("U", 2), 3.5, 200, rng=0).count == 1

    def test_result_is_separated(self):
        res = greedy_packing(G31_REAL, 0.6, 300, rng=0)
        verify_separated(G31_REAL, res.points, 0.6)  # raises on violation

    def test_verify_separated_catches_violation(self):
        close_pair = [np.eye(2, dtype=complex),
                      np.diag(np.exp(1j * np.array([0.05, 0.05])))]
        with pytest.raises(AssertionError):
            verify_separated(GroupSpec("U", 2), close_pair, 0.5)

    def test_seed_stability(self):
        a = greedy_packing(GroupSpec("SO", 3), 1.0, 2000, rng=0).count
        b = greedy_packing(GroupSpec("SO", 3), 1.0, 2000, rng=1).count
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


class TestVolumeBounds:
    def test_exact_values(self):
        assert volume_bounds(4, np.pi, np.pi) == pytest.approx((1.0, 81.0))
        assert volume_bounds(1, 1.0, 0.5) == pytest.approx((2.0, 5.0))

    def test_lower_below_upper_random(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 10))
            R = float(rng.uniform(0.1, 5.0))
            eps = float(rng.uniform(0.01, 1.0)) * R
            lo, hi = volume_bounds(d, R, eps)
            assert lo <= hi

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            volume_bounds(2, 1.0, 1.5)


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
        assert dists_to_centers(g, a, [b])[0] == pytest.approx(intrinsic_dist(a, b))

    def test_grassmann_path_is_principal_angle(self, rng):
        from unicover.groups import haar_sample
        from unicover.metrics import grassmann_dist

        a = haar_sample(G31_REAL.group, rng).matrix
        b = haar_sample(G31_REAL.group, rng).matrix
        assert dists_to_centers(G31_REAL, a, [b])[0] == pytest.approx(
            grassmann_dist(a[:, :1], b[:, :1])
        )
