"""Invariant tests: the complement-projection norm, the weaving threshold
witnesses and diameters, against the closed-form table and sampled bounds."""

import numpy as np
import pytest

from unicover.matcore import FROBENIUS, InvalidArgumentError, NormSpec
from unicover.groups import GroupSpec, HomSpace, SubgroupSpec, haar_samples
from unicover.entropy import theorem8_bounds
from unicover.invariants import (
    diameter_estimate,
    diameter_known,
    kappa_known,
    kappa_lower,
    theta_known,
    theta_units,
    theta_witness_upper,
)


def _grassmann(kind, n, k):
    return HomSpace(GroupSpec(kind, n), SubgroupSpec.grassmann(k))


class TestKappa:
    def test_trivial_subgroup_exact_one(self, rng):
        space = HomSpace(GroupSpec("U", 3), SubgroupSpec.trivial())
        assert kappa_lower(space, samples=20, rng=rng) == 1.0

    def test_grassmann_is_one_all_small_cases(self):
        for n in range(2, 7):
            for k in range(1, n):
                space = _grassmann("U", n, k)
                assert kappa_known(space) == 1.0
                kl = kappa_lower(space, samples=100, rng=0)
                assert abs(kl - 1.0) <= 1e-9

    def test_multiblock_between_one_and_two(self):
        space = HomSpace(GroupSpec("U", 3),
                         SubgroupSpec.block_diagonal([1, 1, 1]))
        assert kappa_known(space) is None
        kl = kappa_lower(space, samples=400, rng=0)
        assert 1.0 <= kl <= 2.0 + 1e-6

    def test_tensor_factor_exceeds_one(self):
        # the complement projection of the tensor-factor subalgebra is not
        # norm-one, so no closed-form value is tabulated
        space = HomSpace(GroupSpec("U", 4), SubgroupSpec.tensor_factor(2, 2))
        assert kappa_known(space) is None
        kl = kappa_lower(space, samples=400, rng=1)
        assert 1.1 < kl <= 2.0 + 1e-6

    def test_monotone_prefix(self):
        space = _grassmann("U", 4, 1)
        a = kappa_lower(space, samples=50, rng=5)
        b = kappa_lower(space, samples=200, rng=5)
        assert b >= a - 1e-9

    def test_invalid_samples(self):
        with pytest.raises(InvalidArgumentError):
            kappa_lower(_grassmann("U", 3, 1), samples=0)


class TestTheta:
    def test_known_table(self):
        assert theta_known(_grassmann("U", 4, 2)) == pytest.approx(np.pi)
        assert theta_known(
            HomSpace(GroupSpec("U", 2), SubgroupSpec.trivial())
        ) == pytest.approx(np.pi)
        three = HomSpace(GroupSpec("U", 3),
                         SubgroupSpec.block_diagonal([1, 1, 1]))
        assert theta_known(three) == 2.0
        assert theta_units(three) == "extrinsic"
        tensor = HomSpace(GroupSpec("U", 4), SubgroupSpec.tensor_factor(2, 2))
        assert theta_known(tensor) == 2.0
        circle = HomSpace(GroupSpec("U", 2), SubgroupSpec.special())
        assert theta_known(circle) is None

    def test_extrinsic_value_two_is_intrinsic_pi(self):
        # the table's extrinsic theta 2 = |1 - exp(i pi)| is the intrinsic pi
        three = HomSpace(GroupSpec("U", 3),
                         SubgroupSpec.block_diagonal([1, 1, 1]))
        assert theorem8_bounds(three, 0.5).theta == np.pi

    def test_special_witness_upper(self):
        # determinant-one subgroup: scalar witnesses give theta <= 2 pi / n
        for n in range(2, 7):
            space = HomSpace(GroupSpec("U", n), SubgroupSpec.special())
            tw = theta_witness_upper(space, rng=0)
            assert tw is not None
            assert tw <= 2 * np.pi / n + 1e-6

    def test_block_witness_consistent_with_table(self):
        # the witness bound can never undercut the true (known) threshold
        space = HomSpace(GroupSpec("U", 3),
                         SubgroupSpec.block_diagonal([1, 1, 1]))
        tw = theta_witness_upper(space, rng=0)
        assert tw is not None
        # known extrinsic value 2 corresponds to intrinsic pi
        assert tw >= np.pi - 1e-9

    @pytest.mark.parametrize("budget", [0, 200])
    @pytest.mark.parametrize("kind, n, sub, want", [
        ("U", 3, SubgroupSpec.block_diagonal([1, 1, 1]), np.pi),
        ("U", 4, SubgroupSpec.block_diagonal([2, 1, 1]), np.pi),
        ("U", 4, SubgroupSpec.tensor_factor(2, 2), np.pi),
        ("U", 4, SubgroupSpec.tensor_factor(4, 1), np.pi),
        ("U", 4, SubgroupSpec.grassmann(2), np.pi),
        ("SO", 5, SubgroupSpec.block_diagonal([2, 2, 1]), np.pi),
        ("SO", 4, SubgroupSpec.tensor_factor(2, 2), np.pi),
        ("SO", 6, SubgroupSpec.tensor_factor(2, 3), np.pi),
        ("SO", 4, SubgroupSpec.grassmann(2), np.pi),
        ("SO", 3, SubgroupSpec.grassmann(1), np.pi),
        ("SO", 3, SubgroupSpec.block_diagonal([1, 1, 1]), None),
    ], ids=lambda v: getattr(v, "label", None))
    def test_block_witness_is_pi_for_every_budget(self, kind, n, sub, want, budget):
        # a witness of a block kind is pinned at pi, and no witness is
        # nearer, so the budget and the stream do not change the bound;
        # an SO partition with no block of size two has no rotation by pi
        space = HomSpace(GroupSpec(kind, n), sub)
        for rng in (0, 1):
            assert theta_witness_upper(space, search_budget=budget, rng=rng) == want

    @pytest.mark.parametrize("n", range(2, 7))
    def test_branch_rule_matches_enumeration(self, n):
        """The O(n log n) branch rule of _min_log_norm_diag against a brute
        enumeration of every branch shift in {-2, ..., 2}^n with trace zero."""
        from itertools import product

        from unicover.invariants import _min_log_norm_diag

        def enumerated(phases):
            total = np.sum(phases) / (2 * np.pi)
            best = np.inf
            for ks in product(range(-2, 3), repeat=n):
                if abs(total + sum(ks)) <= 1e-9:
                    best = min(best, np.max(np.abs(phases + 2 * np.pi * np.array(ks))))
            return best

        rng = np.random.default_rng(n)
        cases = []
        for _ in range(40):
            # principal phases of a determinant-one diagonal
            phases = rng.uniform(-np.pi, np.pi, size=n)
            phases[-1] = np.angle(np.exp(-1j * np.sum(phases[:-1])))
            cases.append(phases)
            # lattice patterns as the witness search makes them, with ties
            v = rng.integers(-2, 3, size=n)
            lattice = np.mod(2 * np.pi * (v - np.mean(v)) + np.pi, 2 * np.pi) - np.pi
            cases.append(np.where(lattice <= -np.pi + 1e-12, np.pi, lattice))
        for phases in cases:
            assert _min_log_norm_diag(phases, traceless=True) == pytest.approx(
                enumerated(phases), abs=1e-12)

    def test_trivial_no_witness(self):
        space = HomSpace(GroupSpec("U", 2), SubgroupSpec.trivial())
        assert theta_witness_upper(space) is None


# each space with the coset farthest from the identity's: -I; a rotation
# by pi in each 2-plane; a 2-frame carried onto its orthogonal complement;
# exp(i pi / n) I
SWAP = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
ANTIPODES = {
    "U3": (HomSpace(GroupSpec("U", 3)), -np.eye(3, dtype=complex)),
    "SO3": (HomSpace(GroupSpec("SO", 3)), np.diag([-1.0, -1.0, 1.0])),
    "SO4": (HomSpace(GroupSpec("SO", 4)), -np.eye(4)),
    "U4-grassmann2": (_grassmann("U", 4, 2), SWAP.astype(complex)),
    "SO4-grassmann2": (_grassmann("SO", 4, 2), SWAP),
    "U3-special": (HomSpace(GroupSpec("U", 3), SubgroupSpec.special()),
                   np.exp(1j * np.pi / 3) * np.eye(3)),
}


class TestDiameter:
    def test_known_table(self):
        assert diameter_known(HomSpace(GroupSpec("U", 2))) == pytest.approx(np.pi)
        assert diameter_known(HomSpace(GroupSpec("SO", 3))) == pytest.approx(np.pi)
        assert diameter_known(_grassmann("U", 4, 2)) == pytest.approx(np.pi / 2)
        circle = HomSpace(GroupSpec("U", 3), SubgroupSpec.special())
        assert diameter_known(circle) == pytest.approx(np.pi / 3)

    @pytest.mark.parametrize("norm", [NormSpec.schatten(1), FROBENIUS, NormSpec.schatten(np.inf)],
                             ids=["schatten1", "schatten2", "schatten_inf"])
    @pytest.mark.parametrize("case", list(ANTIPODES))
    def test_known_is_antipodal_distance_in_every_norm(self, case, norm):
        from unicover.metrics import _dists

        space, antipode = ANTIPODES[case]
        space = HomSpace(space.group, space.subgroup, norm)
        diam = diameter_known(space)
        far = _dists(space, space.group.identity(), antipode)
        assert far == pytest.approx(diam, rel=1e-12)
        rng = np.random.default_rng(4)
        a, b = (haar_samples(space.group, rng, 200) for _ in range(2))
        assert np.max(_dists(space, a, b)) <= diam + 1e-12

    def test_estimate_approaches_known_on_grassmann(self):
        space = _grassmann("U", 3, 1)
        est = diameter_estimate(space, samples=16, rng=0)
        assert est <= np.pi / 2 + 1e-9
        assert est >= np.pi / 2 - 0.05

    def test_estimate_circle(self):
        space = HomSpace(GroupSpec("U", 2), SubgroupSpec.special())
        est = diameter_estimate(space, samples=16, rng=0)
        assert est == pytest.approx(np.pi / 2, abs=0.01)

    def test_estimate_never_exceeds_pi(self):
        space = HomSpace(GroupSpec("U", 2), SubgroupSpec.trivial())
        est = diameter_estimate(space, samples=16, rng=0)
        assert est <= np.pi + 1e-6

    def test_invalid_samples(self):
        with pytest.raises(InvalidArgumentError):
            diameter_estimate(_grassmann("U", 3, 1), samples=1)

    @pytest.mark.parametrize("restarts", [-1, 0, 2.5, True, None])
    def test_invalid_restarts(self, restarts):
        with pytest.raises(InvalidArgumentError):
            diameter_estimate(_grassmann("U", 3, 1), samples=2, restarts=restarts)

    def test_trivial_fibre_of_so3_blocks(self):
        # SO(3)/block(1, 1, 1) is SO(3) itself: the sweeps reach pi
        space = HomSpace(GroupSpec("SO", 3), SubgroupSpec.block_diagonal([1, 1, 1]))
        est = diameter_estimate(space, samples=8, rng=0)
        assert np.pi - 0.05 <= est <= np.pi + 1e-9
