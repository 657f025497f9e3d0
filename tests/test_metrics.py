"""Metric tests: the extrinsic/intrinsic phase identity, curve length,
geodesics, Grassmann distances and the coset-distance upper bound against
its closed forms."""

import numpy as np
import pytest

from unicover.matcore import (
    FROBENIUS,
    OPERATOR,
    BranchAmbiguityError,
    InvalidArgumentError,
    NormSpec,
    expm_skew,
    opnorm,
)
from unicover.groups import (
    GroupElement,
    GroupSpec,
    HomSpace,
    SubgroupSpec,
    haar_sample,
    tangent_sample,
)
from unicover.metrics import (
    CosetPoint,
    Curve,
    curve_length,
    extrinsic_dist,
    geodesic_point,
    grassmann_dist,
    intrinsic_dist,
    quotient_dist_upper,
    _closed_form_dists,
    _optimize_coset_dist,
)

from conftest import random_skew


class TestIntrinsicDist:
    def test_phase_identity_with_extrinsic(self, rng):
        # ||u - v|| = |1 - e^{i rho(u,v)}| for the operator norm
        g = GroupSpec("U", 3)
        for _ in range(100):
            u = haar_sample(g, rng).matrix
            v = haar_sample(g, rng).matrix
            rho = intrinsic_dist(u, v)
            assert extrinsic_dist(u, v) == pytest.approx(
                abs(1 - np.exp(1j * rho)), abs=1e-12
            )

    def test_diagonal_closed_form(self):
        u = np.eye(2, dtype=complex)
        v = np.diag(np.exp(1j * np.array([0.3, -1.2])))
        assert intrinsic_dist(u, v) == pytest.approx(1.2)
        assert intrinsic_dist(u, v, FROBENIUS) == pytest.approx(
            np.hypot(0.3, 1.2)
        )

    def test_bi_invariance(self, rng):
        g = GroupSpec("U", 3)
        u, v, w = (haar_sample(g, rng).matrix for _ in range(3))
        d = intrinsic_dist(u, v)
        assert intrinsic_dist(w @ u, w @ v) == pytest.approx(d)
        assert intrinsic_dist(u @ w, v @ w) == pytest.approx(d)

    def test_triangle_inequality_sampled(self, rng):
        g = GroupSpec("U", 2)
        for _ in range(50):
            u, v, w = (haar_sample(g, rng).matrix for _ in range(3))
            assert intrinsic_dist(u, w) <= (
                intrinsic_dist(u, v) + intrinsic_dist(v, w) + 1e-10
            )

    def test_operator_norm_ok_at_branch_cut(self):
        u = np.eye(2, dtype=complex)
        v = np.diag([-1.0 + 0j, 1.0])
        assert intrinsic_dist(u, v) == pytest.approx(np.pi)

    def test_other_norms_raise_at_branch_cut(self):
        u = np.eye(2, dtype=complex)
        v = np.diag([-1.0 + 0j, 1.0])
        with pytest.raises(BranchAmbiguityError):
            intrinsic_dist(u, v, FROBENIUS)

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            intrinsic_dist(np.eye(2), np.eye(3))


class TestCurves:
    def test_geodesic_segment_length_equals_norm(self, rng):
        x = random_skew(3, rng)
        x *= 1.5 / opnorm(x)
        pts = [geodesic_point(np.eye(3), x, t) for t in np.linspace(0, 1, 9)]
        assert curve_length(Curve(pts)) == pytest.approx(1.5, abs=1e-9)

    def test_perturbed_curve_is_longer(self, rng):
        x = random_skew(3, rng)
        x *= 2.0 / opnorm(x)
        ts = np.linspace(0, 1, 9)
        pts = []
        for i, t in enumerate(ts):
            p = geodesic_point(np.eye(3), x, t)
            if 0 < i < 8:
                w = random_skew(3, rng)
                p = p @ expm_skew(0.2 * w / opnorm(w))
            pts.append(p)
        assert curve_length(Curve(pts)) >= 2.0 - 1e-9

    def test_wide_gap_rejected(self):
        pts = [np.eye(2, dtype=complex),
               np.diag(np.exp(1j * np.array([2.0, 2.0])))]
        with pytest.raises(InvalidArgumentError):
            curve_length(Curve(pts))

    def test_times_validation(self):
        with pytest.raises(InvalidArgumentError):
            Curve([np.eye(2)], times=[0.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            Curve([])


class TestGrassmannDist:
    def test_matches_largest_principal_angle(self, rng):
        e = np.linalg.qr(rng.standard_normal((4, 2))
                         + 1j * rng.standard_normal((4, 2)))[0]
        f = np.linalg.qr(rng.standard_normal((4, 2))
                         + 1j * rng.standard_normal((4, 2)))[0]
        from unicover.matcore import principal_angles

        assert grassmann_dist(e, f) == pytest.approx(
            principal_angles(e, f)[0]
        )

    def test_range(self, rng):
        e = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        f = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        assert 0 <= grassmann_dist(e, f) <= np.pi / 2 + 1e-12


GRASS = HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2))
CIRCLE = HomSpace(GroupSpec("U", 2), SubgroupSpec.special())


def _coset(space, u):
    return CosetPoint(GroupElement(u, space.group), space)


class TestQuotientDist:
    def test_trivial_subgroup_is_intrinsic(self, rng):
        space = HomSpace(GroupSpec("U", 3), SubgroupSpec.trivial())
        u = haar_sample(space.group, rng)
        v = haar_sample(space.group, rng)
        d = quotient_dist_upper(_coset(space, u.matrix), _coset(space, v.matrix))
        assert d == pytest.approx(intrinsic_dist(u.matrix, v.matrix))

    def test_grassmann_matches_principal_angles(self, rng):
        for _ in range(5):
            u = haar_sample(GRASS.group, rng).matrix
            v = haar_sample(GRASS.group, rng).matrix
            d = quotient_dist_upper(_coset(GRASS, u), _coset(GRASS, v), rng=rng)
            want = grassmann_dist(u[:, :2], v[:, :2])
            assert d == pytest.approx(want, abs=1e-6)

    def test_circle_model(self, rng):
        for _ in range(5):
            u = haar_sample(CIRCLE.group, rng).matrix
            v = haar_sample(CIRCLE.group, rng).matrix
            want = abs(np.angle(np.linalg.det(u.conj().T @ v))) / 2
            d = quotient_dist_upper(_coset(CIRCLE, u), _coset(CIRCLE, v), rng=rng)
            assert d == pytest.approx(want, abs=1e-6)

    def test_antipodal_scalar_circle_distance(self):
        # U(2)/SU(2): I vs e^{i pi/2} I lie at distance pi/2 on the
        # determinant circle of radius 1/2
        u = np.eye(2, dtype=complex)
        v = np.exp(1j * np.pi / 2) * np.eye(2)
        d = quotient_dist_upper(_coset(CIRCLE, u), _coset(CIRCLE, v))
        assert d == pytest.approx(np.pi / 2, abs=1e-6)

    def test_same_coset_distance_zero(self, rng):
        u = haar_sample(GRASS.group, rng).matrix
        h = tangent_sample(GRASS, "H", 1.0, rng).matrix
        v = u @ expm_skew(h)
        d = quotient_dist_upper(_coset(GRASS, u), _coset(GRASS, v), rng=rng)
        assert d <= 1e-6
        assert _coset(GRASS, u).same_coset(_coset(GRASS, v))

    def test_symmetry(self, rng):
        u = haar_sample(GRASS.group, rng).matrix
        v = haar_sample(GRASS.group, rng).matrix
        d1 = quotient_dist_upper(_coset(GRASS, u), _coset(GRASS, v), rng=0)
        d2 = quotient_dist_upper(_coset(GRASS, v), _coset(GRASS, u), rng=0)
        assert d1 == pytest.approx(d2, abs=1e-6)

    def test_upper_bounds_intrinsic(self, rng):
        # quotient distance never exceeds the distance of the representatives
        u = haar_sample(GRASS.group, rng).matrix
        v = haar_sample(GRASS.group, rng).matrix
        d = quotient_dist_upper(_coset(GRASS, u), _coset(GRASS, v), rng=rng)
        assert d <= intrinsic_dist(u, v) + 1e-9

    def test_space_mismatch(self, rng):
        u = haar_sample(GRASS.group, rng).matrix
        other = HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(1))
        with pytest.raises(InvalidArgumentError):
            quotient_dist_upper(_coset(GRASS, u), _coset(other, u))

    def test_raw_optimizer_matches_closed_form_past_fold(self, rng):
        """The local search itself (no closed-form assist) must recover the
        exact distance even where the quotient geodesic folds back."""
        space = HomSpace(GroupSpec("U", 3), SubgroupSpec.grassmann(1))
        base = _coset(space, np.eye(3, dtype=complex))
        x = tangent_sample(space, "X", np.pi, np.random.default_rng(1)).matrix
        for t in (0.3, 0.6, 0.75, 0.95):
            v = expm_skew(t * x)
            closed = _closed_form_dists(space, np.eye(3, dtype=complex), v[None])[0]
            opt = _optimize_coset_dist(base, _coset(space, v), 8, 200, 0)
            assert opt == pytest.approx(closed, abs=1e-6)

    def test_multiblock_optimization_bounded_by_grassmann_pair(self, rng):
        """Three blocks: no closed form, but the value must be a genuine
        upper bound and beat the naive representative distance on average."""
        space = HomSpace(GroupSpec("U", 3),
                         SubgroupSpec.block_diagonal([1, 1, 1]))
        u = haar_sample(space.group, rng).matrix
        h = tangent_sample(space, "H", 2.0, rng).matrix
        v = u @ expm_skew(h)
        d = quotient_dist_upper(_coset(space, u), _coset(space, v), rng=rng)
        assert d <= 1e-5


CLOSED_FORM_SPACES = [
    HomSpace(GroupSpec("SO", 3), SubgroupSpec.grassmann(1)),
    HomSpace(GroupSpec("SO", 4), SubgroupSpec.grassmann(2)),
    HomSpace(GroupSpec("U", 3), SubgroupSpec.grassmann(2)),
    HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2)),
    HomSpace(GroupSpec("U", 3), SubgroupSpec.special()),
    HomSpace(GroupSpec("U", 4), SubgroupSpec.special()),
]
NORMS = {
    "schatten_inf": NormSpec.schatten(np.inf),
    "schatten_2": FROBENIUS,
    "schatten_1": NormSpec.schatten(1),
    "max_plus_half_sum": NormSpec.gauge(lambda s: np.max(s) + 0.5 * np.sum(s)),
}


class TestClosedFormsMatchOptimizer:
    """The batched closed forms are the exact quotient distance in every
    unitarily invariant norm: the multi-start optimizer over the fibre
    lands on the same value.  Pairs are v = u exp(x) with x in the
    complement and ||x|| <= pi / 4; on SO the subgroup is the identity
    component, so the optimizer measures the oriented Grassmannian, which
    agrees with the closed form only on near pairs."""

    @pytest.mark.parametrize("norm_id", list(NORMS))
    @pytest.mark.parametrize(
        "space", CLOSED_FORM_SPACES,
        ids=lambda s: f"{s.group.kind}{s.n}-{s.subgroup.kind}{s.subgroup.k or ''}")
    def test_agreement(self, space, norm_id):
        space = HomSpace(space.group, space.subgroup, NORMS[norm_id])
        rng = np.random.default_rng(7)
        for _ in range(3):
            u = haar_sample(space.group, rng).matrix
            x = tangent_sample(space, "X", np.pi / 4, rng).matrix
            v = u @ expm_skew(x)
            closed = _closed_form_dists(space, u, np.stack([v, u]))
            opt = _optimize_coset_dist(_coset(space, u), _coset(space, v), 8, 200, 0)
            assert closed[0] == pytest.approx(opt, abs=1e-8)
            assert closed[1] == pytest.approx(0.0, abs=1e-6)
            assert quotient_dist_upper(_coset(space, u), _coset(space, v)) == closed[0]

    def test_no_closed_form_for_tensor_and_multiblock(self):
        u = np.eye(4, dtype=complex)
        for sub in (SubgroupSpec.tensor_factor(2, 2),
                    SubgroupSpec.block_diagonal([2, 1, 1])):
            space = HomSpace(GroupSpec("U", 4), sub)
            assert _closed_form_dists(space, u, u[None]) is None
