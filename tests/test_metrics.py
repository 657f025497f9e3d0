"""Metric tests: the extrinsic/intrinsic phase identity, curve length,
geodesics, Grassmann distances and the coset-distance upper bound against
its closed forms."""

import numpy as np
import pytest
from scipy.optimize import minimize

from unicover.matcore import (
    FROBENIUS,
    OPERATOR,
    BranchAmbiguityError,
    InvalidArgumentError,
    NormSpec,
    expm_skew,
    logm_unitary,
    opnorm,
)
from unicover.groups import (
    GroupElement,
    GroupSpec,
    HomSpace,
    SubgroupSpec,
    _elements,
    _project_H_mat,
    component_basis,
    haar_sample,
    haar_samples,
    tangent_sample,
)
from unicover.metrics import (
    CosetPoint,
    Curve,
    curve_length,
    extrinsic_dist,
    grassmann_dist,
    intrinsic_dist,
    quotient_dist_upper,
    _dists,
    _optimize_coset_dist,
    _polyline_length,
)
from unicover import metrics
from unicover.entropy import dists_to_centers, greedy_packing

from conftest import cuts, random_skew


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

    def test_other_norms_take_gauge_value_at_branch_cut(self):
        # the phase of -1 is pi on either log branch, so every norm has a
        # value there, and it is the one the batched group path gives
        u = np.eye(2, dtype=complex)
        v = np.diag([-1.0 + 0j, 1.0])
        for norm in (FROBENIUS, NormSpec.schatten(1)):
            d = intrinsic_dist(u, v, norm)
            assert d == pytest.approx(np.pi)
            bare = HomSpace(GroupSpec("U", 2), SubgroupSpec.trivial(), norm)
            assert dists_to_centers(bare, u, [v])[0] == d

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            intrinsic_dist(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("u, v", [
        (2 * np.eye(3), np.eye(3)),
        (np.eye(3), np.full((3, 3), np.nan)),
        (np.ones(3), np.ones(3)),
    ], ids=["scaled", "nan", "vector"])
    def test_rejects_non_unitary(self, u, v):
        with pytest.raises(InvalidArgumentError):
            intrinsic_dist(u, v)

    @pytest.mark.parametrize("norm_id", ["schatten_1", "schatten_2", "schatten_inf"])
    @pytest.mark.parametrize("kind, n", [("U", 3), ("SO", 4)])
    def test_bit_identical_to_bare_group_distance(self, kind, n, norm_id):
        # one eigenphase kernel: the public intrinsic distance and the bare
        # group's quotient distance are the same float
        space = HomSpace(GroupSpec(kind, n), SubgroupSpec.trivial(), NORMS[norm_id])
        pts = haar_samples(space.group, np.random.default_rng(12), 20)
        for u, v in zip(pts[0::2], pts[1::2]):
            d = quotient_dist_upper(_coset(space, u), _coset(space, v))
            assert intrinsic_dist(u, v, space.norm) == d


class TestCurves:
    def test_geodesic_segment_length_equals_norm(self, rng):
        x = random_skew(3, rng)
        x *= 1.5 / opnorm(x)
        pts = [expm_skew(t * x) for t in np.linspace(0, 1, 9)]
        assert curve_length(Curve(pts)) == pytest.approx(1.5, abs=1e-9)

    def test_perturbed_curve_is_longer(self, rng):
        x = random_skew(3, rng)
        x *= 2.0 / opnorm(x)
        ts = np.linspace(0, 1, 9)
        pts = []
        for i, t in enumerate(ts):
            p = expm_skew(t * x)
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
            Curve([])
        with pytest.raises(InvalidArgumentError):
            Curve([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("norm", [OPERATOR, FROBENIUS, NormSpec.schatten(1)],
                             ids=["operator", "schatten2", "schatten1"])
    def test_length_is_the_geodesic_checks_polyline_length(self, norm, rng):
        # curve_length and check_geodesic_minimality share one length: a
        # stack of polylines gives each curve's length bit for bit
        x = random_skew(3, rng)
        x *= 2.0 / opnorm(x)
        curves = []
        for _ in range(4):
            pts = [expm_skew(t * x) for t in np.linspace(0, 1, 9)]
            kinks = [random_skew(3, rng) for _ in pts[1:-1]]
            bent = [p @ expm_skew(0.2 * w / opnorm(w)) for p, w in zip(pts[1:-1], kinks)]
            curves.append([pts[0], *bent, pts[-1]])
        lengths = _polyline_length(np.array(curves), norm)
        assert lengths.shape == (4,)
        for c, want in zip(curves, lengths):
            assert curve_length(Curve(c), norm) == want


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

    def test_coset_point_checks_a_bare_representative(self):
        ok = _coset(GRASS, np.eye(4))
        for bad in (2 * np.eye(4), np.full((4, 4), np.inf), np.eye(3)):
            with pytest.raises(InvalidArgumentError):
                quotient_dist_upper(CosetPoint(bad, GRASS), ok)
        with pytest.raises(InvalidArgumentError):  # an element of U(3)
            CosetPoint(GroupElement(np.eye(3), GroupSpec("U", 3)), GRASS)
        p = CosetPoint(np.eye(4), GRASS)
        assert p.representative.group == GRASS.group
        assert quotient_dist_upper(p, ok) == 0.0

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
        base = np.eye(3, dtype=complex)
        x = tangent_sample(space, "X", np.pi, np.random.default_rng(1)).matrix
        for t in (0.3, 0.6, 0.75, 0.95):
            v = expm_skew(t * x)
            closed = _dists(space, base, v)
            opt = _optimize_coset_dist(space, base, v, 8, 0)
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

    @pytest.mark.parametrize("restarts", [-1, 0, 2.5, True, None])
    def test_invalid_restarts(self, restarts):
        p, q = _coset(GRASS, np.eye(4)), _coset(GRASS, np.eye(4))
        with pytest.raises(InvalidArgumentError):
            quotient_dist_upper(p, q, restarts=restarts)

    def test_restarts_accepts_numpy_integers(self):
        p, q = _coset(GRASS, np.eye(4)), _coset(GRASS, np.eye(4))
        assert quotient_dist_upper(p, q, restarts=np.int64(1)) == 0.0

    def test_trivial_fibre_is_the_group(self):
        """SO(n)'s blocks of size 1 leave H = {I}: no fibre to search, so
        the distance is the group's own."""
        space = HomSpace(GroupSpec("SO", 3), SubgroupSpec.block_diagonal([1, 1, 1]))
        assert space.dim_H == 0
        rng = np.random.default_rng(5)
        for _ in range(5):
            u, v = haar_samples(space.group, rng, 2)
            d = quotient_dist_upper(_coset(space, u), _coset(space, v))
            assert d == pytest.approx(intrinsic_dist(u, v), abs=1e-12)
        bare = HomSpace(GroupSpec("SO", 3))
        assert greedy_packing(space, 0.9, 20, rng=0).count == greedy_packing(bare, 0.9, 20, rng=0).count


def _space_id(space):
    sub = space.subgroup
    return f"{space.group.kind}{space.n}-{sub.kind}{sub.k or ''}"


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
        "space", CLOSED_FORM_SPACES, ids=_space_id)
    def test_agreement(self, space, norm_id):
        space = HomSpace(space.group, space.subgroup, NORMS[norm_id])
        rng = np.random.default_rng(7)
        for _ in range(3):
            u = haar_sample(space.group, rng).matrix
            x = tangent_sample(space, "X", np.pi / 4, rng).matrix
            v = u @ expm_skew(x)
            closed = _dists(space, u, np.stack([v, u]))
            opt = _optimize_coset_dist(space, u, v, 8, 0)
            assert closed[0] == pytest.approx(opt, abs=1e-8)
            assert closed[1] == pytest.approx(0.0, abs=1e-6)
            assert quotient_dist_upper(_coset(space, u), _coset(space, v)) == closed[0]

    def test_no_closed_form_for_tensor_and_multiblock(self):
        u = np.eye(4, dtype=complex)
        for sub in (SubgroupSpec.tensor_factor(2, 2),
                    SubgroupSpec.block_diagonal([2, 1, 1])):
            space = HomSpace(GroupSpec("U", 4), sub)
            assert space.subgroup.exact_dists(u, u, space.norm) is None

    @pytest.mark.parametrize("space, closed", [
        (HomSpace(GroupSpec("U", 3)), True),
        (HomSpace(GroupSpec("SO", 4)), True),
        (HomSpace(GroupSpec("U", 3), SubgroupSpec.special()), True),
        (HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2)), True),
        (HomSpace(GroupSpec("SO", 3), SubgroupSpec.grassmann(1)), True),
        (HomSpace(GroupSpec("SO", 3), SubgroupSpec.block_diagonal([1, 1, 1])), True),
        (HomSpace(GroupSpec("U", 3), norm=FROBENIUS), True),
        (HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1, 1])), False),
        (HomSpace(GroupSpec("U", 4), SubgroupSpec.tensor_factor(2, 2)), False),
        # the route does not depend on the norm
        (HomSpace(GroupSpec("U", 3), SubgroupSpec.special(), FROBENIUS), True),
        (HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2), NormSpec.schatten(1)), True),
        (HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1, 1]), FROBENIUS), False),
    ], ids=["U3", "SO4", "U3-special", "U4-grassmann2", "SO3-grassmann1",
            "SO3-block111", "U3-frobenius", "U3-block111", "U4-tensor2x2",
            "U3-special-frobenius", "U4-grassmann2-schatten1", "U3-block111-frobenius"])
    def test_closed_form_predicate_is_the_route_dists_takes(self, space, closed, monkeypatch):
        # the predicate names the spaces _dists answers without a coset
        # search, and _dists runs exactly one search per pair elsewhere
        searches = []
        search = metrics._optimize_coset_dist
        monkeypatch.setattr(metrics, "_optimize_coset_dist",
                            lambda *args: searches.append(1) or search(*args))
        assert metrics._closed_form(space) is closed
        pts = haar_samples(space.group, np.random.default_rng(3), 2)
        _dists(space, pts[0], pts[1])
        assert len(searches) == (0 if closed else 1)


def _reference_optimize(p, q, restarts=8, max_iter=200, rng=0):
    """The coset search as first written: the objective combines the basis
    with np.tensordot and calls the public np.linalg.eigh and eigvals, with
    their per-call checks.  _optimize_coset_dist must return its bits."""
    space, norm = p.space, p.space.norm
    u, v = p.representative.matrix, q.representative.matrix
    basis = component_basis(space, "H")
    dim = len(basis)
    stack = np.stack(basis)
    rng = np.random.default_rng(rng)
    uh = u.conj().T

    def phases_at(c):
        hm = np.tensordot(c, stack, axes=(0, 0))
        w_, v_ = np.linalg.eigh(-1j * hm.astype(complex))
        eh = (v_ * np.exp(1j * w_)) @ v_.conj().T
        return np.abs(np.angle(np.linalg.eigvals(uh @ (v @ eh))))

    def f(c):
        return norm.of_singular_values(phases_at(c))

    def f_smooth(c):
        return float(np.sum(phases_at(c) ** 8) ** (1.0 / 8))

    starts = [np.zeros(dim)]
    try:
        h = -_project_H_mat(space, logm_unitary(uh @ v))
        starts.append(np.array([np.real(np.vdot(b, h)) for b in basis]))
    except BranchAmbiguityError:
        pass
    while len(starts) < max(2, restarts):
        starts.append(rng.normal(scale=1.0, size=dim))
    ranked = sorted(starts, key=f)[: max(2, min(4, len(starts)))]
    best = intrinsic_dist(u, v, norm)
    surrogate = f_smooth if norm.is_operator else f
    for c0 in ranked:
        f0 = float(f(c0))
        if f0 > best + 0.25:
            continue
        res = minimize(surrogate, c0, method="Powell",
                       options={"maxiter": max_iter, "xtol": 1e-7, "ftol": 1e-9})
        best = min(best, f0, float(f(res.x)))
        res2 = minimize(f, res.x, method="Powell",
                        options={"maxiter": max_iter, "xtol": 1e-7, "ftol": 1e-10})
        best = min(best, float(res2.fun))
        if best <= 1e-9:
            break
    return best


NO_CLOSED_FORM_SPACES = [
    HomSpace(GroupSpec("U", 4), SubgroupSpec.tensor_factor(2, 2)),
    HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1, 1])),
    HomSpace(GroupSpec("SO", 5), SubgroupSpec.block_diagonal([2, 2, 1])),
    HomSpace(GroupSpec("U", 4), SubgroupSpec.block_diagonal([2, 1, 1])),
]


class TestLeanObjective:
    """The search calls numpy's LAPACK gufuncs directly; its values are
    those of the public wrappers bit for bit."""

    @pytest.mark.parametrize("norm_id", ["schatten_inf", "schatten_1", "max_plus_half_sum"])
    @pytest.mark.parametrize("space", NO_CLOSED_FORM_SPACES, ids=_space_id)
    def test_bit_identical_to_public_wrappers(self, space, norm_id, monkeypatch):
        space = HomSpace(space.group, space.subgroup, NORMS[norm_id])
        rng = np.random.default_rng(21)
        u, v = haar_samples(space.group, rng, 2)
        # a pair in one coset: the search stops at its first start
        w = u @ expm_skew(tangent_sample(space, "H", 1.0, rng).matrix)
        for a, b in [(u, v), (v, u), (u, w)]:
            p, q = _coset(space, a), _coset(space, b)
            assert _optimize_coset_dist(space, a, b, 8, 0) == _reference_optimize(p, q)
        runs = []
        monkeypatch.setattr(metrics, "minimize", lambda *a, **k: runs.append(1) or minimize(*a, **k))
        assert _optimize_coset_dist(space, u, w, 8, 0) <= 1e-9
        assert len(runs) == 2

    def test_lapack_failure_raises(self, monkeypatch):
        # a non-converged LAPACK call returns NaN and sets the invalid flag
        def failed_eigvals(a):
            return np.full(len(a), np.inf) - np.inf

        monkeypatch.setattr(metrics, "eigvals", failed_eigvals)
        space = NO_CLOSED_FORM_SPACES[1]
        u, v = haar_samples(space.group, np.random.default_rng(22), 2)
        with pytest.raises(FloatingPointError):
            quotient_dist_upper(_coset(space, u), _coset(space, v))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


def _quadratic(x):
    d = x - np.arange(len(x))
    return float(d @ np.diag(np.arange(1.0, len(x) + 1)) @ d + 0.5)


# rows +-a_i for four a_i spanning R^3: the max of the affine functions is
# bounded below, with kinks
_AFFINE = np.random.default_rng(3).normal(size=(4, 3))
_AFFINE = np.vstack([_AFFINE, -_AFFINE])
_OFFSETS = np.random.default_rng(4).normal(size=8)


def _max_affine(x):
    return float(np.max(_AFFINE @ x + _OFFSETS))


POWELL_CASES = {
    "quadratic": (_quadratic, [3.0, -1.0, 2.0], {}),
    "rosenbrock2": (_rosenbrock, [-1.2, 1.0], {}),
    "rosenbrock4": (_rosenbrock, [-1.2, 1.0, -0.5, 0.3], {}),
    "max_affine": (_max_affine, [0.3, -0.2, 0.1], {}),
    # every bracket fails, so each line search keeps the best of three points
    "constant": (lambda x: 2.5, [0.5, 1.5], {}),
    "maxiter1": (_rosenbrock, [-1.2, 1.0, 0.4], {"maxiter": 1}),
}


class TestPowellPort:
    """metrics.minimize is scipy's unbounded Powell ported step for step:
    the same iterate, value and evaluation count, bit for bit."""

    @pytest.mark.parametrize("ftol", [1e-9, 1e-10])
    @pytest.mark.parametrize("case", list(POWELL_CASES))
    def test_bit_identical_to_scipy(self, case, ftol):
        fn, x0, extra = POWELL_CASES[case]
        options = {"maxiter": 200, "xtol": 1e-7, "ftol": ftol, **extra}
        want = minimize(fn, np.array(x0), method="Powell", options=options)
        got = metrics.minimize(fn, np.array(x0), method="Powell", options=options)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.fun == want.fun
        assert got.nfev == want.nfev

    def test_rejects_what_is_not_ported(self):
        options = {"maxiter": 200, "xtol": 1e-7, "ftol": 1e-9}
        for method, opts in [("Nelder-Mead", options), ("Powell", {**options, "maxfev": 10}),
                             ("Powell", {"maxiter": 200})]:
            with pytest.raises(InvalidArgumentError):
                metrics.minimize(_rosenbrock, np.zeros(2), method=method, options=opts)


def _recorded_quotient_mix():
    """perfbench/reference.json's quotient_mix distances for input seed 0,
    per round {space id: distance}, rounded to 12 decimals."""
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    return json.loads(path.read_text())["quotient_mix"]["0"]


class TestRecordedDistances:
    """The coset search reproduces the benchmark's recorded quotient_mix
    distances (input seed 0, rounds 0-5), so that a change of the optimizer's
    bits shows here and not only in the benchmark's gate.  The pairs are
    drawn as the workload draws them: one Haar pair per space per round, in
    this order, from default_rng(0)."""

    SPACES = {
        "u3_special": HomSpace(GroupSpec("U", 3), SubgroupSpec.special()),
        "u4_grassmann2": HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2)),
        "u4_tensor2x2": HomSpace(GroupSpec("U", 4), SubgroupSpec.tensor_factor(2, 2)),
        "u3_block111": HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1, 1])),
        "so5_block221": HomSpace(GroupSpec("SO", 5), SubgroupSpec.block_diagonal([2, 2, 1])),
    }

    def test_first_rounds_of_seed_0(self):
        recorded = _recorded_quotient_mix()
        rng = np.random.default_rng(0)
        for j in range(6):
            for sid, space in self.SPACES.items():
                u, v = haar_sample(space.group, rng), haar_sample(space.group, rng)
                d = quotient_dist_upper(CosetPoint(u, space), CosetPoint(v, space))
                assert d == pytest.approx(recorded[j][sid], abs=1e-12), (j, sid)


TRIVIAL = SubgroupSpec.trivial()
BRACKET_SPACES = (
    [HomSpace(GroupSpec("U", n), TRIVIAL) for n in range(1, 5)]
    + [HomSpace(GroupSpec("SO", n), TRIVIAL) for n in range(2, 6)]
    + [HomSpace(GroupSpec(g, n), SubgroupSpec.grassmann(k))
       for g, n, k in [("U", 4, 2), ("U", 3, 1), ("U", 5, 3), ("SO", 3, 1), ("SO", 4, 2),
                       ("U", 6, 3)]]
)
# Grassmannians with min(k, n - k) = 2, on both sides of k = n / 2: the
# bracket takes the Pluecker coordinates of the smaller side's 2-frame
PLUCKER_SPACES = [HomSpace(GroupSpec(g, n), SubgroupSpec.grassmann(k))
                  for g, n, k in [("U", 4, 2), ("U", 5, 3), ("U", 5, 2), ("SO", 4, 2), ("SO", 5, 3)]]


def _bracket_pairs(space, a, b):
    """The bracket of the pairs (a[i], b[i]), as distances (w arcsin of the
    square root of the bounds on sin^2(d / w), the inverse of the bracket's
    sin2), and their exact distance."""
    bracket = space.bracket
    lo, hi = bracket.sin2_bounds(bracket.bracket_rows(a), bracket.bracket_rows(b), space.group)
    w = bracket.w
    lo, hi = (w * np.arcsin(np.sqrt(np.clip(x.diagonal(), 0.0, 1.0))) for x in (lo, hi))
    return lo, hi, _dists(space, a, b)


class TestBracket:
    """lo <= d <= hi for the operator-norm bracket of the bare groups and
    the Grassmannians, against the exact closed form."""

    @pytest.mark.parametrize("space", BRACKET_SPACES, ids=_space_id)
    def test_contains_exact_on_haar_pairs(self, space):
        rng = np.random.default_rng(11)
        a = haar_samples(space.group, rng, 200)
        b = haar_samples(space.group, rng, 200)
        lo, hi, d = _bracket_pairs(space, a, b)
        assert np.all(lo <= d + 1e-12)
        assert np.all(d <= hi + 1e-12)
        sub = space.subgroup
        terms = (min(sub.k, space.n - sub.k) if sub.kind == "grassmann"
                 else space.n // 2 if space.group.kind == "SO" else space.n)
        if terms == 1:  # one nonzero term: the bracket pins the distance
            assert np.all(hi - lo <= 1e-9)
        elif terms == 2 and sub.kind == "grassmann":
            # the Pluecker product pins the largest of two angles
            assert np.all(hi - lo <= 1e-5)
        else:  # only [s/m, s]
            assert np.max(hi - lo) > 1e-2

    @pytest.mark.parametrize("space", [
        HomSpace(GroupSpec("U", n), SubgroupSpec.grassmann(k)) for n, k in [(3, 2), (5, 3), (5, 4)]
    ], ids=_space_id)
    def test_contains_exact_off_unitary(self, space):
        # the element check accepts a unitarity defect up to TOL_ALG: move
        # Haar points to a defect of 9e-11 by u -> u (I + t H), H Hermitian
        # with ||H|| = 1; past k = n / 2 the bracket and the exact distance
        # must still read one frame, so the bracket holds with no tolerance
        rng = np.random.default_rng(21)
        n = space.n
        pts = []
        for u in haar_samples(space.group, rng, 800):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = z + z.conj().T
            pts.append(u @ (np.eye(n) + 4.5e-11 / opnorm(h) * h))
        pts = _elements(space.group, np.array(pts))
        assert np.max(opnorm(pts.conj().transpose(0, 2, 1) @ pts - np.eye(n))) > 8e-11
        lo, hi, d = _bracket_pairs(space, pts[:400], pts[400:])
        assert np.all(lo <= d) and np.all(d <= hi)

    @pytest.mark.parametrize("space", BRACKET_SPACES, ids=_space_id)
    def test_self_pairs_get_zero_lower_bound(self, space):
        a = haar_samples(space.group, np.random.default_rng(14), 50)
        lo, hi, d = _bracket_pairs(space, a, a)
        assert np.all(lo == 0.0)
        assert np.all(d <= hi)

    @pytest.mark.parametrize("angle", [1e-7, 1e-4, 0.3, 0.9, np.pi / 2 - 1e-4, np.pi / 2])
    @pytest.mark.parametrize("space", PLUCKER_SPACES, ids=_space_id)
    def test_contains_exact_at_equal_angles(self, space, angle):
        # b = a exp(x) with x turning column 0 toward column k and column 1
        # toward column k + 1 by one angle: two equal principal angles, a
        # double root of the Pluecker quadratic
        n, k = space.n, space.subgroup.k
        x = np.zeros((n, n))
        for i in (0, 1):
            x[k + i, i], x[i, k + i] = angle, -angle
        a = haar_samples(space.group, np.random.default_rng(15), 40)
        lo, hi, d = _bracket_pairs(space, a, a @ expm_skew(x))
        assert np.all(lo <= d) and np.all(d <= hi)
        assert np.allclose(d, angle, atol=1e-7)

    @pytest.mark.parametrize("delta", [1e-6, 1e-3])
    @pytest.mark.parametrize("space", BRACKET_SPACES, ids=_space_id)
    def test_contains_exact_on_near_pairs(self, space, delta):
        # the Grassmann closed form loses half its digits near 0 (a 5e-8
        # floor), so these pairs get a wider tolerance
        rng = np.random.default_rng(12)
        a = haar_samples(space.group, rng, 50)
        b = []
        for u in a:
            x = tangent_sample(space, "X", 1.0, rng).matrix
            b.append(u @ expm_skew(delta / opnorm(x) * x))
        lo, hi, d = _bracket_pairs(space, a, np.array(b))
        assert np.all(lo <= d + 1e-7)
        assert np.all(d <= hi + 1e-7)
        assert np.all(d <= delta + 1e-7)

    @pytest.mark.parametrize("space", [
        HomSpace(GroupSpec("U", 3), SubgroupSpec.special()),
        HomSpace(GroupSpec("U", 4), SubgroupSpec.tensor_factor(2, 2)),
        HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1, 1])),
        HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2), NormSpec.schatten(1)),
        HomSpace(GroupSpec("U", 3), TRIVIAL, FROBENIUS),
    ], ids=["special", "tensor2x2", "block111", "schatten1", "schatten2"])
    def test_no_bracket(self, space):
        # the kind has no bracket, or the norm switches it off: the space's
        # bracket is the null one of the base class, with no scale
        bracket = space.bracket
        assert bracket.w is None
        for name in ("bracket_rows", "sin2_bounds", "sin2"):
            assert getattr(type(bracket), name) is getattr(SubgroupSpec, name), name
        assert type(bracket) is SubgroupSpec or space.norm.is_operator
        # zero-width rows bound nothing: at any epsilon no pair is near
        # (hi at most the near cut) or far (lo above the far cut)
        a = haar_samples(space.group, np.random.default_rng(13), 5)
        f = bracket.bracket_rows(a)
        assert f.shape == (5, 0)
        lo, hi = bracket.sin2_bounds(f, f[:3], space.group)
        assert lo.shape == hi.shape == (5, 3)
        assert np.all(lo == -np.inf) and np.all(hi == np.inf)
        d = np.array([1e-6, 0.3, 1.0, np.pi / 2, 3.0, 10.0])
        # with no scale, sin2 leaves a distance as it is
        assert bracket.sin2(d) is d and bracket.sin2(0.3) == 0.3
        for epsilon in d:
            near, far = cuts(space, epsilon)
            assert not np.any(hi <= near) and not np.any(lo > far)
