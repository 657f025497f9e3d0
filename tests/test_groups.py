"""Group descriptors, Haar sampling (moment and invariance oracles) and
subalgebra projections (Pythagoras oracle, dimension table)."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from unicover.matcore import InvalidArgumentError, opnorm
from unicover.groups import (
    GroupElement,
    GroupSpec,
    HomSpace,
    SkewElement,
    SubgroupSpec,
    component_basis,
    haar_sample,
    project_H,
    project_X,
    skew_basis,
    tangent_sample,
)


class TestSpecs:
    def test_group_dims(self):
        assert GroupSpec("U", 3).dim == 9
        assert GroupSpec("SO", 3).dim == 3
        assert GroupSpec("U", 1).dim == 1

    def test_invalid_groups(self):
        with pytest.raises(InvalidArgumentError):
            GroupSpec("SU", 2)
        with pytest.raises(InvalidArgumentError):
            GroupSpec("U", 0)
        with pytest.raises(InvalidArgumentError):
            GroupSpec("SO", 1)

    def test_subgroup_validation(self):
        with pytest.raises(InvalidArgumentError):
            HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1]))
        with pytest.raises(InvalidArgumentError):
            HomSpace(GroupSpec("U", 4), SubgroupSpec.tensor_factor(2, 3))
        with pytest.raises(InvalidArgumentError):
            HomSpace(GroupSpec("U", 3), SubgroupSpec.grassmann(3))
        with pytest.raises(InvalidArgumentError):
            HomSpace(GroupSpec("SO", 3), SubgroupSpec.special())

    def test_two_blocks_are_grassmann(self):
        for kind in ("U", "SO"):
            space = HomSpace(GroupSpec(kind, 5), SubgroupSpec.block_diagonal([2, 3]))
            assert space == HomSpace(GroupSpec(kind, 5), SubgroupSpec.grassmann(2))
        three = SubgroupSpec.block_diagonal([2, 2, 1])
        assert HomSpace(GroupSpec("U", 5), three).subgroup == three

    def test_quotient_dims(self):
        # grassmann G_{n,k}: complex dim 2k(n-k), real dim k(n-k)
        assert HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2)).dim == 8
        assert HomSpace(GroupSpec("SO", 3), SubgroupSpec.grassmann(1)).dim == 2
        # circle U(n)/SU(n)
        assert HomSpace(GroupSpec("U", 3), SubgroupSpec.special()).dim == 1
        # full group
        assert HomSpace(GroupSpec("U", 2), SubgroupSpec.trivial()).dim == 4

    def test_dim_table_matches_projector_rank(self):
        """The closed-form dimension of H must equal the rank of the
        projection onto the subalgebra, for every supported kind, n <= 6."""
        cases = []
        for n in range(2, 7):
            cases.append((GroupSpec("U", n), SubgroupSpec.special()))
            for k in range(1, n):
                cases.append((GroupSpec("U", n), SubgroupSpec.grassmann(k)))
                cases.append((GroupSpec("SO", n), SubgroupSpec.grassmann(k))
                             if n >= 3 else cases[-1])
        cases.append((GroupSpec("U", 4), SubgroupSpec.tensor_factor(2, 2)))
        cases.append((GroupSpec("U", 6), SubgroupSpec.tensor_factor(3, 2)))
        cases.append((GroupSpec("U", 5), SubgroupSpec.block_diagonal([2, 2, 1])))
        for g, sub in cases:
            try:
                space = HomSpace(g, sub)
            except InvalidArgumentError:
                continue  # zero-dimensional quotient
            assert len(component_basis(space, "H")) == space.dim_H
            assert len(component_basis(space, "X")) == space.dim


class TestHaar:
    def test_elements_are_unitary(self, rng):
        for g in (GroupSpec("U", 3), GroupSpec("SO", 4)):
            u = haar_sample(g, rng).matrix
            assert opnorm(u.conj().T @ u - np.eye(g.n)) < 1e-10

    def test_so_determinant_one(self, rng):
        for _ in range(20):
            u = haar_sample(GroupSpec("SO", 3), rng).matrix
            assert np.linalg.det(u) == pytest.approx(1.0)

    def test_trace_second_moment(self, rng):
        # E |tr u|^2 = 1 for Haar measure on U(n), n >= 1
        g = GroupSpec("U", 3)
        vals = [abs(np.trace(haar_sample(g, rng).matrix)) ** 2
                for _ in range(4000)]
        assert np.mean(vals) == pytest.approx(1.0, abs=0.1)

    def test_left_invariance_ks(self, rng):
        """Kolmogorov-Smirnov: the top eigenphase distribution is unchanged
        by left multiplication with a fixed unitary."""
        g = GroupSpec("U", 3)
        fixed = haar_sample(g, np.random.default_rng(7)).matrix
        a, b = [], []
        for _ in range(800):
            u = haar_sample(g, rng).matrix
            a.append(np.max(np.angle(np.linalg.eigvals(u))))
            v = fixed @ haar_sample(g, rng).matrix
            b.append(np.max(np.angle(np.linalg.eigvals(v))))
        assert ks_2samp(a, b).pvalue > 1e-3

    def test_seed_determinism(self):
        g = GroupSpec("U", 4)
        u1 = haar_sample(g, np.random.default_rng(3)).matrix
        u2 = haar_sample(g, np.random.default_rng(3)).matrix
        assert np.array_equal(u1, u2)


class TestProjections:
    SPACES = [
        HomSpace(GroupSpec("U", 3), SubgroupSpec.special()),
        HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2)),
        HomSpace(GroupSpec("U", 4), SubgroupSpec.tensor_factor(2, 2)),
        HomSpace(GroupSpec("U", 4), SubgroupSpec.block_diagonal([2, 1, 1])),
        HomSpace(GroupSpec("SO", 4), SubgroupSpec.grassmann(1)),
        HomSpace(GroupSpec("U", 2), SubgroupSpec.trivial()),
    ]

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.group.kind}{s.n}-{s.subgroup.kind}")
    def test_pythagoras(self, space, rng):
        from conftest import random_skew

        x = random_skew(space.n, rng, complex_=space.group.is_complex)
        h = project_H(space, x).matrix
        c = project_X(space, x).matrix
        assert np.allclose(h + c, x)
        # orthogonality in the trace inner product
        assert abs(np.trace(h.conj().T @ c)) < 1e-10
        assert (np.linalg.norm(h) ** 2 + np.linalg.norm(c) ** 2
                == pytest.approx(np.linalg.norm(x) ** 2))

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.group.kind}{s.n}-{s.subgroup.kind}")
    def test_idempotent(self, space, rng):
        from conftest import random_skew

        x = random_skew(space.n, rng, complex_=space.group.is_complex)
        h = project_H(space, x).matrix
        assert np.allclose(project_H(space, h).matrix, h)
        c = project_X(space, x).matrix
        assert np.allclose(project_X(space, c).matrix, c)

    def test_special_projection_is_traceless_removal(self, rng):
        from conftest import random_skew

        space = HomSpace(GroupSpec("U", 3), SubgroupSpec.special())
        x = random_skew(3, rng)
        h = project_H(space, x).matrix
        assert abs(np.trace(h)) < 1e-12
        c = project_X(space, x).matrix
        assert np.allclose(c, (np.trace(x) / 3) * np.eye(3))

    def test_subalgebra_closed_under_bracket(self, rng):
        """The projected component is an actual Lie subalgebra: the bracket
        of two H-elements stays in H."""
        from conftest import random_skew

        for space in self.SPACES:
            if space.subgroup.kind == "trivial":
                continue
            a = project_H(space, random_skew(space.n, rng,
                                             complex_=space.group.is_complex)).matrix
            b = project_H(space, random_skew(space.n, rng,
                                             complex_=space.group.is_complex)).matrix
            br = a @ b - b @ a
            assert np.allclose(project_H(space, br).matrix, br, atol=1e-10)


class TestBases:
    def test_skew_basis_orthonormal(self):
        for g in (GroupSpec("U", 3), GroupSpec("SO", 4)):
            basis = skew_basis(g)
            assert len(basis) == g.dim
            gram = np.array(
                [[np.real(np.vdot(a, b)) for b in basis] for a in basis]
            )
            assert np.allclose(gram, np.eye(g.dim), atol=1e-12)

    def test_component_basis_orthonormal_and_in_component(self, rng):
        space = HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(1))
        for comp in ("H", "X"):
            basis = component_basis(space, comp)
            for i, a in enumerate(basis):
                proj = project_H(space, a).matrix
                want = a if comp == "H" else np.zeros_like(a)
                assert np.allclose(proj, want, atol=1e-9)
                for j, b in enumerate(basis):
                    ip = np.real(np.vdot(a, b))
                    assert ip == pytest.approx(float(i == j), abs=1e-9)


class TestTangentSample:
    def test_norm_within_radius_and_component(self, rng):
        space = HomSpace(GroupSpec("U", 3), SubgroupSpec.grassmann(1))
        for comp in ("full", "H", "X"):
            s = tangent_sample(space, comp, 0.5, rng)
            assert 0 < opnorm(s.matrix) <= 0.5
            if comp == "X":
                assert np.allclose(project_H(space, s.matrix).matrix, 0.0,
                                   atol=1e-12)

    def test_invalid_inputs(self, rng):
        space = HomSpace(GroupSpec("U", 3), SubgroupSpec.grassmann(1))
        with pytest.raises(InvalidArgumentError):
            tangent_sample(space, "X", -1.0, rng)
        with pytest.raises(InvalidArgumentError):
            tangent_sample(space, "Z", 1.0, rng)


class TestElements:
    def test_group_element_validation(self, rng):
        g = GroupSpec("U", 2)
        with pytest.raises(InvalidArgumentError):
            GroupElement(2 * np.eye(2), g)
        with pytest.raises(InvalidArgumentError):
            GroupElement(np.eye(3), g)
        so = GroupSpec("SO", 2)
        refl = np.array([[1.0, 0.0], [0.0, -1.0]])  # det -1
        with pytest.raises(InvalidArgumentError):
            GroupElement(refl, so)

    def test_skew_element_validation(self, rng):
        with pytest.raises(InvalidArgumentError):
            SkewElement(np.eye(2))
