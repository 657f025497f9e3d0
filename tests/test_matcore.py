"""Matrix kernel tests against independent oracles: Taylor-series
exponentials, characteristic-polynomial eigenphases and scipy's
subspace-angle implementation."""

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from unicover.matcore import (
    FROBENIUS,
    OPERATOR,
    BranchAmbiguityError,
    InvalidArgumentError,
    NormSpec,
    eigenphases,
    expm_skew,
    is_skew,
    logm_unitary,
    opnorm,
    principal_angles,
    schatten_norm,
)

from conftest import charpoly_phases, random_skew, taylor_expm


class TestNormSpec:
    def test_operator_is_max_singular_value(self, rng):
        a = rng.standard_normal((4, 4))
        s = np.linalg.svd(a, compute_uv=False)
        assert schatten_norm(a, OPERATOR) == pytest.approx(s[0])

    def test_schatten_p_matches_numpy(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        for p in (1, 2, 3, 4.5):
            want = np.linalg.norm(np.linalg.svd(a, compute_uv=False), p)
            assert schatten_norm(a, NormSpec.schatten(p)) == pytest.approx(want)

    def test_frobenius_equals_entrywise(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert schatten_norm(a, FROBENIUS) == pytest.approx(np.linalg.norm(a))

    def test_schatten_inf_is_operator(self):
        spec = NormSpec.schatten(np.inf)
        assert spec.is_operator
        assert spec.of_singular_values([3.0, 1.0, 2.0]) == 3.0

    def test_gauge_callback(self):
        spec = NormSpec.gauge(lambda s: float(np.sum(s)))
        assert spec.of_singular_values([1.0, 2.0]) == 3.0

    def test_stack_reduces_each_row(self, rng):
        rows = rng.uniform(0, 3, size=(2, 5, 4))
        for spec in (OPERATOR, FROBENIUS, NormSpec.schatten(1),
                     NormSpec.gauge(lambda s: float(np.max(s) + np.sum(s)))):
            got = spec.of_singular_values(rows)
            assert got.shape == (2, 5)
            want = [[spec.of_singular_values(r) for r in block] for block in rows]
            assert np.array_equal(got, want)

    def test_invalid_specs_raise(self):
        with pytest.raises(InvalidArgumentError):
            NormSpec("nonsense")
        with pytest.raises(InvalidArgumentError):
            NormSpec.schatten(0.5)
        with pytest.raises(InvalidArgumentError):
            NormSpec("gauge")

    def test_triangle_inequality_sampled(self, rng):
        for _ in range(50):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            for spec in (OPERATOR, FROBENIUS, NormSpec.schatten(1)):
                assert schatten_norm(a + b, spec) <= (
                    schatten_norm(a, spec) + schatten_norm(b, spec) + 1e-10
                )

    def test_unitary_invariance(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
        for spec in (OPERATOR, FROBENIUS, NormSpec.schatten(1)):
            assert schatten_norm(u @ a, spec) == pytest.approx(
                schatten_norm(a, spec)
            )


class TestExpmSkew:
    def test_matches_taylor_oracle(self, rng):
        for n in (2, 3, 5):
            x = random_skew(n, rng)
            x *= 0.8 / opnorm(x)
            assert np.allclose(expm_skew(x), taylor_expm(x), atol=1e-12)

    def test_real_input_gives_real_rotation(self, rng):
        x = random_skew(3, rng, complex_=False)
        u = expm_skew(x)
        assert not np.iscomplexobj(u)
        assert np.linalg.det(u) == pytest.approx(1.0)
        assert np.allclose(u, taylor_expm(x).real, atol=1e-12)

    def test_output_is_unitary(self, rng):
        x = random_skew(4, rng)
        u = expm_skew(x)
        assert opnorm(u.conj().T @ u - np.eye(4)) < 1e-12

    def test_rejects_non_skew(self, rng):
        with pytest.raises(InvalidArgumentError):
            expm_skew(rng.standard_normal((3, 3)))

    def test_rejects_non_square_and_nan(self):
        with pytest.raises(InvalidArgumentError):
            expm_skew(np.zeros((2, 3)))
        bad = np.array([[0.0, np.nan], [-np.nan, 0.0]])
        with pytest.raises(InvalidArgumentError):
            expm_skew(bad)


class TestEigenphases:
    def test_matches_charpoly_oracle(self, rng):
        x = random_skew(4, rng)
        u = expm_skew(0.5 * x / opnorm(x))
        got = np.sort(eigenphases(u))
        want = charpoly_phases(u)
        assert np.allclose(got, want, atol=1e-8)

    def test_sorted_by_magnitude(self):
        u = np.diag(np.exp(1j * np.array([0.1, -2.0, 1.5])))
        ph = eigenphases(u)
        assert np.all(np.abs(ph)[:-1] >= np.abs(ph)[1:])

    def test_tie_at_minus_one_resolves_to_plus_pi(self):
        ph = eigenphases(np.diag([-1.0 + 0j, 1.0]))
        assert ph[0] == pytest.approx(np.pi)

    def test_rejects_non_unitary(self, rng):
        with pytest.raises(InvalidArgumentError):
            eigenphases(2 * np.eye(3))


class TestLogmUnitary:
    def test_roundtrip(self, rng):
        x = random_skew(3, rng)
        x *= 2.0 / opnorm(x)  # norm 2 < pi keeps the principal branch
        u = expm_skew(x)
        assert np.allclose(logm_unitary(u), x, atol=1e-10)

    def test_result_is_principal(self, rng):
        u = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
        d = np.diag(np.linalg.qr(rng.standard_normal((4, 4))
                                 + 1j * rng.standard_normal((4, 4)))[1])
        u = u * (d / np.abs(d))
        try:
            x = logm_unitary(u)
        except BranchAmbiguityError:
            return
        assert is_skew(x, tol=1e-9)
        assert opnorm(x) < np.pi
        assert np.allclose(taylor_expm(x), u.astype(complex), atol=1e-9)

    def test_branch_ambiguity_raises(self):
        with pytest.raises(BranchAmbiguityError):
            logm_unitary(np.diag([-1.0 + 0j, 1.0]))

    def test_real_roundtrip(self, rng):
        x = random_skew(3, rng, complex_=False)
        x *= 1.0 / opnorm(x)
        u = expm_skew(x)
        back = logm_unitary(u)
        assert not np.iscomplexobj(back)
        assert np.allclose(back, x, atol=1e-10)


class TestPrincipalAngles:
    def test_one_dim_closed_form(self, rng):
        # k = 1: single angle arccos |<e, f>|, computed directly
        e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        e = (e / np.linalg.norm(e)).reshape(-1, 1)
        f = (f / np.linalg.norm(f)).reshape(-1, 1)
        want = np.arccos(min(abs(np.vdot(e, f)), 1.0))
        assert principal_angles(e, f)[0] == pytest.approx(want)

    def test_matches_scipy(self, rng):
        e = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        f = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        got = principal_angles(e, f)
        want = np.sort(subspace_angles(e, f))[::-1]
        assert np.allclose(got, want, atol=1e-10)

    def test_identical_subspaces(self, rng):
        e = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        assert np.allclose(principal_angles(e, e), 0.0, atol=1e-10)

    def test_orthogonal_subspaces(self):
        e = np.eye(4)[:, :2]
        f = np.eye(4)[:, 2:]
        assert np.allclose(principal_angles(e, f), np.pi / 2)

    def test_rejects_non_orthonormal(self, rng):
        with pytest.raises(InvalidArgumentError):
            principal_angles(2 * np.eye(3)[:, :1], np.eye(3)[:, :1])
        with pytest.raises(InvalidArgumentError):
            principal_angles(np.eye(3)[:, :1], np.eye(3)[:, :2])
