"""Property-suite tests: each check passes on healthy inputs, reports
serialize and round-trip their witnesses, and the documented preconditions
are enforced."""

import json

import numpy as np
import pytest

from unicover.matcore import InvalidArgumentError, opnorm
from unicover.groups import GroupSpec, HomSpace, SubgroupSpec, _skew_gaussian
from unicover.verify import (
    check_eq6,
    check_geodesic_minimality,
    check_lemma4,
    check_lemma5,
    check_lemma10,
    commutator_defect,
    lemma4_product_bound,
    load_witness,
    small_t_commutator_ratio,
)


class TestEq6:
    def test_passes(self):
        rep = check_eq6(2, samples=100, rng=0)
        assert rep.passed
        assert rep.worst_violation <= 1e-8

    def test_report_serializes(self):
        rep = check_eq6(2, samples=10, rng=0)
        data = json.loads(rep.to_json())
        assert data["passed"] is True
        assert data["name"] == "eq6"
        wit = load_witness(data["witness_b64"])
        assert set(wit) == {"u", "v"}
        assert wit["u"].shape == (2, 2)


class TestLemma4:
    def test_product_bound_above_point_four_at_quarter_pi(self):
        assert lemma4_product_bound(np.pi / 4) >= 0.4

    def test_product_bound_decreasing(self):
        vals = [lemma4_product_bound(t) for t in (np.pi / 8, np.pi / 4,
                                                  np.pi / 2)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_product_bound_domain(self):
        with pytest.raises(InvalidArgumentError):
            lemma4_product_bound(2 * np.pi / 3)
        with pytest.raises(InvalidArgumentError):
            lemma4_product_bound(0.0)

    def test_commuting_scalar_ratio(self):
        # diagonal commuting pair with phases +-pi/8: the exact ratio is
        # |1 - e^{i pi/4}| / (pi/4)
        x = np.array([[1j * np.pi / 8]])
        y = np.array([[-1j * np.pi / 8]])
        from unicover.matcore import expm_skew

        ratio = opnorm(expm_skew(x) - expm_skew(y)) / opnorm(x - y)
        assert ratio == pytest.approx(abs(1 - np.exp(1j * np.pi / 4)) / (np.pi / 4))
        assert ratio >= 0.4

    def test_check_passes(self):
        rep = check_lemma4(3, np.pi / 4, samples=500, rng=0)
        assert rep.passed
        assert rep.params["min_ratio"] >= 0.4
        assert rep.params["max_ratio"] <= 1 + 1e-9


class TestLemma5:
    def test_check_passes_both_norms(self):
        rep = check_lemma5(3, 0.5, samples=500, rng=0)
        assert rep.passed

    def test_commuting_pair_zero_defect(self):
        x = np.diag([1j * 0.3, -1j * 0.1])
        y = np.diag([1j * 0.2, 1j * 0.4])
        assert commutator_defect(x, y) <= 1e-12

    def test_small_t_ratio_near_commutator_norm(self, rng):
        for _ in range(10):
            x = _skew_gaussian(GroupSpec("U", 3), rng)
            y = _skew_gaussian(GroupSpec("U", 3), rng)
            c = opnorm(x @ y - y @ x)
            assert small_t_commutator_ratio(x, y, 1e-2) == pytest.approx(
                c, rel=0.1
            )

    def test_radius_precondition(self):
        with pytest.raises(InvalidArgumentError):
            check_lemma5(3, radius=1.0, samples=10)


class TestLemma10:
    GRASS = HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2))

    def test_standard_constants_pass(self):
        rep = check_lemma10(self.GRASS, 0.12, 0.4, samples=200, rng=0)
        assert rep.passed
        assert rep.params["sound_violations"] == 0

    def test_x_prime_zero_wider_radius(self):
        rep = check_lemma10(self.GRASS, 5.0 / 9, 0.4, samples=200, rng=0,
                            x_prime_zero=True)
        assert rep.passed
        assert rep.params["sound_violations"] == 0

    def test_kappa_gate(self):
        circle = HomSpace(GroupSpec("U", 2), SubgroupSpec.special())
        with pytest.raises(InvalidArgumentError):
            check_lemma10(circle, 0.12, 0.4, samples=10)
        rep = check_lemma10(circle, 0.12, 0.4, samples=50, rng=0,
                            override_kappa_gate=True)
        assert rep.params["sound_violations"] == 0


class TestGeodesicMinimality:
    def test_no_shorter_competitor(self):
        rep = check_geodesic_minimality(2, samples=20, competitors=10, rng=0)
        assert rep.passed
