"""Property-suite tests: each check passes on healthy inputs, reports
serialize and round-trip their witnesses, and the documented preconditions
are enforced."""

import json

import numpy as np
import pytest

from unicover.matcore import (
    FROBENIUS,
    OPERATOR,
    InvalidArgumentError,
    _phase_dists,
    expm_skew,
    opnorm,
    schatten_norm,
)
from unicover.groups import (
    GroupElement,
    GroupSpec,
    HomSpace,
    SubgroupSpec,
    _skew_gaussian,
    haar_sample,
    tangent_sample,
)
from unicover.metrics import (
    CosetPoint,
    Curve,
    curve_length,
    extrinsic_dist,
    quotient_dist_upper,
)
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


# Per-sample reference loops: the checks as they ran one sample at a time,
# drawing from the same generator in the same order.  Each returns
# (params, worst_violation, witness).

def _skew_ball(group, radius, rng):
    x = _skew_gaussian(group, rng)
    target = radius * rng.uniform(np.nextafter(0.0, 1.0), 1.0)
    return x * (target / opnorm(x))


def reference_eq6(n, samples, rng):
    g = GroupSpec("U", n)
    worst, witness = 0.0, None
    for _ in range(samples):
        u = haar_sample(g, rng).matrix
        v = haar_sample(g, rng).matrix
        lhs = extrinsic_dist(u, v, OPERATOR)
        # eq6's deviations are rounding noise with many ties at the
        # maximum, so which sample is the witness depends on the last bits:
        # take rho from the check's eigenphase kernel, and the modulus from
        # numpy's (Python's complex abs rounds differently)
        rho = _phase_dists(u, v, OPERATOR)
        dev = abs(lhs - np.abs(1 - np.exp(1j * rho)))
        if dev > worst:
            worst, witness = dev, {"u": u, "v": v}
    return {"n": n}, worst, witness


def reference_lemma4(n, theta, samples, rng):
    g = GroupSpec("U", n)
    min_ratio, max_ratio, witness = np.inf, 0.0, None
    for _ in range(samples):
        x = _skew_ball(g, theta, rng)
        y = _skew_ball(g, theta, rng)
        denom = opnorm(x - y)
        if denom < 1e-12:
            continue
        ratio = opnorm(expm_skew(x) - expm_skew(y)) / denom
        if ratio < min_ratio:
            min_ratio, witness = ratio, {"x": x, "y": y}
        max_ratio = max(max_ratio, ratio)
    bound = lemma4_product_bound(theta)
    params = {"n": n, "theta": theta, "product_bound": bound,
              "min_ratio": min_ratio, "max_ratio": max_ratio}
    violation = max((bound - min_ratio) - 1e-6, (max_ratio - 1.0) - 1e-9)
    return params, violation, witness


def reference_lemma5(n, radius, samples, rng):
    g = GroupSpec("U", n)
    worst, witness = -np.inf, None
    for _ in range(samples):
        x = _skew_ball(g, radius, rng)
        y = _skew_ball(g, radius, rng)
        comm = x @ y - y @ x
        for norm in (OPERATOR, FROBENIUS):
            dev = commutator_defect(x, y, norm) - schatten_norm(comm, norm)
            if dev > worst:
                worst, witness = dev, {"x": x, "y": y}
    return {"n": n, "radius": radius}, worst, witness


def reference_geodesic(n, samples, competitors, rng):
    g = GroupSpec("U", n)
    worst, witness = -np.inf, None
    segments = 8
    for _ in range(samples):
        x = _skew_ball(g, np.pi - 0.1, rng)
        target = opnorm(x)
        for _ in range(competitors):
            pts = []
            for i, t in enumerate(np.linspace(0.0, 1.0, segments + 1)):
                p = expm_skew(t * x)
                if 0 < i < segments:
                    p = p @ expm_skew(_skew_ball(g, 0.25, rng))
                pts.append(p)
            dev = (target - curve_length(Curve(pts))) - 1e-7
            if dev > worst:
                worst, witness = dev, {"x": x}
    return {"n": n, "competitors": competitors}, worst, witness


def reference_lemma10(space, r, lam, samples, rng, x_prime_zero):
    g = space.group
    worst, witness, violations = -np.inf, None, 0
    for _ in range(samples):
        x = tangent_sample(space, "X", r, rng).matrix
        xp = (np.zeros_like(x) if x_prime_zero
              else tangent_sample(space, "X", r, rng).matrix)
        sep = opnorm(x - xp)
        if sep < 1e-12:
            continue
        d = quotient_dist_upper(CosetPoint(GroupElement(expm_skew(x), g), space),
                                CosetPoint(GroupElement(expm_skew(xp), g), space))
        dev = lam * sep - d - 1e-6
        if dev > worst:
            worst, witness = dev, {"x": x, "x_prime": xp}
        violations += dev > 0
    params = {"space": f"{g.kind}({g.n})/{space.subgroup.kind}", "r": r,
              "lambda": lam, "x_prime_zero": x_prime_zero,
              "sound_violations": violations}
    return params, worst, witness


G42 = HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2))

BATCHED_CASES = {
    "eq6-U2": (check_eq6, reference_eq6, (2,), dict(samples=300)),
    "eq6-U3": (check_eq6, reference_eq6, (3,), dict(samples=300)),
    "lemma4-pi/8": (check_lemma4, reference_lemma4, (3, np.pi / 8), dict(samples=400)),
    "lemma4-pi/2": (check_lemma4, reference_lemma4, (3, np.pi / 2), dict(samples=400)),
    "lemma5-U3": (check_lemma5, reference_lemma5, (3, 0.5), dict(samples=200)),
    "geodesic-U2": (check_geodesic_minimality, reference_geodesic, (2,),
                    dict(samples=8, competitors=6)),
    "lemma10-G42": (check_lemma10, reference_lemma10, (G42, 0.12, 0.4),
                    dict(samples=150, x_prime_zero=False)),
    "lemma10-G42-x0": (check_lemma10, reference_lemma10, (G42, 5.0 / 9, 0.4),
                       dict(samples=150, x_prime_zero=True)),
}


class TestBatchedMatchesPerSample:
    """Each batched check reports what its per-sample loop reports, and
    leaves a passed-in generator where the loop leaves it."""

    @pytest.mark.parametrize("case", list(BATCHED_CASES))
    def test_same_report_and_stream(self, case):
        check, reference, args, kwargs = BATCHED_CASES[case]
        rng_check, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
        rep = check(*args, rng=rng_check, **kwargs)
        params, worst, witness = reference(*args, rng=rng_ref, **kwargs)
        assert rep.params == params
        assert rep.samples == kwargs["samples"]
        assert abs(rep.worst_violation - worst) <= 1e-12
        assert rep.worst_witness.keys() == witness.keys()
        for key, arr in witness.items():
            assert np.array_equal(rep.worst_witness[key], arr)
        assert rng_check.random() == rng_ref.random()

    @pytest.mark.parametrize("case", list(BATCHED_CASES))
    def test_witness_owns_its_data(self, case):
        # a view would keep the whole batch alive as long as the report
        check, _, args, kwargs = BATCHED_CASES[case]
        rep = check(*args, rng=0, **kwargs)
        assert rep.worst_witness
        for arr in rep.worst_witness.values():
            assert arr.base is None
