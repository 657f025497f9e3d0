"""Numerical property suites for the quantitative inequalities the library
is built around: the phase identity between norm and geodesic distance, the
exponential-map contraction constants, the commutator defect bound, the
quotient lower-Lipschitz constants and geodesic minimality.

Each check returns a CheckReport that serializes to JSON; the worst witness
round-trips through base64 so failures can be replayed.
"""

from __future__ import annotations

import base64
import io
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .matcore import (
    FROBENIUS,
    OPERATOR,
    InvalidArgumentError,
    expm_skew,
    opnorm,
    schatten_norm,
)
from .groups import (
    GroupElement,
    GroupSpec,
    HomSpace,
    _skew_gaussian,
    haar_sample,
    tangent_sample,
)
from .metrics import (
    CosetPoint,
    Curve,
    curve_length,
    extrinsic_dist,
    intrinsic_dist,
    quotient_dist_upper,
)
from .invariants import kappa_known


@dataclass
class CheckReport:
    """Outcome of one numerical check."""

    name: str
    params: Dict
    samples: int
    worst_violation: float
    tolerance: float
    worst_witness: Optional[Dict[str, np.ndarray]] = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.worst_violation <= self.tolerance

    def to_json(self) -> str:
        witness_b64 = None
        if self.worst_witness is not None:
            buf = io.BytesIO()
            np.savez(buf, **self.worst_witness)
            witness_b64 = base64.b64encode(buf.getvalue()).decode("ascii")
        def plain(v):
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            return v

        return json.dumps(
            {
                "name": self.name,
                "params": {k: plain(v) for k, v in self.params.items()},
                "samples": int(self.samples),
                "worst_violation": float(self.worst_violation),
                "witness_b64": witness_b64,
                "passed": bool(self.passed),
            }
        )


def load_witness(witness_b64: str) -> Dict[str, np.ndarray]:
    """Decode a serialized worst-case witness back into arrays."""
    data = np.load(io.BytesIO(base64.b64decode(witness_b64)))
    return {k: data[k] for k in data.files}


def _skew_ball(group: GroupSpec, radius: float, rng) -> np.ndarray:
    """Skew element with operator norm uniform on (0, radius]."""
    x = _skew_gaussian(group, rng)
    target = radius * rng.uniform(np.nextafter(0.0, 1.0), 1.0)
    return x * (target / opnorm(x))


def check_eq6(n: int, samples: int = 1000, rng=0) -> CheckReport:
    """Identity between the norm distance of two unitaries and the phase
    chord |1 - exp(i rho)| of their geodesic distance."""
    rng = np.random.default_rng(rng)
    g = GroupSpec("U", n)
    worst, witness = 0.0, None
    for _ in range(samples):
        u = haar_sample(g, rng).matrix
        v = haar_sample(g, rng).matrix
        lhs = extrinsic_dist(u, v, OPERATOR)
        rho = intrinsic_dist(u, v, OPERATOR)
        dev = abs(lhs - abs(1 - np.exp(1j * rho)))
        if dev > worst:
            worst, witness = dev, {"u": u, "v": v}
    return CheckReport("eq6", {"n": n}, samples, worst, 1e-8, witness)


def lemma4_product_bound(theta: float, tail_tol: float = 1e-12) -> float:
    """Lower bound on the worst exp-difference ratio in the theta-ball:
    the infinite product of (1 - |1 - exp(i theta / 2^k)|), truncated when
    a factor exceeds 1 - tail_tol (the neglected tail then changes the
    product by less than 1e-9)."""
    if not (0 < theta < 2 * np.pi / 3):
        raise InvalidArgumentError("theta must be in (0, 2 pi / 3)")
    prod = 1.0
    k = 1
    while True:
        factor = 1.0 - 2.0 * abs(np.sin(theta / 2 ** (k + 1)))
        prod *= factor
        if factor > 1.0 - tail_tol:
            break
        k += 1
        if k > 200:
            break
    return prod


def check_lemma4(
    n: int, theta: float, samples: int = 10_000, rng=0
) -> CheckReport:
    """Contraction and lower-Lipschitz constants of exp on the theta-ball:
    all difference ratios lie in [product bound, 1]."""
    rng = np.random.default_rng(rng)
    g = GroupSpec("U", n)
    bound = lemma4_product_bound(theta)
    min_ratio, max_ratio = np.inf, 0.0
    witness = None
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
    violation = max(
        (bound - min_ratio) - 1e-6,  # lower constant, tolerance 1e-6
        (max_ratio - 1.0) - 1e-9,  # contraction, tolerance 1e-9
    )
    return CheckReport(
        "lemma4",
        {
            "n": n,
            "theta": theta,
            "product_bound": bound,
            "min_ratio": min_ratio,
            "max_ratio": max_ratio,
        },
        samples,
        violation,
        0.0,
        witness,
    )


def commutator_defect(x, y, norm=OPERATOR, t: float = 1.0) -> float:
    """max of rho(e^{t(x+y)}, e^{tx} e^{ty}) over the two product orders."""
    exy = expm_skew(t * (x + y))
    a = intrinsic_dist(exy, expm_skew(t * x) @ expm_skew(t * y), norm)
    b = intrinsic_dist(exy, expm_skew(t * y) @ expm_skew(t * x), norm)
    return max(a, b)


def check_lemma5(
    n: int, radius: float = 0.5, samples: int = 10_000, rng=0
) -> CheckReport:
    """Commutator bound on the defect between exp(x + y) and exp(x) exp(y),
    in the operator and Hilbert-Schmidt metrics."""
    if radius > 0.7:
        raise InvalidArgumentError("radius must keep distances branch-safe (<= 0.7)")
    rng = np.random.default_rng(rng)
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
    return CheckReport(
        "lemma5", {"n": n, "radius": radius}, samples, worst, 1e-8, witness
    )


def small_t_commutator_ratio(x, y, t: float = 1e-2) -> float:
    """Scaled distance between the two orders of the product of exponentials
    at parameter t; tends to the commutator norm as t goes to zero.

    (The one-sided defect against exp(t(x+y)) tends to half the commutator
    norm; the order swap doubles it and recovers the norm itself.)
    """
    a = expm_skew(t * x) @ expm_skew(t * y)
    b = expm_skew(t * y) @ expm_skew(t * x)
    return intrinsic_dist(a, b, OPERATOR) / t**2


def check_lemma10(
    space: HomSpace,
    r: float = 0.12,
    lam: float = 0.4,
    samples: int = 1000,
    rng=0,
    x_prime_zero: bool = False,
    override_kappa_gate: bool = False,
) -> CheckReport:
    """Lower-Lipschitz constant of the linearization: the quotient distance
    between q(e^x) and q(e^x') dominates lam ||x - x'|| on the r-ball of
    the complement.

    The distance used is an upper bound on the quotient distance (exact
    where the space has a closed form), so a recorded violation is always a
    true violation; optimization slack can only mask one.
    """
    if kappa_known(space) != 1.0 and not override_kappa_gate:
        raise InvalidArgumentError(
            "the quoted (r, lambda) constants assume kappa = 1"
        )
    rng = np.random.default_rng(rng)
    g = space.group
    worst, witness = -np.inf, None
    violations = 0
    for _ in range(samples):
        x = tangent_sample(space, "X", r, rng).matrix
        xp = (
            np.zeros_like(x)
            if x_prime_zero
            else tangent_sample(space, "X", r, rng).matrix
        )
        sep = opnorm(x - xp)
        if sep < 1e-12:
            continue
        d = quotient_dist_upper(CosetPoint(GroupElement(expm_skew(x), g), space),
                                CosetPoint(GroupElement(expm_skew(xp), g), space))
        dev = lam * sep - d - 1e-6  # positive only on a sound violation
        if dev > worst:
            worst, witness = dev, {"x": x, "x_prime": xp}
        if dev > 0:
            violations += 1
    return CheckReport(
        "lemma10",
        {
            "space": f"{g.kind}({g.n})/{space.subgroup.kind}",
            "r": r,
            "lambda": lam,
            "x_prime_zero": x_prime_zero,
            "sound_violations": violations,
        },
        samples,
        worst,
        0.0,
        witness,
    )


def check_geodesic_minimality(
    n: int, samples: int = 200, competitors: int = 50, rng=0
) -> CheckReport:
    """No sampled polygonal competitor between the identity and exp(x) is
    shorter than the one-parameter-subgroup arc of length ||x||."""
    rng = np.random.default_rng(rng)
    g = GroupSpec("U", n)
    worst, witness = -np.inf, None
    segments = 8
    for _ in range(samples):
        x = _skew_ball(g, np.pi - 0.1, rng)
        target = opnorm(x)
        for _ in range(competitors):
            ts = np.linspace(0.0, 1.0, segments + 1)
            pts = []
            for i, t in enumerate(ts):
                p = expm_skew(t * x)
                if 0 < i < segments:
                    p = p @ expm_skew(_skew_ball(g, 0.25, rng))
                pts.append(p)
            length = curve_length(Curve(pts))
            dev = (target - length) - 1e-7
            if dev > worst:
                worst, witness = dev, {"x": x}
    return CheckReport(
        "geodesic_minimality",
        {"n": n, "competitors": competitors},
        samples,
        worst,
        0.0,
        witness,
    )
