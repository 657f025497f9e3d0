"""Numerical property suites for the quantitative inequalities the library
is built around: the phase identity between norm and geodesic distance, the
exponential-map contraction constants, the commutator defect bound, the
quotient lower-Lipschitz constants and geodesic minimality.

Each check runs in two phases.  One call first draws every random input
of the whole sample (groups.haar_samples for unitaries,
groups.tangent_samples for skew elements), in the order the per-sample
checks once drew them, so a seed gives the same inputs and leaves the
generator in the same state; then the linear algebra for all samples runs
as stacked kernel calls (expm_skew, opnorm, batched eigvals and SVD).

Each check returns a CheckReport that serializes to JSON; the worst witness
round-trips through base64 so failures can be replayed.  A witness is a copy
of its sample, not a view into the batch.
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
    _phase_dists,
    expm_skew,
    opnorm,
)
from .groups import GroupSpec, HomSpace, haar_samples, tangent_samples
from .metrics import _dists, _polyline_length, intrinsic_dist
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


def _worst(dev: np.ndarray, floor: float, **stacks):
    """The largest value of dev when it exceeds floor, with the rows of the
    stacks at the first sample that reaches it; else floor and no witness.
    The rows are copied, so that a report does not keep its batch alive."""
    if dev.size == 0 or not dev.max() > floor:
        return floor, None
    i = int(np.argmax(dev))
    return float(dev[i]), {k: s[i].copy() for k, s in stacks.items()}


def check_eq6(n: int, samples: int = 1000, rng=0) -> CheckReport:
    """Identity between the norm distance of two unitaries and the phase
    chord |1 - exp(i rho)| of their geodesic distance."""
    rng = np.random.default_rng(rng)
    pairs = haar_samples(GroupSpec("U", n), rng, 2 * samples)
    u, v = pairs[0::2], pairs[1::2]
    rho = _phase_dists(u, v, OPERATOR)
    dev = np.abs(opnorm(u - v) - np.abs(1 - np.exp(1j * rho)))
    worst, witness = _worst(dev, 0.0, u=u, v=v)
    return CheckReport("eq6", {"n": n}, samples, worst, 1e-8, witness)


def lemma4_product_bound(theta: float) -> float:
    """Lower bound on the worst exp-difference ratio in the theta-ball:
    the infinite product of (1 - |1 - exp(i theta / 2^k)|), truncated when
    a factor exceeds 1 - 1e-12 (the neglected tail then changes the
    product by less than 1e-9)."""
    if not (0 < theta < 2 * np.pi / 3):
        raise InvalidArgumentError("theta must be in (0, 2 pi / 3)")
    prod = 1.0
    k = 1
    while True:
        factor = 1.0 - 2.0 * abs(np.sin(theta / 2 ** (k + 1)))
        prod *= factor
        if factor > 1.0 - 1e-12:
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
    bound = lemma4_product_bound(theta)
    rng = np.random.default_rng(rng)
    balls = tangent_samples(HomSpace(GroupSpec("U", n)), "full", theta, rng, 2 * samples)
    x, y = balls[0::2], balls[1::2]
    denom = opnorm(x - y)
    keep = np.flatnonzero(denom >= 1e-12)
    e = expm_skew(balls)
    ratio = opnorm(e[0::2][keep] - e[1::2][keep]) / denom[keep]
    neg_min, witness = _worst(-ratio, -np.inf, x=x[keep], y=y[keep])
    min_ratio, max_ratio = -neg_min, float(ratio.max(initial=0.0))
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
    balls = tangent_samples(HomSpace(GroupSpec("U", n)), "full", radius, rng, 2 * samples)
    x, y = balls[0::2], balls[1::2]
    e = expm_skew(balls)
    exy = expm_skew(x + y)[:, np.newaxis]
    # the two product orders side by side, shape (samples, 2, n, n)
    products = np.stack([e[0::2] @ e[1::2], e[1::2] @ e[0::2]], axis=1)
    s = np.linalg.svd(x @ y - y @ x, compute_uv=False)
    dev = np.max(
        [
            np.max(_phase_dists(exy, products, norm), axis=1) - norm.of_singular_values(s)
            for norm in (OPERATOR, FROBENIUS)
        ],
        axis=0,
    )
    worst, witness = _worst(dev, -np.inf, x=x, y=y)
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
    if x_prime_zero:
        x = tangent_samples(space, "X", r, rng, samples)
        xp = np.zeros_like(x)
    else:
        # x and x' alternate in the stream, as in the per-sample loop
        pairs = tangent_samples(space, "X", r, rng, 2 * samples)
        x, xp = pairs[0::2], pairs[1::2]
    sep = opnorm(x - xp)
    keep = np.flatnonzero(sep >= 1e-12)
    d = _dists(space, expm_skew(x[keep]), expm_skew(xp[keep]))
    dev = lam * sep[keep] - d - 1e-6  # positive only on a sound violation
    worst, witness = _worst(dev, -np.inf, x=x[keep], x_prime=xp[keep])
    violations = int(np.sum(dev > 0))
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
    segments = 8
    # per sample: the endpoint x, then one kink per interior point of each
    # competitor, in the order they were once drawn one at a time
    kinks = competitors * (segments - 1)
    radius = np.tile(np.r_[np.pi - 0.1, np.full(kinks, 0.25)], samples)
    balls = tangent_samples(HomSpace(GroupSpec("U", n)), "full", radius, rng,
                            samples * (1 + kinks))
    balls = balls.reshape(samples, 1 + kinks, n, n)
    x = balls[:, 0]
    ts = np.linspace(0.0, 1.0, segments + 1)
    # the arc exp(t x) at the subdivision, shape (samples, segments + 1, n, n)
    arc = expm_skew(ts[:, np.newaxis, np.newaxis] * x[:, np.newaxis])
    bent = arc[:, np.newaxis, 1:-1] @ expm_skew(
        balls[:, 1:].reshape(samples, competitors, segments - 1, n, n)
    )
    shape = (samples, competitors, 1, n, n)
    pts = np.concatenate(
        [np.broadcast_to(arc[:, np.newaxis, :1], shape), bent,
         np.broadcast_to(arc[:, np.newaxis, -1:], shape)],
        axis=2,
    )
    # the operator norm is the one whose geodesic the arc is
    dev = (opnorm(x)[:, np.newaxis] - _polyline_length(pts, OPERATOR)) - 1e-7
    worst, witness = _worst(np.max(dev, axis=1), -np.inf, x=x)
    return CheckReport(
        "geodesic_minimality",
        {"n": n, "competitors": competitors},
        samples,
        worst,
        0.0,
        witness,
    )
