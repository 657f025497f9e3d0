"""The benchmark's three closed-loop workloads.

Each workload is one client in one process making one call at a time.  Its
constructor builds the spaces and generates every input from the input seed.
``run_round(i)`` makes round ``i`` of calls and returns per call its kind,
its wall time and the output the correctness gate needs; rounds cycle over
the workload's ``rounds`` distinct inputs.  ``gate`` checks one call's output
and returns an error message, or None when it passed.

Calls go through module attributes looked up at call time, so that the
traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import os
from time import perf_counter

import numpy as np

# Distinct cover_curve configs per input seed, one per round in turn.
COVER_CONFIGS = 8
# Distinct rounds of quotient_mix per input seed; a round is one Haar pair
# from each of the five spaces.  A run reached 61-76 of them on a 2-core
# host; past the last, rounds start again from the first.
QUOTIENT_ROUNDS = 96
# A quotient distance may exceed its recorded value by at most this much: a
# faster but looser optimizer then counts as a failure.
QUOTIENT_RECORDED_TOL = 1e-4
# Closed forms are exact for the operator norm; the optimizer may not go
# below them by more than rounding.
CLOSED_FORM_TOL = 1e-9


def _timed(kind, fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return kind, perf_counter() - t0, out


class CoverU4Grassmann:
    """``unicover run`` on a cover_curve config for U(4)/G(4,2)."""

    name = "cover_u4_grassmann"
    # the README config with its grid cut at 0.6 and budgets of 700: at the
    # full config (to 0.45, budgets 2000) one call takes ~20 s, too long to
    # repeat within a run
    config = """\
[space]
group = U
n = 4
subgroup = grassmann
k = 2

[task]
kind = cover_curve
epsilon_grid = 1.2 0.9 0.6
budget = 700
probe_budget = 700
seed = {seed}
"""

    rounds = COVER_CONFIGS

    def __init__(self, input_seed: int, workdir: str, reference):
        from unicover import cli

        self.cli = cli
        self.input_seed = input_seed
        self.reference = reference
        self.workdir = workdir
        self.calls = 0
        self.config_paths = []
        for c in range(COVER_CONFIGS):
            path = os.path.join(workdir, f"cover{c}.ini")
            with open(path, "w") as fh:
                fh.write(self.config.format(seed=COVER_CONFIGS * input_seed + c))
            self.config_paths.append(path)

    def run_round(self, i: int):
        c = i % COVER_CONFIGS
        self.calls += 1
        out_dir = os.path.join(self.workdir, f"out{self.calls}")
        kind, dt, rc = _timed("cli.main", self.cli.main,
                              ["run", self.config_paths[c], "--out-dir", out_dir])
        return [(kind, dt, (c, rc, out_dir))]

    def counts(self, out_dir: str) -> dict:
        """{quantity_kind: [count per epsilon, grid order]} from the CSV."""
        with open(os.path.join(out_dir, "cover_curve.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        out = {}
        for row in rows:
            out.setdefault(row["quantity_kind"], []).append(int(row["count"]))
        return out

    def gate(self, output):
        c, rc, out_dir = output
        if rc != 0:
            return f"config {c}: cli exit code {rc}"
        got = self.counts(out_dir)
        want = self.reference[str(self.input_seed)][c]
        for kind in ("Ntilde", "Npp_certified"):
            if got.get(kind) != want[kind]:
                return f"config {c}: {kind} counts {got.get(kind)} != recorded {want[kind]}"
        for net, pack in zip(got["Npp_certified"], got["Ntilde"]):
            if net > pack:
                return f"config {c}: net count {net} > packing count {pack}"
        return None


class QuotientMix:
    """``metrics.quotient_dist_upper`` on Haar pairs from five spaces."""

    name = "quotient_mix"
    rounds = QUOTIENT_ROUNDS

    def __init__(self, input_seed: int, workdir: str, reference):
        from unicover import metrics
        from unicover.groups import GroupSpec, HomSpace, SubgroupSpec, haar_sample

        self.metrics = metrics
        self.input_seed = input_seed
        self.reference = reference
        spaces = {
            "u3_special": HomSpace(GroupSpec("U", 3), SubgroupSpec.special()),
            "u4_grassmann2": HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2)),
            "u4_tensor2x2": HomSpace(GroupSpec("U", 4), SubgroupSpec.tensor_factor(2, 2)),
            "u3_block111": HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1, 1])),
            "so5_block221": HomSpace(GroupSpec("SO", 5), SubgroupSpec.block_diagonal([2, 2, 1])),
        }
        rng = np.random.default_rng(input_seed)
        self.pairs = []  # per round, (round, space id, p, q) for each space
        for j in range(QUOTIENT_ROUNDS):
            row = []
            for sid, space in spaces.items():
                u = haar_sample(space.group, rng)
                v = haar_sample(space.group, rng)
                row.append((j, sid, metrics.CosetPoint(u, space),
                            metrics.CosetPoint(v, space)))
            self.pairs.append(row)

    def run_round(self, i: int):
        out = []
        for pair in self.pairs[i % QUOTIENT_ROUNDS]:
            _, sid, p, q = pair
            kind, dt, d = _timed(sid, self.metrics.quotient_dist_upper, p, q)
            out.append((kind, dt, (d, pair)))
        return out

    @staticmethod
    def closed_form(sid: str, p, q):
        """Exact operator-norm distance where a closed form exists."""
        u = p.representative.matrix
        v = q.representative.matrix
        if sid == "u3_special":
            return abs(np.angle(np.linalg.det(u.conj().T @ v))) / 3
        if sid == "u4_grassmann2":
            s = np.linalg.svd(u[:, :2].conj().T @ v[:, :2], compute_uv=False)
            return float(np.max(np.arccos(np.clip(s, 0.0, 1.0))))
        return None

    def gate(self, output):
        d, (j, sid, p, q) = output
        exact = self.closed_form(sid, p, q)
        if exact is not None and d < exact - CLOSED_FORM_TOL:
            return f"{sid} pair {j}: {d!r} below closed form {exact!r}"
        recorded = self.reference[str(self.input_seed)][j][sid]
        if d > recorded + QUOTIENT_RECORDED_TOL:
            return f"{sid} pair {j}: {d!r} above recorded {recorded!r}"
        return None


class ChecksU3:
    """Verification suites on U(3) and U(2) and the theta witness search on
    U(5)/SU(5): per-matrix kernel calls inside Python loops."""

    name = "checks_u3"
    theta_n = 5
    # the checks' cost is fixed by their sample counts, so every round makes
    # the same calls
    rounds = 1

    def __init__(self, input_seed: int, workdir: str, reference):
        from unicover import invariants, verify
        from unicover.groups import GroupSpec, HomSpace, SubgroupSpec

        self.verify = verify
        self.invariants = invariants
        self.seed = 10 * input_seed
        self.theta_space = HomSpace(GroupSpec("U", self.theta_n), SubgroupSpec.special())

    def run_round(self, i: int):
        v, seed = self.verify, self.seed
        calls = [
            ("check_eq6", v.check_eq6, (3,), dict(samples=200, rng=seed)),
            ("check_lemma4", v.check_lemma4, (3, np.pi / 4), dict(samples=300, rng=seed + 1)),
            ("check_lemma5", v.check_lemma5, (3, 0.5), dict(samples=100, rng=seed + 2)),
            ("check_geodesic_minimality", v.check_geodesic_minimality, (2,),
             dict(samples=5, competitors=10, rng=seed + 3)),
            ("theta_witness_upper", self.invariants.theta_witness_upper, (self.theta_space,),
             dict(search_budget=100, rng=seed + 4)),
        ]
        out = []
        for kind, fn, args, kwargs in calls:
            _, dt, res = _timed(kind, fn, *args, **kwargs)
            out.append((kind, dt, (kind, res)))
        return out

    def gate(self, output):
        kind, res = output
        if kind == "theta_witness_upper":
            limit = 2 * np.pi / self.theta_n
            if res is None or res > limit + CLOSED_FORM_TOL:
                return f"theta witness {res!r} above 2 pi / n = {limit!r}"
            return None
        if not res.passed:
            return f"{res.name}: worst violation {res.worst_violation!r} > {res.tolerance!r}"
        return None


WORKLOADS = {w.name: w for w in (CoverU4Grassmann, QuotientMix, ChecksU3)}
