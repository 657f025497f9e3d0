"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and sample
count, and prints a single PASS/FAIL line (run pytest with -s to see them).
"""

import time

import numpy as np

from unicover.matcore import opnorm
from unicover.groups import GroupSpec, HomSpace, SubgroupSpec, haar_sample
from unicover.metrics import grassmann_dist, _optimize_coset_dist
from unicover.invariants import (
    diameter_estimate,
    kappa_lower,
    theta_witness_upper,
)
from unicover.entropy import greedy_net, greedy_packing
from unicover.verify import (
    check_eq6,
    check_lemma4,
    check_lemma5,
    check_lemma10,
    lemma4_product_bound,
    small_t_commutator_ratio,
)
from unicover.cli import main as cli_main

from conftest import random_skew


def _report(num, desc, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:2d} [{elapsed:6.1f}s / {budget:.0f}s] {desc}")
    assert ok, f"criterion {num}: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_norm_phase_identity():
    t0 = time.time()
    worst = 0.0
    for n in (2, 3):
        rep = check_eq6(n, samples=1000, rng=0)
        worst = max(worst, rep.worst_violation)
    _report(1, f"norm/phase identity, worst dev {worst:.2e} <= 1e-8",
            worst <= 1e-8, time.time() - t0, 10)


def test_criterion_02_exp_difference_ratios():
    t0 = time.time()
    rep = check_lemma4(3, np.pi / 4, samples=10_000, rng=0)
    ok = (rep.params["min_ratio"] >= 0.4
          and rep.params["max_ratio"] <= 1 + 1e-9)
    details = [f"pi/4: min {rep.params['min_ratio']:.4f}"]
    for theta in (np.pi / 8, np.pi / 4, np.pi / 2):
        r = check_lemma4(3, theta, samples=10_000, rng=1)
        bound = lemma4_product_bound(theta)
        ok = ok and r.params["min_ratio"] >= bound - 1e-6 and r.passed
        details.append(f"{r.params['min_ratio']:.4f}>={bound:.4f}")
    _report(2, "exp-difference ratio bounds (" + ", ".join(details) + ")",
            ok, time.time() - t0, 60)


def test_criterion_03_commutator_defect():
    t0 = time.time()
    rep = check_lemma5(3, 0.5, samples=10_000, rng=0)
    ok = rep.worst_violation <= 1e-8
    rng = np.random.default_rng(2)
    worst_rel = 0.0
    for _ in range(50):
        x = random_skew(3, rng)
        y = random_skew(3, rng)
        c = opnorm(x @ y - y @ x)
        worst_rel = max(worst_rel,
                        abs(small_t_commutator_ratio(x, y, 1e-2) / c - 1))
    ok = ok and worst_rel <= 0.1
    _report(3, f"commutator defect bound (worst {rep.worst_violation:.1e}), "
               f"small-t ratio within {worst_rel:.1%}",
            ok, time.time() - t0, 60)


def test_criterion_04_exact_circle_coverings():
    t0 = time.time()
    u1 = HomSpace(GroupSpec("U", 1))
    counts = {}
    ok = True
    for k, eps in enumerate((np.pi, np.pi / 2, np.pi / 4, np.pi / 8)):
        counts[eps] = greedy_net(u1, eps, 100, 2000, rng=0).count
        ok = ok and counts[eps] == int(np.ceil(np.pi / eps))
    pack3 = greedy_packing(u1, np.pi / 2, 500, rng=0).count
    ok = ok and pack3 == 3
    _report(4, f"circle nets {list(counts.values())} == [1, 2, 4, 8], "
               f"packing at pi/2 == {pack3}",
            ok, time.time() - t0, 5)


def test_criterion_05_grassmann_closed_form():
    t0 = time.time()
    space = HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        u = haar_sample(space.group, rng)
        v = haar_sample(space.group, rng)
        # the optimizer itself: quotient_dist_upper returns the closed form
        d = _optimize_coset_dist(space, u.matrix, v.matrix, 8, rng)
        want = grassmann_dist(u.matrix[:, :2], v.matrix[:, :2])
        worst = max(worst, abs(d - want))
    _report(5, f"coset optimizer vs principal angles, worst dev {worst:.2e}",
            worst <= 1e-3, time.time() - t0, 60)


def test_criterion_06_dimension_exponent():
    t0 = time.time()
    grid = [1.2, 0.9, 0.6, 0.45]
    cases = [
        (HomSpace(GroupSpec("SO", 3), SubgroupSpec.grassmann(1)), 2, "G(3,1)"),
        (HomSpace(GroupSpec("SO", 3)), 3, "SO(3)"),
    ]
    ok = True
    parts = []
    for space, d, name in cases:
        counts = [greedy_packing(space, e, 2000, rng=0).count for e in grid]
        slope = -np.polyfit(np.log(grid), np.log(counts), 1)[0]
        ok = ok and abs(slope - d) <= 0.25 * d
        parts.append(f"{name} slope {slope:.2f} (dim {d})")
    _report(6, "packing-count scaling: " + ", ".join(parts),
            ok, time.time() - t0, 300)


def test_criterion_07_linearization_constants():
    t0 = time.time()
    space = HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2))
    rep = check_lemma10(space, 0.12, 0.4, samples=1000, rng=0)
    ok = rep.passed and rep.params["sound_violations"] == 0
    _report(7, f"lower-Lipschitz constants (r=0.12, lambda=0.4): "
               f"{rep.params['sound_violations']} violations in 1000 pairs",
            ok, time.time() - t0, 120)


def test_criterion_08_invariant_table():
    t0 = time.time()
    ok = True
    kl = kappa_lower(HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2)),
                     samples=200, rng=0)
    ok = ok and abs(kl - 1.0) <= 1e-9
    thetas = []
    for n in (2, 3, 4):
        tw = theta_witness_upper(
            HomSpace(GroupSpec("U", n), SubgroupSpec.special()), rng=0)
        thetas.append(tw)
        ok = ok and tw is not None and tw <= 2 * np.pi / n + 1e-6
    diam = diameter_estimate(
        HomSpace(GroupSpec("U", 2), SubgroupSpec.special()),
        samples=32, rng=0)
    ok = ok and abs(diam - np.pi / 2) <= 0.01
    _report(8, f"kappa {kl:.9f}, theta witnesses "
               f"{[f'{t:.3f}' for t in thetas]}, diameter {diam:.4f}",
            ok, time.time() - t0, 120)


def test_criterion_09_covering_packing_chain():
    t0 = time.time()
    violations = 0
    cases = [
        (HomSpace(GroupSpec("U", 1)), [np.pi / 2, np.pi / 4, np.pi / 8]),
        (HomSpace(GroupSpec("SO", 3), SubgroupSpec.grassmann(1)),
         [1.2, 0.8, 0.6, 0.4]),
    ]
    for space, grid in cases:
        prev_pack = None
        packs = {}
        for eps in grid:
            net = greedy_net(space, eps, 300, 2000, rng=0)
            initial = list(net.points)
            if prev_pack is not None:
                initial.extend(prev_pack.points)
            pack = greedy_packing(space, eps, 1000, rng=0, initial=initial)
            prev_pack = pack
            packs[eps] = pack.count
            if net.count > pack.count:
                violations += 1
        # packing at epsilon never exceeds packing at epsilon/2 where both
        # epsilons are on the grid
        for eps in grid:
            if eps / 2 in packs and packs[eps] > packs[eps / 2]:
                violations += 1
    _report(9, f"certified-net <= packing <= packing-at-half-epsilon: "
               f"{violations} violations",
            violations == 0, time.time() - t0, 300)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("""
[space]
group = SO
n = 3
subgroup = grassmann
k = 1

[task]
kind = cover_curve
epsilon_grid = 1.0 0.5
budget = 200
probe_budget = 1000
seed = 11
""")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["run", str(cfg), "--out-dir", str(out)]) == 0
        outs.append((out / "cover_curve.csv").read_bytes())
    _report(10, f"repeated run byte-identical CSV ({len(outs[0])} bytes)",
            outs[0] == outs[1], time.time() - t0, 120)
