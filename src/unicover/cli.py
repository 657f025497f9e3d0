"""Batch experiment runner.

Reads an INI config describing a space and a task, dispatches the
computation, and writes CSV / JSON reports atomically.  Exit codes: 0 on
success, 1 on a config error, 2 when a verification check fails.

Config example::

    [space]
    group = U          ; U or SO
    n = 3
    subgroup = grassmann
    k = 1

    [task]
    kind = packing_curve   ; invariants | packing_curve | cover_curve |
                           ; verify_all | bounds
    epsilon_grid = 1.2 0.9 0.6 0.45
    budget = 2000
    probe_budget = 4000
    seed = 0
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import os
import sys
import tempfile

import numpy as np

from .groups import GroupSpec, HomSpace, SubgroupSpec
from .matcore import InvalidArgumentError
from .invariants import diameter_known, kappa_known, kappa_lower, theta_known
from .entropy import chain_consistent, greedy_curve, theorem8_bounds
from . import verify as verify_mod

CSV_COLUMNS = [
    "space_id",
    "epsilon",
    "quantity_kind",
    "count",
    "probe_max_dist",
    "seed",
    "budget",
    "dim_M",
    "theta",
    "diam",
    "kappa_lb",
]


class ConfigError(Exception):
    pass


def parse_space(cfg: configparser.ConfigParser) -> HomSpace:
    """Build the HomSpace the config describes.  A trivial subgroup (or
    none) gives the bare group."""
    if "space" not in cfg:
        raise ConfigError("missing [space] section")
    sec = cfg["space"]
    try:
        group = GroupSpec(sec.get("group", "U").strip(), sec.getint("n"))
    except (TypeError, ValueError, InvalidArgumentError) as exc:
        raise ConfigError(f"bad group spec: {exc}") from exc
    build = {
        "trivial": SubgroupSpec.trivial,
        "special": SubgroupSpec.special,
        "grassmann": lambda: SubgroupSpec.grassmann(sec.getint("k")),
        "block_diagonal": lambda: SubgroupSpec.block_diagonal(
            [int(b) for b in sec.get("partition", "").split()]),
        "tensor_factor": lambda: SubgroupSpec.tensor_factor(sec.getint("m"), sec.getint("k")),
    }
    kind = sec.get("subgroup", "trivial").strip()
    if kind not in build:
        raise ConfigError(f"unknown subgroup kind {kind!r}")
    try:
        return HomSpace(group, build[kind]())
    except (TypeError, ValueError, InvalidArgumentError) as exc:
        raise ConfigError(f"bad subgroup spec: {exc}") from exc


def parse_task(cfg: configparser.ConfigParser, seed: int | None = None) -> dict:
    """The task the config describes; seed, when given, overrides its seed."""
    if "task" not in cfg:
        raise ConfigError("missing [task] section")
    sec = cfg["task"]
    kind = sec.get("kind", "").strip()
    if kind not in ("invariants", "packing_curve", "cover_curve", "verify_all", "bounds"):
        raise ConfigError(f"unknown task kind {kind!r}")
    grid = [float(e) for e in sec.get("epsilon_grid", "").split()]
    if kind in ("packing_curve", "cover_curve", "bounds"):
        if not grid:
            raise ConfigError("epsilon_grid required for this task")
        if not all(0 < e < np.inf for e in grid):
            raise ConfigError("epsilon_grid must be strictly positive and finite")
        if any(a <= b for a, b in zip(grid, grid[1:])):
            raise ConfigError("epsilon_grid must be sorted descending")
    budget = sec.getint("budget", 2000)
    probe_budget = sec.getint("probe_budget", 4000)
    if budget <= 0 or probe_budget <= 0:
        raise ConfigError("budgets must be positive")
    seed = sec.getint("seed", 0) if seed is None else seed
    samples = sec.getint("samples", 300)
    if seed < 0 or samples < 1:
        raise ConfigError(f"need seed >= 0 and samples >= 1, got {seed} and {samples}")
    return {
        "kind": kind,
        "epsilon_grid": grid,
        "budget": budget,
        "probe_budget": probe_budget,
        "seed": seed,
        "samples": samples,
    }


def _space_id(space: HomSpace) -> str:
    g, label = space.group, space.subgroup.label
    return f"{g.kind}{g.n}/{label}" if label else f"{g.kind}{g.n}"


def _atomic_write(path: str, data: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _invariant_row(space: HomSpace, seed: int, samples: int) -> dict:
    kl = kappa_known(space)
    if kl is None:
        kl = kappa_lower(space, samples=samples, rng=seed)
    th = theta_known(space)
    dm = diameter_known(space)
    return {
        "dim_M": space.dim,
        "theta": "" if th is None else f"{th:.12g}",
        "diam": "" if dm is None else f"{dm:.12g}",
        "kappa_lb": f"{kl:.12g}",
    }


def run_task(space: HomSpace, task: dict, out_dir: str) -> int:
    kind = task["kind"]
    seed = task["seed"]
    sid = _space_id(space)

    if kind == "verify_all":
        n = space.n
        checks = [
            verify_mod.check_eq6(n, samples=200, rng=seed),
            verify_mod.check_lemma4(n, np.pi / 4, samples=500, rng=seed),
            verify_mod.check_lemma5(n, 0.5, samples=500, rng=seed),
            verify_mod.check_geodesic_minimality(min(n, 2), samples=20,
                                                 competitors=10, rng=seed),
        ]
        failed = False
        for rep in checks:
            _atomic_write(os.path.join(out_dir, f"check_{rep.name}.json"),
                          rep.to_json() + "\n")
            status = "PASS" if rep.passed else "FAIL"
            print(f"{status} {rep.name}: worst_violation={rep.worst_violation:.3e}")
            failed = failed or not rep.passed
        return 2 if failed else 0

    if kind == "bounds":
        lines = []
        for eps in task["epsilon_grid"]:
            rep = theorem8_bounds(space, eps)
            # a bound the space does not pin down is an empty field
            lower, upper = ("" if b is None else b
                            for b in (rep.lower_bound, rep.upper_bound))
            lines.append(
                f"{sid},{eps},{lower},{upper},"
                f"{rep.lower_applicable},{rep.upper_applicable},{rep.c},{rep.C}"
            )
        _atomic_write(
            os.path.join(out_dir, "bounds.csv"),
            "space_id,epsilon,lower,upper,lower_applicable,upper_applicable,c,C\n"
            + "\n".join(lines) + "\n",
        )
        return 0

    # the invariant columns of the CSV rows the remaining tasks write
    inv = _invariant_row(space, seed, task["samples"])
    if kind == "invariants":
        rows = [dict(space_id=sid, epsilon="", quantity_kind="invariants",
                     count="", probe_max_dist="", seed=seed,
                     budget=task["samples"], **inv)]
        _write_csv(os.path.join(out_dir, "invariants.csv"), rows)
        return 0

    # packing_curve / cover_curve: each packing is seeded with the matched
    # net's centers and the packing at the previous (larger) epsilon, both
    # epsilon-separated, so the chain count comparisons hold by construction
    probe_budget = task["probe_budget"] if kind == "cover_curve" else None
    curve = greedy_curve(space, task["epsilon_grid"], task["budget"], probe_budget, rng=seed)
    rows = []
    for eps, (pack, net) in zip(task["epsilon_grid"], curve):
        row = dict(space_id=sid, epsilon=f"{eps:.12g}", seed=seed, budget=task["budget"], **inv)
        rows.append(dict(row, quantity_kind="Ntilde", count=pack.count, probe_max_dist=""))
        if net is not None:
            if not chain_consistent(net, pack):
                print(f"WARN chain: net count {net.count} > packing "
                      f"{pack.count} at eps={eps}", file=sys.stderr)
            rows.append(dict(row, quantity_kind="Npp_certified", count=net.count,
                             probe_max_dist=f"{net.probe_max_dist:.12g}"))
    name = "packing_curve.csv" if kind == "packing_curve" else "cover_curve.csv"
    _write_csv(os.path.join(out_dir, name), rows)
    return 0


def _write_csv(path: str, rows) -> None:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow(r)
    _atomic_write(path, buf.getvalue())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="unicover", description="covering-number experiments on "
        "homogeneous spaces of U(n) and SO(n)"
    )
    sub = ap.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the experiment a config describes")
    run_p.add_argument("config", help="path to the INI config file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the seed in the config")
    run_p.add_argument("--out-dir", default=".", help="output directory")
    args = ap.parse_args(argv)

    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not cfg.read(args.config):
            raise ConfigError(f"cannot read config {args.config!r}")
        space = parse_space(cfg)
        task = parse_task(cfg, args.seed)
    except (ConfigError, configparser.Error, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run_task(space, task, args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
