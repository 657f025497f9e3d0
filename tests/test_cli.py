"""Command-line runner tests: config parsing, output layout, exit codes and
byte-level determinism of repeated runs."""

import configparser
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unicover import cli, entropy
from unicover.cli import CSV_COLUMNS, main, parse_space
from unicover.groups import GroupSpec, HomSpace, SubgroupSpec

U1_COVER = """
[space]
group = U
n = 1
subgroup = trivial

[task]
kind = cover_curve
epsilon_grid = 3.141592653589793 1.5707963267948966
budget = 100
probe_budget = 1000
seed = 0
"""

G31_PACKING = """
[space]
group = SO
n = 3
subgroup = grassmann
k = 1

[task]
kind = packing_curve
epsilon_grid = 1.2 0.6
budget = 300
seed = 7
"""

INVARIANTS = """
[space]
group = U
n = 3
subgroup = grassmann
k = 1

[task]
kind = invariants
samples = 40
seed = 0
"""


VERIFY_U2 = """
[space]
group = U
n = 2

[task]
kind = verify_all
seed = 0
"""


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestRun:
    def test_cover_curve_output(self, tmp_path):
        cfg = _write(tmp_path, U1_COVER)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "cover_curve.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        # two epsilons, two quantities each
        assert len(lines) == 5
        kinds = [ln.split(",")[2] for ln in lines[1:]]
        assert kinds == ["Ntilde", "Npp_certified"] * 2

    def test_chain_holds_in_output(self, tmp_path):
        cfg = _write(tmp_path, U1_COVER)
        out = tmp_path / "out"
        main(["run", cfg, "--out-dir", str(out)])
        rows = [ln.split(",") for ln in
                (out / "cover_curve.csv").read_text().splitlines()[1:]]
        by_eps = {}
        for r in rows:
            by_eps.setdefault(r[1], {})[r[2]] = int(r[3])
        for counts in by_eps.values():
            assert counts["Npp_certified"] <= counts["Ntilde"]

    def test_packing_curve(self, tmp_path):
        cfg = _write(tmp_path, G31_PACKING)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "packing_curve.csv").read_text().splitlines()
        assert len(lines) == 3
        counts = [int(ln.split(",")[3]) for ln in lines[1:]]
        assert counts[1] >= counts[0]  # more points at smaller epsilon

    def test_invariants_task(self, tmp_path):
        cfg = _write(tmp_path, INVARIANTS)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "invariants.csv").read_text().splitlines()
        row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert row["space_id"] == "U3/grassmann(1)"
        assert float(row["kappa_lb"]) == pytest.approx(1.0, abs=1e-6)
        assert int(row["dim_M"]) == 4

    def test_verify_all_exit_zero(self, tmp_path, capsys):
        cfg = _write(tmp_path, VERIFY_U2)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "PASS eq6" in printed
        assert os.path.exists(out / "check_eq6.json")

    def test_bounds_missing_bound_is_empty_field(self, tmp_path):
        # U(3)/SU(3) has no tabulated theta, so no lower bound
        cfg = _write(tmp_path, """
[space]
group = U
n = 3
subgroup = special

[task]
kind = bounds
epsilon_grid = 0.5 0.25
""")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        text = (out / "bounds.csv").read_text()
        assert "None" not in text
        rows = [ln.split(",") for ln in text.splitlines()[1:]]
        assert [r[:2] for r in rows] == [["U3/special", "0.5"], ["U3/special", "0.25"]]
        for r in rows:
            assert r[2] == ""
            assert float(r[3]) > 0

    @pytest.mark.parametrize("kind", ["bounds", "verify_all"])
    def test_tasks_without_invariant_columns_skip_kappa_search(
            self, kind, tmp_path, monkeypatch):
        # U(2)/SU(2) has no tabulated kappa, but only the tasks that write
        # the invariant columns search for a bound on it
        def refuse(*args, **kwargs):
            raise AssertionError("kappa_lower ran")

        monkeypatch.setattr(cli, "kappa_lower", refuse)
        cfg = _write(tmp_path, f"""
[space]
group = U
n = 2
subgroup = special

[task]
kind = {kind}
epsilon_grid = 0.5
""")
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0

    def test_bounds_on_bare_group(self, tmp_path):
        cfg = _write(tmp_path, """
[space]
group = SO
n = 3
subgroup = trivial

[task]
kind = bounds
epsilon_grid = 0.5
""")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        (row,) = (out / "bounds.csv").read_text().splitlines()[1:]
        sid, eps, lower, upper = row.split(",")[:4]
        assert (sid, eps) == ("SO3", "0.5")
        assert 0 < float(lower) <= float(upper)


# one case per subgroup kind: the [space] lines, the space the library
# constructors build, and the invariants row (space_id, dim_M, theta, diam,
# kappa_lb) at samples = 40, seed = 0
KIND_CASES = {
    "U3": ("group = U\nn = 3\nsubgroup = trivial",
           HomSpace(GroupSpec("U", 3)),
           ("U3", "9", "3.14159265359", "3.14159265359", "1")),
    "SO4": ("group = SO\nn = 4\nsubgroup = trivial",
            HomSpace(GroupSpec("SO", 4)),
            ("SO4", "6", "3.14159265359", "3.14159265359", "1")),
    "U3-special": ("group = U\nn = 3\nsubgroup = special",
                   HomSpace(GroupSpec("U", 3), SubgroupSpec.special()),
                   ("U3/special", "1", "", "1.0471975512", "1")),
    "SO3-grassmann1": ("group = SO\nn = 3\nsubgroup = grassmann\nk = 1",
                       HomSpace(GroupSpec("SO", 3), SubgroupSpec.grassmann(1)),
                       ("SO3/grassmann(1)", "2", "3.14159265359", "1.57079632679", "1")),
    "U5-block23": ("group = U\nn = 5\nsubgroup = block_diagonal\npartition = 2 3",
                   HomSpace(GroupSpec("U", 5), SubgroupSpec.block_diagonal([2, 3])),
                   ("U5/grassmann(2)", "12", "3.14159265359", "1.57079632679", "1")),
    "U3-block111": ("group = U\nn = 3\nsubgroup = block_diagonal\npartition = 1 1 1",
                    HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1, 1])),
                    ("U3/block_diagonal(1+1+1)", "6", "2", "", "1.15309127796")),
    "U4-tensor22": ("group = U\nn = 4\nsubgroup = tensor_factor\nm = 2\nk = 2",
                    HomSpace(GroupSpec("U", 4), SubgroupSpec.tensor_factor(2, 2)),
                    ("U4/tensor_factor(2x2)", "12", "2", "", "1.11792322243")),
}


@pytest.mark.parametrize("name", list(KIND_CASES))
def test_kind_space_and_invariant_row(name, tmp_path):
    lines, space, want = KIND_CASES[name]
    text = f"[space]\n{lines}\n\n[task]\nkind = invariants\nsamples = 40\nseed = 0\n"
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cfg.read_string(text)
    assert parse_space(cfg) == space
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text), "--out-dir", str(out)]) == 0
    row = dict(zip(CSV_COLUMNS, (out / "invariants.csv").read_text().splitlines()[1].split(",")))
    assert tuple(row[c] for c in ("space_id", "dim_M", "theta", "diam", "kappa_lb")) == want


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, G31_PACKING)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", cfg, "--out-dir", str(out1)])
        main(["run", cfg, "--out-dir", str(out2)])
        b1 = (out1 / "packing_curve.csv").read_bytes()
        b2 = (out2 / "packing_curve.csv").read_bytes()
        assert b1 == b2

    def test_seed_override_changes_stream_not_layout(self, tmp_path):
        cfg = _write(tmp_path, G31_PACKING)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", cfg, "--out-dir", str(out1)])
        main(["run", cfg, "--seed", "8", "--out-dir", str(out2)])
        h1 = (out1 / "packing_curve.csv").read_text().splitlines()[0]
        h2 = (out2 / "packing_curve.csv").read_text().splitlines()[0]
        assert h1 == h2
        assert (out2 / "packing_curve.csv").read_text().splitlines()[1].split(",")[5] == "8"


# the benchmark's cover config: U(4)/G(4,2), grid 1.2 0.9 0.6, budgets 700
BENCH_COVER = """
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
seed = 0
"""


# past k = n / 2 the Grassmann frame is the last n - k columns
U5_G3_COVER = BENCH_COVER.replace("n = 4", "n = 5").replace("k = 2", "k = 3")


@pytest.mark.parametrize("seed, config", [
    pytest.param("3", BENCH_COVER, id="3"),
    pytest.param("11", BENCH_COVER, id="11"),
    pytest.param("3", U5_G3_COVER, id="u5_grassmann3-3"),
])
def test_bracket_leaves_cover_curve_bytes_unchanged(seed, config, tmp_path, monkeypatch):
    """The bracket only decides which pairs skip the exact distance: with
    the null bracket (zero-width rows, every pair measured) the loops give
    the same CSV bytes, so an unsound bracket shows here."""
    cfg = _write(tmp_path, config)
    out, featurized = {}, []

    class Bare(SubgroupSpec):
        def bracket_rows(self, x):
            featurized.append(len(x))
            return super().bracket_rows(x)

    for bracketed in (True, False):
        if not bracketed:
            monkeypatch.setattr(HomSpace, "bracket", Bare())
        out[bracketed] = tmp_path / str(bracketed)
        assert main(["run", cfg, "--seed", seed, "--out-dir", str(out[bracketed])]) == 0
    # the bracketless run featurized the whole cloud through the patched
    # bracket, so it ran without a bracket
    assert featurized == [700]
    csv = [(out[b] / "cover_curve.csv").read_bytes() for b in (True, False)]
    assert csv[0] == csv[1]


def test_one_bracket_call_per_block_and_no_empty_exact_call(tmp_path, monkeypatch):
    """On the benchmark cover config the kind's sin2_bounds runs once per
    packing block (the block against the earlier points and itself) and
    once per farthest-point insertion, and no exact call is made on zero
    pairs.  Each packing takes its net unchecked, and its seed and
    candidate blocks hold only the rows (of the previous packing, then of
    the cloud) that the probes' upper bounds do not place within epsilon of
    the net."""
    grid = (1.2, 0.9, 0.6)
    space = HomSpace(GroupSpec("U", 4), SubgroupSpec.grassmann(2))
    cloud = entropy.haar_samples(space.group, np.random.default_rng(0), 700)
    *_, uppers = entropy._farthest_points(space, cloud, space.bracket.bracket_rows(cloud), 700, grid)
    packs = [np.flatnonzero((cloud[:, None] == pack.points).all(axis=(2, 3)).any(axis=1))
             for pack, _ in entropy.greedy_curve(space, grid, 700, 700, rng=0)]
    left = []  # per epsilon, the seeds and the candidates that reach a block
    for eps, upper, prev in zip(grid, uppers, [np.arange(0)] + packs[:-1]):
        far = upper > space.bracket.sin2(eps) - entropy.MARGIN
        left += [np.count_nonzero(far[prev]), np.count_nonzero(far)]
    grassmann = type(SubgroupSpec.grassmann(2))
    bounds, pairs = [], []
    real_bounds, real_dists = grassmann.sin2_bounds, entropy._dists
    monkeypatch.setattr(grassmann, "sin2_bounds",
                        lambda self, fa, fb, group: bounds.append(1) or real_bounds(self, fa, fb, group))
    monkeypatch.setattr(entropy, "_dists",
                        lambda space, a, b: pairs.append(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
                        or real_dists(space, a, b))
    assert main(["run", _write(tmp_path, BENCH_COVER), "--out-dir", str(tmp_path)]) == 0
    counts = {}
    for row in csv.DictReader((tmp_path / "cover_curve.csv").read_text().splitlines()):
        counts.setdefault(row["quantity_kind"], []).append(int(row["count"]))
    assert counts["Ntilde"] == [len(rows) for rows in packs]
    blocks = sum(-(-n // entropy.BLOCK) for n in left)
    # the net at the smallest epsilon is the whole farthest-point run
    assert len(bounds) == blocks + counts["Npp_certified"][-1]
    # the nets' upper bounds leave a few dozen of the 700 candidates at most
    assert sum(left[1::2]) < 100
    assert pairs and min(np.prod(shape) for shape in pairs) > 0


@pytest.mark.parametrize("config", [
    pytest.param(BENCH_COVER, id="cover"),
    pytest.param(G31_PACKING, id="packing"),
])
def test_one_haar_cloud_per_curve(config, tmp_path, monkeypatch):
    """A curve draws one cloud for its whole grid: the nets' probes and
    every packing's candidates are its rows."""
    draws = []
    real = entropy.haar_samples
    monkeypatch.setattr(entropy, "haar_samples",
                        lambda group, rng, m: draws.append(m) or real(group, rng, m))
    assert main(["run", _write(tmp_path, config), "--out-dir", str(tmp_path)]) == 0
    assert len(draws) == 1


GOLDEN = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.ini")))
def test_golden_csv_byte_identical(name, tmp_path):
    """Recorded cover and packing curves (SO(3)/G(3,1), U(4)/G(4,2),
    U(5)/G(5,3) past k = n/2, U(3)/SU(3), bare U(3) and SO(4)) are
    reproduced to the byte: the same seed gives the same random stream,
    candidates and counts."""
    assert main(["run", str(GOLDEN / f"{name}.ini"), "--out-dir", str(tmp_path)]) == 0
    (out,) = tmp_path.glob("*_curve.csv")
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == 1

    def test_missing_section(self, tmp_path):
        cfg = _write(tmp_path, "[space]\ngroup = U\nn = 2\n")
        assert main(["run", cfg]) == 1

    def test_unknown_task(self, tmp_path):
        cfg = _write(tmp_path, U1_COVER.replace("cover_curve", "paint"))
        assert main(["run", cfg]) == 1

    def test_bad_epsilon_grid_order(self, tmp_path):
        cfg = _write(tmp_path,
                     U1_COVER.replace("3.141592653589793 1.5707963267948966",
                                      "0.5 1.0"))
        assert main(["run", cfg]) == 1

    @pytest.mark.parametrize("kind, grid", [
        ("cover_curve", "nan"), ("cover_curve", "inf"), ("cover_curve", "inf 1.0"),
        ("packing_curve", "3.0 nan"), ("bounds", "inf"),
    ], ids=["cover-nan", "cover-inf", "cover-inf-first", "packing-nan-last", "bounds-inf"])
    def test_non_finite_epsilon_grid(self, kind, grid, tmp_path, capsys):
        cfg = _write(tmp_path, U1_COVER.replace("cover_curve", kind)
                     .replace("3.141592653589793 1.5707963267948966", grid))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_bad_group(self, tmp_path):
        cfg = _write(tmp_path, U1_COVER.replace("group = U", "group = SU"))
        assert main(["run", cfg]) == 1

    def test_negative_budget(self, tmp_path):
        cfg = _write(tmp_path, U1_COVER.replace("budget = 100",
                                                "budget = -5"))
        assert main(["run", cfg]) == 1

    @pytest.mark.parametrize("text, flags", [
        (U1_COVER.replace("seed = 0", "seed = -1"), []),
        (U1_COVER, ["--seed", "-1"]),
        (INVARIANTS.replace("samples = 40", "samples = -3"), []),
        (INVARIANTS.replace("grassmann\nk = 1", "block_diagonal\npartition = 1 1 1")
         .replace("samples = 40", "samples = 0"), []),
        (INVARIANTS.replace("n = 3\nsubgroup = grassmann\nk = 1", "n = 2")
         .replace("samples = 40", "samples = 0"), []),
    ], ids=["config-seed", "flag-seed", "samples-neg", "samples-0-block111", "samples-0-U2"])
    def test_negative_seed_or_no_samples(self, text, flags, tmp_path, capsys):
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out), *flags]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()


COLD_IMPORT = """
import sys
import numpy as np
import unicover, unicover.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

for cfg in sys.argv[1:3]:
    assert unicover.cli.main(["run", cfg, "--out-dir", sys.argv[3]]) == 0, cfg
assert not scipy_modules(), scipy_modules()[:5]

from unicover.groups import GroupSpec, HomSpace, SubgroupSpec, haar_samples
from unicover.metrics import CosetPoint, quotient_dist_upper

space = HomSpace(GroupSpec("U", 3), SubgroupSpec.block_diagonal([1, 1, 1]))
u, v = haar_samples(space.group, np.random.default_rng(0), 2)
quotient_dist_upper(CosetPoint(u, space), CosetPoint(v, space))
assert "scipy.optimize" not in sys.modules, scipy_modules()
"""


def test_closed_form_runs_import_no_scipy(tmp_path):
    """A cover curve on closed forms and the verify suites load numpy
    alone; a coset search never loads scipy.optimize (its logm_unitary
    start may load scipy.linalg).  Run in a fresh interpreter, since this
    one has imported scipy already."""
    cover = _write(tmp_path, G31_PACKING.replace("packing_curve", "cover_curve"), "cover.ini")
    verify = _write(tmp_path, VERIFY_U2, "verify.ini")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT, cover, verify, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
