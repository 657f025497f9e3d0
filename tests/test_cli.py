"""Command-line runner tests: config parsing, output layout, exit codes and
byte-level determinism of repeated runs."""

import os

import pytest

from unicover.cli import CSV_COLUMNS, main

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
        cfg = _write(tmp_path, """
[space]
group = U
n = 2

[task]
kind = verify_all
seed = 0
""")
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

    def test_bad_group(self, tmp_path):
        cfg = _write(tmp_path, U1_COVER.replace("group = U", "group = SU"))
        assert main(["run", cfg]) == 1

    def test_negative_budget(self, tmp_path):
        cfg = _write(tmp_path, U1_COVER.replace("budget = 100",
                                                "budget = -5"))
        assert main(["run", cfg]) == 1
