"""Layered benchmark for unicover.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload is a closed loop: one client in this process makes one call
at a time into the package under ``src/``, round after round, until the next
round would end after ``--seconds``.  With ``--trace 0`` a fixed calibration
kernel (calibration.py) is timed before the first round and after every
round, and the end-to-end metrics are printed; with ``--trace 1`` every
round is made untraced and then traced (see spans.py), and the per-layer
metrics are printed, per traced round.  Every call's output passes a
correctness gate.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

Inputs come from one of DEV_SEEDS recorded input seeds, ``--seed`` modulo
their number, so every output can be compared with reference.json;
``--held-out`` draws from HELD_OUT_SEEDS instead, which are kept for
confirming a claim on inputs not used while the change was written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEV_SEEDS = 16
HELD_OUT_SEEDS = 4
SETUP_REPEATS = 5
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("cover_u4_grassmann", "quotient_mix", "checks_u3")


def input_seed(seed: int, held_out: bool) -> int:
    if held_out:
        return DEV_SEEDS + seed % HELD_OUT_SEEDS
    return seed % DEV_SEEDS


def prepare() -> bool:
    """Put the checkout's package first on the path and cap BLAS threads
    before numpy loads (children inherit the cap).  False when the
    checkout holds no package."""
    if not (SRC / "unicover" / "__init__.py").is_file():
        print(f"error: no unicover package under {SRC}", file=sys.stderr)
        return False
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    return True


def make_workload(name: str, seed: int, workdir: str, reference=None):
    """Import the package, build the spaces and generate the inputs; the
    recorded outputs come from reference.json unless given."""
    from workloads import WORKLOADS

    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text()).get(name)
    return WORKLOADS[name](seed, workdir, reference)


def measure_setup(argv_base) -> list:
    """Wall time of fresh interpreters that import the package and build the
    workload's inputs, each started and waited for in turn."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), *argv_base, "--setup-only"],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def run_loop(workload, seconds: float, tracer=None):
    """Closed loop of rounds until the next round would end after
    ``seconds``.  Without a tracer the calibration kernel is timed before
    the first round and after each round; with one, each round is made
    untraced and then traced.  Returns the untraced rounds, the traced
    rounds and the calibration times."""
    from calibration import Calibration

    plain, traced, cal = [], [], []
    kernel = Calibration()
    if tracer is None:
        cal.append(kernel.run())
    start = perf_counter()
    i = 0
    while True:
        t0 = perf_counter()
        plain.append(workload.run_round(i))
        if tracer is None:
            cal.append(kernel.run())
        else:
            with tracer.installed():
                traced.append(workload.run_round(i))
        i += 1
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return plain, traced, cal


def round_seconds(rounds) -> list:
    return [sum(dt for _, dt, _ in calls) for calls in rounds]


def call_times(rounds, kind: str) -> list:
    return [dt for calls in rounds for k, dt, _ in calls if k == kind]


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": NPROC,
        "cpu": cpu,
    }


def run_one(args) -> int:
    argv_base = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds)]
    if args.held_out:
        argv_base.append("--held-out")
    seed = input_seed(args.seed, args.held_out)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        if args.setup_only:
            make_workload(args.workload, seed, workdir)
            return 0
        setup_times = measure_setup(argv_base)
        workload = make_workload(args.workload, seed, workdir)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        plain, traced, cal = run_loop(workload, args.seconds, tracer)
        outputs = [out for calls in plain + traced for _, _, out in calls]
        errors = [e for e in map(workload.gate, outputs) if e is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} input_seed {seed} rounds {len(plain)} "
          f"distinct_rounds {workload.rounds} calls_per_round {len(plain[0])} "
          f"setup_repeats {len(setup_times)}")
    for e in errors[:10]:
        print(f"FAILED {e}")
    print(f"error_rate {len(errors) / len(outputs):.6g} ({len(errors)}/{len(outputs)})")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.trace:
        run_s = statistics.mean(round_seconds(plain))
        cal_s = statistics.mean(cal)
        print(f"run_s {run_s:.6g} (mean wall time of a round) cal_s {cal_s:.6g} "
              f"(mean of {len(cal)} calibrations; median {statistics.median(cal):.6g})")
        if args.workload == "quotient_mix":
            import numpy as np

            times = [1e3 * dt for calls in plain for _, dt, _ in calls]
            p50, p90 = np.percentile(times, [50, 90])
            print(f"dist_p50_ms {p50:.6g} dist_p90_ms {p90:.6g} (over {len(times)} calls)")
        values = {
            "setup_s": statistics.median(setup_times),
            "run_rel": run_s / cal_s,
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]
    else:
        declared = spec["per_layer"]
        values = {}
        for m in declared:
            name = m["name"]
            if name == "trace.overhead_s":
                values[name] = (statistics.mean(round_seconds(traced))
                                - statistics.mean(round_seconds(plain)))
            elif name.startswith("metrics.qdist."):
                own = call_times(plain, name.split(".")[2])
                values[name] = 1e3 * statistics.median(own) if own else 0.0
            else:
                values[name] = tracer.value(name, len(traced))
        missing = [n for n, v in values.items() if v is None]
        if missing:
            print("missing entry points: " + " ".join(missing))
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"metric {m['name']} {shown} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": len(outputs),
                      "failed": len(errors), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.held_out:
            cmd.append("--held-out")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="draw inputs from the held-out recorded seeds")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not prepare():
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
