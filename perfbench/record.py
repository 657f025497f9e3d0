"""Record the reference outputs the correctness gates compare against.

    python3 perfbench/record.py [--workload NAME]

Runs every distinct round of each gated workload once per recorded input
seed (the development seeds and the held-out ones) and rewrites
perfbench/reference.json.  Run it
only on a commit whose outputs are known to be right: the gates then hold
every later commit to those outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import run


def record_cover(workload) -> list:
    """Per config, the gated counts."""
    configs = []
    for i in range(workload.rounds):
        (_, _, (_, rc, out_dir)), = workload.run_round(i)
        if rc != 0:
            raise SystemExit(f"cli exit code {rc}")
        counts = workload.counts(out_dir)
        configs.append({kind: counts[kind] for kind in ("Ntilde", "Npp_certified")})
    return configs


def record_quotient(workload) -> list:
    """Per round, {space id: distance}."""
    return [{sid: round(d, 12) for _, _, (d, (_, sid, _, _)) in workload.run_round(i)}
            for i in range(workload.rounds)]


def dump(reference: dict) -> str:
    """JSON text with one line per workload and input seed."""
    blocks = []
    for name in sorted(reference):
        entries = reference[name]
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entries[seed], sort_keys=True)}"
                          for seed in sorted(entries, key=int))
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


RECORDERS = {"cover_u4_grassmann": record_cover, "quotient_mix": record_quotient}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=tuple(RECORDERS), action="append")
    args = ap.parse_args()
    if not run.prepare():
        return 2
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or RECORDERS:
        entries = {}
        for seed in range(run.DEV_SEEDS + run.HELD_OUT_SEEDS):
            with tempfile.TemporaryDirectory(dir=run.HERE, prefix=".work-") as workdir:
                workload = run.make_workload(name, seed, workdir, reference={})
                entries[str(seed)] = RECORDERS[name](workload)
            print(f"recorded {name} input seed {seed}", flush=True)
        reference[name] = entries
    path.write_text(dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
