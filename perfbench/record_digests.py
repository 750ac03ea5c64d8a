"""Record the sha256 digest of every output the benchmark checks into digests.json.

    python3 perfbench/record_digests.py [--scale full|smoke] [--workload NAME ...]

Run it only at a commit whose outputs are known to be right: the digests are
the byte-identical reference every later run is held to. It runs one pass per
input variant (one worker round) and refuses to record a pass that fails any other check.
Entries for the scales and workloads not selected are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", action="append", choices=sorted(workloads.SIZES))
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    from dyninfer import cli

    table = workloads.load_digests() if workloads.DIGESTS_PATH.is_file() else {}
    unrecorded = "no recorded digest for this input"
    for scale in args.scale or sorted(workloads.SIZES):
        for name in args.workload or sorted(workloads.WORKLOADS):
            variants = range(workloads.VARIANTS) if workloads.WORKLOADS[name].seeded else [0]
            recorded = {}
            for variant in variants:
                work = run.WORK_ROOT / f"record-{scale}-{name}-{variant}"
                work.mkdir(parents=True, exist_ok=True)
                try:
                    prepared = workloads.prepare(cli, name, scale, variant, work)
                    (entry,) = run.run_segment(prepared, work, False, 0.0, {})["rounds"]
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                other = {cmd: why for cmd, why in entry["failures"].items() if why != unrecorded}
                digests = {c["name"]: c["digest"] for c in entry["commands"] if c["digest"]}
                if other or len(digests) != len(prepared.commands):
                    sys.stderr.write(f"{scale} {name} variant {variant}: not recorded: {other}\n")
                    return 1
                recorded[str(variant)] = digests
                print(f"{scale} {name} variant {variant}: {digests}", flush=True)
            table.setdefault(scale, {})[name] = recorded
            workloads.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
