"""Record ``perfbench/reference.json`` from the current sources.

    python3 perfbench/make_reference.py [--workload NAME ...] [--size full|tiny ...]

Runs every input a seed can produce once (``inputs.catalog``), refuses to
record anything if a repetition fails its own output checks, and merges the
fingerprints into reference.json.  Re-record only for a change that is meant
to alter the program's outputs, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, catalog, keyed_fingerprint  # noqa: E402
from run import spawn  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--size", action="append", choices=("full", "tiny"))
    args = ap.parse_args(argv)
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    tmp = HERE / ".tmp" / "reference"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        for workload in args.workload or WORKLOADS:
            # exact-sweep has no size knob: its outputs depend on (p, delta) only
            sizes = ["full"] if workload == "exact-sweep" else args.size or ["full", "tiny"]
            for size in sizes:
                for i, cfg in enumerate(catalog(workload, size)):
                    rep = spawn({"workload": workload, "rep": cfg}, tmp / f"{workload}-{size}-{i}",
                                False, 3600.0)
                    bad = [c for c in rep.get("checks", []) if not c[1]]
                    if "error" in rep or bad:
                        print(f"{workload} {size} {cfg}: {rep.get('error') or bad}", file=sys.stderr)
                        return 1
                    keyed = keyed_fingerprint(workload, size, cfg, rep["fingerprint"])
                    reference.setdefault(workload, {}).update(keyed)
                    print(f"{workload} {size}: recorded {', '.join(keyed)}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
