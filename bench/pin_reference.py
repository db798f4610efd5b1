#!/usr/bin/env python3
"""Rewrite bench/reference.json: the integer counts the mesh and cli-io checks pin.

    python3 bench/pin_reference.py

Counts are taken at the default seed for every size.  Regenerate only when a
change is meant to alter simulated behaviour, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import REFERENCE, WORK_ROOT, load_program


def main() -> int:
    load_program()
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=WORK_ROOT)
    reference: dict = {"mesh": {}, "cli-io": {}}
    try:
        for size in workloads.SIZES:
            mesh = workloads.MeshWorkload(workloads.DEFAULT_SEED, size, workdir, None)
            reference["mesh"][size] = mesh.default_seed_counts()
            cli = workloads.CliIoWorkload(workloads.DEFAULT_SEED, size, workdir, None)
            cli.write_inputs()
            cli.reference_outputs()
            reference["cli-io"][size] = cli.ref_counts
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
