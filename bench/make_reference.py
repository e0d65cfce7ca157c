"""Record the reference outputs that bench/run.py checks every operation against.

    python3 bench/make_reference.py

Run once, at the commit whose outputs define correct behaviour; a change
that claims only a speed-up must leave bench/reference untouched.  It
solves every fixed-input operation and the scattered grids of seeds
0-9 once, untraced, and writes bench/reference/reference.json plus the
surface CSV.
"""

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, git_commit, plan_ops, run_worker

SCATTERED_SEEDS = range(10)


def main():
    REFERENCE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp())
    try:
        ops = plan_ops("paper_tables", 0, workdir) + plan_ops("large_grid", 0, workdir)
        ops += plan_ops("surface", 0, workdir)
        for seed in SCATTERED_SEEDS:
            ops += plan_ops("scattered", seed, workdir)
        result = run_worker({"src": str(ROOT / "src"), "mode": "run", "ops": ops}, timeout=3600)
        entries = {}
        for op, rec in zip(ops, result["ops"]):
            if "error" in rec:
                entries[op["key"]] = {"error": rec["error"]}
            else:
                entries[op["key"]] = {"max_abs_error": rec["max_abs_error"], "ortho_defect": rec["ortho_defect"]}
        surface_op = plan_ops("surface", 0, workdir)[0]
        with open(surface_op["outputs"]["out"], "rb") as fh:
            table_sha = hashlib.sha256(fh.read()).hexdigest()
        shutil.copyfile(surface_op["outputs"]["surface"], REFERENCE / "surface.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference = {
        "commit": git_commit(),
        "ops": entries,
        "surface": {"table_sha256": table_sha, "values_file": "surface.csv"},
    }
    with open(REFERENCE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
