"""Benchmark of the rkburgers solver: end-to-end metrics, or a per-layer trace.

    python3 bench/run.py --workload paper_tables --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every repetition of a workload runs in
a fresh ``bench/worker.py`` process, so the solver's process-global memo
caches start cold, as they do for a command-line user.  Repetitions run
one after another (a closed loop with one client) until the next one
would end after ``--seconds``; at least two run.  ``--trace 0`` reports
the end-to-end metrics named in BENCHMARK.json; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics.  Every
operation's output is checked against the values the unoptimised solver
produced (``bench/reference``).  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it, starting with ``#``, are for people.

``scattered`` is runnable but not listed in BENCHMARK.json; see
bench/README.md for why.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference"

WORKLOADS = ("paper_tables", "large_grid", "surface", "scattered")
MIN_REPS = 2
SETUP_RUNS = 2  # set-up-only processes before each untraced repetition
HARD_LIMIT_S = 165.0  # no repetition may run past this, so a run ends within 180 s
REF_SPIN_S = 1e-3  # times are scaled to a machine on which probe.spin() takes this long

# Ten times the paper's largest absolute error, as in tests/test_acceptance.py.
ACCEPTANCE_MAX_ERROR = {
    ("1", 0.9): 6.62e-3, ("1", 0.8): 6.91e-3, ("1", 0.7): 7.52e-3,
    ("2", 0.9): 7.67e-2, ("2", 0.8): 6.29e-2, ("2", 0.7): 4.39e-2,
}
ORTHO_BOUND = 1e-8  # acceptance criterion 5
ERROR_RTOL = 1e-6  # mesh error may differ from the reference by round-off only
SURFACE_RTOL = 1e-8  # surface values, relative to the largest reference value
SCATTER_P, SCATTER_Q = 10, 10  # the scattered workload's grid before jitter
SCATTER_JITTER = 0.3  # largest move of a scattered coordinate, in grid spacings


# -- workloads ---------------------------------------------------------------


def _solve_op(example, alpha, grid, grid_key, acceptance=False):
    key = f"ex{example} alpha={alpha} {grid_key}"
    return {"kind": "solve", "name": key, "key": key, "example": example, "alpha": alpha,
            "grid": grid, "acceptance": acceptance}


def scattered_points(seed):
    """The uniform SCATTER_P x SCATTER_Q grid, each coordinate moved by up to SCATTER_JITTER spacings.

    Coordinates pushed past 1 are reflected back inside, so every xi and
    eta stays in (0, 1] and all of them are distinct.  Point order (time
    fastest) follows the uniform grid.
    """
    rng = random.Random(seed)
    points = []
    for i in range(1, SCATTER_P + 1):
        for j in range(1, SCATTER_Q + 1):
            x = (i + rng.uniform(-SCATTER_JITTER, SCATTER_JITTER)) / SCATTER_P
            e = (j + rng.uniform(-SCATTER_JITTER, SCATTER_JITTER)) / SCATTER_Q
            points.append((2.0 - x if x > 1.0 else x, 2.0 - e if e > 1.0 else e))
    return points


def plan_ops(workload, seed, workdir):
    """The operations of one repetition; the program sees only these inputs."""
    if workload == "paper_tables":
        ops = [_solve_op("1", a, {"p": 5, "q": 5}, "5x5", True) for a in (0.7, 0.8, 0.9)]
        ops += [_solve_op("2", a, {"p": 10, "q": 10}, "10x10", True) for a in (0.7, 0.8, 0.9)]
        random.Random(seed).shuffle(ops)  # results must not depend on the shared memo caches
        return ops
    if workload == "large_grid":
        return [_solve_op("2", 0.8, {"p": 14, "q": 14}, "14x14")]
    if workload == "surface":
        out, surface = str(workdir / "table.csv"), str(workdir / "surface.csv")
        argv = ["solve", "--example", "1", "--alpha", "0.9", "--p", "7", "--q", "7",
                "--out", out, "--surface", surface]
        return [{"kind": "cli", "name": "cli solve ex1 alpha=0.9 7x7 --surface", "key": "surface",
                 "argv": argv, "outputs": {"out": out, "surface": surface}}]
    if workload == "scattered":
        points = scattered_points(seed)
        digest = hashlib.sha256(json.dumps(points).encode()).hexdigest()[:16]
        grid = {"points": points}
        return [_solve_op("1", 0.9, grid, f"scattered:{digest}"),
                _solve_op("2", 0.8, grid, f"scattered:{digest}")]
    raise ValueError(f"unknown workload {workload!r}")


# -- output checks -------------------------------------------------------------


def check_op(op, rec, reference):
    """Problems found in one operation's output; an empty list means it passed."""
    if "error" in rec:
        return [rec["error"]]
    ref = reference["ops"].get(op["key"])
    if ref is None:
        return ["no reference value for this input"]
    problems = []
    err, defect = rec.get("max_abs_error"), rec.get("ortho_defect")
    if "error" not in ref:
        if abs(err - ref["max_abs_error"]) > ERROR_RTOL * ref["max_abs_error"]:
            problems.append(f"max_abs_error {err!r} differs from the reference {ref['max_abs_error']!r}")
        if defect is None or defect > max(ORTHO_BOUND, ref["ortho_defect"]):
            problems.append(f"ortho_defect {defect!r} exceeds max(1e-8, reference {ref['ortho_defect']!r})")
    # where the reference solve failed, a solve that now succeeds must meet the acceptance bounds
    if op.get("acceptance") or "error" in ref:
        bound = ACCEPTANCE_MAX_ERROR[(op["example"], op["alpha"])]
        if not err <= bound:
            problems.append(f"max_abs_error {err!r} above the acceptance bound {bound}")
        if defect is None or not defect <= ORTHO_BOUND:
            problems.append(f"ortho_defect {defect!r} above the acceptance bound {ORTHO_BOUND}")
    if op["kind"] == "cli":
        problems += _check_cli_files(op, reference["surface"])
    return problems


def _check_cli_files(op, ref):
    problems = []
    with open(op["outputs"]["out"], "rb") as fh:
        if hashlib.sha256(fh.read()).hexdigest() != ref["table_sha256"]:
            problems.append("error-table CSV is not byte-identical to the reference")
    with open(op["outputs"]["surface"], encoding="utf-8") as fh:
        got = fh.read().splitlines()
    with open(REFERENCE / ref["values_file"], encoding="utf-8") as fh:
        want = fh.read().splitlines()
    if len(got) != len(want) or got[0] != want[0]:
        return problems + ["surface CSV shape or header differs from the reference"]
    scale = max(abs(float(line.split(",")[2])) for line in want[1:])
    for g, w in zip(got[1:], want[1:]):
        gx, ge, gy = (float(v) for v in g.split(","))
        wx, we, wy = (float(v) for v in w.split(","))
        if (gx, ge) != (wx, we) or abs(gy - wy) > SURFACE_RTOL * scale:
            problems.append(f"surface value {g!r} differs from the reference {w!r}")
            break
    return problems


# -- running -------------------------------------------------------------------


def blas_threads():
    return str(len(os.sched_getaffinity(0)))


def run_worker(plan, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")  # the same dict layouts in every process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = blas_threads()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=str(ROOT),
    )
    probe = subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py"), str(proc.pid)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    try:
        stdout, stderr = proc.communicate(json.dumps(plan), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        spins = json.loads(probe.communicate()[0])  # closing its stdin stops the probe
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}: {stderr.strip()[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["scale"] = REF_SPIN_S / statistics.fmean(spins)
    return result


def git_commit():
    """The checkout's commit when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_reps(ops, seconds, trace, check):
    """Fresh-process repetitions until the next would end after ``seconds``.

    ``check(op, record)`` returns the problems in one operation's output;
    it runs as soon as a repetition ends, before the next one overwrites
    its files.  Returns the warm-up result, the worker results that carry
    a set-up time, the repetitions and the failure messages.
    """
    start = time.perf_counter()
    plan = {"src": str(ROOT / "src"), "mode": "setup", "ops": ops}
    warm = run_worker(plan, timeout=HARD_LIMIT_S)  # compiles bytecode, proves the package imports
    setups, reps, durations, messages = [], [], [], []
    while True:
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_REPS and elapsed + statistics.median(durations) > seconds:
            break
        remaining = HARD_LIMIT_S - elapsed
        if remaining < 5.0:
            break
        mode = "trace" if trace and len(reps) % 2 == 1 else "run"
        t0 = time.perf_counter()
        if not trace:
            # spread over the run, so that setup_s sees the same machine as wall_s
            setups += [run_worker(plan, timeout=remaining) for _ in range(SETUP_RUNS)]
        try:
            rep = run_worker(dict(plan, mode=mode), timeout=HARD_LIMIT_S - (time.perf_counter() - start))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            rep = {"ops": [{"error": f"repetition failed: {exc}"} for _ in ops]}
        durations.append(time.perf_counter() - t0)
        rep["mode"] = mode
        rep["failed"] = 0
        for op, rec in zip(ops, rep["ops"]):
            problems = check(op, rec)
            if problems:
                rep["failed"] += 1
                messages.append(f"{mode} {op['name']}: {'; '.join(problems)}")
        reps.append(rep)
        if mode == "run" and "setup_s" in rep:
            setups.append(rep)
    return warm, setups, reps, messages


def summarize(trace, setups, reps, time_metrics):
    """Metric values by name: end-to-end for ``trace`` 0, per-layer for 1; None if absent.

    Times (the names in ``time_metrics``) are scaled to the reference
    machine speed by the factor of the worker that measured them (see
    probe.py), then the median is taken.
    """
    untraced = [r for r in reps if r["mode"] == "run" and "wall_s" in r]
    if not trace:
        ok = [rec for r in reps for rec in r["ops"] if "error" not in rec]
        return {
            "setup_s": statistics.median(w["setup_s"] * w["scale"] for w in setups),
            "wall_s": statistics.median(r["wall_s"] * r["scale"] for r in untraced) if untraced else None,
            "max_abs_error": max((rec["max_abs_error"] for rec in ok), default=None),
            "ortho_defect": max((rec["ortho_defect"] for rec in ok if "ortho_defect" in rec), default=None),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced) if untraced else None,
        }
    traced = [r for r in reps if r["mode"] == "trace" and "wall_s" in r]
    values = {}
    for name in traced[0]["layers"] if traced else ():
        samples = [r["layers"][name] for r in traced]
        if None in samples:
            values[name] = None
        elif name in time_metrics:
            values[name] = statistics.median(v * r["scale"] for v, r in zip(samples, traced))
        else:
            values[name] = statistics.median_low(samples)  # counts stay whole numbers
    if untraced:
        values["unscaled.wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    if setups:
        values["unscaled.setup_s"] = statistics.median(w["setup_s"] for w in setups)
    if traced and untraced:
        values["trace_overhead_s"] = (statistics.median(r["wall_s"] * r["scale"] for r in traced)
                                      - statistics.median(r["wall_s"] * r["scale"] for r in untraced))
    return values


def unscaled(setups, reps):
    """Medians of the measured times and of the speed factors, for the human-readable lines."""
    runs = [r for r in reps if "wall_s" in r]
    return {
        "setup_s": statistics.median(w["setup_s"] for w in setups) if setups else None,
        "wall_s": statistics.median(r["wall_s"] for r in runs) if runs else None,
        "scale": statistics.median(r["scale"] for r in runs) if runs else None,
        "per_repetition": [[r["mode"], round(r["wall_s"], 4), round(r["scale"], 4)] for r in runs],
    }


def _fmt(value):
    return "absent" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not (ROOT / "src" / "rkburgers" / "__init__.py").is_file():
        print(f"no rkburgers package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(REFERENCE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        ops = plan_ops(args.workload, args.seed, workdir)
        warm, setups, reps, messages = run_reps(
            ops, args.seconds, args.trace, lambda op, rec: check_op(op, rec, reference))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"cannot run the worker: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    if not reps:
        print("no repetition fitted in the time limit", file=sys.stderr)
        return 2
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
        "numpy": warm["numpy"], "python": warm["python"], "commit": git_commit(),
        "repetitions": len(reps), "setup_samples": len(setups),
        "run_s": round(time.perf_counter() - t_start, 3),
    }
    print("# env " + json.dumps(env))
    if args.trace:
        _print_breakdown(next((r for r in reps if r["mode"] == "trace" and "spans" in r), None))
    names = spec["per_layer" if args.trace else "end_to_end"]
    values = summarize(args.trace, setups, reps, {m["name"] for m in names if m["unit"] == "s"})
    print("# unscaled medians " + json.dumps(unscaled(setups, reps)))
    metrics = {}
    for m in names:
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']:<34} {_fmt(value):>14} {m['unit']}")
    attempted = len(ops) * len(reps)
    failed = sum(r["failed"] for r in reps)
    print(f"# failed_frac {failed / attempted:.6g} 1 ({failed} of {attempted} operations)")
    for line in messages:
        print(f"# FAILED {line}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _print_breakdown(rep):
    if rep is None:
        return
    print("# spans (unscaled): name, parents, count, inclusive s, self s")
    for name, row in rep["spans"].items():
        print(f"#   {name:<30} {row['parents']} {row['count']} {row['s']:.4f} {row['self_s']:.4f}")
    print("# hot calls (unscaled): name, parent span, count, cumulative s")
    for name, parent, count, seconds in rep["hot"]:
        print(f"#   {name:<28} {str(parent):<28} {count:>9} {seconds:.4f}")


if __name__ == "__main__":
    sys.exit(main())
