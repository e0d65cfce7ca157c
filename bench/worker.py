"""One repetition of a benchmark workload, in a fresh process.

Reads a plan as JSON on stdin, imports ``rkburgers`` from the plan's
source directory, times set-up and then every operation, and writes one
JSON result on the last line of stdout.  ``bench/run.py`` starts it once
per repetition, so the solver's process-global memo caches start cold
every time, as they do for a command-line user.

Plan keys: ``src`` (directory holding the ``rkburgers`` package),
``mode`` (``setup``: set up and stop; ``run``: untraced; ``trace``:
traced) and ``ops`` (the operations, see ``plan_ops`` in ``run.py``).
"""

import json
import os
import resource
import sys
import time

# 36-point error mesh 0.1:0.1:0.6 in both coordinates, as in the acceptance suite.
MESH = [(round(0.1 * i, 12), round(0.1 * j, 12)) for i in range(1, 7) for j in range(1, 7)]


def set_up(plan):
    """Import the package and build every operation's problem and grid."""
    sys.path.insert(0, plan["src"])
    import rkburgers

    if not os.path.abspath(rkburgers.__file__).startswith(os.path.abspath(plan["src"]) + os.sep):
        raise ImportError(f"rkburgers imported from {rkburgers.__file__}, not from {plan['src']}")
    built = []
    for op in plan["ops"]:
        if op["kind"] == "cli":
            import rkburgers.cli  # noqa: F401

            built.append(None)
            continue
        grid = op["grid"]
        if "points" in grid:
            g = rkburgers.CollocationGrid.from_points(grid["points"])
        else:
            g = rkburgers.CollocationGrid.uniform(grid["p"], grid["q"])
        built.append((rkburgers.build_problem(op["example"], op["alpha"]), g))
    return built


def _defect_and_cond(sol, with_cond):
    import numpy as np

    g = sol.basis.source.entries
    beta = sol.basis.beta
    defect = float(np.max(np.abs(beta @ g @ beta.T - np.eye(g.shape[0]))))
    if not with_cond:
        return defect, None
    a = 0.5 * (g + g.T)
    d = np.sqrt(np.diag(a))
    return defect, float(np.linalg.cond(a / d[:, None] / d[None, :]))


def run_ops(plan, built, tracer=None):
    """Run every operation; returns (timed seconds, per-operation records).

    A raised exception marks the operation failed and the run goes on.
    Orthonormality defects and condition numbers are computed outside the
    timed region.
    """
    import contextlib
    import io

    import rkburgers
    import rkburgers.cli

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    captured = []
    cli_solve = rkburgers.cli.solve

    def capture(*args, **kwargs):
        sol = cli_solve(*args, **kwargs)
        captured.append(sol)
        return sol

    rkburgers.cli.solve = capture
    if tracer:
        tracer.install()

    wall = 0.0
    records = []
    try:
        for op, prepared in zip(plan["ops"], built):
            rec = {"name": op["name"], "key": op["key"]}
            sol = None
            if prepared is not None:
                problem, grid = prepared
                if tracer:
                    problem = tracer.wrap_problem(problem)
            t0 = time.perf_counter()
            try:
                if op["kind"] == "cli":
                    with span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                        code = rkburgers.cli.main(op["argv"])
                    if code != 0:
                        raise RuntimeError(f"rkburgers exited with code {code}")
                else:
                    with span("solver.solve"):
                        sol = rkburgers.solve(problem, grid)
                    with span("solver.error_report"):
                        rec["max_abs_error"] = rkburgers.error_report(sol, MESH).max_abs_error
            except Exception as exc:  # counted as a failed operation
                rec["error"] = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            if op["kind"] == "cli" and "error" not in rec:
                rec.update(_cli_outputs(op))
                sol = captured.pop() if captured else None
            if sol is not None:
                rec["ortho_defect"], rec["cond_scaled"] = _defect_and_cond(sol, tracer is not None)
            records.append(rec)
    finally:
        if tracer:
            tracer.uninstall()
        rkburgers.cli.solve = cli_solve
    return wall, records


def _cli_outputs(op):
    out, surface = op["outputs"]["out"], op["outputs"]["surface"]
    meta_path = out.rpartition(".")[0] + ".meta.json"
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    return {
        "max_abs_error": meta["max_abs_error"],
        "bytes_written": sum(os.path.getsize(p) for p in (out, surface, meta_path)),
    }


def layer_metrics(tracer, records):
    """Per-layer metric values; None marks a metric whose wrapped name is missing."""

    def calls(*names):
        found = [tracer.calls(n) for n in names]
        if any(f is None for f in found):
            return None, None
        return sum(f[0] for f in found), sum(f[1] for f in found)

    r3, r2 = calls("kernels.r3"), calls("kernels.r2")
    kernels = calls("kernels.r3", "kernels.r2")
    coeff = calls("problems.coeff")
    jacobi, moment = calls("fracmath.jacobi_rule"), calls("fracmath.weighted_moment")
    fracmath = calls("fracmath.jacobi_rule", "fracmath.weighted_moment")
    psi = calls("operator.psi_eval")
    ev = calls("solver.evaluate")
    conds = [r["cond_scaled"] for r in records if r.get("cond_scaled") is not None]
    return {
        "operator.assemble_gram_s": tracer.self_time("operator.assemble_gram"),
        "operator.build_basis_s": tracer.self_time("operator.build_basis"),
        "kernels.r3_calls": r3[0],
        "kernels.r2_calls": r2[0],
        "kernels.s": kernels[1],
        "problems.coeff_calls": coeff[0],
        "problems.s": coeff[1],
        "fracmath.jacobi_rule_calls": jacobi[0],
        "fracmath.weighted_moment_calls": moment[0],
        "fracmath.s": fracmath[1],
        "orthonormalize.compute_beta_s": tracer.self_time("orthonormalize.compute_beta"),
        "orthonormalize.cond_scaled": max(conds) if conds else None,
        "solver.sweep_s": tracer.self_time("solver.solve"),
        "operator.psi_eval_calls": psi[0],
        "operator.psi_eval_s": psi[1],
        "solver.evaluate_calls": ev[0],
        "solver.evaluate_s": ev[1],
        "solver.error_report_s": tracer.inclusive_time("solver.error_report"),
        "cli.self_s": tracer.self_time("cli.main"),
        "cli.bytes_written": sum(r.get("bytes_written", 0) for r in records),
    }


def span_summary(tracer):
    """Per span name: parent names, count, inclusive and self seconds."""
    out = {}
    for s in tracer.spans:
        row = out.setdefault(s.name, {"parents": [], "count": 0, "s": 0.0, "self_s": 0.0})
        if s.parent not in row["parents"]:
            row["parents"].append(s.parent)
        row["count"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += s.self_time
    return out


def main():
    plan = json.load(sys.stdin)
    t0 = time.perf_counter()
    built = set_up(plan)
    setup_s = time.perf_counter() - t0
    import numpy

    result = {
        "setup_s": setup_s,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if plan["mode"] != "setup":
        tracer = None
        if plan["mode"] == "trace":
            from tracer import Tracer

            tracer = Tracer()
        result["wall_s"], result["ops"] = run_ops(plan, built, tracer)
        if tracer:
            result["layers"] = layer_metrics(tracer, result["ops"])
            result["spans"] = span_summary(tracer)
            result["hot"] = [[n, p, c, s] for (n, p), (c, s) in tracer.by_parent().items()]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
