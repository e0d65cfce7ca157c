"""Command-line front end: solve, verify, convergence.

Exit codes: 0 success, 1 validation problem, 2 numerical failure.

Flags are ``--key VALUE`` or ``--key=VALUE`` over the keys each subcommand
reads (``_COMMAND_KEYS``), each cast by ``_CASTS``; a malformed command
line exits 1 with a usage line (``_parse_argv``), and a repeated flag
takes its last value.

The solve subcommand writes the absolute-error table (rows xi, columns
eta) as CSV next to a metadata JSON recording the run's settings,
and optionally a 51 x 51 surface CSV of the approximate solution for
external plotting.
"""

import errno
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .fracmath import _check_count
from .operator import CollocationGrid, GramAssemblyError
from .orthonormalize import GramAsymmetryError, NotPositiveDefiniteError
from .problems import build_problem
from .solver import convergence_study, error_report, evaluate, solve

__all__ = ["main", "RunConfig", "parse_mesh"]

# The most points a grid (--p x --q, each --sizes entry) or an error table (the
# --mesh values squared, so at most 50 values) may have.  n = 2500 is the largest
# n measured to solve in seconds: 4.0 s and 299 MB on a 2-vCPU machine (README's
# scaling table); each n x n matrix takes 8 n**2 bytes, the factorization O(n**3).
MAX_POINTS = 2_500

# The flags each subcommand reads.
_COMMAND_KEYS = {
    "solve": ("example", "alpha", "p", "q", "picard", "mesh", "out", "surface"),
    "verify": (),
    "convergence": ("example", "alpha", "picard", "mesh", "out", "sizes"),
}
_CASTS = {"alpha": float, "p": int, "q": int, "picard": int}


@dataclass
class RunConfig:
    example: Optional[str] = None
    alpha: float = 0.9
    p: int = 5
    q: int = 5
    picard: int = 0
    mesh: str = "0.1:0.1:0.6"
    out: Optional[str] = None
    surface: Optional[str] = None
    sizes: Optional[str] = None

    def validate(self):
        _check_count("p", self.p)
        _check_count("q", self.q)
        _check_points(f"grid {self.p}x{self.q}", self.p * self.q)
        _check_count("picard", self.picard, 0)


def _check_points(what: str, points):
    """ValueError if ``what``, which gives ``points`` points, passes the guard rail."""
    if points > MAX_POINTS:
        raise ValueError(f"{what} gives {points} points, more than the guard rail {MAX_POINTS}")


def parse_mesh(spec: str) -> List[float]:
    """Parse 'start:step:end' into an inclusive list of mesh values in [0, 1], at most 50."""
    try:
        start, step, end = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"mesh spec must be start:step:end, got {spec!r}") from exc
    if not all(map(math.isfinite, (start, step, end))):
        raise ValueError(f"mesh spec {spec!r} has a non-finite field")
    if step <= 0 or end < start:
        raise ValueError(f"degenerate mesh spec {spec!r}")
    # the values start + i * step that do not pass end by more than rounding error;
    # a quotient that overflowed to inf has no integer, and gives inf points
    span = (end - start) / step + 1e-9
    count = math.floor(span) + 1 if span < math.inf else math.inf
    _check_points(f"mesh spec {spec!r}", count * count)
    mesh = [round(start + i * step, 12) for i in range(count)]
    if mesh[0] < 0.0 or mesh[-1] > 1.0:
        raise ValueError(f"mesh spec {spec!r} leaves [0, 1]")
    return mesh


def _parse_sizes(spec: str) -> List[Tuple[int, int]]:
    """Comma-separated sizes, each 'PxQ' or a perfect-square point count, every count positive."""
    sizes = []
    for tok in spec.split(","):
        tok = tok.strip().lower()
        try:
            counts = [int(part) for part in tok.split("x")]
        except ValueError:
            counts = []
        if len(counts) not in (1, 2) or min(counts) < 1:
            raise ValueError(f"size {tok!r} is neither a positive point count nor PxQ with positive P and Q")
        if len(counts) == 1:
            root = math.isqrt(counts[0])
            if root * root != counts[0]:
                raise ValueError(f"size {counts[0]} is not a perfect square; use the PxQ form")
            counts = [root, root]
        sizes.append(tuple(counts))
    return sizes


def _build_problem(cfg: RunConfig):
    if cfg.example is None:
        raise ValueError("select a problem with --example")
    return build_problem(cfg.example, cfg.alpha)


def _format_cell(value: float) -> str:
    return f"{value:.5e}"


def _error_table_lines(mesh: List[float], table: List[List[float]]) -> List[str]:
    header = "xi/eta," + ",".join(_format_cell(e) for e in mesh)
    lines = [header]
    for x, row in zip(mesh, table):
        lines.append(_format_cell(x) + "," + ",".join(_format_cell(v) for v in row))
    return lines


def _write_text(path: Optional[str], text: str):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _meta_path(out: str) -> str:
    return os.path.splitext(out)[0] + ".meta.json"


def _check_writable(*paths: Optional[str]):
    """``_write_text``'s ValueError for the first path it could not write to, or a ValueError
    for two paths naming the same file, which would hold only the last output; creates nothing."""
    paths = [path for path in paths if path is not None]
    for path in paths:
        parent = os.path.dirname(path) or "."
        if not path or not os.path.isdir(parent):
            code = errno.ENOENT
        elif os.path.isdir(path):
            code = errno.EISDIR
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise ValueError(f"cannot write {path}: {os.strerror(code)}")
    files = [os.path.realpath(path) for path in paths]
    for i, real in enumerate(files):
        if real in files[:i]:
            raise ValueError(f"{paths[files.index(real)]} and {paths[i]} name the same file")


def _cmd_solve(cfg: RunConfig) -> int:
    cfg.validate()
    problem = _build_problem(cfg)
    mesh = parse_mesh(cfg.mesh)
    _check_writable(cfg.out, cfg.out and _meta_path(cfg.out), cfg.surface)
    t0 = time.perf_counter()
    sol = solve(problem, CollocationGrid.uniform(cfg.p, cfg.q), picard_iters=cfg.picard)
    wall = time.perf_counter() - t0

    report = error_report(sol, [(x, e) for x in mesh for e in mesh])
    table = [report.errors[i : i + len(mesh)] for i in range(0, len(report.errors), len(mesh))]
    _write_text(cfg.out, "\n".join(_error_table_lines(mesh, table)) + "\n")

    if cfg.surface is not None:
        pts = [i / 50.0 for i in range(51)]
        values = evaluate(sol, np.array(pts)[:, None], np.array(pts)[None, :]).tolist()
        labels = [f"{v:.10g}" for v in pts]
        lines = ["xi,eta,y"]
        for x, row in zip(labels, values):
            lines.extend(f"{x},{e},{y:.10g}" for e, y in zip(labels, row))
        _write_text(cfg.surface, "\n".join(lines) + "\n")

    meta = {
        "command": "solve",
        "example": cfg.example,
        "alpha": problem.alpha,
        "p": cfg.p,
        "q": cfg.q,
        "n": cfg.p * cfg.q,
        "picard_iters": cfg.picard,
        "mesh": cfg.mesh,
        "out": cfg.out,
        "surface": cfg.surface,
        "max_abs_error": report.max_abs_error,
        "mean_abs_error": report.mean_abs_error,
        "wall_seconds": wall,
        "version": __version__,
    }
    _write_text(cfg.out and _meta_path(cfg.out), json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"max abs error {report.max_abs_error:.6e}, mean {report.mean_abs_error:.6e}, {wall:.2f} s")
    return 0


def _cmd_verify() -> int:
    # Only this subcommand uses the check battery, so no other start pays for its import.
    from .verification import run_default_checks

    results = run_default_checks()
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 2


def _cmd_convergence(cfg: RunConfig) -> int:
    cfg.validate()
    if not cfg.sizes:
        raise ValueError("convergence requires --sizes, e.g. --sizes 9,25,49 or 3x3,5x5")
    sizes = _parse_sizes(cfg.sizes)
    for p, q in sizes:
        _check_points(f"size {p}x{q}", p * q)
    problem = _build_problem(cfg)
    mesh = parse_mesh(cfg.mesh)
    _check_writable(cfg.out)
    rows = convergence_study(problem, sizes, [(x, e) for x in mesh for e in mesh], picard_iters=cfg.picard)
    lines = ["n,max_abs_error,wall_seconds"]
    for row in rows:
        lines.append(f"{row.n},{_format_cell(row.max_abs_error)},{row.wall_seconds:.3f}")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def _usage(command: Optional[str]) -> str:
    if command not in _COMMAND_KEYS:
        return f"usage: rkburgers [--version] {{{','.join(_COMMAND_KEYS)}}} [--key VALUE ...]"
    return " ".join([f"usage: rkburgers {command}"] + [f"[--{key} {key.upper()}]" for key in _COMMAND_KEYS[command]])


def _exit(code: int, *lines: str):
    print(*lines, sep="\n", file=sys.stderr if code else sys.stdout)
    raise SystemExit(code)


def _parse_argv(argv: List[str]) -> Tuple[str, dict]:
    """The subcommand and its flags as ``{key: value}``, each value cast by ``_CASTS``.

    A value may start with one '-', so ``--picard -1`` reaches ``RunConfig.validate``.
    ``--version`` and ``-h``/``--help`` print and raise SystemExit(0); a malformed
    command line prints a usage line and an error line to stderr and raises SystemExit(1).
    """
    command = argv[0] if argv else None

    def fail(problem: str):
        _exit(1, _usage(command), f"rkburgers: error: {problem}")

    if command == "--version":
        _exit(0, __version__)
    if command in ("-h", "--help"):
        _exit(0, _usage(None))
    if command not in _COMMAND_KEYS:
        named = f"unknown subcommand {command!r}" if command else "missing subcommand"
        fail(f"{named}; choose {', '.join(_COMMAND_KEYS)}")
    flags = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _exit(0, _usage(command))
        if not token.startswith("--"):
            fail(f"unexpected argument {token!r}")
        key, has_value, value = token[2:].partition("=")
        if key not in _COMMAND_KEYS[command]:
            fail(f"{command} does not read --{key}")
        if not has_value:
            value = next(tokens, "--")
            if value.startswith("--"):
                fail(f"--{key} needs a value")
        cast = _CASTS.get(key, str)
        try:
            flags[key] = cast(value)
        except ValueError:
            fail(f"--{key}: invalid {cast.__name__} value {value!r}")
    return command, flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command, flags = _parse_argv(argv)
    try:
        cfg = RunConfig(**flags)
        if command == "solve":
            return _cmd_solve(cfg)
        if command == "verify":
            return _cmd_verify()
        return _cmd_convergence(cfg)
    except (NotPositiveDefiniteError, GramAsymmetryError, np.linalg.LinAlgError,  # ValueErrors, but numerical
            GramAssemblyError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
