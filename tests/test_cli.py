import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rkburgers.solver
from rkburgers import CollocationGrid, __version__, build_problem
from rkburgers.cli import _CASTS, _COMMAND_KEYS, _format_cell, _parse_argv, main, parse_mesh
from rkburgers.solver import error_report, evaluate, solve
from tests.conftest import overflowing_example51


def _read(path):
    return path.read_text(encoding="utf-8")


def _table_cell(csv_text, row_label, col_label):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    col = header.index(col_label)
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0] == row_label:
            return float(cells[col])
    raise KeyError((row_label, col_label))


class TestParseMesh:
    def test_default_table_mesh(self):
        assert parse_mesh("0.1:0.1:0.6") == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]

    def test_single_point(self):
        assert parse_mesh("0.5:0.1:0.5") == [0.5]

    @pytest.mark.parametrize(
        "spec, mesh",
        [("0:0.3:0.5", [0.0, 0.3]), ("0:0.6:1", [0.0, 0.6]), ("0.5:0.3:1.0", [0.5, 0.8]),
         ("0.5:0.1:0.6", [0.5, 0.6]), ("0.2:0.2:0.8", [0.2, 0.4, 0.6, 0.8])],
    )
    def test_last_value_does_not_pass_the_end(self, spec, mesh):
        assert parse_mesh(spec) == mesh


class TestSolveCommand:
    def test_example1_writes_table_and_metadata(self, tmp_path):
        out = tmp_path / "err.csv"
        code = main(
            ["solve", "--example", "1", "--alpha", "0.9", "--p", "5", "--q", "5",
             "--out", str(out)]
        )
        assert code == 0
        text = _read(out)
        assert _table_cell(text, "1.00000e-01", "1.00000e-01") <= 2.39e-3
        meta = json.loads(_read(tmp_path / "err.meta.json"))
        for key in ("alpha", "p", "q", "n", "picard_iters",
                    "mesh", "max_abs_error", "wall_seconds", "version"):
            assert key in meta
        assert "format" not in meta  # the table is always CSV
        assert "quadrature_nodes" not in meta  # the rule is fixed at 64 nodes
        assert "config" not in meta  # the command line is the only route to the settings
        assert meta["n"] == 25

    def test_output_deterministic_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["solve", "--example", "1", "--alpha", "0.8", "--p", "3", "--q", "3"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert _read(out1) == _read(out2)

    def test_alpha_out_of_range_is_validation_error(self):
        assert main(["solve", "--example", "1", "--alpha", "1.2", "--p", "3", "--q", "3"]) == 1

    def test_example2_alpha_range_enforced(self):
        assert main(["solve", "--example", "2", "--alpha", "0.4", "--p", "3", "--q", "3"]) == 1

    def test_guard_rail_on_problem_size(self):
        assert main(["solve", "--example", "1", "--p", "200", "--q", "200"]) == 1

    def test_guard_rail_just_above_the_limit(self, capsys):
        assert main(["solve", "--example", "1", "--p", "41", "--q", "61"]) == 1
        assert "grid 41x61 gives 2501 points, more than the guard rail 2500" in capsys.readouterr().err

    def test_table_has_one_format(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--example", "1", "--format", "json", "--out", str(tmp_path / "err.json")])
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[1:] == ["rkburgers: error: solve does not read --format"]
        assert list(tmp_path.iterdir()) == []

    def test_surface_artifact(self, tmp_path):
        out = tmp_path / "err.csv"
        surface = tmp_path / "surface.csv"
        code = main(
            ["solve", "--example", "1", "--alpha", "0.9", "--p", "3", "--q", "3",
             "--out", str(out), "--surface", str(surface)]
        )
        assert code == 0
        lines = _read(surface).strip().splitlines()
        assert lines[0] == "xi,eta,y"
        assert len(lines) == 1 + 51 * 51

    def test_surface_bytes(self, tmp_path, monkeypatch):
        # the file holds, in xi-major order, every point of the 51 x 51 mesh with
        # the solution's value there, each number in %.10g
        solved = []

        def recording_solve(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr("rkburgers.cli.solve", recording_solve)
        surface = tmp_path / "surface.csv"
        argv = ["solve", "--example", "1", "--alpha", "0.9", "--p", "3", "--q", "3",
                "--out", str(tmp_path / "err.csv"), "--surface", str(surface)]
        assert main(argv) == 0
        pts = [i / 50.0 for i in range(51)]
        values = evaluate(solved[0], np.array(pts)[:, None], np.array(pts)[None, :])
        lines = ["xi,eta,y"] + [
            f"{x:.10g},{e:.10g},{values[i, j]:.10g}" for i, x in enumerate(pts) for j, e in enumerate(pts)
        ]
        assert surface.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("out, surface", [("t.csv", "d/../t.csv"), ("u.csv", "u.meta.json")])
    def test_outputs_naming_the_same_file_rejected(self, tmp_path, monkeypatch, capsys, out, surface):
        (tmp_path / "d").mkdir()
        monkeypatch.setattr("rkburgers.cli.solve", lambda *args: pytest.fail("solved before the check"))
        argv = ["solve", "--example", "1", "--p", "2", "--q", "2",
                "--out", str(tmp_path / out), "--surface", str(tmp_path / surface)]
        assert main(argv) == 1
        assert capsys.readouterr().err.rstrip().endswith(f"{tmp_path / surface} name the same file")
        assert [path.name for path in tmp_path.iterdir()] == ["d"]

    def test_example2_benchmark_bound(self, tmp_path):
        out = tmp_path / "err2.csv"
        code = main(
            ["solve", "--example", "2", "--alpha", "0.8", "--p", "10", "--q", "10",
             "--out", str(out)]
        )
        assert code == 0
        meta = json.loads(_read(tmp_path / "err2.meta.json"))
        assert meta["max_abs_error"] <= 6.29e-2

    def test_asymmetric_gram_is_numerical_failure(self, monkeypatch, capsys):
        # one entry between two collocation points skewed beyond the symmetry tolerance;
        # the message names it by indices, checked here by the points they number
        assemble = rkburgers.solver.assemble_gram
        pair = {(1 / 3, 2 / 3), (2 / 3, 1 / 3)}

        def skewed(basis):
            gram = assemble(basis)
            centres = [(b.xi, b.eta) for b in basis]
            i, j = (centres.index(point) for point in sorted(pair))
            gram.entries[i, j] += 1e-3 * (1.0 + abs(gram.entries[i, j]))
            return gram

        monkeypatch.setattr("rkburgers.solver.assemble_gram", skewed)
        assert main(["solve", "--example", "2", "--alpha", "0.8", "--p", "3", "--q", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: gram matrix asymmetry")
        entry = re.search(r"at entry \((\d+), (\d+)\)", err).groups()
        assert {CollocationGrid.uniform(3, 3).points[int(k)] for k in entry} == pair

    @pytest.mark.parametrize("target", ["out", "surface", "meta"])
    def test_unwritable_output_is_validation_error(self, tmp_path, capsys, target):
        paths = {"out": tmp_path / "t.csv", "surface": tmp_path / "s.csv"}
        if target == "meta":
            (tmp_path / "t.meta.json").mkdir()  # the metadata file cannot be opened
            bad = tmp_path / "t.meta.json"
        else:
            bad = paths[target] = tmp_path / "missing" / "x.csv"
        argv = ["solve", "--example", "1", "--p", "2", "--q", "2",
                "--out", str(paths["out"]), "--surface", str(paths["surface"])]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: cannot write {bad}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("target", ["surface", "empty-out"])
    def test_unwritable_output_fails_before_the_solve(self, tmp_path, capsys, monkeypatch, target):
        # every output path is checked before the solve, so none is written
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the outputs")

        monkeypatch.setattr("rkburgers.cli.solve", no_solve)
        out = "" if target == "empty-out" else str(tmp_path / "t.csv")
        surface = str(tmp_path / "missing" / "s.csv")
        bad = surface if out else ""  # --out is checked first
        argv = ["solve", "--example", "1", "--p", "2", "--q", "2", "--out", out, "--surface", surface]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"validation error: cannot write {bad}: ")
        assert list(tmp_path.iterdir()) == []

    def test_without_out_writes_table_then_metadata_to_stdout(self, capsys):
        assert main(["solve", "--example", "1", "--p", "2", "--q", "2", "--mesh", "0.5:0.1:0.6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "xi/eta,5.00000e-01,6.00000e-01"
        assert [line.split(",")[0] for line in lines[1:3]] == ["5.00000e-01", "6.00000e-01"]
        meta = json.loads("\n".join(lines[3:-1]))
        assert (meta["command"], meta["out"], meta["n"]) == ("solve", None, 4)
        cells = [float(cell) for line in lines[1:3] for cell in line.split(",")[1:]]
        assert meta["max_abs_error"] == pytest.approx(max(cells), rel=1e-5)
        assert lines[-1].startswith("max abs error ")

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, ArithmeticError])
    def test_failing_quadrature_rule_is_numerical_failure(self, monkeypatch, capsys, error):
        # the rule's eigensolver failure and its weight-measure check
        def failing_rule(exponent, n):
            raise error("synthetic rule failure")

        monkeypatch.setattr("rkburgers.operator.jacobi_rule", failing_rule)
        assert main(["solve", "--example", "1", "--p", "2", "--q", "2"]) == 2
        assert capsys.readouterr().err == "numerical failure: synthetic rule failure\n"

    def test_nonfinite_picard_pass_is_numerical_failure(self, monkeypatch, capsys):
        monkeypatch.setattr("rkburgers.cli.build_problem", lambda example, alpha: overflowing_example51())
        assert main(["solve", "--example", "1", "--p", "2", "--q", "2", "--picard", "1"]) == 2
        assert capsys.readouterr().err == "numerical failure: non-finite right-hand side at collocation index 0\n"

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--example", "1"], ["verify"], ["convergence", "--example", "1", "--sizes", "4"]],
        ids=lambda argv: argv[0],
    )
    def test_no_subcommand_reads_nodes(self, capsys, argv):
        # the double transform always takes the 64-node rule: a nodes flag is a malformed command line
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--nodes", "64"])
        assert exc.value.code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].partition(" [")[0] == f"usage: rkburgers {argv[0]}"
        assert lines[1:] == [f"rkburgers: error: {argv[0]} does not read --nodes"]

    def test_metadata_stays_beside_output_in_dotted_directory(self, tmp_path):
        out_dir = tmp_path / "run.v2"
        out_dir.mkdir()
        code = main(
            ["solve", "--example", "1", "--alpha", "0.9", "--p", "3", "--q", "3",
             "--out", str(out_dir / "table")]
        )
        assert code == 0
        assert json.loads(_read(out_dir / "table.meta.json"))["n"] == 9
        assert not (tmp_path / "run.meta.json").exists()

    def test_custom_mesh(self, tmp_path):
        out = tmp_path / "err.csv"
        code = main(
            ["solve", "--example", "1", "--alpha", "0.9", "--p", "3", "--q", "3",
             "--mesh", "0.2:0.2:0.8", "--out", str(out)]
        )
        assert code == 0
        header = _read(out).splitlines()[0]
        assert header.count(",") == 4


# The custom-problem keys the command line once read, each with a value it accepted.
_RETIRED_CUSTOM_KEYS = {"problem": "custom", "k1": "one", "k2": "zero", "k3": "zero", "k4": "zero",
                        "f": "sin_pi_xi", "exact_space": "sin_pi_xi", "exact_power": "1.8"}


@pytest.mark.parametrize("command", ["solve", "convergence"])
@pytest.mark.parametrize("key", list(_RETIRED_CUSTOM_KEYS))
def test_retired_custom_problem_key_rejected(capsys, key, command):
    # the command line solves examples 5.1 and 5.2; any other problem is a Problem built in Python
    argv = [command, "--example", "1"] + (["--sizes", "4"] if command == "convergence" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--{key}", _RETIRED_CUSTOM_KEYS[key]])
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[1:] == [f"rkburgers: error: {command} does not read --{key}"]


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["solve", "--example", "1", "--p", "0"], "p must be an integer >= 1, got 0"),
        (["solve", "--example", "1", "--q", "0"], "q must be an integer >= 1, got 0"),
        (["solve", "--example", "1", "--picard", "-1"], "picard must be an integer >= 0, got -1"),
        (["solve", "--example", "1", "--alpha", "1.2"], "fractional order must satisfy 0 < alpha <= 1, got 1.2"),
        (["solve", "--example", "2", "--alpha", "0.4"], "this problem requires 1/2 < alpha <= 1, got 0.4"),
        (["solve", "--example", "3"], "unknown problem identifier '3'; known: 1, 2, example51, example52"),
        (["solve", "--example", "1", "--mesh", "1:2"], "mesh spec must be start:step:end, got '1:2'"),
        (["solve", "--example", "1", "--mesh", "0.5:0.1:0.1"], "degenerate mesh spec '0.5:0.1:0.1'"),
        (["solve", "--example", "1", "--mesh", "0:1:inf"], "mesh spec '0:1:inf' has a non-finite field"),
        (["solve", "--example", "1", "--mesh", "0.5:0.5:1.5"], "mesh spec '0.5:0.5:1.5' leaves [0, 1]"),
        (["solve", "--example", "1", "--mesh", "0:1e-9:1"],
         "mesh spec '0:1e-9:1' gives 1000000000000000000 points, more than the guard rail 2500"),
        (["convergence", "--example", "1", "--sizes", "4", "--mesh", "0:1e-9:1"],
         "mesh spec '0:1e-9:1' gives 1000000000000000000 points, more than the guard rail 2500"),
        (["solve"], "select a problem with --example"),
        (["convergence", "--example", "1", "--sizes", "9,-4"],
         "size '-4' is neither a positive point count nor PxQ with positive P and Q"),
        (["convergence", "--example", "1", "--sizes", "4x4x4"],
         "size '4x4x4' is neither a positive point count nor PxQ with positive P and Q"),
        (["convergence", "--example", "1", "--sizes", "2.5x3"],
         "size '2.5x3' is neither a positive point count nor PxQ with positive P and Q"),
        (["convergence", "--example", "1", "--sizes", "0x3"],
         "size '0x3' is neither a positive point count nor PxQ with positive P and Q"),
    ],
    ids=["p-zero", "q-zero", "picard-negative", "alpha-above-one", "example-2-alpha-at-most-half", "example-3-flag", "mesh-two-fields", "mesh-degenerate", "mesh-infinite",
         "mesh-outside-the-square", "mesh-too-many-values", "convergence-mesh-too-many-values",
         "no-problem",
         "sizes-negative", "sizes-three-factors", "sizes-not-integer", "sizes-zero-factor"],
)
def test_validation_error_message(capsys, argv, first_line):
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"validation error: {first_line}"


class TestPointBudget:
    """One budget of MAX_POINTS points bounds the grid, each --sizes entry and the error table."""

    @pytest.mark.parametrize("command", ["solve", "convergence"])
    def test_a_50_value_mesh_runs(self, tmp_path, command):
        out = tmp_path / "t.csv"
        argv = [command, "--example", "1", "--mesh", "0:0.02:0.98", "--out", str(out)]
        assert main(argv + (["--p", "2", "--q", "2"] if command == "solve" else ["--sizes", "4"])) == 0
        lines = _read(out).splitlines()
        if command == "solve":
            assert len(lines) == 51 and all(len(line.split(",")) == 51 for line in lines)
        else:
            assert len(lines) == 2

    @pytest.mark.parametrize(
        "argv, what, points",
        [
            (["solve", "--example", "1", "--mesh", "0:0.02:1"], "mesh spec '0:0.02:1'", 2601),
            (["convergence", "--example", "1", "--sizes", "4", "--mesh", "0:0.02:1"], "mesh spec '0:0.02:1'", 2601),
            (["solve", "--example", "1", "--p", "50", "--q", "51"], "grid 50x51", 2550),
            (["convergence", "--example", "1", "--sizes", "50x51"], "size 50x51", 2550),
        ],
        ids=["solve-51-value-mesh", "convergence-51-value-mesh", "solve-grid", "convergence-size"],
    )
    def test_past_the_budget_exits_1_before_the_solve(self, tmp_path, capsys, monkeypatch, argv, what, points):
        monkeypatch.setattr("rkburgers.cli.solve", lambda *args, **kwargs: pytest.fail("solved before the check"))
        monkeypatch.setattr("rkburgers.cli.convergence_study", lambda *args, **kwargs: pytest.fail("studied before the check"))
        assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 1
        message = f"validation error: {what} gives {points} points, more than the guard rail 2500"
        assert capsys.readouterr().err.splitlines() == [message]
        assert list(tmp_path.iterdir()) == []


class TestVerifyCommand:
    def test_default_battery_passes(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8 and all(line.startswith("PASS  ") for line in lines)

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--p", "30", "--q", "30"], ["verify", "--q", "30"], ["verify", "--alpha", "0.7"],
         ["verify", "--config", "run.cfg"]],
        ids=["p", "q", "alpha", "config"],
    )
    def test_reads_no_flag(self, capsys, argv):
        # the battery runs at one alpha on one grid; a flag that once chose them is unread
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["usage: rkburgers verify", f"rkburgers: error: verify does not read {argv[1]}"]

    def test_check_battery_imported_only_by_verify(self):
        # A fresh process: this one has imported rkburgers.verification already.
        code = (
            "import sys\n"
            "import rkburgers.cli\n"
            "assert 'rkburgers.verification' not in sys.modules\n"
            "sys.exit(rkburgers.cli.main(['verify']))\n"
        )
        proc = _fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout and "FAIL" not in proc.stdout

    def test_no_numpy_module_is_imported_on_first_use(self, tmp_path):
        # numpy imports some submodules on first use; numpy.ma alone takes
        # 12-22 ms in a fresh process, most of a 14 x 14 solve's wall time,
        # and numpy.random 15-19 ms.
        solve_argv = ["solve", "--example", "1", "--alpha", "0.9", "--p", "7", "--q", "7",
                      "--out", str(tmp_path / "table.csv"), "--surface", str(tmp_path / "surface.csv")]
        code = (
            "import json, sys\n"
            "import rkburgers.cli\n"
            "from rkburgers import CollocationGrid, build_example52, error_report, solve\n"
            "mesh = [round(0.1 * i, 12) for i in range(1, 7)]\n"
            "added = {}\n"
            "def record(name, run):\n"
            "    before = set(sys.modules)\n"
            "    added[name] = run(), sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy')\n"
            "record('library', lambda: error_report(solve(build_example52(0.8), CollocationGrid.uniform(14, 14)),\n"
            "                                       [(x, e) for x in mesh for e in mesh]).max_abs_error < 1e-2)\n"
            f"record('solve', lambda: rkburgers.cli.main({solve_argv!r}))\n"
            "record('verify', lambda: rkburgers.cli.main(['verify']))\n"
            "print(json.dumps(added))\n"
        )
        proc = _fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        added = json.loads(proc.stdout.splitlines()[-1])
        assert added["library"] == [True, []]
        assert added["solve"] == [0, []]
        assert added["verify"][0] == 0
        assert "numpy.ma" not in added["verify"][1] and "numpy.random" not in added["verify"][1]


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports rkburgers from this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)


class TestConvergenceCommand:
    def test_two_sizes(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(
            ["convergence", "--example", "1", "--alpha", "0.9",
             "--sizes", "9,16", "--out", str(out)]
        )
        assert code == 0
        lines = _read(out).strip().splitlines()
        assert lines[0] == "n,max_abs_error,wall_seconds"
        assert len(lines) == 3
        assert lines[1].startswith("9,")
        assert lines[2].startswith("16,")

    def test_pxq_size_form(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert main(
            ["convergence", "--example", "1", "--alpha", "0.9",
             "--sizes", "2x3", "--out", str(out)]
        ) == 0
        assert _read(out).strip().splitlines()[1].startswith("6,")

    def test_picard_passes_reach_the_study(self, tmp_path):
        mesh = parse_mesh("0.1:0.1:0.6")
        points = [(x, e) for x in mesh for e in mesh]
        argv = ["convergence", "--example", "2", "--alpha", "0.8", "--sizes", "4x4"]
        cells = {}
        for passes in (0, 1):
            out = tmp_path / f"conv{passes}.csv"
            assert main(argv + ["--picard", str(passes), "--out", str(out)]) == 0
            cells[passes] = _read(out).strip().splitlines()[1].split(",")[1]
        sol = solve(build_problem("2", 0.8), CollocationGrid.uniform(4, 4), picard_iters=1)
        assert cells[1] == _format_cell(error_report(sol, points).max_abs_error)
        assert cells[1] != cells[0]  # so a dropped count would show

    def test_sizes_required(self):
        assert main(["convergence", "--example", "1", "--alpha", "0.9"]) == 1

    def test_guard_rail(self):
        assert main(
            ["convergence", "--example", "1", "--alpha", "0.9", "--sizes", "200x200"]
        ) == 1

    def test_guard_rail_just_above_the_limit(self, capsys):
        assert main(
            ["convergence", "--example", "1", "--alpha", "0.9", "--sizes", "41x61"]
        ) == 1
        assert "size 41x61 gives 2501 points, more than the guard rail 2500" in capsys.readouterr().err

    def test_non_square_count_rejected(self):
        assert main(
            ["convergence", "--example", "1", "--alpha", "0.9", "--sizes", "10"]
        ) == 1

    def test_unwritable_output_fails_before_the_study(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("rkburgers.cli.convergence_study", lambda *args, **kwargs: pytest.fail("studied before the check"))
        bad = tmp_path / "missing" / "c.csv"
        assert main(["convergence", "--example", "1", "--sizes", "4", "--out", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"validation error: cannot write {bad}: ")
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_unknown_flag_is_validation(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--bogus", "1"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["convergence", "--example", "1", "--sizes", "9", "--format", "json"],
            ["convergence", "--example", "1", "--sizes", "9", "--p", "3"],
            ["convergence", "--example", "1", "--sizes", "9", "--config", "run.cfg"],
            ["verify", "--out", "never.txt"],
            ["verify", "--mesh", "0:1:5"],
            ["verify", "--format", "json"],
            ["verify", "--example", "1"],
            ["verify", "--picard", "1"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_flag_the_subcommand_does_not_read_is_validation(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1

    def test_missing_subcommand_is_validation(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


class TestCommandLineGrammar:
    """``SUBCOMMAND (--key VALUE | --key=VALUE)*``, read from the CLI's own key table."""

    def test_key_equals_value_gives_the_same_outputs(self, tmp_path):
        outputs = []
        for name, flags in (("spaced", ["--p", "3", "--q", "3"]), ("joined", ["--p=3", "--q=3"])):
            out = tmp_path / name / "t.csv"
            out.parent.mkdir()
            assert main(["solve", "--example=1", "--alpha", "0.9", *flags, f"--out={out}"]) == 0
            meta = json.loads(_read(out.parent / "t.meta.json"))
            del meta["wall_seconds"], meta["out"]
            outputs.append((_read(out), meta))
        assert outputs[0] == outputs[1]

    def test_last_repeated_flag_wins(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["solve", "--example", "1", "--p", "5", "--q", "2", "--p", "2", "--out", str(out)]) == 0
        assert json.loads(_read(tmp_path / "t.meta.json"))["p"] == 2

    # two values each key accepts; the second must be the one read
    _TWO_VALUES = {"example": ("2", "1"), "alpha": ("0.7", "0.8"), "p": ("3", "4"), "q": ("3", "4"),
                   "picard": ("0", "1"), "mesh": ("0:0.5:1", "0.1:0.1:0.6"), "out": ("a.csv", "b.csv"),
                   "surface": ("a.csv", "b.csv"), "sizes": ("4", "9")}

    @pytest.mark.parametrize(
        "command, key", [(command, key) for command in ("solve", "convergence") for key in _COMMAND_KEYS[command]],
        ids=lambda item: item,
    )
    def test_every_key_takes_its_last_value(self, command, key):
        # with no config file, a repeated flag is the one way to override a setting, in either form
        first, last = self._TWO_VALUES[key]
        for argv in ([f"--{key}", first, f"--{key}={last}"], [f"--{key}={first}", f"--{key}", last]):
            assert _parse_argv([command] + argv) == (command, {key: _CASTS.get(key, str)(last)})

    @pytest.mark.parametrize("command", list(_COMMAND_KEYS))
    @pytest.mark.parametrize("form", ["spaced", "joined", "missing-file"])
    def test_config_file_is_never_opened(self, tmp_path, monkeypatch, capsys, command, form):
        # a file of settings every subcommand once read is now an unread flag, whether or not it exists
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        if form != "missing-file":
            cfg.write_text("example = 1\np = 3\nq = 3\nout = t.csv\n", encoding="utf-8")
        argv = [command] + (["--config=run.cfg"] if form == "joined" else ["--config", "run.cfg"])
        monkeypatch.setattr("builtins.open", lambda *args, **kwargs: pytest.fail(f"opened {args[0]}"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        monkeypatch.undo()
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[1:] == [f"rkburgers: error: {command} does not read --config"]
        assert sorted(path.name for path in tmp_path.iterdir()) == ([] if form == "missing-file" else ["run.cfg"])

    def test_example_takes_an_alias_identifier(self, tmp_path):
        # build_problem knows example51 as it knows 1
        out = tmp_path / "t.csv"
        assert main(["solve", "--example", "example51", "--p", "2", "--q", "2", "--out", str(out)]) == 0
        assert json.loads(_read(tmp_path / "t.meta.json"))["example"] == "example51"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["solve", "--p"], "--p needs a value"),
            (["solve", "--out", "--surface", "s.csv"], "--out needs a value"),
            (["solve", "--p", "two"], "--p: invalid int value 'two'"),
            (["solve", "--p=two"], "--p: invalid int value 'two'"),
            (["convergence", "--alpha=nine"], "--alpha: invalid float value 'nine'"),
            (["solve", "--p", "3", "extra"], "unexpected argument 'extra'"),
            (["solve", "--bogus", "1"], "solve does not read --bogus"),
            (["verify", "--example=1"], "verify does not read --example"),
            (["solve", "--example", "1", "--config", "run.cfg"], "solve does not read --config"),
            (["plot"], "unknown subcommand 'plot'; choose solve, verify, convergence"),
            ([], "missing subcommand; choose solve, verify, convergence"),
        ],
        ids=["no-value", "flag-for-value", "not-an-int", "joined-not-an-int", "not-a-float", "positional", "unknown-flag", "unread-flag", "config-file",
             "unknown-subcommand", "no-subcommand"],
    )
    def test_malformed_command_line_exits_1_with_a_usage_line(self, tmp_path, monkeypatch, capsys, argv, error):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        if argv and argv[0] in _COMMAND_KEYS:
            usage = " ".join([f"usage: rkburgers {argv[0]}"] + [f"[--{key} {key.upper()}]" for key in _COMMAND_KEYS[argv[0]]])
        else:
            usage = "usage: rkburgers [--version] {solve,verify,convergence} [--key VALUE ...]"
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines == [usage, f"rkburgers: error: {error}"]
        assert list(tmp_path.iterdir()) == []

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"{__version__}\n"

    @pytest.mark.parametrize("argv", [["solve", "--p=3", "--help"], ["verify", "-h"], ["convergence", "--help"]],
                             ids=lambda argv: argv[0])
    def test_help_lists_the_keys_the_subcommand_reads(self, capsys, argv):
        command = argv[0]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.partition(" [")[0].rstrip("\n") == f"usage: rkburgers {command}"
        assert out.count("\n") == 1 and not out.endswith(" \n")
        assert tuple(re.findall(r"\[--(\w+) ", out)) == _COMMAND_KEYS[command]

    def test_no_argparse_module_is_imported(self, tmp_path):
        # Building argparse's parser, with the gettext and locale imports of
        # its first message lookup, and parsing took about 3.4 ms of a CLI
        # solve in a fresh process.
        argv = ["solve", "--example", "1", "--p", "3", "--q", "3", "--out", str(tmp_path / "t.csv")]
        code = (
            "import json, sys\n"
            "import rkburgers.cli\n"
            f"code = rkburgers.cli.main({argv!r})\n"
            "print(json.dumps([code, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]]))\n"
        )
        proc = _fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
