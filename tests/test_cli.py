import errno
import os
import re
import stat
import subprocess
import sys
import tempfile
from dataclasses import replace
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from helpers import (NUMERICAL_OUTCOMES, nan_gradient_problem,
                     nan_hessian_problem, non_finite_third_problem)
from hypothesis import given, settings
from hypothesis import strategies as st

from affinedescent import cli
from affinedescent.cli import (_build_parser, _exit_code, _fmt, _parse_ls,
                               cmd_verify, main, write_trajectory_csv)
from affinedescent.line_search import (ArmijoSearch, ExactSearch, FixedStep,
                                       StrongWolfeSearch)
from affinedescent.optimizer import (IterateRecord, RunReport, RunStatus,
                                     StoppingSpec, newton_run)
from affinedescent.problems import catalog


RESULTS = Path(__file__).resolve().parent.parent / "results"

# Python floats, with -0, +-inf, NaN, subnormals and 17-significant-digit
# values among them; FLOATS also draws each as a numpy float64.
PY_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, np.inf, -np.inf, np.nan, 5e-324, -1.5e-310,
                     0.1, 1.0 / 3.0, 12345678901234567.0,
                     1.7976931348623157e308]),
)
FLOATS = PY_FLOATS.flatmap(lambda v: st.sampled_from([v, np.float64(v)]))


def records_of(dim):
    return st.builds(
        IterateRecord, k=st.integers(0, 10 ** 6),
        x=st.lists(FLOATS, min_size=dim, max_size=dim).map(np.array),
        f=FLOATS, grad_norm=FLOATS, alpha=FLOATS,
        case=st.sampled_from(["-", "AN", "FlippedAN", "SteepestFallback",
                              "GD", "Newton", "DampedNewton"]),
        # every producer's T is a Python float: math.sqrt's or a literal
        T=PY_FLOATS)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFormatting:
    def test_fmt_is_full_precision(self):
        assert _fmt(0.1) == "0.10000000000000001"
        assert _fmt(1.0) == "1"
        assert _fmt(2) == "2"
        assert float(_fmt(np.pi)) == np.pi

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3).flatmap(
        lambda n: st.lists(records_of(n), min_size=1, max_size=4)))
    def test_trajectory_rows_are_fmt_cells(self, records):
        """write_trajectory_csv formats a row at once; its bytes are those
        of _fmt on each cell, cos_theta included, which the record derives
        from T."""
        dim = records[0].x.size
        header = ["k"] + [f"x{i + 1}" for i in range(dim)] + \
            ["f", "gnorm", "alpha", "case", "T", "cos_theta"]
        rows = [",".join(header)] + [",".join(
            [str(r.k)] + [_fmt(c) for c in r.x]
            + [_fmt(r.f), _fmt(r.grad_norm), _fmt(r.alpha), r.case,
               _fmt(r.T), _fmt(1.0 / sqrt(1.0 + r.T * r.T))])
            for r in records]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "traj.csv")
            write_trajectory_csv(RunReport(records, RunStatus.CONVERGED), path)
            with open(path, "rb") as fh:
                assert fh.read() == ("\n".join(rows) + "\n").encode()

    def test_parse_ls_tokens(self):
        """A search token gives its spec's defaults."""
        assert _parse_ls("exact") == ExactSearch()
        assert _parse_ls("armijo") == ArmijoSearch()
        assert _parse_ls("wolfe") == StrongWolfeSearch()
        assert _parse_ls("fixed:0.25") == FixedStep(0.25)
        for token in ("fixed:abc", "fixed:", "golden", "stop"):
            with pytest.raises(ValueError):
                _parse_ls(token)


class TestRunCommand:
    @pytest.mark.parametrize("token, spec, iters", [
        ("exact", ExactSearch(), 12), ("armijo", ArmijoSearch(), 21),
        ("wolfe", StrongWolfeSearch(), 22), ("fixed:1", FixedStep(1.0), 5)])
    def test_newton_takes_the_line_search(self, token, spec, iters, tmp_path,
                                          capsys):
        """`newton` runs the given search: the CLI's trajectory is the one
        newton_run writes with that spec, its stdout line is the report's
        status, iterations, final f and gradient norm, and `fixed:1` is
        classical Newton, which takes 5 unit steps on Rosenbrock."""
        out, expected = tmp_path / "cli.csv", tmp_path / "api.csv"
        code, stdout, _ = run_main(
            ["run", "rosenbrock", "newton", token, "--out", str(out)], capsys)
        report = newton_run(catalog("rosenbrock"), ls=spec)
        write_trajectory_csv(report, expected)
        assert out.read_bytes() == expected.read_bytes()
        final = report.final
        assert stdout == (f"{report.status.value} {report.iters} "
                          f"{_fmt(final.f)} {_fmt(final.grad_norm)}\n")
        assert code == 0
        assert report.iters == iters

    def test_unknown_problem_exits_one(self, tmp_path, capsys):
        code, _, err = run_main(
            ["run", "nope", "yand", "exact",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert err.startswith("error: unknown problem 'nope'; known: ")

    @pytest.mark.parametrize("token", ["fixed:abc", "fixed:"])
    def test_bad_fixed_step_names_the_token(self, token, tmp_path, capsys):
        code, _, err = run_main(
            ["run", "rosenbrock", "gd", token,
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert err == (f"error: bad line search {token!r} "
                       "(expected fixed:ALPHA with ALPHA a number)\n")

    def test_unknown_method_exits_one(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["run", "quad_well", "cg", "exact",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1

    @pytest.mark.parametrize("method", ["yand", "gd"])
    def test_non_finite_gradient_exits_three(self, method, tmp_path, capsys,
                                             monkeypatch):
        broken = nan_gradient_problem("quad_well")
        monkeypatch.setattr(cli, "catalog", lambda name: broken)
        out = tmp_path / "t.csv"
        code, stdout, _ = run_main(
            ["run", "quad_well", method, "exact", "--out", str(out)], capsys)
        assert code == 3
        assert stdout.split()[:2] == ["NonFiniteGradient", "1"]
        assert out.read_text().splitlines()[-1].split(",")[4] == "nan"

    @pytest.mark.parametrize("method", ["yand", "newton", "dnewton"])
    def test_non_finite_hessian_exits_three(self, method, tmp_path, capsys,
                                            monkeypatch):
        broken = nan_hessian_problem("rosenbrock")
        monkeypatch.setattr(cli, "catalog", lambda name: broken)
        out = tmp_path / "t.csv"
        code, stdout, _ = run_main(
            ["run", "rosenbrock", method, "armijo", "--out", str(out)], capsys)
        assert code == 3
        assert stdout.split()[:2] == ["NonFiniteHessian", "1"]
        assert len(out.read_text().splitlines()) == 3   # header, k = 0, 1

    def test_non_finite_third_exits_three(self, tmp_path, capsys,
                                          monkeypatch):
        broken = non_finite_third_problem(2, -1.0, np.nan)
        monkeypatch.setattr(cli, "catalog", lambda name: broken)
        out = tmp_path / "t.csv"
        code, stdout, _ = run_main(
            ["run", "rosenbrock", "yand", "exact", "--out", str(out)], capsys)
        assert code == 3
        assert stdout.split()[:2] == ["NonFiniteThird", "0"]

    @pytest.mark.parametrize("problem, step, iters", [
        ("poly6", "fixed:10", "2"), ("poly6", "fixed:1e3", "2"),
        ("ring_tilted", "fixed:1e3", "3")])
    def test_value_overflow_exits_three(self, problem, step, iters, tmp_path,
                                        capsys):
        """A fixed step that throws gradient descent past the double range:
        the value overflows to inf and the run ends typed. These runs ended
        in a bare OverflowError (exit 1) while q and p were Python floats."""
        out = tmp_path / "t.csv"
        with np.errstate(over="ignore"):   # numpy warns on the overflow
            code, stdout, _ = run_main(
                ["run", problem, "gd", step, "--out", str(out)], capsys)
        assert code == 3
        assert stdout.split()[:2] == ["LineSearchFailure", iters]

    def test_every_status_has_an_exit_code(self):
        codes = {status.value: _exit_code(status) for status in RunStatus}
        assert codes.pop("Converged") == 0
        assert codes.pop("MaxIterReached") == 2
        assert set(codes.values()) == {3}

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_module_runs_as_a_script(self, tmp_path):
        """`python -m affinedescent.cli` runs main and exits with its code."""
        out = tmp_path / "examples.csv"
        env = {**os.environ,
               "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "affinedescent.cli", "examples", "--out",
             str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (RESULTS / "examples.csv").read_bytes()


# Each exception kind that reaches main, with the exit code it must give.
EXIT_CODES = [*((kind, 3) for kind in NUMERICAL_OUTCOMES),
              (ValueError, 1), (OSError, 1)]


class TestExitCodeContract:
    """main sends a ValueError or an OSError, bad input, to exit 1 and an
    AffineDescentError, a numerical outcome, to exit 3, with the message on
    stderr."""

    @pytest.mark.parametrize("kind, code", EXIT_CODES,
                             ids=[kind.__name__ for kind, _ in EXIT_CODES])
    def test_exception_kind_sets_the_exit_code(self, kind, code, tmp_path,
                                               capsys, monkeypatch):
        def cmd_run(*args):
            raise kind("stopped here")

        monkeypatch.setattr(cli, "cmd_run", cmd_run)
        assert run_main(["run", "quad_well", "yand", "exact",
                         "--out", str(tmp_path / "x.csv")], capsys) == (
            code, "", "error: stopped here\n")


class TestSubcommandFlags:
    """Each subcommand takes --out, and invariance also --gammas."""

    def test_usage_lists_only_out_and_gammas(self, capsys):
        for command in ("run", "table2", "examples", "invariance", "verify"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            usage = capsys.readouterr().out.split("\n\n")[0]
            flags = set(re.findall(r"\[(--[a-z0-9-]+)", usage))
            assert flags == ({"--out", "--gammas"} if command == "invariance"
                             else {"--out"}), command

    @pytest.mark.parametrize("argv", [
        ["run", "quad_well", "yand", "exact", "--ou", "x.csv"],
        ["table2", "--o", "x.csv"],
        ["examples", "--ou", "x.csv"],
        ["invariance", "--gam", "10"],
        ["invariance", "--ou", "x.csv"],
        ["verify", "--o", "x.csv"]], ids=lambda argv: argv[0] + argv[-2])
    def test_flag_prefix_is_rejected(self, argv, tmp_path, capsys):
        """A flag is spelled in full: a prefix of --out or --gammas is not
        read as that flag."""
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")
        assert not out.exists()


class TestSharedParser:
    CALLS = [
        ["run", "rosenbrock", "yand", "wolfe", "--out", "run1.csv"],
        ["run", "quad_well", "yand", "golden"],
        ["table2", "--out", "table2.csv"],
        ["run", "rosenbrock", "gd", "armijo", "--out", "run2.csv"],
    ]

    def _call_all(self, out_dir, fresh):
        codes = []
        for argv in self.CALLS:
            if fresh:
                _build_parser.cache_clear()
            argv = [str(out_dir / a) if a.endswith(".csv") else a
                    for a in argv]
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
        return codes

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_repeated_calls_match_fresh_parsers(self, tmp_path, capsys):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        shared.mkdir()
        fresh.mkdir()
        assert self._call_all(shared, fresh=False) == [0, 1, 0, 2]
        assert self._call_all(fresh, fresh=True) == [0, 1, 0, 2]
        names = sorted(p.name for p in shared.iterdir())
        assert names == ["run1.csv", "run2.csv", "table2.csv"]
        assert names == sorted(p.name for p in fresh.iterdir())
        for name in names:
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()


class TestTable2Command:
    def test_failed_run_exits_three_and_keeps_every_row(self, tmp_path,
                                                         capsys, monkeypatch):
        """At tol_grad 1e-300 the exact search of gradient descent fails
        at gamma 10 and 100, and at gamma 1e4 the Wolfe and Armijo searches
        of the affine normal fail at a gradient norm of 6.5e-165, below
        where its squares underflow; the table is the same, the exit code
        3."""
        out = tmp_path / "table2.csv"
        monkeypatch.setattr(cli, "StoppingSpec",
                            lambda: StoppingSpec(tol_grad=1e-300))
        code, _, err = run_main(["table2", "--out", str(out)], capsys)
        assert code == 3
        assert out.read_text() == (
            "gamma,kappaB,kappaH,yand_exact,yand_wolfe,yand_armijo,"
            "gd_exact,gd_fixed,newton\n"
            "1,1,1,2,2,2,1,1,1\n"
            "10,10,100,2,2,2,178,200*,1\n"
            "100,100,10000,1,1,1,83,200*,1\n"
            "1000,1000,1000000,1,1,1,16,200*,1\n"
            "10000,10000,100000000,1,11,11,18,200*,1\n")
        assert err == ("gamma 10 gd_exact: LineSearchFailure at k = 178\n"
                       "gamma 100 gd_exact: LineSearchFailure at k = 83\n"
                       "gamma 10000 yand_wolfe: LineSearchFailure at k = 11\n"
                       "gamma 10000 yand_armijo: LineSearchFailure at k = 11\n")


class TestInvarianceCommand:
    def test_reported_deviations_are_small(self, tmp_path, capsys):
        out = tmp_path / "inv.csv"
        code, _, err = run_main(["invariance", "--gammas", "10,100,10000",
                                 "--out", str(out)], capsys)
        assert code == 0 and err == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma,max_deviation,iters_scaled,iters_base"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [10.0, 100.0, 1e4]
        for r in rows:
            assert float(r[1]) <= 1e-6
            assert r[2] == r[3]
        assert out.read_bytes() == (RESULTS / "invariance.csv").read_bytes()

    def test_broken_equivalence_exits_four(self, tmp_path, capsys):
        """At gamma 1e-8 both runs end Converged, but the scaled run stops
        after 1 step where the base run takes 3, and its iterates miss the
        base ones by about 1: the row is written, and stderr names gamma
        with both faults."""
        out = tmp_path / "inv.csv"
        code, _, err = run_main(
            ["invariance", "--gammas", "10,1e-8", "--out", str(out)], capsys)
        assert code == 4
        assert err == ("gamma 1e-08: max_deviation > 1e-6\n"
                       "gamma 1e-08: iters_scaled != iters_base\n")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["10", "1e-08"]
        assert float(rows[0][1]) <= 1e-6 < float(rows[1][1])
        assert rows[1][2:] == ["1", "3"]

    def test_unequal_iteration_counts_exit_four(self, tmp_path, capsys):
        """At gamma 1e11 and 1e12 the scaled iterates stay within 1e-6 of
        the base ones, but the scaled run takes 4 steps where the base run
        takes 3: the gradient-norm stop is not invariant. Deviations are
        compared over the rows both runs share, so the count is checked on
        its own; both rows are written and stderr names both gammas."""
        out = tmp_path / "inv.csv"
        code, _, err = run_main(
            ["invariance", "--gammas", "1e11,1e12", "--out", str(out)],
            capsys)
        assert code == 4
        assert err == ("gamma 100000000000: iters_scaled != iters_base\n"
                       "gamma 1000000000000: iters_scaled != iters_base\n")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["100000000000", "1000000000000"]
        for r in rows:
            assert float(r[1]) <= 1e-6
            assert r[2:] == ["4", "3"]

    def test_failed_run_outranks_a_broken_equivalence(self, tmp_path,
                                                      capsys):
        """A run that could not continue exits 3, naming only that run."""
        out = tmp_path / "inv.csv"
        code, _, err = run_main(
            ["invariance", "--gammas", "1e-8,1e16", "--out", str(out)],
            capsys)
        assert code == 3
        assert len(out.read_text().splitlines()) == 3
        assert err == ("gamma 10000000000000000 scaled: LineSearchFailure "
                       "at k = 0\n")

    def test_failed_run_exits_three(self, tmp_path, capsys):
        """At gamma 1e16 the scaled run ends before its first step: the
        row is written, its deviation covers row 0 only, and stderr names
        the run."""
        out = tmp_path / "inv.csv"
        code, _, err = run_main(
            ["invariance", "--gammas", "1e16", "--out", str(out)], capsys)
        assert code == 3
        assert out.read_text() == ("gamma,max_deviation,iters_scaled,"
                                   "iters_base\n10000000000000000,0,0,3\n")
        assert err == ("gamma 10000000000000000 scaled: LineSearchFailure "
                       "at k = 0\n")

    def test_overflowed_hessian_exits_three(self, tmp_path, capsys):
        """At gamma 1e200 the composed Hessian B^T H B overflows at the
        start point. The scaled run ends NonFiniteHessian, with no numpy
        warning, which this suite's filterwarnings = error would raise."""
        out = tmp_path / "inv.csv"
        code, _, err = run_main(
            ["invariance", "--gammas", "1e200", "--out", str(out)], capsys)
        assert code == 3
        assert out.read_text().splitlines()[1].split(",")[2:] == ["0", "3"]
        assert err == ("gamma 9.9999999999999997e+199 scaled: "
                       "NonFiniteHessian at k = 0\n")

    def test_overflowing_inverse_map_exits_one(self, tmp_path, capsys):
        """B = diag(1, 1e-320) has det > 0 but an inverse that overflows:
        stderr names B, with no numpy warning from B^-1 @ x_star, which
        this suite's filterwarnings = error would raise."""
        out = tmp_path / "inv.csv"
        code, _, err = run_main(
            ["invariance", "--gammas", "1e-320", "--out", str(out)], capsys)
        assert code == 1
        assert err == ("error: B must have a finite inverse that maps x0 "
                       "and x_star to finite points\n")
        assert not out.exists()

    @pytest.mark.parametrize("gammas", ["", ",", "10,,100", "10, ,100",
                                        "10,abc"])
    def test_item_not_a_number_names_the_flag(self, gammas, tmp_path,
                                              capsys):
        out = tmp_path / "x.csv"
        code, _, err = run_main(
            ["invariance", "--gammas", gammas, "--out", str(out)], capsys)
        assert code == 1
        assert err == ("error: --gammas: expected comma-separated numbers, "
                       f"such as 10,100, got {gammas!r}\n")
        assert not out.exists()


class TestVerifyCommand:
    def test_nan_third_derivative_fails(self, tmp_path, capsys, monkeypatch):
        """cmd_verify, on the one problem poly6 with a NaN third derivative
        in place of the catalog, writes an infinite error and FAIL, and
        exits 4."""
        problem = catalog("poly6")
        bad = replace(problem, objective=replace(
            problem.objective,
            third_directional=lambda x, u, v, w: float("nan")))
        monkeypatch.setattr(cli, "CATALOG_NAMES", (bad.name,))
        monkeypatch.setattr(cli, "catalog", lambda name: bad)
        out = tmp_path / "verify.csv"
        code = cmd_verify(out)
        capsys.readouterr()
        assert code == 4
        assert out.read_text().splitlines()[1].endswith(",inf,FAIL")


class TestNonFiniteSettings:
    """A zero, NaN or infinite fixed step or scaling is a usage error:
    exit 1 before any oracle call. Every oracle of the stand-in problem
    raises, so a regression fails here instead of running."""

    @pytest.fixture
    def no_oracle(self, monkeypatch):
        p = catalog("quad_well")

        def fail(*args):
            raise AssertionError("oracle called")

        stub = replace(p, objective=replace(
            p.objective, value=fail, gradient=fail, hessian=fail,
            third_directional=fail))
        monkeypatch.setattr(cli, "catalog", lambda name: stub)

    @pytest.mark.parametrize("argv", [
        ["run", "quad_well", "gd", "fixed:nan"],
        ["run", "quad_well", "gd", "fixed:inf"],
        ["invariance", "--gammas", "10,nan"],
        ["invariance", "--gammas", "inf"],
        ["run", "quad_well", "gd", "fixed:0"],
        ["invariance", "--gammas", "10,0"],
    ], ids=lambda argv: argv[-1])
    def test_exits_one_with_message(self, argv, tmp_path, capsys, no_oracle):
        out = tmp_path / "out.csv"
        code, _, err = run_main(argv + ["--out", str(out)], capsys)
        assert code == 1
        assert "must be finite and positive" in err
        assert not out.exists()


class TestOutputWriter:
    """Every subcommand writes through cli._write_lines, which overwrites in
    place and truncates only regular files."""

    def test_dev_null_target(self, capsys):
        assert run_main(["table2", "--out", os.devnull], capsys)[0] == 0

    def _fresh(self, tmp_path, capsys):
        out = tmp_path / "fresh.csv"
        assert run_main(["table2", "--out", str(out)], capsys)[0] == 0
        return out.read_bytes()

    @pytest.mark.parametrize("old", [
        lambda fresh: fresh + b"stale tail\n" * 50,   # longer
        lambda fresh: fresh[:10],                      # shorter
        lambda fresh: b"",
        lambda fresh: fresh,
    ])
    def test_overwrite_equals_fresh_write(self, old, tmp_path, capsys):
        fresh = self._fresh(tmp_path, capsys)
        out = tmp_path / "t.csv"
        out.write_bytes(old(fresh))
        assert run_main(["table2", "--out", str(out)], capsys)[0] == 0
        assert out.read_bytes() == fresh

    def test_new_file_mode_follows_umask(self, tmp_path, capsys):
        out = tmp_path / "new.csv"
        previous = os.umask(0o027)
        try:
            assert run_main(["table2", "--out", str(out)], capsys)[0] == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_bytes() == self._fresh(tmp_path, capsys)

    def test_existing_file_keeps_inode_and_mode(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        out.write_bytes(b"old\n" * 1000)
        out.chmod(0o600)
        before = out.stat()
        assert run_main(["table2", "--out", str(out)], capsys)[0] == 0
        after = out.stat()
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o600
        assert out.read_bytes() == self._fresh(tmp_path, capsys)

    def test_failed_write_leaves_exactly_the_written_prefix(
            self, tmp_path, capsys, monkeypatch):
        fresh = self._fresh(tmp_path, capsys)
        out = tmp_path / "t.csv"
        out.write_bytes(b"x" * (2 * len(fresh)))
        real_write = os.write
        calls = []

        def short_then_fail(fd, data):
            calls.append(len(data))
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data[:7])

        monkeypatch.setattr(os, "write", short_then_fail)
        code, _, err = run_main(["table2", "--out", str(out)], capsys)
        monkeypatch.undo()
        assert code == 1
        assert "No space left on device" in err
        assert calls == [len(fresh), len(fresh) - 7, len(fresh) - 14]
        assert out.read_bytes() == fresh[:14]
