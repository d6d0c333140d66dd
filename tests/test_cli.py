import errno
import os
import re
import stat
import tempfile
from dataclasses import replace
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinedescent import cli
from affinedescent.cli import (_build_parser, _build_specs, _exit_code, _fmt,
                               _load_settings, _parse_ls, cmd_verify, main,
                               parse_config_file, write_trajectory_csv)
from affinedescent.line_search import (ArmijoSearch, ExactSearch, FixedStep,
                                       StrongWolfeSearch)
from affinedescent.objective import Objective
from affinedescent.optimizer import (IterateRecord, RunReport, RunStatus,
                                     StoppingSpec, newton_run)
from affinedescent.problems import Problem, catalog
from test_errors import NUMERICAL_OUTCOMES
from test_optimizer import (nan_gradient_problem, nan_hessian_problem,
                            non_finite_third_problem)


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


class TestConfigFile:
    def test_parse_with_comments_and_types(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# solver settings\n"
            "tol_grad = 1e-6\n"
            "max_iter=50   # inline comment\n"
            "\n"
            "seed = 7\n"
            "c2 = 0.25\n")
        cfg = parse_config_file(p)
        assert cfg == {"tol_grad": 1e-6, "max_iter": 50, "seed": 7,
                       "c2": 0.25}
        assert isinstance(cfg["max_iter"], int)
        assert isinstance(cfg["seed"], int)
        assert isinstance(cfg["tol_grad"], float)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("step_size = 0.1\n")
        with pytest.raises(ValueError):
            parse_config_file(p)

    def test_missing_separator_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("tol_grad 1e-6\n")
        with pytest.raises(ValueError):
            parse_config_file(p)

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("max_iter = 50\n")
        out = tmp_path / "t.csv"
        code, stdout, _ = run_main(
            ["run", "quad_well", "gd", "fixed:1e-4",
             "--config", str(cfgfile), "--max-iter", "3", "--out", str(out)],
            capsys)
        assert code == 2
        status, iters = stdout.split()[:2]
        assert status == "MaxIterReached"
        assert iters == "3"

    def test_spec_defaults_fill_unset_keys(self, tmp_path):
        specs = _build_specs({})
        assert _parse_ls("exact", specs) == ExactSearch()
        assert _parse_ls("armijo", specs) == ArmijoSearch()
        assert _parse_ls("wolfe", specs) == StrongWolfeSearch()
        assert specs["stop"] == StoppingSpec()
        p = tmp_path / "c2.cfg"
        p.write_text("c2 = 0.25\n")
        assert _parse_ls("wolfe", _build_specs(parse_config_file(p))) == \
            replace(StrongWolfeSearch(), c2=0.25)

    def test_each_flag_overrides_only_its_key(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("tol_grad = 1e-6\nmax_iter = 50\nsigma = 0.1\n"
                           "seed = 7\nc2 = 0.25\n")
        run = ["run", "quad_well", "yand", "exact"]
        flags = {"tol_grad": (run, "--tol-grad", "1e-3", 1e-3),
                 "max_iter": (run, "--max-iter", "3", 3),
                 "sigma": (run, "--sigma", "0.2", 0.2),
                 "seed": (["verify"], "--seed", "11", 11)}
        for key, (base, flag, text, value) in flags.items():
            base = base + ["--config", str(cfgfile)]
            from_file = _load_settings(_build_parser().parse_args(base))
            assert from_file == parse_config_file(cfgfile)
            cfg = _load_settings(
                _build_parser().parse_args(base + [flag, text]))
            assert cfg == {**from_file, key: value}, flag

    @pytest.mark.parametrize("line, message", [
        ("max_iter = 2.5",
         "max_iter: invalid literal for int() with base 10: '2.5'"),
        ("tol_grad = abc",
         "tol_grad: could not convert string to float: 'abc'"),
    ])
    def test_value_of_the_wrong_type_names_file_line_and_key(
            self, line, message, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"# settings\nc2 = 0.25\n{line}\n")
        with pytest.raises(ValueError) as exc:
            parse_config_file(cfgfile)
        assert str(exc.value) == f"{cfgfile}:3: {message}"
        code, _, err = run_main(
            ["run", "quad_well", "yand", "exact", "--config", str(cfgfile),
             "--out", str(tmp_path / "t.csv")], capsys)
        assert code == 1
        assert err == f"error: {cfgfile}:3: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["run", "quad_well", "yand", "exact"], ["table2"],
        ["invariance", "--gammas", "10"], ["verify"]])
    def test_every_command_checks_every_key(self, argv, tmp_path, capsys):
        """The config file is shared: a command checks also the keys it does
        not read, with the message every command gives."""
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("sigma = 2.0\n")
        out = tmp_path / "out.csv"
        code, _, err = run_main(
            argv + ["--config", str(cfgfile), "--out", str(out)], capsys)
        assert code == 1
        assert err == "error: sigma must be in (0, 1)\n"
        assert not out.exists()


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
        specs = _build_specs({})
        assert isinstance(_parse_ls("exact", specs), ExactSearch)
        assert isinstance(_parse_ls("armijo", specs), ArmijoSearch)
        fs = _parse_ls("fixed:0.25", specs)
        assert isinstance(fs, FixedStep) and fs.alpha == 0.25
        with pytest.raises(ValueError):
            _parse_ls("fixed:abc", specs)
        with pytest.raises(ValueError):
            _parse_ls("fixed:", specs)
        with pytest.raises(ValueError):
            _parse_ls("golden", specs)
        with pytest.raises(ValueError):
            _parse_ls("stop", specs)


class TestRunCommand:
    def test_converged_run_writes_trajectory(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code, stdout, _ = run_main(
            ["run", "quad_well", "yand", "exact", "--out", str(out)], capsys)
        assert code == 0
        status, iters, f_final, gnorm = stdout.split()
        assert status == "Converged"
        assert float(gnorm) <= 1e-4
        lines = out.read_text().splitlines()
        assert lines[0] == "k,x1,x2,f,gnorm,alpha,case,T,cos_theta"
        assert len(lines) == int(iters) + 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[5] == "0" and first[6] == "-"
        assert float(lines[-1].split(",")[4]) <= 1e-4

    def test_all_methods_accepted(self, tmp_path, capsys):
        for method in ("yand", "gd", "newton", "dnewton"):
            out = tmp_path / f"{method}.csv"
            code, stdout, _ = run_main(
                ["run", "quad_well", method, "exact", "--out", str(out)],
                capsys)
            assert code == 0, method
            assert stdout.split()[0] == "Converged"

    @pytest.mark.parametrize("token, spec, iters", [
        ("exact", ExactSearch(), 12), ("armijo", ArmijoSearch(), 21),
        ("wolfe", StrongWolfeSearch(), 22), ("fixed:1", FixedStep(1.0), 5)])
    def test_newton_takes_the_line_search(self, token, spec, iters, tmp_path,
                                          capsys):
        """`newton` runs the given search: the CLI's trajectory is the one
        newton_run writes with that spec, and `fixed:1` is classical Newton,
        which takes 5 unit steps on Rosenbrock."""
        out, expected = tmp_path / "cli.csv", tmp_path / "api.csv"
        code, stdout, _ = run_main(
            ["run", "rosenbrock", "newton", token, "--out", str(out)], capsys)
        report = newton_run(catalog("rosenbrock"), ls=spec)
        write_trajectory_csv(report, expected)
        assert out.read_bytes() == expected.read_bytes()
        assert stdout.split()[:2] == [report.status.value, str(report.iters)]
        assert code == 0
        assert report.iters == iters

    def test_run_output_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run_main(
                ["run", "rosenbrock", "yand", "wolfe", "--out", str(out)],
                capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

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

    def test_bad_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "quad_well", "yand", "exact", "--max-iter", "ten"])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


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


# The flags of all subcommands, each with a value and what it parses to,
# and the argv of each subcommand with the flags it reads.
FLAGS = {
    "--out": ("x.csv", "out", "x.csv"),
    "--config": ("c.cfg", "config", "c.cfg"),
    "--tol-grad": ("1e-3", "tol_grad", 1e-3),
    "--max-iter": ("3", "max_iter", 3),
    "--sigma": ("0.2", "sigma", 0.2),
    "--seed": ("7", "seed", 7),
}
COMMANDS = {
    "run": (["run", "quad_well", "yand", "exact"],
            {"--out", "--config", "--tol-grad", "--max-iter", "--sigma"}),
    "table2": (["table2"],
               {"--out", "--config", "--tol-grad", "--max-iter", "--sigma"}),
    "examples": (["examples"], {"--out"}),
    "invariance": (["invariance"],
                   {"--out", "--config", "--tol-grad", "--max-iter"}),
    "verify": (["verify"], {"--out", "--config", "--seed"}),
}


class TestSubcommandFlags:
    """Each subcommand takes only the flags it reads: 18 of the 30 pairs."""

    def test_parser_has_eighteen_flag_slots(self, capsys):
        slots = 0
        for command, (_, reads) in COMMANDS.items():
            with pytest.raises(SystemExit):
                main([command, "--help"])
            usage = capsys.readouterr().out.split("\n\n")[0]
            flags = set(re.findall(r"\[(--[a-z-]+)", usage)) - {"--gammas"}
            assert flags == reads, command
            slots += len(flags)
        assert slots == 18

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in COMMANDS for flag in FLAGS])
    def test_flag_parses_or_is_rejected(self, command, flag, capsys):
        text, dest, value = FLAGS[flag]
        base, reads = COMMANDS[command]
        argv = base + [flag, text]
        if flag in reads:
            assert getattr(_build_parser().parse_args(argv), dest) == value
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err == f"error: unrecognized arguments: {flag} {text}\n"


class TestSharedParser:
    CALLS = [
        ["run", "rosenbrock", "yand", "wolfe", "--out", "run1.csv"],
        ["run", "quad_well", "yand", "exact", "--max-iter", "ten"],
        ["table2", "--out", "table2.csv"],
        ["run", "rosenbrock", "yand", "armijo", "--max-iter", "3",
         "--out", "run2.csv"],
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
    def test_table_contents(self, tmp_path, capsys):
        out = tmp_path / "table2.csv"
        code, _, _ = run_main(["table2", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("gamma,kappaB,kappaH,yand_exact,yand_wolfe,"
                            "yand_armijo,gd_exact,gd_fixed,newton")
        assert len(lines) == 6
        rows = [line.split(",") for line in lines[1:]]
        gammas = [float(r[0]) for r in rows]
        assert gammas == [1.0, 10.0, 1e2, 1e3, 1e4]
        for r in rows:
            gamma = float(r[0])
            assert float(r[1]) == gamma
            assert float(r[2]) == gamma**2
            assert r[3] == r[4] == r[5] == "1"     # scale-invariant columns
            assert r[8] == "1"
        assert rows[0][7] == "1"
        for r in rows[1:]:
            assert r[7].endswith("*")              # fixed-step GD stalls
        assert all(not r[6].endswith("*") and int(r[6]) <= 10 for r in rows)

    def test_table_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, err = run_main(["table2", "--out", str(out)], capsys)
            assert code == 0 and err == ""
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == (RESULTS / "table2.csv").read_bytes()

    def test_failed_run_exits_three_and_keeps_every_row(self, tmp_path,
                                                         capsys):
        """At tol_grad 1e-300 the exact search of gradient descent fails
        at gamma 10 and 100, and at gamma 1e4 the Wolfe and Armijo searches
        of the affine normal fail at a gradient norm of 6.5e-165, below
        where its squares underflow; the table is the same, the exit code
        3."""
        out = tmp_path / "table2.csv"
        code, _, err = run_main(
            ["table2", "--tol-grad", "1e-300", "--out", str(out)], capsys)
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


class TestExamplesCommand:
    def test_all_checks_pass(self, tmp_path, capsys):
        out = tmp_path / "examples.csv"
        code, stdout, _ = run_main(["examples", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check,computed,expected,tol,pass"
        assert len(lines) >= 11
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[-1] == "pass"
            assert abs(float(fields[1]) - float(fields[2])) <= float(fields[3])
        assert "pass" in stdout


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
        base ones by about 1: the row is written, and stderr names gamma."""
        out = tmp_path / "inv.csv"
        code, _, err = run_main(
            ["invariance", "--gammas", "10,1e-8", "--out", str(out)], capsys)
        assert code == 4
        assert err == "gamma 1e-08: max_deviation > 1e-6\n"
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["10", "1e-08"]
        assert float(rows[0][1]) <= 1e-6 < float(rows[1][1])
        assert rows[1][2:] == ["1", "3"]

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

    def test_bad_gammas_exits_one(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["invariance", "--gammas", "10,abc",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1

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
    def test_catalog_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code, _, _ = run_main(["verify", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "problem,grad_err,hess_err,third_err,pass"
        assert len(lines) == 13
        assert all(line.endswith(",pass") for line in lines[1:])

    @staticmethod
    def verify_only(monkeypatch, problem):
        """cmd_verify checks the one given problem in place of the catalog."""
        monkeypatch.setattr(cli, "CATALOG_NAMES", (problem.name,))
        monkeypatch.setattr(cli, "catalog", lambda name: problem)

    def test_inconsistent_gradient_detected(self, tmp_path, capsys,
                                            monkeypatch):
        good = catalog("quad_well").objective

        def bad_grad(x):
            g = np.array(good.gradient(x), dtype=float)
            g[0] += 1e-3
            return g

        bad = Problem(
            name="quad_well_bad_grad",
            objective=Objective(good.dim, good.value, bad_grad,
                                good.hessian, good.third_directional,
                                good.in_domain),
            x0=catalog("quad_well").x0, x_star=None, f_star=None, notes="")
        self.verify_only(monkeypatch, bad)
        out = tmp_path / "verify.csv"
        code = cmd_verify(42, out)
        capsys.readouterr()
        assert code == 4
        assert out.read_text().splitlines()[1].endswith(",FAIL")

    def test_nan_third_derivative_fails(self, tmp_path, capsys, monkeypatch):
        problem = catalog("poly6")
        bad = replace(problem, objective=replace(
            problem.objective,
            third_directional=lambda x, u, v, w: float("nan")))
        self.verify_only(monkeypatch, bad)
        out = tmp_path / "verify.csv"
        code = cmd_verify(42, out)
        capsys.readouterr()
        assert code == 4
        assert out.read_text().splitlines()[1].endswith(",inf,FAIL")

    @pytest.mark.parametrize("argv, cfg_text", [
        (["verify", "--seed", "-1"], ""),
        (["verify"], "seed = -1\n"),
        (["verify", "--seed", "-7"], "seed = 3\n")])
    def test_negative_seed_names_the_key(self, argv, cfg_text, tmp_path,
                                         capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "verify.csv"
        code, _, err = run_main(
            argv + ["--config", str(cfg), "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error: seed must be a non-negative integer")
        assert not out.exists()


class TestNonFiniteSettings:
    """A zero, negative, NaN or infinite step, tolerance or scaling is a
    usage error: exit 1 before any oracle call. Every oracle of the
    stand-in problem raises, so a regression fails here instead of running
    (a NaN alpha_max used to halve the exact search's bound forever)."""

    @pytest.fixture
    def no_oracle(self, monkeypatch):
        p = catalog("quad_well")

        def fail(*args):
            raise AssertionError("oracle called")

        stub = replace(p, objective=replace(
            p.objective, value=fail, gradient=fail, hessian=fail,
            third_directional=fail))
        monkeypatch.setattr(cli, "catalog", lambda name: stub)
        monkeypatch.setattr(cli, "make_affine_scaled",
                            lambda gamma: (stub, None))

    @pytest.mark.parametrize("argv, cfg_text", [
        (["run", "quad_well", "yand", "exact"], "alpha_max = nan\n"),
        (["run", "quad_well", "yand", "exact"], "alpha_max = inf\n"),
        (["run", "quad_well", "yand", "armijo"], "alpha0 = inf\n"),
        (["run", "quad_well", "yand", "wolfe"], "alpha0 = nan\n"),
        (["run", "quad_well", "gd", "fixed:nan"], ""),
        (["run", "quad_well", "gd", "fixed:inf"], ""),
        (["run", "quad_well", "yand", "exact", "--tol-grad", "nan"], ""),
        (["run", "quad_well", "yand", "exact", "--tol-grad", "inf"], ""),
        (["table2"], "alpha_max = nan\n"),
        (["invariance", "--gammas", "10,nan"], ""),
        (["invariance", "--gammas", "inf"], ""),
        (["invariance", "--gammas", "10"], "alpha_max = nan\n"),
        (["run", "quad_well", "gd", "fixed:0"], ""),
        (["run", "quad_well", "yand", "exact", "--tol-grad", "-1"], ""),
        (["run", "quad_well", "yand", "wolfe"], "alpha_max = -1\n"),
        (["invariance", "--gammas", "10,0"], ""),
        # every line search is built from the config, so a bad alpha0 is
        # an error also when the exact search, which has none, runs
        (["run", "quad_well", "yand", "exact"], "alpha0 = inf\n"),
    ])
    def test_exits_one_with_message(self, argv, cfg_text, tmp_path, capsys,
                                    no_oracle):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(cfg_text)
        out = tmp_path / "out.csv"
        code, _, err = run_main(
            argv + ["--config", str(cfgfile), "--out", str(out)], capsys)
        assert code == 1
        assert "must be finite and positive" in err
        assert not out.exists()


class TestOutputWriter:
    """Every subcommand writes through cli._write_lines, which overwrites in
    place and truncates only regular files."""

    @pytest.mark.parametrize("argv", [
        ["run", "quad_well", "yand", "exact"],
        ["table2"],
        ["examples"],
        ["invariance", "--gammas", "10"],
        ["verify"],
    ])
    def test_dev_null_target(self, argv, capsys):
        assert run_main(argv + ["--out", os.devnull], capsys)[0] == 0

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
