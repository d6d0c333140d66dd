import errno
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

from affinedescent import cli
from affinedescent.cli import (Config, _build_parser, _fmt, _load_config,
                               _parse_ls, _spec, cmd_verify, main,
                               parse_config_file)
from affinedescent.line_search import (ArmijoSearch, ExactSearch, FixedStep,
                                       StrongWolfeSearch)
from affinedescent.objective import Objective
from affinedescent.optimizer import StoppingSpec
from affinedescent.problems import Problem, catalog
from test_optimizer import (nan_gradient_problem, nan_hessian_problem,
                            non_finite_third_problem)


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
        assert cfg.tol_grad == 1e-6
        assert cfg.max_iter == 50 and isinstance(cfg.max_iter, int)
        assert cfg.seed == 7 and isinstance(cfg.seed, int)
        assert cfg.c2 == 0.25
        assert cfg.alpha0 == Config().alpha0

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
        cfg = Config()
        assert _parse_ls("exact", cfg) == ExactSearch()
        assert _parse_ls("armijo", cfg) == ArmijoSearch()
        assert _parse_ls("wolfe", cfg) == StrongWolfeSearch()
        assert _spec(StoppingSpec, cfg) == StoppingSpec()
        p = tmp_path / "c2.cfg"
        p.write_text("c2 = 0.25\n")
        assert _parse_ls("wolfe", parse_config_file(p)) == replace(
            StrongWolfeSearch(), c2=0.25)

    def test_each_flag_overrides_only_its_key(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("tol_grad = 1e-6\nmax_iter = 50\nsigma = 0.1\n"
                           "seed = 7\nc2 = 0.25\n")
        flags = {"tol_grad": ("--tol-grad", "1e-3", 1e-3),
                 "max_iter": ("--max-iter", "3", 3),
                 "sigma": ("--sigma", "0.2", 0.2),
                 "seed": ("--seed", "11", 11)}
        base = ["run", "quad_well", "yand", "exact", "--config", str(cfgfile)]
        from_file = _load_config(_build_parser().parse_args(base))
        assert from_file == parse_config_file(cfgfile)
        for key, (flag, text, value) in flags.items():
            cfg = _load_config(_build_parser().parse_args(base + [flag, text]))
            assert cfg == replace(from_file, **{key: value}), flag


class TestFormatting:
    def test_fmt_is_full_precision(self):
        assert _fmt(0.1) == "0.10000000000000001"
        assert _fmt(1.0) == "1"
        assert _fmt(2) == "2"
        assert float(_fmt(np.pi)) == np.pi

    def test_parse_ls_tokens(self):
        cfg = Config()
        assert isinstance(_parse_ls("exact", cfg), ExactSearch)
        assert isinstance(_parse_ls("armijo", cfg), ArmijoSearch)
        fs = _parse_ls("fixed:0.25", cfg)
        assert isinstance(fs, FixedStep) and fs.alpha == 0.25
        with pytest.raises(ValueError):
            _parse_ls("fixed:abc", cfg)
        with pytest.raises(ValueError):
            _parse_ls("golden", cfg)


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

    def test_run_output_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run_main(
                ["run", "rosenbrock", "yand", "wolfe", "--out", str(out)],
                capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_problem_exits_one(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["run", "nope", "yand", "exact",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1

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

    def test_bad_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "quad_well", "yand", "exact", "--max-iter", "ten"])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


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
            assert run_main(["table2", "--out", str(out)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()


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
        code, _, _ = run_main(
            ["invariance", "--gammas", "10,100", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma,max_deviation,iters_scaled,iters_base"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [10.0, 100.0]
        for r in rows:
            assert float(r[1]) <= 1e-6
            assert r[2] == r[3]

    def test_bad_gammas_exits_one(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["invariance", "--gammas", "10,abc",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1


class TestVerifyCommand:
    def test_catalog_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code, _, _ = run_main(["verify", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "problem,grad_err,hess_err,third_err,pass"
        assert len(lines) == 13
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_inconsistent_gradient_detected(self, tmp_path, capsys):
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
        out = tmp_path / "verify.csv"
        code = cmd_verify(Config(), out, problems=[bad])
        capsys.readouterr()
        assert code == 4
        assert out.read_text().splitlines()[1].endswith(",FAIL")

    def test_nan_third_derivative_fails(self, tmp_path, capsys):
        problem = catalog("poly6")
        bad = replace(problem, objective=replace(
            problem.objective,
            third_directional=lambda x, u, v, w: float("nan")))
        out = tmp_path / "verify.csv"
        code = cmd_verify(Config(), out, problems=[bad])
        capsys.readouterr()
        assert code == 4
        assert out.read_text().splitlines()[1].endswith(",inf,FAIL")


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
