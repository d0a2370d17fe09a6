import contextlib
import csv
import io
import math
import os
import re
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedfosgd import cli, harness
from sedfosgd.harness import (ConfigError, ExperimentConfig, _ArDriver,
                              _QuadraticDriver, _shuffled_indices, csv_bytes,
                              derive_seed, load_config, parse_config_text,
                              parse_overrides, rate_fit, run, running_min,
                              seed_rate_fit, seed_sweep)
from sedfosgd.mathkit import NumericalError
from sedfosgd.noise import RngStream, gaussian
from sedfosgd.optim import DivergenceError
from sedfosgd.problems import GenerationError, ar_generate, quadratic_loss_grad

AR_CFG = ExperimentConfig(problem="ar", optimizer="2sedfosgd", iterations=100,
                          seed=1, mu0=0.1)
# the first step's parameters overflow: 1 - 1e308 * 10 is -inf
PARAM_BLOWUP = ExperimentConfig(problem="quadratic", optimizer="sgd", iterations=5,
                                quad_diag=(10.0,), quad_noise_std=0.0, mu0=1e308)


def _failing_solver(m):
    raise np.linalg.LinAlgError("did not converge")


def _break_eigensolvers(monkeypatch):
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, _failing_solver)


class TestConfigParsing:
    def test_key_value_lines_with_comments(self):
        raw = parse_config_text(
            "# an experiment\n"
            "problem = ar\n"
            "optimizer = sgd   # baseline\n"
            "iterations = 50\n"
            "mu0 = 0.25\n"
            "ar_coeffs = 1.5,-0.7\n"
            "grad_clip = none\n"
            "normalize_fisher = false\n")
        assert raw["problem"] == "ar"
        assert raw["mu0"] == 0.25
        assert raw["ar_coeffs"] == (1.5, -0.7)
        assert raw["grad_clip"] is None
        assert raw["normalize_fisher"] is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("problme = ar\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="ar", optimizer="sgd", iterations=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="ar", optimizer="sgd", iterations=10,
                             zeta=0.2)
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="nope", optimizer="sgd", iterations=10)
        with pytest.raises(ConfigError, match="ar_coeffs must be non-empty"):
            ExperimentConfig(problem="ar", optimizer="sgd", iterations=10,
                             ar_coeffs=())

    def test_overrides(self):
        out = parse_overrides(["mu0=0.5", "seed=9"])
        assert out == {"mu0": 0.5, "seed": 9}
        with pytest.raises(ConfigError):
            parse_overrides(["nosuchkey=1"])

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("problem = ar\noptimizer = fosgd\niterations = 20\n")
        cfg = load_config(str(path), {"seed": 3})
        assert cfg.optimizer == "fosgd"
        assert cfg.seed == 3

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_key_round_trips_as_text(self, data):
        assert set(_FIELD_VALUES) == set(_FIELDS)
        values = {name: data.draw(_FIELD_VALUES[name], label=name)
                  for name in _FIELD_VALUES}
        if values["problem"] == "mlp":
            values["mlp_images"] = values["mlp_images"] or "images.idx"
            values["mlp_labels"] = values["mlp_labels"] or "labels.idx"
        expected = ExperimentConfig(**values)
        lines = [f"{name} = {data.draw(_as_text(value))}"
                 for name, value in values.items() if value is not None
                 or _FIELDS[name].type is float]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "exp.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            parsed = [load_config(path)]
        parsed.append(ExperimentConfig(**parse_overrides(
            [line.replace(" = ", "=", 1) for line in lines])))
        for cfg in parsed:
            for name, value in values.items():
                got = getattr(cfg, name)
                assert type(got) is type(value) and got == value, (name, got, value)
            assert cfg == expected


class TestRun:
    def test_trace_schema_is_stable(self):
        result = run(AR_CFG)
        assert len(result.rows) == 100
        arity = len(result.header)
        assert all(len(row) == arity for row in result.rows)
        assert [row[0] for row in result.rows] == [float(t) for t in range(1, 101)]

    def test_rows_finite(self):
        result = run(AR_CFG)
        assert np.all(np.isfinite(np.array(result.rows)))

    def test_deterministic_csv_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(replace(AR_CFG, out=p1))
        run(replace(AR_CFG, out=p2))
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
        assert os.path.exists(p1 + ".summary")

    def test_csv_bytes_matches_file(self, tmp_path):
        path = str(tmp_path / "t.csv")
        result = run(replace(AR_CFG, out=path))
        with open(path, "rb") as fh:
            assert fh.read() == csv_bytes(result)

    def test_beta_zero_equals_fixed_exponent_csv(self):
        a = run(replace(AR_CFG, beta=0.0))
        b = run(replace(AR_CFG, optimizer="fosgd"))
        assert csv_bytes(a) == csv_bytes(b)

    def test_divergence_reports_iteration(self):
        cfg = ExperimentConfig(problem="quadratic", optimizer="sgd",
                               iterations=400, seed=1, mu0=1e150,
                               quad_noise_std=1.0)
        with pytest.raises(DivergenceError) as err:
            run(cfg)
        assert err.value.step_index is not None

    def test_aborted_run_leaves_no_summary(self, tmp_path):
        path = str(tmp_path / "diverge.csv")
        cfg = ExperimentConfig(problem="quadratic", optimizer="sgd",
                               iterations=400, seed=1, mu0=1e150,
                               quad_noise_std=1.0, out=path)
        with pytest.raises(DivergenceError):
            run(cfg)
        assert not os.path.exists(path + ".summary")

    def test_trace_closed_on_any_error(self, tmp_path, monkeypatch):
        # the first step needs no spectral solve, so its row is written
        # before the failing eigensolve; the file must be flushed and closed
        _break_eigensolvers(monkeypatch)
        path = str(tmp_path / "t.csv")
        # holding the traceback keeps the run's frame, and so its writer, alive
        with pytest.raises(NumericalError) as info:
            run(replace(AR_CFG, out=path))
        with open(path, "rb") as fh:
            assert fh.read().count(b"\n") == 2
        assert not os.path.exists(path + ".summary")

    def test_mlp_run(self, synthetic_idx):
        ip, lp = synthetic_idx
        cfg = ExperimentConfig(problem="mlp", optimizer="2sedfosgd",
                               iterations=10, seed=2, mu0=0.5,
                               mlp_images=ip, mlp_labels=lp, mlp_limit=200)
        result = run(cfg)
        assert "holdout_accuracy" in result.summary
        assert "batch_accuracy" in result.header


class TestStreamConsumers:
    """Block draws in the drivers against test-local scalar loops."""

    @pytest.mark.parametrize("n", [0, 1, 2, 50, 1000])
    def test_shuffled_indices_equal_scalar_fisher_yates(self, n):
        ref = RngStream(2**63 + 5)
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = ref.next_u64() % (i + 1)
            order[i], order[j] = order[j], order[i]
        rng = RngStream(2**63 + 5)
        assert _shuffled_indices(n, rng).tolist() == order
        assert rng.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("dim,steps", [(3, 1400), (1000, 5), (4096, 3)])
    def test_quadratic_noise_equals_scalar_draws(self, dim, steps):
        # 682, 2 and 1 noise rows per block: the steps cross block boundaries
        diag = tuple(float(k % 7) for k in range(dim))
        cfg = ExperimentConfig(problem="quadratic", optimizer="sgd",
                               iterations=steps, quad_diag=diag,
                               quad_noise_std=2.5)
        driver = _QuadraticDriver(cfg, [RngStream(9)])
        ref = RngStream(9)
        theta = np.linspace(-1.0, 1.0, dim)
        for t in range(1, steps + 1):
            (f,), ((g,),) = driver.loss_grad([theta[None]], t)
            f_ref, g_ref = quadratic_loss_grad(theta, driver.a_mat, driver.b)
            noise = np.array([gaussian(ref, 0.0, 2.5) for _ in range(dim)])
            assert f == f_ref
            assert g.tobytes() == (g_ref + noise).tobytes()

    @pytest.mark.parametrize("coeffs,std", [((1.5, -0.7), math.sqrt(0.5)),
                                            ((0.5, -0.2, 0.1), 3.0), ((0.9,), 0.0)])
    def test_ar_noise_equals_scalar_draws(self, coeffs, std):
        cfg = ExperimentConfig(problem="ar", optimizer="sgd", iterations=700,
                               ar_coeffs=coeffs, noise_std=std)
        rng, ref = RngStream(2**64 - 1), RngStream(2**64 - 1)
        driver = _ArDriver(cfg, [rng])
        noise = [gaussian(ref, 0.0, std) for _ in range(700 + len(coeffs))]
        phi, y = ar_generate(coeffs, noise)
        assert driver.phi[0].tobytes() == phi.tobytes()
        assert driver.y[0].tobytes() == y.tobytes()
        assert rng.next_u64() == ref.next_u64()


class TestRateFit:
    def test_exact_inverse_sqrt(self):
        t = np.arange(1, 501)
        fit = rate_fit(3.0 / np.sqrt(t))
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_constant_series(self):
        fit = rate_fit(np.full(100, 2.5))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError):
            rate_fit(np.ones(10))
        with pytest.raises(ValueError):
            rate_fit(np.concatenate([np.ones(60), [-1.0]]))

    def test_running_min_non_increasing(self):
        rng = np.random.default_rng(0)
        series = running_min(rng.uniform(1, 2, size=200))
        assert np.all(np.diff(series) <= 0)


class TestSeedSweep:
    def test_single_seed_matches_run(self):
        sweep = seed_sweep(AR_CFG, 1)
        assert sweep.seeds == [AR_CFG.seed]
        assert sweep.summaries[0] == run(AR_CFG).summary

    def test_repeatable(self):
        s1 = seed_sweep(AR_CFG, 4)
        s2 = seed_sweep(AR_CFG, 4)
        assert s1.aggregate == s2.aggregate

    def test_failures_counted_and_survivors_kept(self):
        cfg = ExperimentConfig(problem="quadratic", optimizer="sgd",
                               iterations=400, seed=1, mu0=1e150,
                               quad_noise_std=1.0)
        sweep = seed_sweep(cfg, 3)
        assert sweep.failures == 3
        assert sweep.summaries == []
        assert [f.seed for f in sweep.failed] == sweep.seeds
        for failure in sweep.failed:
            assert failure.kind == "step" and failure.index >= 1
            assert f"at step {failure.index}" in failure.message
        # a parameter blow-up reports the 1-based step that produced it
        sweep = seed_sweep(PARAM_BLOWUP, 3)
        assert [f.index for f in sweep.failed] == [1, 1, 1]
        assert all("step=1 non-finite parameters" in str(f) for f in sweep.failed)

    def test_generation_failure_is_one_seed_failure(self):
        # a blown-up AR simulation fails its seed instead of the whole sweep
        ok = replace(AR_CFG, optimizer="sgd", iterations=50)
        blown = ExperimentConfig(problem="ar", optimizer="sgd", iterations=6000,
                                 ar_coeffs=(1.2,))
        assert seed_sweep(ok, 2).failures == 0
        sweep = seed_sweep(blown, 3)
        assert sweep.failures == 3 and sweep.summaries == []
        assert [f.seed for f in sweep.failed] == sweep.seeds
        for failure in sweep.failed:
            assert failure.kind == "sample"
            assert failure.message == f"non-finite output at index {failure.index}"

    def test_seed_rate_fit_single_seed_matches_run(self):
        cfg = ExperimentConfig(problem="quadratic", optimizer="sgd",
                               iterations=100, seed=3, mu0=0.3)
        result = run(cfg)
        gaps = [row[result.header.index("gap")] for row in result.rows]
        assert seed_rate_fit(cfg, 1) == rate_fit(running_min(gaps))
        with pytest.raises(ValueError):
            seed_rate_fit(cfg, 0)

    def test_derive_seed_identity_at_zero(self):
        assert derive_seed(42, 0) == 42
        assert derive_seed(42, 1) != 42


class TestCli:
    def _write_cfg(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path,
                              "problem = ar\noptimizer = sgd\niterations = 30\n")
        out = str(tmp_path / "trace.csv")
        code = cli.main(["run", "--config", cfg, "--seed", "5", "--out", out])
        assert code == 0
        assert os.path.exists(out)
        assert "final_loss" in capsys.readouterr().out

    def test_override_changes_result(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path,
                              "problem = ar\noptimizer = sgd\niterations = 30\n")
        assert cli.main(["run", "--config", cfg, "--override", "mu0=0.2"]) == 0

    def test_bad_config_exit_code(self, tmp_path):
        cfg = self._write_cfg(tmp_path, "problem = ar\n")
        assert cli.main(["run", "--config", cfg]) == 1

    def test_divergence_exit_code(self, tmp_path):
        cfg = self._write_cfg(
            tmp_path,
            "problem = quadratic\noptimizer = sgd\niterations = 400\n"
            "mu0 = 1e150\n")
        assert cli.main(["run", "--config", cfg]) == 2

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path,
                              "problem = ar\noptimizer = fosgd\niterations = 40\n"
                              "mu0 = 0.1\n")
        assert cli.main(["sweep", "--config", cfg, "--seeds", "3"]) == 0
        assert "median" in capsys.readouterr().out

    def test_sweep_reports_each_failed_seed(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path,
            "problem = ar\noptimizer = sgd\niterations = 6000\nar_coeffs = 1.2\n")
        assert cli.main(["sweep", "--config", cfg, "--seeds", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "seeds = 3  failures = 3"
        failed = [line for line in lines if line.startswith("failed: ")]
        assert len(failed) == 3
        assert failed[0].startswith("failed: seed=0 sample=")

    def test_ratefit_subcommand(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path,
            "problem = quadratic\noptimizer = 2sedfosgd\niterations = 200\n"
            "mu0 = 0.3\nquad_noise_std = 5\ngrad_clip = 10\n")
        assert cli.main(["ratefit", "--config", cfg, "--seeds", "2"]) == 0
        fit = dict(line.split(" = ", 1)
                   for line in capsys.readouterr().out.splitlines())
        assert "slope" in fit
        # the fit covers t in [T/10, T] of the 200-step series
        assert fit["fit_window"] == "20 200"
        assert fit["fit_points"] == "181"

    @pytest.mark.parametrize("overrides", [
        ["alpha0=1.5"],
        ["alpha0=0"],
        ["mlp_batch=0"],
        ["mlp_batch=-3"],
        ["mlp_limit=2", "mlp_holdout=0.9"],
        ["mlp_holdout=0"],
        ["fixed_alpha=0.5"],  # not a key: fosgd's exponent is alpha0
    ])
    def test_invalid_config_exits_before_trace(self, tmp_path, capsys,
                                               synthetic_idx, overrides):
        ip, lp = synthetic_idx
        cfg = self._write_cfg(
            tmp_path,
            "problem = mlp\noptimizer = fosgd\niterations = 5\n"
            f"mlp_images = {ip}\nmlp_labels = {lp}\nmlp_limit = 50\n")
        out = str(tmp_path / "trace.csv")
        argv = ["run", "--config", cfg, "--out", out]
        for pair in overrides:
            argv += ["--override", pair]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("problem,overrides", [
        ("quadratic", ["quad_noise_std=-1"]),
        ("quadratic", ["quad_noise_std=nan"]),
        ("quadratic", ["quad_diag=1,nan"]),
        ("quadratic", ["mu0=inf"]),
        ("ar", ["ar_coeffs=nan,0.1"]),
        ("ar", ["noise=stable", "stable_location=inf"]),
        ("ar", ["noise_std=-0.5"]),
        ("ar", ["grad_clip=nan"]),
        ("ar", ["mlp_limit=-5"]),
        ("ar", ["fisher_decay=0"]),
        ("quadratic", ["quad_diag=1,-2"]),
        ("ar", ["mlp_hidden=0"]),
        ("ar", ["stable_tail=3"]),
        ("ar", ["stable_skew=1.5"]),
        ("ar", ["stable_scale=0"]),
    ])
    def test_invalid_value_exits_before_trace(self, tmp_path, capsys, problem,
                                              overrides):
        # non-finite values and out-of-range ones are config errors, not
        # divergences, name the key and leave no trace file behind
        cfg = self._write_cfg(
            tmp_path, f"problem = {problem}\noptimizer = 2sedfosgd\niterations = 5\n")
        out = str(tmp_path / "trace.csv")
        argv = ["run", "--config", cfg, "--out", out]
        for pair in overrides:
            argv += ["--override", pair]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert overrides[-1].split("=")[0] in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["sweep", "ratefit"])
    def test_config_error_stops_before_first_seed(self, tmp_path, capsys,
                                                  monkeypatch, command):
        def no_run(config):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "run", no_run)
        cfg = self._write_cfg(
            tmp_path, "problem = quadratic\noptimizer = sgd\niterations = 5\n")
        bads = ["quad_diag=1,-2", "fisher_decay=2", "mlp_limit=-1", "problem=mlp"]
        if command == "ratefit":
            # a rate fit needs 50 points; it fails before the first seed runs
            bads.append("iterations=49")
        for bad in bads:
            argv = [command, "--config", cfg, "--seeds", "3", "--override", bad]
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and bad.split("=")[0] in err

    @pytest.mark.parametrize("case", ["missing_config", "out_is_a_directory",
                                      "missing_mlp_images"])
    def test_file_error_exits_one(self, tmp_path, capsys, synthetic_idx, case):
        _, labels = synthetic_idx
        cfg = self._write_cfg(
            tmp_path, "problem = ar\noptimizer = sgd\niterations = 5\n")
        out = str(tmp_path / "trace.csv")
        if case == "missing_config":
            cfg = str(tmp_path / "missing.cfg")
        elif case == "out_is_a_directory":
            os.mkdir(out)
        else:
            cfg = self._write_cfg(
                tmp_path, "problem = mlp\noptimizer = sgd\niterations = 5\n"
                f"mlp_images = {tmp_path / 'missing.idx'}\nmlp_labels = {labels}\n")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not os.path.isfile(out) and not os.path.exists(out + ".summary")

    def test_clip_of_a_gradient_whose_squares_overflow(self, tmp_path, capsys):
        # |g|^2 overflows although g is finite; the clipped step is still
        # mu0 * grad_clip long instead of zero
        cfg = self._write_cfg(
            tmp_path, "problem = quadratic\noptimizer = sgd\niterations = 20\n"
            "quad_diag = 1e200,1\ngrad_clip = 10\n")
        out = str(tmp_path / "trace.csv")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["delta_norm_l0"]) == pytest.approx(0.1, rel=1e-12)
        assert float(rows[-1]["loss"]) < float(rows[0]["loss"])

    def test_huge_finite_step_has_a_finite_delta_norm(self, tmp_path, capsys):
        # the steps grow past 1e154 before the run diverges at step 10
        cfg = self._write_cfg(
            tmp_path, "problem = quadratic\noptimizer = fosgd\nalpha0 = 0.05\n"
            "mu0 = 0.28\niterations = 16\n")
        out = str(tmp_path / "trace.csv")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 2
        with open(out, encoding="utf-8") as fh:
            deltas = [float(row["delta_norm_l0"]) for row in csv.DictReader(fh)]
        assert len(deltas) == 9 and max(deltas) > 1e154
        assert all(math.isfinite(d) for d in deltas)

    def test_parameter_blowup_reports_its_step(self, tmp_path, capsys):
        # the first step's parameters overflow; the trace holds no row
        cfg = self._write_cfg(
            tmp_path, "problem = quadratic\noptimizer = sgd\nquad_diag = 10\n"
            "quad_noise_std = 0\nmu0 = 1e308\niterations = 5\n")
        out = str(tmp_path / "trace.csv")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "diverged: non-finite parameters in layer 0 at step 1\n"
        with open(out, encoding="utf-8") as fh:
            assert len(fh.read().splitlines()) == 1
        assert not os.path.exists(out + ".summary")

    def test_ratefit_divergence_names_its_seed(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path, "problem = quadratic\noptimizer = fosgd\nalpha0 = 0.05\n"
            "mu0 = 0.28\niterations = 60\n")
        assert cli.main(["ratefit", "--config", cfg, "--seeds", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("diverged: ") and err.count("\n") == 1
        assert err == "diverged: seed=0 non-finite loss or gradient at step 10\n"

    @pytest.mark.parametrize("seed,index", [(1, 15), (2, 22), (3, 44)])
    def test_stable_draw_beyond_float_range_diverges(self, tmp_path, capsys,
                                                      seed, index):
        # at stable_tail = 0.005 some draws lie beyond the float range
        cfg = self._write_cfg(
            tmp_path, "problem = ar\noptimizer = sgd\niterations = 50\n"
            "noise = stable\nstable_tail = 0.005\n")
        assert cli.main(["run", "--config", cfg, "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert err == f"diverged: non-finite output at index {index}\n"

    def test_generation_blowup_exit_code(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path,
            "problem = ar\noptimizer = sgd\niterations = 6000\nar_coeffs = 1.2\n")
        out = str(tmp_path / "trace.csv")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("diverged: ") and err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("args", [
        [], ["run"], ["run", "--config"], ["run", "--config", "CFG", "--seed", "abc"],
        ["sweep", "--config", "CFG", "--seeds", "x"], ["bogus"],
        ["run", "--config", "CFG", "--bogus"],
        ["sweep", "--config", "CFG", "--out", "OUT"],  # --out is a run option
        ["ratefit", "--config", "CFG", "--out", "OUT"],
    ])
    def test_usage_error_exits_one(self, tmp_path, capsys, args):
        cfg = self._write_cfg(
            tmp_path, "problem = quadratic\noptimizer = sgd\niterations = 60\n")
        out = str(tmp_path / "trace.csv")
        argv = [{"CFG": cfg, "OUT": out}.get(a, a) for a in args]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("args", [["--help"], ["run", "--help"]])
    def test_help_exits_zero(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 0
        assert "usage: sedfosgd" in capsys.readouterr().out

    def test_seed_flag_wins_over_override(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path,
                              "problem = ar\noptimizer = sgd\niterations = 20\n")
        traces = []
        for extra in ([], ["--override", "seed=9"]):
            out = str(tmp_path / f"trace{len(traces)}.csv")
            argv = ["run", "--config", cfg, "--seed", "5", "--out", out] + extra
            assert cli.main(argv) == 0
            with open(out, "rb") as fh:
                traces.append(fh.read())
        assert traces[0] == traces[1]
        assert traces[0] == csv_bytes(run(load_config(cfg, {"seed": 5})))

    def test_huge_finite_coefficient_error_has_a_finite_norm(self, tmp_path,
                                                             capsys):
        # the first step puts the estimate near 1e160, so the squares of the
        # error overflow; err_norm is still the norm of the finite errors
        cfg = self._write_cfg(
            tmp_path, "problem = ar\noptimizer = sgd\nmu0 = 1e160\niterations = 3\n")
        out = str(tmp_path / "trace.csv")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 2
        with open(out, encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        errs = [float(row["err_a1"]), float(row["err_a2"])]
        assert min(errs) > 1e154
        assert float(row["err_norm"]) == pytest.approx(math.hypot(*errs), rel=1e-15)

    def test_numerical_error_exit_code(self, tmp_path, capsys, monkeypatch):
        _break_eigensolvers(monkeypatch)
        cfg = self._write_cfg(tmp_path,
                              "problem = ar\noptimizer = 2sedfosgd\niterations = 5\n")
        assert cli.main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _outcome(config):
    """CSV bytes of a run, or the step a diverged run stopped at."""
    try:
        return csv_bytes(run(config))
    except DivergenceError as exc:
        return ("diverged", exc.step_index)


@st.composite
def small_configs(draw):
    common = dict(
        iterations=draw(st.integers(2, 40)),
        seed=draw(st.integers(0, 2**32)),
        mu0=draw(st.floats(1e-3, 0.5)),
        scaling_mode=draw(st.sampled_from(["elementwise", "layer-norm"])),
        normalize_fisher=draw(st.booleans()),
        grad_clip=draw(st.one_of(st.none(), st.floats(0.1, 20.0))),
    )
    if draw(st.booleans()):
        cfg = ExperimentConfig(problem="ar", optimizer="sgd", **common)
    else:
        dim = draw(st.integers(1, 6))
        diag = draw(st.lists(st.floats(0.0, 10.0), min_size=dim, max_size=dim))
        cfg = ExperimentConfig(problem="quadratic", optimizer="sgd",
                               quad_diag=tuple(diag),
                               quad_noise_std=draw(st.floats(0.0, 5.0)), **common)
    alpha = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    return cfg, alpha


class TestReductionProperty:
    """Criterion 1 over the config space: beta = 0 is fosgd at alpha0, and
    fosgd at alpha = 1 is sgd, byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(small_configs())
    def test_reductions_are_bytewise(self, drawn):
        cfg, alpha = drawn
        adaptive = _outcome(replace(cfg, optimizer="2sedfosgd", beta=0.0,
                                    alpha0=alpha))
        fixed = _outcome(replace(cfg, optimizer="fosgd", alpha0=alpha))
        assert adaptive == fixed
        classical = _outcome(replace(cfg, optimizer="fosgd", alpha0=1.0))
        assert classical == _outcome(cfg)


@st.composite
def stacked_configs(draw):
    """AR and quadratic configs of each optimizer, and 1 to 5 seeds; wide
    base rates and small stable tails make some seeds diverge or have their
    data blow up at different steps."""
    common = dict(
        optimizer=draw(st.sampled_from(["sgd", "fosgd", "2sedfosgd"])),
        iterations=draw(st.integers(1, 40)),
        mu0=draw(st.floats(-3.0, 2.5).map(lambda x: 10.0 ** x)),
        alpha0=draw(st.sampled_from([1.0, 0.98, 0.5, 0.2])),
        beta=draw(st.sampled_from([0.0, 0.01, 0.5])),
        scaling_mode=draw(st.sampled_from(["elementwise", "layer-norm"])),
        normalize_fisher=draw(st.booleans()),
        grad_clip=draw(st.one_of(st.none(), st.floats(0.1, 20.0))),
    )
    if draw(st.booleans()):
        cfg = ExperimentConfig(
            problem="ar", ar_coeffs=draw(st.sampled_from([(1.5, -0.7), (0.9,), (1.2,)])),
            noise=draw(st.sampled_from(["gaussian", "stable"])),
            stable_tail=draw(st.sampled_from([1.8, 1.0, 0.3, 0.005])), **common)
    else:
        dim = draw(st.integers(1, 6))
        diag = draw(st.lists(st.floats(0.0, 100.0), min_size=dim, max_size=dim))
        cfg = ExperimentConfig(problem="quadratic", quad_diag=tuple(diag),
                               quad_noise_std=draw(st.floats(0.0, 5.0)), **common)
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5))
    return cfg, seeds


def _same_outcome(stacked, config):
    """A stacked seed's RunResult or error against a run of that seed alone."""
    try:
        alone = run(config)
    except (DivergenceError, GenerationError) as exc:
        assert type(stacked) is type(exc) and str(stacked) == str(exc)
        for index in ("step_index", "sample_index"):
            assert getattr(stacked, index, None) == getattr(exc, index, None)
        return
    assert csv_bytes(stacked) == csv_bytes(alone)
    assert {k: repr(v) for k, v in stacked.summary.items()} == {
        k: repr(v) for k, v in alone.summary.items()}
    assert [v.tobytes() for v in stacked.final_layers] == [
        v.tobytes() for v in alone.final_layers]


class TestSeedStack:
    """A stack of seeds run in lock-step gives each seed the bits of its own
    run, and the failures of the seeds that leave it."""

    @settings(max_examples=60, deadline=None)
    @given(stacked_configs())
    def test_stack_equals_single_runs(self, drawn):
        cfg, seeds = drawn
        for seed, outcome in zip(seeds, run(cfg, seeds=seeds)):
            _same_outcome(outcome, replace(cfg, seed=seed))

    def test_mixed_divergence(self, capsys):
        # 4 of 8 seeds diverge, at steps 245, 218, 68 and 231; the rate fit
        # names the lowest-index one, although step 68 comes first in time
        cfg = ExperimentConfig(problem="ar", optimizer="sgd", noise="stable",
                               stable_tail=0.8, mu0=0.05, iterations=300)
        seeds = [derive_seed(0, i) for i in range(8)]
        outcomes = run(cfg, seeds=seeds)
        assert {i: o.step_index for i, o in enumerate(outcomes)
                if isinstance(o, DivergenceError)} == {0: 245, 5: 218, 6: 68, 7: 231}
        for seed, outcome in zip(seeds, outcomes):
            _same_outcome(outcome, replace(cfg, seed=seed))
        sweep = seed_sweep(cfg, 8)
        assert [(f.seed, f.index) for f in sweep.failed] == [
            (seeds[i], step) for i, step in ((0, 245), (5, 218), (6, 68), (7, 231))]
        assert len(sweep.summaries) == 4
        with pytest.raises(DivergenceError) as err:
            seed_rate_fit(cfg, 8)
        assert str(err.value) == "seed=0 non-finite loss or gradient at step 245"
        assert err.value.step_index == 245

    def test_sweep_stacks_are_bounded(self, monkeypatch):
        # a 20-seed sweep runs stacks of at most 8 seeds, in seed order
        stacks = []

        def spy(config, seeds=None):
            stacks.append(list(seeds))
            return run(config, seeds=seeds)

        monkeypatch.setattr(harness, "run", spy)
        sweep = seed_sweep(replace(AR_CFG, iterations=20), 20)
        assert [len(s) for s in stacks] == [8, 8, 4]
        assert sum(stacks, []) == sweep.seeds

    def test_trace_file_needs_one_seed(self, tmp_path):
        with pytest.raises(ValueError, match="one seed"):
            run(replace(AR_CFG, out=str(tmp_path / "t.csv")), seeds=[1, 2])


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_NAMES = st.text(alphabet="abcxyz019_./-=", min_size=1, max_size=12)


def _optional(strategy):
    return st.one_of(st.none(), strategy)


def _reals(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=4).map(tuple)


# one strategy of valid values per ExperimentConfig field; free-text keys
# also draw the literal text `none`, which stays a string
_FIELD_VALUES = {
    "problem": st.sampled_from(["ar", "quadratic", "mlp"]),
    "optimizer": st.sampled_from(["sgd", "fosgd", "2sedfosgd"]),
    "iterations": st.integers(1, 10**6),
    "seed": st.integers(0, 2**64 - 1),
    "out": _optional(st.one_of(st.just("none"), _NAMES)),
    "grad_clip": _optional(st.floats(0.1, 20.0)),
    "scaling_mode": st.sampled_from(["elementwise", "layer-norm"]),
    "normalize_fisher": st.booleans(),
    "noise": st.sampled_from(["gaussian", "stable"]),
    "ar_coeffs": _reals(-0.9, 0.9),
    "quad_diag": _reals(0.0, 10.0),
    "mlp_images": _optional(st.one_of(st.just("none"), _NAMES)),
    "mlp_labels": _optional(st.one_of(st.just("none"), _NAMES)),
    "mlp_hidden": st.integers(1, 512),
    "mlp_batch": st.integers(1, 512),
    "mlp_holdout": st.floats(0.0, 0.99),
    "mlp_limit": st.integers(0, 10**6),
}


@st.composite
def _as_text(draw, value):
    """One way of writing `value` as the text of a `key = value` line."""
    if value is None:
        return draw(st.sampled_from(["none", "None", "NONE"]))
    if isinstance(value, bool):
        spellings = ["true", "True", "1", "yes"] if value else ["false", "FALSE", "0", "no"]
        return draw(st.sampled_from(spellings))
    if isinstance(value, tuple):
        return draw(st.sampled_from([",", ", "])).join(repr(x) for x in value)
    return value if isinstance(value, str) else repr(value)


_SPECIAL = [0.0, -1.0, float("nan"), float("inf")]
# a valid range for each float key; each draw takes it or one of _SPECIAL
_FLOAT_RANGES = {
    "mu0": (1e-3, 20.0), "delta": (1e-8, 1e-2), "alpha0": (0.05, 1.0),
    "beta": (0.0, 0.1), "zeta": (2.0 / 3.0, 0.99), "epsilon": (1e-4, 0.5),
    "alpha_min": (1e-3, 0.05), "fisher_decay": (0.01, 1.0),
    "grad_clip": (0.1, 20.0),
    "noise_std": (0.0, 2.0), "stable_tail": (0.5, 2.0),
    "stable_skew": (-1.0, 1.0), "stable_scale": (0.1, 2.0),
    "stable_location": (-1.0, 1.0), "quad_noise_std": (0.0, 5.0),
}
_FIELD_VALUES.update({key: st.floats(*bounds) for key, bounds in _FLOAT_RANGES.items()
                      if key not in _FIELD_VALUES})
# the failure contract draws these keys a little past their valid ranges too
_WIDER_RANGES = {"stable_tail": (0.001, 2.2), "stable_skew": (-1.1, 1.1)}


@st.composite
def _float_value(draw, lo, hi):
    # one draw in eight is special, so close to half of the configs run (exit 0)
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(_SPECIAL))
    return draw(st.floats(lo, hi))


@st.composite
def cli_configs(draw):
    """Override lists over AR and quadratic configs, valid or not."""
    problem = draw(st.sampled_from(["ar", "quadratic"]))
    pairs = [f"problem={problem}",
             f"optimizer={draw(st.sampled_from(['sgd', 'fosgd', '2sedfosgd']))}",
             f"iterations={draw(st.integers(1, 30))}",
             f"noise={draw(st.sampled_from(['gaussian', 'stable']))}"]
    for key, bounds in _FLOAT_RANGES.items():
        if draw(st.booleans()):
            lo, hi = _WIDER_RANGES.get(key, bounds)
            pairs.append(f"{key}={draw(_float_value(lo, hi))!r}")
    if draw(st.booleans()):
        pairs.append(f"mlp_hidden={draw(st.integers(0, 8))}")
    key, lo, hi = (("ar_coeffs", -0.9, 0.9) if problem == "ar"
                   else ("quad_diag", 0.0, 10.0))
    if draw(st.booleans()):
        values = draw(st.lists(_float_value(lo, hi), min_size=1, max_size=4))
        pairs.append(f"{key}={','.join(repr(v) for v in values)}")
    return pairs


class TestFailureContract:
    """Every config ends in exit 0, in exit 1 with one `error:` line and no
    trace file, or in exit 2 with one `diverged:` line naming a step or a
    sample index; nothing else escapes `cli.main`."""

    @settings(max_examples=60, deadline=None)
    @given(cli_configs())
    def test_every_config_ends_in_a_known_exit(self, pairs):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "base.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write("problem = ar\noptimizer = sgd\niterations = 1\n")
            out = os.path.join(tmp, "trace.csv")
            argv = ["run", "--config", cfg, "--out", out]
            for pair in pairs:
                argv += ["--override", pair]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            err = stderr.getvalue()
            if code == 0:
                assert err == ""
                assert os.path.exists(out) and os.path.exists(out + ".summary")
            elif code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert not os.path.exists(out)
            else:
                assert code == 2
                assert err.startswith("diverged: ") and err.count("\n") == 1, err
                found = re.search(r"\b(step|index) (\d+)", err)
                assert found, err
                assert not os.path.exists(out + ".summary")
                if found[1] == "step":
                    # rows 1 .. N - 1 were written before step N diverged
                    with open(out, encoding="utf-8") as fh:
                        rows = fh.read().splitlines()[1:]
                    assert len(rows) == int(found[2]) - 1, err
