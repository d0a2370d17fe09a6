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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sedfosgd import cli, fisher, harness
from sedfosgd.harness import (ConfigError, ExperimentConfig, SweepFailure, _ArDriver,
                              _QuadraticDriver, _shuffled_indices, csv_bytes,
                              derive_seed, load_config, parse_config_text,
                              parse_overrides, rate_fit, run, running_min,
                              seed_rate_fit, seed_sweep)
from sedfosgd.mathkit import NumericalError
from sedfosgd.noise import RngStream, gaussians
from sedfosgd.optim import DivergenceError, norm
from sedfosgd.problems import GenerationError, ar_generate, quadratic_loss_grad

import reference
from reference import gaussian

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

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)
                                      if f.type is int])
    def test_int_fields_take_only_integers(self, tmp_path, name, value):
        # a programmatic config cannot carry a float, bool or text where an
        # integer is meant; a numpy integer is one
        base = dict(problem="ar", optimizer="sgd", iterations=3)
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**dict(base, **{name: value}))
        assert str(exc.value) == message
        path = tmp_path / "exp.cfg"
        path.write_text("problem = ar\noptimizer = sgd\niterations = 3\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(str(path), {name: value})
        assert getattr(ExperimentConfig(**dict(base, **{name: np.int64(4)})), name) == 4

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_field_refuses_a_value_of_another_type(self, data):
        # one ConfigError that names the key, from a config built in Python
        # and from load_config's overrides, before any range check compares it
        f = data.draw(st.sampled_from(fields(ExperimentConfig)))
        value = data.draw(wrong_values(f.type, f.default))
        base = dict(problem="ar", optimizer="sgd", iterations=3)
        with pytest.raises(ConfigError) as built:
            ExperimentConfig(**dict(base, **{f.name: value}))
        assert str(built.value).startswith(f"{f.name} must be ")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "exp.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("problem = ar\noptimizer = sgd\niterations = 3\n")
            with pytest.raises(ConfigError) as loaded:
                load_config(path, {f.name: value})
        assert str(loaded.value) == str(built.value)

    def test_ints_past_the_text_digit_limit(self):
        # an int of more digits than Python turns into text (4300) is one
        # ConfigError naming its key where it is refused, and is taken where it
        # is in range, also beside another key's refused value
        base, huge = dict(problem="ar", optimizer="sgd", iterations=3), 10**5000
        for name, value in (("mu0", huge), ("iterations", -huge), ("ar_coeffs", (huge,)),
                            ("ar_coeffs", [huge]), ("mlp_batch", -huge), ("problem", huge)):
            with pytest.raises(ConfigError, match=f"^{name} must be "):
                ExperimentConfig(**dict(base, **{name: value}))
        for key in ("iterations", "seed", "mlp_limit"):
            assert getattr(ExperimentConfig(**dict(base, **{key: huge})), key) == huge
        with pytest.raises(ConfigError, match="^iterations must be >= 1, got 0$"):
            ExperimentConfig(**dict(base, iterations=0, mlp_limit=huge))

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

    def test_load_config_refuses_an_unknown_override_key(self, tmp_path):
        # the CLI's overrides pass the key check of parse_overrides first; a
        # caller's dict meets ExperimentConfig's TypeError, as a ConfigError
        path = tmp_path / "exp.cfg"
        path.write_text("problem = ar\noptimizer = fosgd\niterations = 20\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(path), {"bogus": 1})

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
        # nor the summary an earlier run at the same path left
        path = str(tmp_path / "diverge.csv")
        cfg = ExperimentConfig(problem="quadratic", optimizer="sgd",
                               iterations=400, seed=1, mu0=1e150,
                               quad_noise_std=1.0, out=path)
        run(replace(cfg, mu0=0.01))
        assert os.path.exists(path + ".summary")
        with pytest.raises(DivergenceError):
            run(cfg)
        assert not os.path.exists(path + ".summary")

    def test_trace_closed_on_any_error(self, tmp_path, monkeypatch):
        # a failed eigensolve leaves no trace file, in sgd's and fosgd's
        # chunked fold and in 2sedfosgd's per-step one, and the trace and
        # summary an earlier run at the same path left are gone too
        path = str(tmp_path / "t.csv")
        for optimizer in ("sgd", "fosgd", "2sedfosgd"):
            cfg = replace(AR_CFG, optimizer=optimizer, out=path)
            run(cfg)
            assert os.path.exists(path) and os.path.exists(path + ".summary")
            with monkeypatch.context() as mp:
                _break_eigensolvers(mp)
                with pytest.raises(NumericalError):
                    run(cfg)
            assert not os.path.exists(path), optimizer
            assert not os.path.exists(path + ".summary"), optimizer

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
            f_ref, g_ref = quadratic_loss_grad(theta, np.array(diag))
            noise = np.array([gaussian(ref, 0.0, 2.5) for _ in range(dim)])
            assert f == f_ref
            assert g.tobytes() == (g_ref + noise).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(1, 64), blocks=st.integers(0, 2), offset=st.integers(-1, 1),
           data=st.data())
    def test_quadratic_noise_rows_equal_rows_drawn_one_at_a_time(self, dim, blocks, offset,
                                                                  data):
        # a run of about `blocks` blocks of 4096 draws a seed, ending just
        # before, at or just after a block's end, with 1 to 8 seeds (fewer on
        # the longest runs, for time): each seed's stream ends where its last
        # row does, as no more rows are drawn than the run has left
        steps = max(1, blocks * (4096 // dim) + offset)
        seeds = data.draw(st.integers(1, min(8, max(1, 2000 // steps))), label="seeds")
        std = data.draw(st.sampled_from([0.0, 1.0, 2.5, 1e300]), label="std")
        diag = tuple(float(k % 5) for k in range(dim))
        cfg = ExperimentConfig(problem="quadratic", optimizer="sgd", iterations=steps,
                               quad_diag=diag, quad_noise_std=std)
        rngs = [RngStream(derive_seed(7, k)) for k in range(seeds)]
        refs = [RngStream(derive_seed(7, k)) for k in range(seeds)]
        driver = _QuadraticDriver(cfg, rngs)
        theta = np.linspace(-1.0, 1.0, seeds * dim).reshape(seeds, dim)
        g_ref = quadratic_loss_grad(theta, np.array(diag))[1]
        with np.errstate(over="ignore"):
            for t in range(1, steps + 1):
                (g,) = driver.loss_grad([theta], t)[1]
                want = g_ref + [gaussians(ref, dim, 0.0, std) for ref in refs]
                assert g.tobytes() == want.tobytes()
        assert [rng.next_u64() for rng in rngs] == [ref.next_u64() for ref in refs]

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

    def test_mlp_holdout_overflow_is_quiet(self, tmp_path, capsys, synthetic_idx):
        # seed 1 runs to the end with finite weights whose holdout logits
        # overflow: the sweep exits 0 with no warning
        ip, lp = synthetic_idx
        cfg = self._write_cfg(
            tmp_path, f"problem = mlp\noptimizer = 2sedfosgd\niterations = 8\n"
            f"mlp_hidden = 8\nmlp_batch = 8\nmlp_limit = 200\nmu0 = 1e152\nseed = 1\n"
            f"mlp_images = {ip}\nmlp_labels = {lp}\n")
        assert cli.main(["sweep", "--config", cfg, "--seeds", "6"]) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_mean_of_huge_finite_gaps(self, tmp_path, capsys):
        # three finite gaps near 8.45e307 whose sum overflows
        cfg = self._write_cfg(
            tmp_path, "problem = quadratic\noptimizer = sgd\niterations = 1\n"
            "quad_diag = 1\nquad_noise_std = 0\nmu0 = 1.3e154\n")
        assert cli.main(["sweep", "--config", cfg, "--seeds", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "final_gap: mean=8.45e+307 median=8.45e+307 iqr=0\n" in captured.out

    def test_ratefit_of_huge_finite_gaps(self, tmp_path, capsys):
        # the noise drives each seed's gap to about 1e306, so the sum of the
        # hundred seeds' gaps overflows; their mean is still fitted
        cfg = self._write_cfg(
            tmp_path, "problem = quadratic\noptimizer = sgd\niterations = 50\n"
            "quad_diag = 0.001\nmu0 = 1000\nquad_noise_std = 9e151\n")
        assert cli.main(["ratefit", "--config", cfg, "--seeds", "100"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        fit = dict(line.split(" = ") for line in captured.out.splitlines())
        assert all(math.isfinite(float(fit[key])) for key in ("slope", "r_squared"))

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
        ("ar", ["epsilon=0.9999999999999999"]),  # epsilon ** (zeta - 1) rounds to 1
        ("ar", ["zeta=0.9999999999999999", "epsilon=0.9"]),
        # text that does not parse as the key's type
        ("ar", ["iterations=abc"]),
        ("ar", ["normalize_fisher=maybe"]),
        ("quadratic", ["quad_diag=1,x"]),
        ("quadratic", ["mu0=0"]),
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

    def test_sweep_from_a_negative_seed_lists_seeds_in_range(self, tmp_path, capsys):
        # a negative base seed is taken mod 2^64, as the stream takes it: the
        # failed seeds listed are those of the base 2^64 - 5
        cfg = self._write_cfg(
            tmp_path, "problem = ar\noptimizer = sgd\nnoise = stable\nstable_tail = 0.8\n"
            "mu0 = 0.05\niterations = 300\n")
        assert cli.main(["sweep", "--config", cfg, "--seeds", "8", "--seed", "-5"]) == 0
        failed = [int(line.split()[1].removeprefix("seed="))
                  for line in capsys.readouterr().out.splitlines() if line.startswith("failed:")]
        assert len(failed) == 4
        assert set(failed) <= {derive_seed(2**64 - 5, i) for i in range(8)}

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

    @pytest.mark.parametrize("iterations", [10**17, 2**63 - 1, 10**20])
    @pytest.mark.parametrize("problem", ["ar", "quadratic", "mlp"])
    def test_unallocatable_iterations_exit_one(self, tmp_path, capsys, synthetic_idx,
                                               problem, iterations):
        # a count that parses but whose arrays no host can allocate: one error
        # line that names the key, from every command, and no trace file
        ip, lp = synthetic_idx
        cfg = self._write_cfg(tmp_path, f"problem = {problem}\noptimizer = 2sedfosgd\n"
                              f"iterations = {iterations}\nmlp_images = {ip}\n"
                              f"mlp_labels = {lp}\n")
        out = str(tmp_path / "trace.csv")
        for argv in (["run", "--out", out], ["sweep", "--seeds", "3"], ["ratefit"]):
            assert cli.main(argv + ["--config", cfg]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: iterations={iterations} ") and err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("hidden", [10**12, 10**20])
    def test_unallocatable_hidden_width_does_not_blame_iterations(self, tmp_path, capsys,
                                                                  synthetic_idx, hidden):
        # the MLP's weights, not its rows, cannot be allocated: numpy's one line
        ip, lp = synthetic_idx
        cfg = self._write_cfg(tmp_path, f"problem = mlp\noptimizer = sgd\niterations = 20\n"
                              f"mlp_hidden = {hidden}\n"
                              f"mlp_images = {ip}\nmlp_labels = {lp}\n")
        assert cli.main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "iterations" not in err

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
        # the steps grow past 1e154 before the run diverges at step 11
        cfg = self._write_cfg(
            tmp_path, "problem = quadratic\noptimizer = fosgd\nalpha0 = 0.05\n"
            "mu0 = 0.28\niterations = 16\n")
        out = str(tmp_path / "trace.csv")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 2
        with open(out, encoding="utf-8") as fh:
            deltas = [float(row["delta_norm_l0"]) for row in csv.DictReader(fh)]
        assert len(deltas) == 10 and max(deltas) > 1e154
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

    @pytest.mark.parametrize("optimizer", ["sgd", "fosgd", "2sedfosgd"])
    @pytest.mark.parametrize("gap", ["quad_diag = 0\n",
                                     "quad_diag = 1,0\nquad_noise_std = 0\nmu0 = 1\n"])
    def test_ratefit_of_a_gap_that_reaches_zero(self, tmp_path, capsys, optimizer, gap):
        # each seed's gap is 0 from its first row (the classical first step
        # lands on the minimum): the fit cannot take its log, and says where
        cfg = self._write_cfg(tmp_path, f"problem = quadratic\noptimizer = {optimizer}\n"
                              f"iterations = 60\n{gap}")
        assert cli.main(["ratefit", "--config", cfg, "--seeds", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the running minimum is 0.0 at t=1; it must be > 0\n"

    def test_ratefit_divergence_names_its_seed(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path, "problem = quadratic\noptimizer = fosgd\nalpha0 = 0.05\n"
            "mu0 = 0.28\niterations = 60\n")
        assert cli.main(["ratefit", "--config", cfg, "--seeds", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("diverged: ") and err.count("\n") == 1
        assert err == "diverged: seed=0 non-finite loss or gradient at step 11\n"

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
        # a divergence keeps the rows before it: here the header alone
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == ("t,mu,loss,alpha_l0,dzeta_l0,delta_norm_l0,d_max,"
                                 "err_a1,err_norm\n")
        assert not os.path.exists(out + ".summary")

    @pytest.mark.parametrize("override", ["stable_tail=0.001", "noise_std=1e308"])
    def test_setup_divergence_replaces_an_earlier_trace(self, tmp_path, capsys, override):
        # data that blows up at set-up is a divergence before step 1: the
        # trace keeps its header alone, and an earlier run's summary is gone
        cfg = self._write_cfg(tmp_path, "problem = ar\noptimizer = sgd\niterations = 50\n"
                                        "noise = stable\n")
        out = str(tmp_path / "t.csv")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(out + ".summary")
        capsys.readouterr()
        noise = "gaussian" if override.startswith("noise_std") else "stable"
        assert cli.main(["run", "--config", cfg, "--out", out, "--override", override,
                         "--override", f"noise={noise}"]) == 2
        assert capsys.readouterr().err.startswith("diverged: non-finite output at index ")
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == ("t,mu,loss,alpha_l0,dzeta_l0,delta_norm_l0,d_max,"
                                 "err_a1,err_a2,err_norm\n")
        assert not os.path.exists(out + ".summary")

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
        # exit 1 leaves no trace, nor the files an earlier run at `--out` left
        cfg = self._write_cfg(tmp_path, "problem = ar\niterations = 5\n")
        out = str(tmp_path / "trace.csv")
        for optimizer in ("sgd", "fosgd", "2sedfosgd"):
            argv = ["run", "--config", cfg, "--out", out, "--override", f"optimizer={optimizer}"]
            assert cli.main(argv) == 0
            capsys.readouterr()
            with monkeypatch.context() as mp:
                _break_eigensolvers(mp)
                assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not os.path.exists(out) and not os.path.exists(out + ".summary")

    def test_allocation_failure_leaves_no_trace(self, tmp_path, capsys, monkeypatch):
        # a MemoryError at step 3, after two whole rows, ends in exit 1 with no trace
        cfg = self._write_cfg(tmp_path,
                              "problem = ar\noptimizer = 2sedfosgd\niterations = 5\n")
        out = str(tmp_path / "trace.csv")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        loss_grad = _ArDriver.loss_grad

        def failing(driver, layers, t):
            if t == 3:
                raise MemoryError
            return loss_grad(driver, layers, t)

        monkeypatch.setattr(_ArDriver, "loss_grad", failing)
        assert cli.main(["run", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not os.path.exists(out) and not os.path.exists(out + ".summary")


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
def oracle_configs(draw):
    """AR and quadratic configs of each optimizer at the default rates, of
    1 to 12 dimensions and 1 to 60 steps (so the Fisher Gram turns dense
    inside many runs), clipped or not, and 1 to 3 seeds."""
    dim = draw(st.integers(1, 12))
    common = dict(
        optimizer=draw(st.sampled_from(["sgd", "fosgd", "2sedfosgd"])),
        iterations=draw(st.integers(1, 60)),
        grad_clip=draw(st.sampled_from([None, 1.0, 10.0])),
        normalize_fisher=draw(st.booleans()),
        scaling_mode=draw(st.sampled_from(["elementwise", "layer-norm"])),
    )
    if draw(st.booleans()):  # coefficients of absolute sum below 1: a stable filter
        coeffs = draw(st.lists(st.floats(-0.9 / dim, 0.9 / dim), min_size=dim, max_size=dim))
        cfg = ExperimentConfig(problem="ar", ar_coeffs=tuple(coeffs),
                               noise=draw(st.sampled_from(["gaussian", "stable"])), **common)
    else:
        diag = draw(st.lists(st.floats(0.0, 10.0), min_size=dim, max_size=dim))
        cfg = ExperimentConfig(problem="quadratic", quad_diag=tuple(diag), **common)
    return cfg, draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3))


class TestOracle:
    """Each seed of a stack runs as `reference.run_one` computes its trace
    from the equations, with a dense Fisher block solved at every step.
    Each column agrees within its tolerance times the column's largest
    magnitude (at least the least normal float; subnormals round apart):
    t and mu exactly; dzeta and d_max within 6.6e-9, as the
    Gram's and the dense block's solves round their least eigenvalues
    apart; alpha within 3.3e-16 plus 2 beta 6.6e-9, the error that the
    exponent rule carries over from dzeta / d_max; and loss, delta_norm and
    the metrics within 1.1e-12."""

    @settings(max_examples=40, deadline=None)
    @given(oracle_configs())
    @example(drawn=(ExperimentConfig(problem="quadratic", optimizer="sgd", iterations=5,
                                     quad_diag=(5e-324,)), [0]))  # a subnormal loss
    def test_runs_follow_the_equations(self, drawn):
        cfg, seeds = drawn
        for seed, got in zip(seeds, run(cfg, seeds=seeds)):
            try:
                want = reference.run_one(replace(cfg, seed=seed))
            except (DivergenceError, GenerationError) as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            assert got.rows.shape == want.shape
            for j, name in enumerate(got.header):
                tol = (0.0 if name in ("t", "mu") else
                       6.6e-9 if name.startswith(("dzeta", "d_max")) else
                       3.3e-16 + 2 * cfg.beta * 6.6e-9 if name.startswith("alpha") else 1.1e-12)
                scale = max(np.abs(want[:, j]).max(), np.finfo(float).tiny)
                assert np.abs(got.rows[:, j] - want[:, j]).max() <= tol * scale, name


def wrong_values(annotation, default):
    """Values that a config field of this annotation and default refuses:
    another type, a bool for a number, a non-finite float or an int beyond
    the float range for a float, a non-number in a tuple, and None unless
    the default is None."""
    text = st.text(max_size=4)
    nonfinite = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan]),
                          st.integers(2**1024, 2**1100), st.integers(-2**1100, -2**1024))
    pool = {
        int: st.one_of(st.floats(), st.booleans(), text, st.tuples(st.integers())),
        float: st.one_of(st.booleans(), text, st.tuples(st.floats(-1, 1)), nonfinite),
        bool: st.one_of(st.integers(0, 1), st.floats(), text),
        str: st.one_of(st.integers(), st.floats(), st.booleans(), st.tuples(text)),
        tuple: st.one_of(text, st.floats(), st.lists(st.floats(-1, 1), max_size=2),
                         st.tuples(st.floats(-1, 1), st.one_of(text, st.booleans(),
                                                               st.none(), nonfinite))),
    }[annotation]
    return pool if default is None else st.one_of(pool, st.none())


@st.composite
def stacked_configs(draw, idx):
    """AR, quadratic and MLP (on the IDX pair `idx`) configs of each
    optimizer, and 1 to 5 seeds; wide base rates and small stable tails make
    some seeds diverge or have their data blow up at different steps."""
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
    problem = draw(st.sampled_from(["ar", "quadratic", "mlp"]))
    if problem == "ar":
        cfg = ExperimentConfig(
            problem="ar", ar_coeffs=draw(st.sampled_from([(1.5, -0.7), (0.9,), (1.2,)])),
            noise=draw(st.sampled_from(["gaussian", "stable"])),
            stable_tail=draw(st.sampled_from([1.8, 1.0, 0.3, 0.005])), **common)
    elif problem == "mlp":
        # the weights overflow at base rates near 1e150, at different steps
        common["mu0"] = 10.0 ** draw(st.one_of(st.floats(-3.0, 1.0), st.floats(145.0, 153.0)))
        cfg = ExperimentConfig(
            problem="mlp", mlp_images=idx[0], mlp_labels=idx[1],
            mlp_limit=draw(st.integers(5, 200)), mlp_hidden=draw(st.integers(1, 8)),
            mlp_batch=draw(st.integers(1, 8)), **common)
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
    run, or the failure that ended it; an ended seed stays in the stack, its
    rows unread, until the run ends."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_stack_equals_single_runs(self, synthetic_idx, data):
        cfg, seeds = data.draw(stacked_configs(synthetic_idx))
        ema_update = fisher.ema_update

        def spy(block, chunk, *args):
            # the loop owns the fold's invariant: a finite (steps, seeds, d)
            # chunk, a blown seed's gradient zeroed, every seed of the stack
            # in it until the run ends
            assert chunk.shape == (len(chunk), len(seeds), block.dim)
            assert np.isfinite(chunk).all()
            return ema_update(block, chunk, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fisher, "ema_update", spy)
            outcomes = run(cfg, seeds=seeds)
        for seed, outcome in zip(seeds, outcomes):
            _same_outcome(outcome, replace(cfg, seed=seed))

    @pytest.mark.parametrize("optimizer", ["sgd", "2sedfosgd"])
    def test_mlp_mixed_divergence(self, synthetic_idx, optimizer):
        # seeds 0, 4 and 5 overflow at step 3; seeds 1-3 run to the end
        ip, lp = synthetic_idx
        cfg = ExperimentConfig(problem="mlp", optimizer=optimizer, iterations=8,
                               mu0=1e150, mlp_images=ip, mlp_labels=lp,
                               mlp_limit=200, mlp_hidden=8, mlp_batch=8)
        outcomes = run(cfg, seeds=range(6))
        assert {i: o.step_index for i, o in enumerate(outcomes)
                if isinstance(o, DivergenceError)} == {0: 3, 4: 3, 5: 3}
        for seed, outcome in enumerate(outcomes):
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

    @pytest.mark.parametrize("optimizer", ["sgd", "2sedfosgd"])
    def test_mixed_setup_failures(self, optimizer):
        # half of ten derived seeds blow up their AR data at set-up; in the
        # stacks of 8 and 2 a sweep runs, they keep their zero rows and the
        # other five run to the end, each as it runs alone
        cfg = ExperimentConfig(problem="ar", optimizer=optimizer, iterations=20,
                               noise="stable", stable_tail=0.005, stable_scale=1e-300,
                               ar_coeffs=(0.1,), mu0=0.001, grad_clip=1.0)
        seeds = [derive_seed(0, i) for i in range(10)]
        outcomes = run(cfg, seeds=seeds[:8]) + run(cfg, seeds=seeds[8:])
        failed = [(seed, o.sample_index) for seed, o in zip(seeds, outcomes)
                  if isinstance(o, GenerationError)]
        assert [index for _, index in failed] == [2, 10, 3, 7, 9]
        assert sum(isinstance(o, harness.RunResult) for o in outcomes) == 5
        for seed, outcome in zip(seeds, outcomes):
            _same_outcome(outcome, replace(cfg, seed=seed))
        assert [(f.seed, f.index) for f in seed_sweep(cfg, 10).failed] == failed

    @pytest.mark.parametrize("optimizer", ["sgd", "fosgd", "2sedfosgd"])
    @pytest.mark.parametrize("clip", [None, 1.0, 1e300])
    def test_blown_seeds_end_as_they_do_alone(self, monkeypatch, optimizer, clip):
        # seeds whose loss overflows, whose gradient has a nan entry, or whose
        # finite gradient has overflowing squares, at different steps, beside
        # clean ones: the loop checks them on Python floats, each seed alone.
        # A clip bound of 1 shrinks the huge gradient, so that seed runs on; a
        # bound of 1e300 leaves it unclipped and, as 1e300 squared overflows,
        # does not spare its squares the check
        spikes = {1: ("loss", 3), 2: ("nan", 5), 3: ("huge", 4), 5: ("loss", 7),
                  6: ("huge", 2), 7: ("nan", 2)}

        class Seeded(RngStream):
            def __init__(self, seed):
                super().__init__(seed)
                self.seed = seed

        class Spiked(_QuadraticDriver):
            def loss_grad(self, layers, t):
                f, (g,) = super().loss_grad(layers, t)
                for k, rng in enumerate(self.rngs):
                    kind, step = spikes.get(rng.seed, (None, None))
                    if step == t and kind == "loss":
                        f[k] = np.inf
                    elif step == t:
                        g[k] = 1e200
                        g[k, 0] = np.nan if kind == "nan" else 1e200
                return f, [g]

        monkeypatch.setattr(harness, "RngStream", Seeded)
        monkeypatch.setattr(harness, "_DRIVERS", {**harness._DRIVERS, "quadratic": Spiked})
        cfg = ExperimentConfig(problem="quadratic", optimizer=optimizer, iterations=12,
                               quad_diag=(1.0, 4.0, 9.0), mu0=0.05, grad_clip=clip)
        outcomes = run(cfg, seeds=range(8))
        want = {k: t for k, (kind, t) in spikes.items() if kind != "huge" or clip != 1.0}
        assert {k: o.step_index for k, o in enumerate(outcomes)
                if isinstance(o, DivergenceError)} == want
        for seed, outcome in enumerate(outcomes):
            _same_outcome(outcome, replace(cfg, seed=seed))
        for stacked, untraced in zip(outcomes, run(cfg, seeds=range(8), trace=False)):
            assert (repr(stacked) if isinstance(stacked, Exception) else stacked.summary) == (
                repr(untraced) if isinstance(untraced, Exception) else untraced.summary)

    @settings(max_examples=40, deadline=None)
    @given(optimizer=st.sampled_from(["sgd", "fosgd", "2sedfosgd"]),
           bound=st.sampled_from([None, 1.0, 9e153, 1e154, 1e300]),
           spikes=st.dictionaries(st.integers(0, 7), st.tuples(
               st.sampled_from(["loss", "nan", "inf", "huge", "past"]), st.integers(1, 10))))
    def test_blown_check_read_off_the_clip_norms(self, optimizer, bound, spikes):
        # the screen reads a clipped seed's blow-up off its clip norm when twice
        # the bound's square is finite (1 and 9e153), and takes the squares of
        # its gradient otherwise (no bound, 1e154, 1e300) or when that norm is
        # not finite. Each seed ends as it does when the driver clips and the
        # screen, with no bound, takes the squares of every gradient: spikes of
        # a nan or an infinite entry, of finite entries whose squares overflow
        # ("huge") or whose norm does too ("past", which a finite bound clips
        # to zero), and of an infinite loss
        class Spiked(_QuadraticDriver):
            def loss_grad(self, layers, t):
                f, (g,) = super().loss_grad(layers, t)
                for k, (kind, step) in spikes.items():
                    if step == t and kind == "loss":
                        f[k] = np.inf
                    elif step == t:
                        g[k] = {"nan": 1.0, "inf": 1.0, "huge": 1e200, "past": 1.5e308}[kind]
                        g[k, 0] = {"nan": np.nan, "inf": -np.inf}.get(kind, g[k, 0])
                return f, [g]

        class Clipped(Spiked):  # the clip alone, inline: the loop screens
            def loss_grad(self, layers, t):
                f, grads = super().loss_grad(layers, t)
                if bound is None:
                    return f, grads
                return f, [bound / np.maximum(norm(grads), bound)[:, None] * g for g in grads]

        cfg = ExperimentConfig(problem="quadratic", optimizer=optimizer, iterations=10,
                               quad_diag=(1.0, 4.0, 9.0), mu0=0.05, grad_clip=bound)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_DRIVERS", {**harness._DRIVERS, "quadratic": Spiked})
            got = run(cfg, seeds=range(8))
            mp.setattr(harness, "_DRIVERS", {**harness._DRIVERS, "quadratic": Clipped})
            want = run(replace(cfg, grad_clip=None), seeds=range(8))
        for g, w in zip(got, want):
            if isinstance(w, Exception):
                assert (type(g), str(g), g.step_index) == (type(w), str(w), w.step_index)
            else:
                assert csv_bytes(g) == csv_bytes(w) and g.summary == w.summary

    @pytest.mark.parametrize("optimizer", ["sgd", "fosgd", "2sedfosgd"])
    def test_empty_stack(self, synthetic_idx, optimizer):
        ip, lp = synthetic_idx
        mlp = ExperimentConfig(problem="mlp", optimizer=optimizer, iterations=3,
                               mlp_images=ip, mlp_labels=lp, mlp_limit=50, mlp_hidden=4)
        for cfg in (replace(AR_CFG, optimizer=optimizer), mlp):
            assert run(cfg, seeds=[]) == []

    def test_sweep_stacks_are_bounded(self, monkeypatch):
        # a 20-seed sweep runs stacks of at most 8 seeds, in seed order
        stacks = []

        def spy(config, seeds=None, **kw):
            stacks.append(list(seeds))
            return run(config, seeds=seeds, **kw)

        monkeypatch.setattr(harness, "run", spy)
        sweep = seed_sweep(replace(AR_CFG, iterations=20), 20)
        assert [len(s) for s in stacks] == [8, 8, 4]
        assert sum(stacks, []) == sweep.seeds

    @pytest.mark.parametrize("optimizer", ["sgd", "2sedfosgd"])
    def test_quadratic_gap_is_the_next_loss(self, optimizer, tmp_path):
        # the gap of row t is the loss that step t + 1 evaluates, bit for bit,
        # also after other seeds of the stack ended (four of these six diverge
        # under 2sedfosgd) and without the trace-only columns (as rate fits
        # run); the last one is evaluated at the final layers
        cfg = ExperimentConfig(problem="quadratic", optimizer=optimizer, iterations=200,
                               quad_diag=(1.0, 4.0, 9.0), quad_noise_std=3.0, mu0=0.2,
                               alpha0=0.5)
        for trace in (True, False):
            results = [r for r in run(cfg, seeds=range(6), trace=trace)
                       if isinstance(r, harness.RunResult)]
            assert len(results) == (2 if optimizer == "2sedfosgd" else 6)
            for r in results:
                gap, loss = (r.rows[:, r.header.index(name)] for name in ("gap", "loss"))
                assert gap[:-1].tobytes() == loss[1:].tobytes()
                last, _ = quadratic_loss_grad(r.final_layers[0], np.array(cfg.quad_diag))
                assert gap[-1] == last
        # the trace of a run that diverges at step 10 keeps its 9 rows, each
        # but the last with the next one's loss as its gap (cells are reprs)
        path = str(tmp_path / "d.csv")
        with pytest.raises(DivergenceError, match="at step 10$"):
            run(ExperimentConfig(problem="quadratic", optimizer="fosgd", iterations=400,
                                 seed=1, quad_diag=(1.0,), mu0=11.0, alpha0=0.25, out=path))
        with open(path, encoding="utf-8") as fh:
            kept = list(csv.DictReader(fh))
        assert len(kept) == 9
        assert [r["gap"] for r in kept[:-1]] == [r["loss"] for r in kept[1:]]

    def test_trace_file_needs_one_seed(self, tmp_path):
        with pytest.raises(ValueError, match="one seed"):
            run(replace(AR_CFG, out=str(tmp_path / "t.csv")), seeds=[1, 2])

    @pytest.mark.parametrize("optimizer", ["sgd", "fosgd", "2sedfosgd"])
    @pytest.mark.parametrize("problem", ["ar", "quadratic", "mlp"])
    def test_only_2sedfosgd_sweeps_fold_fisher_blocks(self, synthetic_idx, monkeypatch,
                                                       problem, optimizer):
        # sgd and fosgd fold only for the trace's dzeta and d_max columns,
        # which sweeps and rate fits never read; a run still fills them
        ip, lp = synthetic_idx
        cfg = ExperimentConfig(problem=problem, optimizer=optimizer, iterations=60,
                               mlp_images=ip, mlp_labels=lp, mlp_limit=200,
                               mlp_hidden=4, mlp_batch=8)
        folded, ema_update = [], fisher.ema_update

        def spy(block, chunk, *args):
            folded.append(len(chunk))
            return ema_update(block, chunk, *args)

        monkeypatch.setattr(fisher, "ema_update", spy)
        layers = 2 if problem == "mlp" else 1
        seed_sweep(cfg, 3)
        seed_rate_fit(cfg, 3)
        if optimizer == "2sedfosgd":  # one step at a time, each after the first
            assert folded == [1] * 2 * 59 * layers
        else:
            assert folded == []
        folded.clear()
        run(cfg, seeds=[1, 2, 3])
        assert sum(folded) == 59 * layers

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sweeps_report_what_stacked_runs_give(self, synthetic_idx, data):
        # however the seeds split into stacks
        cfg, seeds = data.draw(stacked_configs(synthetic_idx))
        if data.draw(st.booleans()):  # long enough for a rate fit
            cfg = replace(cfg, iterations=data.draw(st.integers(50, 70)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_STACK", data.draw(st.integers(1, 5)))
            _assert_sweeps_report_stacked_runs(replace(cfg, seed=seeds[0]), len(seeds))

    @pytest.mark.parametrize("optimizer", ["sgd", "fosgd"])
    def test_mixed_sweeps_report_what_stacked_runs_give(self, synthetic_idx, optimizer):
        # 10 seeds run as stacks of 8 and 2, and some of them diverge
        ip, lp = synthetic_idx
        ar = ExperimentConfig(problem="ar", optimizer=optimizer, noise="stable",
                              stable_tail=0.8, mu0=0.05, iterations=300)
        mlp = ExperimentConfig(problem="mlp", optimizer=optimizer, iterations=60, mu0=1e150,
                               mlp_images=ip, mlp_labels=lp, mlp_limit=200, mlp_hidden=8,
                               mlp_batch=8)
        for cfg in (ar, mlp):
            _assert_sweeps_report_stacked_runs(cfg, 10)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_chunk_widths_keep_the_bits_of_width_one(self, synthetic_idx, data):
        # seeds end, and a trace run's eigensolver fails, mid-chunk as at
        # width 1: the failure's type, message and index are the same at
        # every width, and it leaves no trace file at any
        cfg, seeds = data.draw(stacked_configs(synthetic_idx))
        broken = data.draw(st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)))
        width = data.draw(st.integers(1, 5))
        assert _chunked(cfg, seeds, width, broken) == _chunked(cfg, seeds, 1, broken)

    def test_chunk_widths_the_readme_states(self, synthetic_idx, monkeypatch):
        # up to 256 steps, as many as keep a chunk's operands within 256 KiB
        ip, lp = synthetic_idx
        ema_update, folded = fisher.ema_update, []

        def spy(block, grads, *args):
            folded.append(len(grads))
            return ema_update(block, grads, *args)

        monkeypatch.setattr(fisher, "ema_update", spy)
        ar = ExperimentConfig(problem="ar", optimizer="sgd", iterations=600, noise="stable",
                              stable_tail=1.8, stable_scale=0.5, grad_clip=10.0, mu0=0.5,
                              beta=0.05)
        quad = ExperimentConfig(problem="quadratic", optimizer="sgd", iterations=20,
                                quad_diag=tuple(1.0 + k for k in range(32)))
        mlp = ExperimentConfig(problem="mlp", optimizer="sgd", iterations=4,
                               mlp_images=ip, mlp_labels=lp, mlp_limit=200)
        for cfg, seeds, width in ((ar, [0], 256), (quad, list(range(6)), 5), (mlp, [0], 1)):
            folded.clear()
            run(cfg, seeds=seeds)
            assert max(folded) == width, cfg.problem

    @pytest.mark.parametrize("optimizer", ["sgd", "fosgd", "2sedfosgd"])
    def test_seeds_leave_mid_chunk(self, synthetic_idx, optimizer):
        # the AR seeds diverge at steps 245, 218, 68 and 231 under sgd, and the
        # MLP seeds 0, 4 and 5 at step 3; chunks of 5 and 2 steps split there
        ip, lp = synthetic_idx
        ar = ExperimentConfig(problem="ar", optimizer=optimizer, noise="stable",
                              stable_tail=0.8, mu0=0.05, iterations=300)
        mlp = ExperimentConfig(problem="mlp", optimizer=optimizer, iterations=8, mu0=1e150,
                               mlp_images=ip, mlp_labels=lp, mlp_limit=200, mlp_hidden=8,
                               mlp_batch=8)
        for cfg, seeds, width in ((ar, [derive_seed(0, i) for i in range(8)], 5),
                                  (mlp, list(range(6)), 2)):
            chunked = _chunked(cfg, seeds, width)
            assert any(o[0] is DivergenceError for o in chunked[0])
            assert chunked == _chunked(cfg, seeds, 1)


def _chunked(cfg, seeds, width, broken=None):
    """What `run` gives when it fills its trace-only columns `width` steps at a
    time: per seed of a stack, its trace bytes, summary and final layers or
    its error; and the files a run of the first seed alone writes, and its
    error, where with `broken` (in [0, 1)) its eigensolver cannot converge
    on any matrix of the last 1 - `broken` of the solves a run of that seed
    makes at width 1 (whatever stack holds it), as a solver that fails on
    its input would."""
    solver, alone = np.linalg.eigvalsh, replace(cfg, seed=seeds[0])
    poisoned = set() if broken is None else _solved_from(alone, broken)

    def eigvalsh(m):
        if any(a.tobytes() in poisoned for a in m.reshape(-1, *m.shape[-2:])):
            raise np.linalg.LinAlgError("did not converge")
        return solver(m)

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(harness, "_CHUNK_STEPS", width)
        mp.setattr(harness, "_CHUNK_BYTES", 1 << 40 if width > 1 else 0)
        stacked = [(csv_bytes(o), repr(o.summary), [v.tobytes() for v in o.final_layers])
                   if isinstance(o, harness.RunResult) else (type(o), str(o), _index(o))
                   for o in run(cfg, seeds=seeds)]
        mp.setattr(np.linalg, "eigvalsh", eigvalsh)
        path = os.path.join(tmp, "t.csv")
        try:
            alone = run(replace(alone, out=path)).summary
        except (DivergenceError, GenerationError, NumericalError) as exc:
            alone = type(exc), str(exc), _index(exc)
        files = []
        for name in (path, path + ".summary"):
            if os.path.exists(name):
                with open(name, "rb") as fh:
                    files.append(fh.read())
    return stacked, alone, files


def _solved_from(cfg, share):
    """The bytes of each matrix that a run of `cfg` at width 1 hands the
    eigensolver in the last 1 - `share` of its calls."""
    solver, solved = np.linalg.eigvalsh, []

    def eigvalsh(m):
        solved.append(m.copy())
        return solver(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_CHUNK_STEPS", 1)
        mp.setattr(harness, "_CHUNK_BYTES", 0)
        mp.setattr(np.linalg, "eigvalsh", eigvalsh)
        try:
            run(cfg)
        except (DivergenceError, GenerationError):
            pass
    return {a.tobytes() for m in solved[int(share * len(solved)):]
            for a in m.reshape(-1, *m.shape[-2:])}


def _assert_sweeps_report_stacked_runs(cfg, n):
    """A sweep's summaries and failures and a rate fit's slope or error over
    `n` derived seeds are those of run(cfg, seeds=...), which keeps every
    diagnostic that sweeps and rate fits skip."""
    derived = [derive_seed(cfg.seed, i) for i in range(n)]
    outcomes = run(cfg, seeds=derived)
    sweep = seed_sweep(cfg, n)
    fit = _result_or_error(seed_rate_fit, cfg, n)
    ran = [o for o in outcomes if not isinstance(o, Exception)]
    failed = [(seed, o) for seed, o in zip(derived, outcomes) if isinstance(o, Exception)]
    assert sweep.seeds == derived
    assert repr(sweep.summaries) == repr([o.summary for o in ran])
    assert repr(sweep.failed) == repr([SweepFailure(
        seed, "step" if isinstance(o, DivergenceError) else "sample",
        _index(o), str(o)) for seed, o in failed])
    if cfg.iterations < 50:
        assert fit[0] is ConfigError
    elif failed:
        seed, exc = failed[0]
        assert fit == (type(exc), f"seed={seed} {exc}", _index(exc))
    else:
        column = ran[0].header.index("gap" if cfg.problem == "quadratic" else "loss")
        series = np.mean([o.rows[:, column] for o in ran], axis=0)
        assert fit == _result_or_error(lambda: rate_fit(running_min(series)))


def _index(exc):
    return getattr(exc, "step_index", getattr(exc, "sample_index", None))


def _result_or_error(fn, *args):
    """The `repr` of fn(*args), or the type, message and index of its error."""
    try:
        return repr(fn(*args))
    except (ValueError, DivergenceError, GenerationError) as exc:
        return type(exc), str(exc), _index(exc)


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
    """Override lists over AR, quadratic and MLP configs, valid or not; the
    test adds the MLP's data paths."""
    problem = draw(st.sampled_from(["ar", "quadratic", "mlp"]))
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
    if problem == "mlp":
        pairs += [f"mlp_limit={draw(st.integers(5, 200))}",
                  f"mlp_batch={draw(st.integers(1, 8))}"]
        if draw(st.booleans()):  # the weights overflow at base rates near 1e150
            pairs.append(f"mu0={10.0 ** draw(st.floats(145.0, 155.0))!r}")
        return pairs
    key, lo, hi = (("ar_coeffs", -0.9, 0.9) if problem == "ar"
                   else ("quad_diag", 0.0, 10.0))
    if draw(st.booleans()):
        values = draw(st.lists(_float_value(lo, hi), min_size=1, max_size=4))
        pairs.append(f"{key}={','.join(repr(v) for v in values)}")
    return pairs


# configs that once escaped the failure contract, checked under every command
_CONTRACT_EXAMPLES = [
    # 10^17 iterations need more than any 64-bit address space holds, so the
    # allocation fails at once (exit 1) without touching memory
    ["iterations=100000000000000000"],
    ["problem=quadratic", "iterations=100000000000000000"],
    # the Gaussian AR noise overflows while the data is simulated
    ["noise_std=1e308"],
    # epsilon ** (zeta - 1) rounds to 1, whose log d_curv would divide by;
    # the check that rejects it takes no power of an out-of-range pair
    ["optimizer=2sedfosgd", "iterations=3", "epsilon=0.9999999999999999"],
    ["epsilon=0"],
    ["epsilon=5e-324", "zeta=0"],
    # finite weights whose holdout logits overflow after the last step
    ["problem=mlp", "optimizer=2sedfosgd", "iterations=8", "mlp_hidden=8", "mlp_batch=8",
     "mlp_limit=200", "mu0=1e152", "seed=1"],
    ["problem=mlp", "optimizer=sgd", "iterations=8", "mlp_hidden=8", "mlp_batch=8",
     "mlp_limit=200", "mu0=1e154", "seed=6"],
    # the gap after the last step overflows: that is step 10's loss, so the
    # run diverges there, as it does at iterations=10
    ["problem=quadratic", "optimizer=fosgd", "iterations=9", "mu0=11.0", "alpha0=0.25",
     "quad_diag=1.0"],
    # the squares of a gradient within an unused clip bound above 1e154
    # overflow, so the bound does not spare the gradient check at step 9
    ["problem=ar", "optimizer=fosgd", "iterations=9", "mu0=62.8914", "alpha0=0.5",
     "alpha_min=0.01", "delta=0.118", "grad_clip=1.73e187", "noise=stable",
     "stable_tail=0.5", "ar_coeffs=1.2", "seed=480"],
]


def _contract_examples(**fixed):
    """Adds each of `_CONTRACT_EXAMPLES` as an `@example`, with `fixed`."""
    def decorate(test):
        for pairs in reversed(_CONTRACT_EXAMPLES):
            test = example(pairs=pairs, **fixed)(test)
        return test
    return decorate


class TestFailureContract:
    """Every config ends in exit 0, in exit 1 with one `error:` line and no
    trace file, or in exit 2 with one `diverged:` line naming a step or a
    sample index; nothing else escapes `cli.main`. A sweep lists its
    diverged seeds and exits 0; a rate fit names the seed that diverged.
    Exit 0 means finite results: every trace cell but a step norm and every
    summary value, and every number a sweep or rate fit prints."""

    @settings(max_examples=60, deadline=None)
    @given(pairs=cli_configs())
    @_contract_examples()
    def test_every_config_ends_in_a_known_exit(self, synthetic_idx, pairs):
        _assert_known_exit(synthetic_idx, "run", pairs)

    # the fixed examples run at 2 seeds, a rate fit at 60 steps so that its
    # seeds run
    @pytest.mark.parametrize("command", ["sweep", "ratefit"])
    @settings(max_examples=60, deadline=None)
    @given(pairs=cli_configs(), seeds=st.integers(1, 3), fit_iterations=st.integers(50, 70))
    @_contract_examples(seeds=2, fit_iterations=60)
    def test_every_seed_config_ends_in_a_known_exit(self, synthetic_idx, command, pairs,
                                                    seeds, fit_iterations):
        if command == "ratefit":  # the last override wins
            pairs = [*pairs, f"iterations={fit_iterations}"]
        _assert_known_exit(synthetic_idx, command, pairs, seeds)


def _assert_known_exit(synthetic_idx, command, pairs, seeds=None):
    """Runs `command` of a one-step sgd AR config file with `pairs` as
    overrides and checks that it ends as the failure contract says."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "base.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("problem = ar\noptimizer = sgd\niterations = 1\n")
        out = os.path.join(tmp, "trace.csv")
        argv = ([command, "--config", cfg, "--out", out] if command == "run"
                else [command, "--config", cfg, "--seeds", str(seeds)])
        if "problem=mlp" in pairs:
            pairs = [*pairs, f"mlp_images={synthetic_idx[0]}",
                     f"mlp_labels={synthetic_idx[1]}"]
        for pair in pairs:
            argv += ["--override", pair]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
            if command == "run":
                _assert_finite_run(out)
            else:
                assert not re.search(r"\b(inf|nan)\b", stdout.getvalue()), stdout.getvalue()
        elif code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not os.path.exists(out)
        else:
            assert code == 2 and command != "sweep", err
            assert err.startswith("diverged: ") and err.count("\n") == 1, err
            if command == "ratefit":
                assert re.match(r"diverged: seed=\d+ ", err), err
            found = re.search(r"\b(step|index) (\d+)", err)
            assert found, err
            assert not os.path.exists(out + ".summary")
            if found[1] == "step" and command == "run":
                # rows 1 .. N - 1 were written before step N diverged
                with open(out, encoding="utf-8") as fh:
                    rows = fh.read().splitlines()[1:]
                assert len(rows) == int(found[2]) - 1, err


def _assert_finite_run(out):
    """An exit-0 run has a finite value in every cell of its trace but the
    step norms (a finite step can be longer than the largest float) and in
    every summary value."""
    with open(out, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    cols = [j for j, name in enumerate(header.split(","))
            if not name.startswith("delta_norm_l")]
    rows = np.array([line.split(",") for line in lines], dtype=float)
    assert np.isfinite(rows[:, cols]).all(), rows
    with open(out + ".summary", encoding="utf-8") as fh:
        values = [float(line.split(" = ")[1]) for line in fh.read().splitlines()]
    assert np.isfinite(values).all(), values
