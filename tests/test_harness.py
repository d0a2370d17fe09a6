import contextlib
import io
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedfosgd import cli
from sedfosgd.harness import (ConfigError, ExperimentConfig, _QuadraticDriver,
                              _shuffled_indices, csv_bytes, derive_seed,
                              load_config, parse_config_text, parse_overrides,
                              rate_fit, run, running_min, seed_rate_fit,
                              seed_sweep)
from sedfosgd.mathkit import NumericalError
from sedfosgd.noise import RngStream, gaussian
from sedfosgd.optim import DivergenceError
from sedfosgd.problems import quadratic_loss_grad

AR_CFG = ExperimentConfig(problem="ar", optimizer="2sedfosgd", iterations=100,
                          seed=1, mu0=0.1)


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
        b = run(replace(AR_CFG, optimizer="fosgd", fixed_alpha=AR_CFG.alpha0))
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
        driver = _QuadraticDriver(cfg, RngStream(9))
        ref = RngStream(9)
        theta = np.linspace(-1.0, 1.0, dim)
        for t in range(1, steps + 1):
            f, (g,) = driver.loss_grad([theta], t)
            f_ref, g_ref = quadratic_loss_grad(theta, driver.a_mat, driver.b)
            noise = np.array([gaussian(ref, 0.0, 2.5) for _ in range(dim)])
            assert f == f_ref
            assert g.tobytes() == (g_ref + noise).tobytes()


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
        ["fixed_alpha=1.5"],
        ["fixed_alpha=0"],
        ["mlp_batch=0"],
        ["mlp_batch=-3"],
        ["mlp_limit=2", "mlp_holdout=0.9"],
        ["mlp_holdout=0"],
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
    ])
    def test_invalid_value_exits_before_trace(self, tmp_path, capsys, problem,
                                              overrides):
        # non-finite values and a negative noise std are config errors, not
        # divergences, and leave no trace file behind
        cfg = self._write_cfg(
            tmp_path, f"problem = {problem}\noptimizer = 2sedfosgd\niterations = 5\n")
        out = str(tmp_path / "trace.csv")
        argv = ["run", "--config", cfg, "--out", out]
        for pair in overrides:
            argv += ["--override", pair]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not os.path.exists(out)

    def test_generation_blowup_exit_code(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path,
            "problem = ar\noptimizer = sgd\niterations = 6000\nar_coeffs = 1.2\n")
        out = str(tmp_path / "trace.csv")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("diverged: ") and err.count("\n") == 1
        assert not os.path.exists(out)

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
        fixed = _outcome(replace(cfg, optimizer="fosgd", fixed_alpha=alpha))
        assert adaptive == fixed
        classical = _outcome(replace(cfg, optimizer="fosgd", fixed_alpha=1.0))
        assert classical == _outcome(cfg)


_SPECIAL = [0.0, -1.0, float("nan"), float("inf")]
# a valid range for each float key; each draw takes it or one of _SPECIAL
_FLOAT_RANGES = {
    "mu0": (1e-3, 20.0), "delta": (1e-8, 1e-2), "alpha0": (0.05, 1.0),
    "beta": (0.0, 0.1), "zeta": (2.0 / 3.0, 0.99), "epsilon": (1e-4, 0.5),
    "alpha_min": (1e-3, 0.05), "fixed_alpha": (0.05, 1.0),
    "fisher_decay": (0.01, 1.0), "grad_clip": (0.1, 20.0),
    "noise_std": (0.0, 2.0), "stable_tail": (0.5, 2.0),
    "stable_skew": (-1.0, 1.0), "stable_scale": (0.1, 2.0),
    "stable_location": (-1.0, 1.0), "quad_noise_std": (0.0, 5.0),
}


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
    for key, (lo, hi) in _FLOAT_RANGES.items():
        if draw(st.booleans()):
            pairs.append(f"{key}={draw(_float_value(lo, hi))!r}")
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
                assert re.search(r"\b(step|index) \d+", err), err
                assert not os.path.exists(out + ".summary")
