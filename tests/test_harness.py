import io
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from beamstab import diagnostics, harness
from beamstab.errors import ConfigError, InvalidArgumentError, StepFailureError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SMALL_CONFIG = """\
[mesh]
kind = interval
length = 1.0
nodes = 21
x0 = 0.0

[problem]
alpha1 = 0.1
alpha2 = 0.1
mu = constant
mu_c = 1.0

[feedback]
law1 = identity
law2 = identity

[initial]
u0 = sine
u0_amplitude = 1.0

[time]
dt = 0.01
T = 0.5

[output]
prefix = small
"""


@pytest.fixture
def small_cfg(tmp_path):
    cfg = harness.parse_config(text=SMALL_CONFIG)
    cfg.out_dir = str(tmp_path / "out")
    return cfg


class TestParseConfig:
    def test_reads_all_sections(self):
        cfg = harness.parse_config(text=SMALL_CONFIG)
        assert cfg.nodes == 21
        assert cfg.alpha1 == 0.1
        assert cfg.dt == 0.01 and cfg.T == 0.5
        assert cfg.hash and len(cfg.hash) == 16

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            harness.parse_config(text="[mesh]\nnodez = 21\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            harness.parse_config(text="[physics]\nfoo = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            harness.parse_config(text="[time]\ndt = soon\n")

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ConfigError):
            harness.parse_config(text="[problem]\nalpha1 = -0.1\n")
        with pytest.raises(ConfigError):
            harness.parse_config(text="[time]\nT = 0\n")

    def test_growing_coefficient_rejected(self):
        with pytest.raises(ConfigError):
            harness.parse_config(text="[problem]\nmu = decaying\nmu_lambda = -1\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.parse_config(tmp_path / "absent.ini")

    def test_law_params(self):
        cfg = harness.parse_config(
            text="[feedback]\nlaw1 = saturating\nlaw1_params = b=1.0, L=2.0\n")
        assert cfg.law1_params == {"b": 1.0, "L": 2.0}

    def test_refine_override(self):
        cfg = harness.parse_config(text=SMALL_CONFIG)
        harness.apply_overrides(cfg, refine=2)
        assert cfg.nodes == 81
        assert cfg.dt == pytest.approx(0.0025)


class TestRunCheck:
    def test_admissible_reference(self, small_cfg, capsys):
        code = harness.run_check(small_cfg)
        out = capsys.readouterr().out
        assert code == harness.EXIT_OK
        assert "admissible       true" in out
        assert "eta" in out

    def test_inadmissible_couplings(self, small_cfg):
        small_cfg.alpha1 = small_cfg.alpha2 = 1.0
        assert harness.run_check(small_cfg, stream=io.StringIO()) == harness.EXIT_INADMISSIBLE

    def test_csv_artifact(self, small_cfg, tmp_path):
        harness.run_check(small_cfg, out=str(tmp_path), stream=io.StringIO())
        body = (tmp_path / "small_check.csv").read_text()
        assert body.splitlines()[0].startswith("n,M,N,R,")


class TestRunSimulate:
    def test_zero_initial_data_stays_zero(self, small_cfg, tmp_path):
        small_cfg.u0 = small_cfg.v0 = "zero"
        code = harness.run_simulate(small_cfg, stream=io.StringIO())
        assert code == harness.EXIT_OK
        trace = harness.read_trace_csv(f"{small_cfg.out_dir}/small_trace.csv")
        assert np.all(trace.E == 0.0)

    def test_products_and_summary(self, small_cfg):
        stream = io.StringIO()
        assert harness.run_simulate(small_cfg, stream=stream) == harness.EXIT_OK
        out = stream.getvalue()
        assert "bound_violations 0" in out
        assert "fitted_rate" in out
        from pathlib import Path
        outdir = Path(small_cfg.out_dir)
        assert (outdir / "small_trace.csv").exists()
        assert (outdir / "small_final.ckpt").exists()
        assert (outdir / "small_summary.txt").exists()

    def test_plot_emission(self, small_cfg):
        small_cfg.plot = True
        harness.run_simulate(small_cfg, stream=io.StringIO())
        from pathlib import Path
        assert (Path(small_cfg.out_dir) / "small_energy.svg").exists()

    def test_determinism_byte_identical(self, small_cfg, tmp_path):
        bodies = []
        for run in range(2):
            small_cfg.out_dir = str(tmp_path / f"run{run}")
            harness.run_simulate(small_cfg, stream=io.StringIO())
            bodies.append(
                (tmp_path / f"run{run}" / "small_trace.csv").read_bytes())
        assert bodies[0] == bodies[1]

    def test_step_failure_exit_code(self, small_cfg, monkeypatch):
        def explode(*args, **kwargs):
            raise StepFailureError(0.25, 1.0)
        monkeypatch.setattr(harness, "integrate", explode)
        stream = io.StringIO()
        assert harness.run_simulate(small_cfg, stream=stream) == harness.EXIT_STEP_FAILURE
        assert "t=0.25" in stream.getvalue()


class TestRunVerify:
    def test_default_suites_pass(self, small_cfg):
        stream = io.StringIO()
        assert harness.run_verify(small_cfg, stream=stream) == harness.EXIT_OK
        out = stream.getvalue()
        assert "FAIL" not in out
        for suite in harness.VERIFY_SUITES:
            assert f"{suite}/" in out

    def test_fault_injection_detected(self, small_cfg):
        stream = io.StringIO()
        code = harness.run_verify(small_cfg, suites=("assembly",),
                                  corrupt="stiffness", stream=stream)
        assert code == 1
        assert "FAIL assembly/stiffness-symmetry" in stream.getvalue()

    def test_assembly_suite_stays_sparse(self, small_cfg):
        # 96x96 rect, 9 409 nodes: one dense copy of K alone would be 708 MB
        small_cfg.mesh_kind, small_cfg.nx, small_cfg.ny = "rect", 96, 96
        small_cfg.x0 = np.array([-0.1, -0.1])
        stream = io.StringIO()
        tracemalloc.start()
        try:
            code = harness.run_verify(small_cfg, suites=("assembly",), stream=stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == harness.EXIT_OK, stream.getvalue()
        assert peak < 50e6
        stream = io.StringIO()
        assert harness.run_verify(small_cfg, suites=("assembly",), corrupt="stiffness",
                                  stream=stream) == 1
        assert "FAIL assembly/stiffness-symmetry" in stream.getvalue()

    def test_empty_suite_selection(self, small_cfg):
        with pytest.raises(ConfigError):
            harness.run_verify(small_cfg, suites=())

    def test_unknown_suite(self, small_cfg):
        with pytest.raises(ConfigError):
            harness.run_verify(small_cfg, suites=("nonsense",))


class TestReadTrace:
    def test_unstored_columns_are_refused(self, small_cfg):
        harness.run_simulate(small_cfg, stream=io.StringIO())
        trace = harness.read_trace_csv(f"{small_cfg.out_dir}/small_trace.csv")
        for name in ("stiff_u", "mu_prime_term", "bdry_u_sq", "bdry_v_sq"):
            assert np.all(np.isnan(getattr(trace, name)))
        with pytest.raises(InvalidArgumentError, match="mu_prime_term"):
            diagnostics.energy_balance_residuals(trace)
        with pytest.raises(InvalidArgumentError, match="bdry_u_sq"):
            diagnostics.g_slope_defects(trace, 1.0, 1.0)
        assert diagnostics.fit_decay_rate(trace).rate > 0

    def test_reproduce_decay_script(self, tmp_path, monkeypatch, capsys):
        script = SCRIPTS / "reproduce_decay.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--T", "1", "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_info.value.code == 0
        assert "fitted rate" in capsys.readouterr().out


class TestRunSweep:
    def test_grid_rows(self, tmp_path):
        text = SMALL_CONFIG + "\n[sweep]\nalpha = 0.05 0.1\nlaws = identity saturating\n"
        cfg = harness.parse_config(text=text)
        cfg.out_dir = str(tmp_path)
        cfg.T = 0.2
        assert harness.run_sweep(cfg, stream=io.StringIO()) == harness.EXIT_OK
        lines = (tmp_path / "small_sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha1,alpha2,law1,law2,admissible,eta,fitted_rate"
        assert len(lines) == 5

    def test_inadmissible_point_not_simulated(self, tmp_path):
        text = SMALL_CONFIG + "\n[sweep]\nalpha = 1.0\nlaws = identity\n"
        cfg = harness.parse_config(text=text)
        cfg.out_dir = str(tmp_path)
        harness.run_sweep(cfg, stream=io.StringIO())
        row = (tmp_path / "small_sweep.csv").read_text().splitlines()[1]
        fields = row.split(",")
        assert fields[4] == "false"
        assert fields[5] == "" and fields[6] == ""

    def test_requires_grid(self, small_cfg):
        with pytest.raises(ConfigError):
            harness.run_sweep(small_cfg)

    def test_refuses_law_params(self, tmp_path):
        text = SMALL_CONFIG.replace(
            "law2 = identity\n", "law2 = identity\nlaw1_params = k=2\nlaw2_params = k=3\n")
        cfg = harness.parse_config(text=text + "\n[sweep]\nalpha = 0.05\nlaws = identity\n")
        cfg.out_dir = str(tmp_path)
        assert cfg.law1_params == {"k": 2.0} and cfg.law2_params == {"k": 3.0}
        with pytest.raises(ConfigError, match="law1_params, law2_params"):
            harness.run_sweep(cfg, stream=io.StringIO())
        assert not (tmp_path / "small_sweep.csv").exists()

    def test_coupling_sweep_script(self, tmp_path, monkeypatch, capsys):
        script = SCRIPTS / "coupling_sweep.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--T", "0.2", "--alphas", "0.05",
                                          "--laws", "identity", "saturating",
                                          "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_info.value.code == 0
        lines = (tmp_path / "reference_sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha1,alpha2,law1,law2,admissible,eta,fitted_rate"
        assert [ln.split(",")[2] for ln in lines[1:]] == ["identity", "saturating"]
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] == "true" and float(fields[5]) > 0 and float(fields[6]) > 0
        assert capsys.readouterr().out.splitlines() == lines


class TestCli:
    def test_check_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG)
        assert harness.main(["check", "--config", str(path)]) == 0
        capsys.readouterr()

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[mesh]\nwat = 1\n")
        assert harness.main(["check", "--config", str(path)]) == harness.EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert harness.main([]) == harness.EXIT_USAGE
        capsys.readouterr()

    def test_simulate_and_fit_pipeline(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG)
        out = str(tmp_path / "out")
        assert harness.main(["simulate", "--config", str(path), "--out", out,
                             "--T", "0.4"]) == 0
        capsys.readouterr()
        assert harness.main(["fit", f"{out}/small_trace.csv"]) == 0
        fit_out = capsys.readouterr().out
        assert "rate " in fit_out and "r_squared" in fit_out

    def test_fit_window_flag(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG)
        out = str(tmp_path / "out")
        harness.main(["simulate", "--config", str(path), "--out", out])
        capsys.readouterr()
        assert harness.main(["fit", f"{out}/small_trace.csv",
                             "--window", "0.1", "0.5"]) == 0
        capsys.readouterr()

    def test_fit_rejects_foreign_csv(self, tmp_path, capsys):
        junk = tmp_path / "junk.csv"
        junk.write_text("a,b\n1,2\n")
        assert harness.main(["fit", str(junk)]) == harness.EXIT_USAGE
        capsys.readouterr()
