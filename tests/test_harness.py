import configparser
import dataclasses
import io
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from beamstab import _fem, diagnostics, discretization, geometry, harness
from beamstab.admissibility import build_report
from beamstab.errors import ConfigError, InvalidArgumentError, StepFailureError

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# what simulate and the CLI print for StepFailureError(0.25, 1.0)
STEP_FAILURE_LINE = "step failure at t=0.25 (residual 1.000e+00); retry with a smaller dt\n"

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


# every config key but the interval and constant-mu ones of INTERVAL_KEYS_CONFIG,
# each set to a value other than its default
ALL_KEYS_CONFIG = """\
[mesh]
kind = rect
lx = 1.5
ly = 0.75
nx = 12
ny = 6
x0 = -0.1 -0.2

[problem]
alpha1 = 0.02
alpha2 = 0.03
mu = decaying
mu_c0 = 2.0
mu_lambda = 0.25

[feedback]
law1 = saturating
law1_params = b=0.5, L=3
law2 = hardening
law2_params = b=1, L=2, knee=0.5

[initial]
u0 = bump
u0_amplitude = 16
v0 = quadratic
v0_amplitude = -0.5
u1 = linear
u1_amplitude = 0.25
v1 = sine
v1_amplitude = 2

[time]
dt = 0.002
T = 0.5

[output]
dir = results
prefix = full
plot = on

[sweep]
alpha = 0.01 0.02
laws = identity saturating
"""

# the keys read only on an interval or under a constant mu
INTERVAL_KEYS_CONFIG = """\
[mesh]
kind = interval
length = 2.5
nodes = 33

[problem]
mu = constant
mu_c = 1.5
"""

# the accepted keys before they were derived from the RunConfig field table
KEYS_BEFORE_TABLE = {
    "mesh": {"kind", "length", "nodes", "lx", "ly", "nx", "ny", "x0"},
    "problem": {"alpha1", "alpha2", "mu", "mu_c", "mu_c0", "mu_lambda"},
    "feedback": {"law1", "law1_params", "law2", "law2_params"},
    "initial": {"u0", "u0_amplitude", "v0", "v0_amplitude",
                "u1", "u1_amplitude", "v1", "v1_amplitude"},
    "time": {"dt", "T"},
    "output": {"dir", "prefix", "plot"},
    "sweep": {"alpha", "laws"},
}


def _all_fields(cfg):
    out = dataclasses.asdict(cfg)
    out["x0"] = out["x0"].tolist()
    return out


def _refuse(*args, **kwargs):
    raise AssertionError("a domain operator was built")


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

    @pytest.mark.parametrize("text, message", [
        ("[problem]\nmu = decaying\nmu_c = 5\n",
         "problem.mu_c is read only when mu = constant, got decaying"),
        ("[problem]\nmu_lambda = 0.5\nmu_c0 = 2\n",
         "problem.mu_c0 is read only when mu = decaying, got constant"),
        ("[mesh]\nnx = 64\nkind = interval\n",
         "mesh.nx is read only when kind = rect, got interval"),
        ("[mesh]\nkind = rect\nnodes = 33\n",
         "mesh.nodes is read only when kind = interval, got rect"),
    ], ids=["mu_c-decaying", "mu_c0-constant", "nx-interval", "nodes-rect"])
    def test_key_of_the_other_kind_rejected(self, text, message, tmp_path, capsys):
        with pytest.raises(ConfigError) as info:
            harness.parse_config(text=text)
        assert str(info.value) == message
        path = tmp_path / "other_kind.ini"
        path.write_text(text)
        assert harness.main(["check", "--config", str(path)]) == harness.EXIT_USAGE == 64
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("[DEFAULT]\nmu_c = 2\n", "keys under [DEFAULT] are not read: mu_c"),
        ("[DEFAULT]\nmu_c = 2\ndt = 0.5\n\n[mesh]\nnodes = 21\n",
         "keys under [DEFAULT] are not read: mu_c, dt"),
    ], ids=["alone", "beside-a-section"])
    def test_default_section_rejected(self, text, message, tmp_path, capsys):
        # configparser leaves [DEFAULT] out of sections() and copies its keys
        # into every section: alone they were dropped, beside a section
        # reported as unknown keys of that section
        with pytest.raises(ConfigError) as info:
            harness.parse_config(text=text)
        assert str(info.value) == message
        path = tmp_path / "default.ini"
        path.write_text(text)
        assert harness.main(["check", "--config", str(path)]) == harness.EXIT_USAGE == 64
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_value_checks_come_before_the_kind_rule(self):
        with pytest.raises(ConfigError, match="problem.mu_c must be finite and positive"):
            harness.parse_config(text="[problem]\nmu = decaying\nmu_c = -1\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.parse_config(tmp_path / "absent.ini")

    def test_law_params(self):
        cfg = harness.parse_config(
            text="[feedback]\nlaw1 = saturating\nlaw1_params = b=1.0, L=2.0\n")
        assert cfg.law1_params == {"b": 1.0, "L": 2.0}

    def test_repeated_law_parameter_rejected(self):
        with pytest.raises(ConfigError, match=r"law1_params: law parameter 'k' is given twice"):
            harness.parse_config(text="[feedback]\nlaw1_params = k=1, b=2, k = 2\n")

    def test_reference_config_fields(self):
        path = ROOT / "configs" / "reference_1d.ini"
        assert _all_fields(harness.parse_config(path)) == {
            "mesh_kind": "interval", "length": 1.0, "nodes": 201, "lx": 1.0, "ly": 1.0,
            "nx": 16, "ny": 16, "x0": [0.0],
            "alpha1": 0.1, "alpha2": 0.1, "mu_kind": "constant", "mu_c": 1.0,
            "mu_c0": 1.0, "mu_lambda": 0.0,
            "law1_name": "identity", "law1_params": {},
            "law2_name": "identity", "law2_params": {},
            "u0": "sine", "u0_amplitude": 1.0, "v0": "sine", "v0_amplitude": 0.5,
            "u1": "zero", "u1_amplitude": 0.0, "v1": "zero", "v1_amplitude": 0.0,
            "dt": 1e-3, "T": 60.0, "out_dir": "out", "prefix": "reference", "plot": False,
            "sweep_alphas": (), "sweep_laws": (),
            "hash": "0cc7bf81fb9e9605"}

    def test_all_keys_config_fields(self):
        keys = set()
        for text in (ALL_KEYS_CONFIG, INTERVAL_KEYS_CONFIG):
            parser = configparser.ConfigParser()
            parser.read_string(text)
            keys |= {(s, k) for s in parser.sections() for k in parser[s]}
        assert keys == set(harness._CONFIG_KEYS)
        interval = _all_fields(harness.parse_config(text=INTERVAL_KEYS_CONFIG))
        assert {k: interval[k] for k in ("mesh_kind", "length", "nodes", "mu_kind", "mu_c")} \
            == {"mesh_kind": "interval", "length": 2.5, "nodes": 33,
                "mu_kind": "constant", "mu_c": 1.5}
        assert _all_fields(harness.parse_config(text=ALL_KEYS_CONFIG)) == {
            "mesh_kind": "rect", "length": 1.0, "nodes": 201, "lx": 1.5, "ly": 0.75,
            "nx": 12, "ny": 6, "x0": [-0.1, -0.2],
            "alpha1": 0.02, "alpha2": 0.03, "mu_kind": "decaying", "mu_c": 1.0,
            "mu_c0": 2.0, "mu_lambda": 0.25,
            "law1_name": "saturating", "law1_params": {"b": 0.5, "L": 3.0},
            "law2_name": "hardening", "law2_params": {"b": 1.0, "L": 2.0, "knee": 0.5},
            "u0": "bump", "u0_amplitude": 16.0, "v0": "quadratic", "v0_amplitude": -0.5,
            "u1": "linear", "u1_amplitude": 0.25, "v1": "sine", "v1_amplitude": 2.0,
            "dt": 0.002, "T": 0.5, "out_dir": "results", "prefix": "full", "plot": True,
            "sweep_alphas": (0.01, 0.02), "sweep_laws": ("identity", "saturating"),
            "hash": "abc696cb1ec85f6a"}

    def test_defaults(self):
        assert _all_fields(harness.parse_config(text="")) == {
            "mesh_kind": "interval", "length": 1.0, "nodes": 201, "lx": 1.0, "ly": 1.0,
            "nx": 16, "ny": 16, "x0": [0.0],
            "alpha1": 0.1, "alpha2": 0.1, "mu_kind": "constant", "mu_c": 1.0,
            "mu_c0": 1.0, "mu_lambda": 0.0,
            "law1_name": "identity", "law1_params": {},
            "law2_name": "identity", "law2_params": {},
            "u0": "sine", "u0_amplitude": 1.0, "v0": "zero", "v0_amplitude": 0.0,
            "u1": "zero", "u1_amplitude": 0.0, "v1": "zero", "v1_amplitude": 0.0,
            "dt": 1e-3, "T": 1.0, "out_dir": "out", "prefix": "run", "plot": False,
            "sweep_alphas": (), "sweep_laws": (),
            "hash": "e3b0c44298fc1c14"}

    def test_x0_follows_mesh_dimension(self):
        assert harness.parse_config(text="[mesh]\nkind = rect\n").x0.tolist() == [0.0, 0.0]
        with pytest.raises(ConfigError, match="x0 needs 2 component"):
            harness.parse_config(text="[mesh]\nkind = rect\nx0 = 0.5\n")

    def test_key_set_unchanged(self):
        want = {(section, key.lower())
                for section, keys in KEYS_BEFORE_TABLE.items() for key in keys}
        assert len(want) == 33
        assert set(harness._CONFIG_KEYS) == want

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

    @pytest.mark.parametrize("text", [
        pytest.param((ROOT / "configs" / "reference_1d.ini").read_text(), id="reference"),
        pytest.param(SMALL_CONFIG.replace("kind = interval", "kind = rect\nnx = 24\nny = 16")
                     .replace("length = 1.0\nnodes = 21\n", "")
                     .replace("x0 = 0.0", "x0 = -0.1 -0.2")
                     .replace("alpha1 = 0.1\nalpha2 = 0.1", "alpha1 = 0.03\nalpha2 = 0.03"),
                     id="rect"),
    ])
    def test_builds_no_domain_operator(self, text, tmp_path, monkeypatch):
        cfg = harness.parse_config(text=text)
        mesh, partition, system = harness.build_problem(cfg)
        gc = geometry.geometric_constants(mesh, partition)
        emb = geometry.embedding_constants(mesh, partition)
        assembled = build_report(mesh.dimension, emb["M"], emb["N"], gc["R"], gc["tau0"],
                                 system.schedule, system.law1, system.law2,
                                 cfg.alpha1, cfg.alpha2, partition)
        for module, name in ((_fem, "domain_matrices"), (_fem, "stencil"),
                             (discretization, "assemble"), (harness, "assemble")):
            monkeypatch.setattr(module, name, _refuse)
        code = harness.run_check(cfg, out=str(tmp_path), stream=io.StringIO())
        header, row = (tmp_path / f"{cfg.prefix}_check.csv").read_text().splitlines()
        got = dict(zip(header.split(","), row.split(",")))
        want = dict(zip(header.split(","), assembled.as_csv().splitlines()[1].split(",")))
        assert got["admissible"] == want["admissible"] == "true"
        assert code == harness.EXIT_OK
        assert {k: got[k] for k in ("M", "eta")} == {k: want[k] for k in ("M", "eta")}


class TestRunSimulate:
    def test_zero_initial_data_stays_zero(self, small_cfg, tmp_path):
        small_cfg.u0 = small_cfg.v0 = "zero"
        code = harness.run_simulate(small_cfg, stream=io.StringIO())
        assert code == harness.EXIT_OK
        trace = diagnostics.read_trace_csv(f"{small_cfg.out_dir}/small_trace.csv")
        assert np.all(trace.E == 0.0)

    def test_products_and_summary(self, small_cfg, monkeypatch):
        written = []
        write_csv = diagnostics.EnergyTrace.write_csv

        def keep(trace, path):
            written.append(trace)
            write_csv(trace, path)

        monkeypatch.setattr(diagnostics.EnergyTrace, "write_csv", keep)
        stream = io.StringIO()
        assert harness.run_simulate(small_cfg, stream=stream) == harness.EXIT_OK
        out = stream.getvalue()
        assert "bound_violations 0" in out
        assert "fitted_rate" in out
        from pathlib import Path
        outdir = Path(small_cfg.out_dir)
        assert (outdir / "small_trace.csv").exists()
        assert not (outdir / "small_final.ckpt").exists()
        assert (outdir / "small_summary.txt").exists()
        # the summary's count is the written trace's, on a certified trace
        (trace,) = written
        assert np.all(np.isfinite(trace.envelope()))
        assert f"bound_violations {trace.bound_violations()}\n" in out

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

    @pytest.mark.parametrize("mesh", ["interval", "rect"])
    def test_builds_two_stencils(self, small_cfg, monkeypatch, mesh):
        # every form of the run comes from a stencil of the system's free 1D
        # factor bands: one at assembly for its csr forms, one in
        # state_operator() for S; the gamma1 band is read as bands alone
        if mesh == "rect":
            small_cfg.mesh_kind, small_cfg.nx, small_cfg.ny = "rect", 8, 6
            small_cfg.x0 = np.array([-0.1, -0.1])
            small_cfg.alpha1 = small_cfg.alpha2 = 0.03
        calls, systems = [], []
        stencil, assemble = _fem.stencil, harness.assemble
        monkeypatch.setattr(_fem, "stencil", lambda bands: calls.append(bands) or stencil(bands))
        monkeypatch.setattr(harness, "assemble",
                            lambda *args: systems.append(assemble(*args)) or systems[-1])
        monkeypatch.setattr(_fem, "domain_matrices", _refuse)
        assert harness.run_simulate(small_cfg, stream=io.StringIO()) == harness.EXIT_OK
        system, = systems
        assert [[list(b) for b in bands] for bands in calls] == [
            [["mass", "stiffness", "derivative", "multiplier"]] * len(system.factors),
            [["mass", "stiffness", "derivative", "sigma"]] * len(system.factors)]
        for bands in calls:
            for b, f in zip(bands, system.factors, strict=True):
                assert all(b[name] is f[name] for name in b)

    def test_step_failure_exit_code(self, small_cfg, monkeypatch):
        def explode(*args, **kwargs):
            raise StepFailureError(0.25, 1.0)
        monkeypatch.setattr(harness, "integrate", explode)
        stream = io.StringIO()
        assert harness.run_simulate(small_cfg, stream=stream) == harness.EXIT_STEP_FAILURE
        assert stream.getvalue() == STEP_FAILURE_LINE


def _corrupt_stiffness(monkeypatch):
    """Make _fem.domain_matrices return a stiffness with an asymmetric
    (0, n-1) entry."""
    build = _fem.domain_matrices

    def corrupted(*args, **kwargs):
        mats = build(*args, **kwargs)
        K = mats["stiffness"]
        n = K.shape[0]
        mats["stiffness"] = K + sp.csr_matrix(([1e-3], ([0], [n - 1])), shape=K.shape)
        return mats

    monkeypatch.setattr(_fem, "domain_matrices", corrupted)


class TestRunVerify:
    def test_default_suites_pass(self, small_cfg):
        stream = io.StringIO()
        assert harness.run_verify(small_cfg, stream=stream) == harness.EXIT_OK
        out = stream.getvalue()
        assert "FAIL" not in out
        for suite in harness.VERIFY_SUITES:
            assert f"{suite}/" in out

    def test_fault_injection_detected(self, small_cfg, monkeypatch):
        _corrupt_stiffness(monkeypatch)
        stream = io.StringIO()
        code = harness.run_verify(small_cfg, suites=("assembly",), stream=stream)
        assert code == 1
        assert "FAIL assembly/stiffness-symmetry" in stream.getvalue()

    def test_assembly_suite_stays_sparse(self, small_cfg, monkeypatch):
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
        _corrupt_stiffness(monkeypatch)
        stream = io.StringIO()
        assert harness.run_verify(small_cfg, suites=("assembly",), stream=stream) == 1
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
        trace = diagnostics.read_trace_csv(f"{small_cfg.out_dir}/small_trace.csv")
        assert np.all(np.isnan(trace.mu_prime_term))
        with pytest.raises(InvalidArgumentError, match="mu_prime_term"):
            diagnostics.energy_balance_residuals(trace)
        assert diagnostics.fit_decay_rate(trace).rate > 0

    def test_damaged_trace_is_usage_error(self, small_cfg, tmp_path, capsys):
        harness.run_simulate(small_cfg, stream=io.StringIO())
        text = Path(f"{small_cfg.out_dir}/small_trace.csv").read_bytes()
        cut = tmp_path / "cut.csv"
        cut.write_bytes(text[:2000])
        assert not text[:2000].endswith(b"\n")  # the cut ends inside a row
        last = len(text[:2000].splitlines())
        with pytest.raises(ConfigError, match=rf"cut\.csv, line {last}: "):
            diagnostics.read_trace_csv(cut)
        assert harness.main(["fit", str(cut)]) == harness.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"line {last}" in err[0]

        header_end = text.index(b"\n", text.index(b"t,E,")) + 1
        cut.write_bytes(text[:header_end])  # cut right after the header
        with pytest.raises(ConfigError, match="no samples"):
            diagnostics.read_trace_csv(cut)

        lines = text.decode().splitlines()
        lines[4] = "x" + lines[4]
        cut.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="cut\\.csv, line 5: could not convert"):
            diagnostics.read_trace_csv(cut)

    def test_reproduce_decay_script(self, tmp_path, monkeypatch, capsys):
        script = SCRIPTS / "reproduce_decay.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--T", "1", "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "fitted rate" in out
        assert (tmp_path / "reference_check.csv").read_text().startswith("n,M,N,R,")
        summary = dict(line.split(" ", 1) for line in
                       (tmp_path / "reference_summary.txt").read_text().splitlines())
        assert f"certified rate  {2.0 / 3.0 * float(summary['eta']):.6f}  ((2/3) eta)\n" in out

    def test_reproduce_decay_script_without_a_fit(self, tmp_path, monkeypatch, capsys):
        # one step: the default window [0.2 T, T] holds one sample
        script = SCRIPTS / "reproduce_decay.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--T", "0.001", "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_info.value.code == 1
        assert "the run fitted no decay rate" in capsys.readouterr().err


class TestRunSweep:
    def test_grid_rows(self, tmp_path, monkeypatch):
        text = SMALL_CONFIG + "\n[sweep]\nalpha = 0.05 0.1\nlaws = identity saturating\n"
        cfg = harness.parse_config(text=text)
        cfg.out_dir = str(tmp_path)
        cfg.T = 0.2
        calls = []
        embedding_constants = geometry.embedding_constants
        monkeypatch.setattr(geometry, "embedding_constants",
                            lambda *args: calls.append(args) or embedding_constants(*args))
        assert harness.run_sweep(cfg, stream=io.StringIO()) == harness.EXIT_OK
        lines = (tmp_path / "small_sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha1,alpha2,law1,law2,admissible,eta,fitted_rate,status"
        assert len(lines) == 5
        assert [ln.split(",")[7] for ln in lines[1:]] == ["ok"] * 4
        assert len(calls) == 1  # M and N depend on the mesh and the partition only

    def test_rows_ordered_by_alpha_value(self, tmp_path):
        text = SMALL_CONFIG + "\n[sweep]\nalpha = 10 0.5 2 0.001\nlaws = saturating identity\n"
        cfg = harness.parse_config(text=text)
        cfg.out_dir = str(tmp_path)
        cfg.T = 0.2
        assert harness.run_sweep(cfg, stream=io.StringIO()) == harness.EXIT_OK
        rows = [ln.split(",") for ln in (tmp_path / "small_sweep.csv").read_text().splitlines()[1:]]
        assert [(float(r[0]), r[2]) for r in rows] == [
            (a, law) for a in (0.001, 0.5, 2.0, 10.0) for law in ("identity", "saturating")]
        assert [r[7] for r in rows] == ["ok"] * 2 + ["inadmissible"] * 6

    def test_step_failure_keeps_the_row(self, tmp_path, monkeypatch):
        text = SMALL_CONFIG + "\n[sweep]\nalpha = 0.05 0.1\nlaws = identity saturating\n"
        cfg = harness.parse_config(text=text)
        cfg.out_dir = str(tmp_path)
        cfg.T = 0.2
        calls = []
        integrate = harness.integrate

        def fail_third_point(*args, **kwargs):
            calls.append(args[0].alpha1)
            if len(calls) == 3:  # points run alpha by alpha: (0.1, identity)
                raise StepFailureError(0.07, 1.0)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(harness, "integrate", fail_third_point)
        assert harness.run_sweep(cfg, stream=io.StringIO()) == harness.EXIT_OK
        assert len(calls) == 4  # the sweep went on after the failure
        rows = [ln.split(",") for ln in (tmp_path / "small_sweep.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[2], r[7]) for r in rows] == [
            ("0.050000000000000003", "identity", "ok"),
            ("0.050000000000000003", "saturating", "ok"),
            ("0.10000000000000001", "identity", "step_failure t=0.070000000000000007"),
            ("0.10000000000000001", "saturating", "ok")]
        failed = rows[2]
        assert failed[4] == "true" and float(failed[5]) > 0 and failed[6] == ""
        assert all(float(r[6]) > 0 for r in rows if r[7] == "ok")

    def test_undefined_fit_is_its_own_status(self, tmp_path):
        # zero initial data: the energy stays 0 and no rate can be fitted
        text = SMALL_CONFIG.replace("u0_amplitude = 1.0", "u0_amplitude = 0")
        cfg = harness.parse_config(text=text + "\n[sweep]\nalpha = 0.03125\nlaws = identity\n")
        cfg.out_dir = str(tmp_path)
        assert harness.run_sweep(cfg, stream=io.StringIO()) == harness.EXIT_OK
        fields = (tmp_path / "small_sweep.csv").read_text().splitlines()[1].split(",")
        assert fields[4] == "true" and float(fields[5]) > 0
        assert fields[6] == "" and fields[7] == "fit_undefined"

    def test_inadmissible_point_not_simulated(self, tmp_path, monkeypatch):
        text = SMALL_CONFIG + "\n[sweep]\nalpha = 1.0\nlaws = identity\n"
        cfg = harness.parse_config(text=text)
        cfg.out_dir = str(tmp_path)
        monkeypatch.setattr(harness, "assemble", _refuse)  # an inadmissible point builds no system
        harness.run_sweep(cfg, stream=io.StringIO())
        row = (tmp_path / "small_sweep.csv").read_text().splitlines()[1]
        fields = row.split(",")
        assert fields[4] == "false"
        assert fields[5] == "" and fields[6] == "" and fields[7] == "inadmissible"

    def test_requires_grid(self, small_cfg):
        with pytest.raises(ConfigError):
            harness.run_sweep(small_cfg)

    @pytest.mark.parametrize("alphas", ["0.1 nan", "inf", "0.05 0", "-0.1"])
    def test_alpha_rule_names_the_key(self, alphas):
        with pytest.raises(ConfigError, match=r"sweep\.alpha must list finite and positive"):
            harness.parse_config(text=SMALL_CONFIG + f"\n[sweep]\nalpha = {alphas}\n")

    @pytest.mark.parametrize("laws", ["identity zero", "zero", "saturating zero hardening"])
    def test_law_without_damping_is_refused_when_read(self, tmp_path, capsys, laws):
        # build_report refuses b = 0, so the sweep would stop after its earlier points
        text = SMALL_CONFIG + f"\n[sweep]\nalpha = 0.05\nlaws = {laws}\n"
        with pytest.raises(ConfigError, match=r"sweep\.laws must list only laws whose "
                                              r"default b > 0: identity, saturating, hardening"):
            harness.parse_config(text=text)
        path = tmp_path / "run.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert harness.main(["sweep", "--config", str(path), "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep.laws ") and len(err.splitlines()) == 1
        assert not out.exists()

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
        assert lines[0] == "alpha1,alpha2,law1,law2,admissible,eta,fitted_rate,status"
        assert [ln.split(",")[2] for ln in lines[1:]] == ["identity", "saturating"]
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] == "true" and float(fields[5]) > 0 and float(fields[6]) > 0
            assert fields[7] == "ok"
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.parametrize("flags, key", [
        (["--laws", "zero"], "sweep.laws"),
        (["--laws", "bogus"], "sweep.laws"),
        (["--T", "0.05", "--alphas", "0.05", "--laws", "identity", "zero"], "sweep.laws"),
        (["--alphas", "-1"], "sweep.alpha"),
        (["--T", "-1"], "time.T"),
    ], ids=["zero", "bogus", "identity-zero", "alpha-negative", "T-negative"])
    def test_coupling_sweep_script_refuses_bad_grid(self, tmp_path, monkeypatch, capsys,
                                                    flags, key):
        script = SCRIPTS / "coupling_sweep.py"
        out = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", [str(script), *flags, "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_info.value.code == harness.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {key} ")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()


class TestCli:
    def test_check_exit_codes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG)
        assert harness.main(["check", "--config", str(path)]) == 0
        capsys.readouterr()

    def test_check_writes_its_csv_into_the_output_dir(self, tmp_path, capsys, monkeypatch):
        # [output] dir, as simulate and sweep read it; --out wins over it
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG + "dir = outdir\n")
        cfg = harness.parse_config(path)
        mesh, partition = harness.build_domain(cfg)
        constants = harness.build_constants(mesh, partition)
        report = harness.build_certificate(cfg, partition, constants)
        assert harness.main(["check", "--config", str(path), "--out", "elsewhere"]) == 0
        assert (tmp_path / "elsewhere" / "small_check.csv").read_text() == report.as_csv()
        assert not (tmp_path / "outdir").exists()
        assert harness.main(["check", "--config", str(path)]) == 0
        assert (tmp_path / "outdir" / "small_check.csv").read_text() == report.as_csv()
        capsys.readouterr()

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[mesh]\nwat = 1\n")
        assert harness.main(["check", "--config", str(path)]) == harness.EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, flags", [
        pytest.param(("dt = 0.01", "dt = nan"), [], id="dt-nan"),
        pytest.param(("T = 0.5", "T = inf"), [], id="T-inf"),
        pytest.param(("length = 1.0", "length = nan"), [], id="length-nan"),
        pytest.param(("length = 1.0", "length = 0"), [], id="length-zero"),
        pytest.param(("nodes = 21", "nodes = 2"), [], id="nodes-2"),
        pytest.param(("mu_c = 1.0", "mu_c = -1"), [], id="mu_c-negative"),
        pytest.param(("mu_c = 1.0", "mu_c = 1.0\nmu_c0 = 0"), [], id="mu_c0-zero"),
        pytest.param(("x0 = 0.0", "x0 = 0.0\nlx = -1"), [], id="lx-negative"),
        pytest.param(("x0 = 0.0", "x0 = 0.0\nly = 0"), [], id="ly-zero"),
        pytest.param(("x0 = 0.0", "x0 = 0.0\nnx = 1"), [], id="nx-1"),
        pytest.param(("x0 = 0.0", "x0 = 0.0\nny = 1"), [], id="ny-1"),
        pytest.param(("prefix = small", "prefix = small\nplot = maybe"), [], id="plot-maybe"),
        pytest.param(("law2 = identity", "law2 = identity\nlaw2_params = k=nan"), [],
                     id="law-parameter-nan"),
        pytest.param(("prefix = small", "prefix = small\n[sweep]\nalpha = 0.1 nan"), [],
                     id="sweep-alpha-nan"),
        pytest.param(("u0 = sine", "u0 = sinus"), [], id="u0-unknown-preset"),
        pytest.param(("u0_amplitude = 1.0", "u0_amplitude = 1.0\nv0 = wave"), [],
                     id="v0-unknown-preset"),
        pytest.param(("u0_amplitude = 1.0", "u0_amplitude = 1.0\nu1 = Sine"), [],
                     id="u1-unknown-preset"),
        pytest.param(("u0_amplitude = 1.0", "u0_amplitude = 1.0\nv1 = one"), [],
                     id="v1-unknown-preset"),
        pytest.param(("law1 = identity", "law1 = linear"), [], id="law1-unknown"),
        pytest.param(("law2 = identity", "law2 = damped"), [], id="law2-unknown"),
        pytest.param(("prefix = small", "prefix = small\n[sweep]\nlaws = identity sinus"), [],
                     id="sweep-law-unknown"),
        pytest.param(("law2 = identity", "law2 = identity\nlaw2_params = k=1, k=2"), [],
                     id="law-parameter-repeated"),
        pytest.param(None, ["--dt", "nan"], id="flag-dt-nan"),
        pytest.param(None, ["--T", "inf"], id="flag-T-inf"),
        pytest.param(None, ["--refine", "-1"], id="flag-refine-negative"),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, edit, flags):
        text = SMALL_CONFIG if edit is None else SMALL_CONFIG.replace(*edit)
        assert text != SMALL_CONFIG or flags
        path = tmp_path / "run.ini"
        path.write_text(text)
        command = "simulate" if "--dt" in flags else "check"  # check takes no --dt
        assert harness.main([command, "--config", str(path), *flags]) == harness.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.splitlines()) == 1, err
        if edit is not None:  # the message names the key it rejects
            assert edit[1].splitlines()[-1].partition(" =")[0] in err, err

    @pytest.mark.parametrize("command, flags", [
        ("check", ["--plot"]), ("check", ["--dt", "0.1"]), ("verify", ["--T", "1"]),
        ("verify", ["--out", "elsewhere"]), ("sweep", ["--plot"]),
    ])
    def test_option_the_subcommand_does_not_read_is_usage_error(self, tmp_path, capsys,
                                                                command, flags):
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG)
        assert harness.main([command, "--config", str(path), *flags]) == harness.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: beamstab ")
        assert f"error: unrecognized arguments: {' '.join(flags)}" in captured.err
        assert not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("law, params", [("identity", "b=1"), ("saturating", "foo=1"),
                                             ("zero", "k=2")])
    def test_law_parameter_the_law_does_not_take(self, tmp_path, capsys, law, params):
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG.replace(
            "law1 = identity\n", f"law1 = {law}\nlaw1_params = {params}\n"))
        assert harness.main(["check", "--config", str(path)]) == harness.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"law '{law}' takes no parameter '{params.split('=')[0]}'" in err

    @pytest.mark.parametrize("level", ["verbose", "", "warn"])
    def test_unknown_log_level_is_usage_error(self, tmp_path, capsys, monkeypatch, level):
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG)
        monkeypatch.setenv("BEAMSTAB_LOG", level)
        assert harness.main(["check", "--config", str(path)]) == harness.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: BEAMSTAB_LOG must be one of DEBUG, INFO, WARNING, "
                                f"ERROR, CRITICAL, got {level!r}\n")

    def test_log_level_is_case_blind(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG)
        monkeypatch.setenv("BEAMSTAB_LOG", "info")
        assert harness.main(["check", "--config", str(path)]) == 0
        capsys.readouterr()

    def test_step_failure_under_verify_prints_the_simulate_line(self, tmp_path, capsys,
                                                                monkeypatch):
        def explode(*args, **kwargs):
            raise StepFailureError(0.25, 1.0)
        monkeypatch.setattr(harness, "integrate", explode)
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG)
        assert harness.main(["verify", "--config", str(path), "--suite", "convergence"]) == 3
        captured = capsys.readouterr()
        assert captured.err == STEP_FAILURE_LINE and captured.out == ""

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

    def test_fit_undefined_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        harness.main(["simulate", "--config", str(path), "--out", str(out)])
        capsys.readouterr()
        trace = out / "small_trace.csv"
        lines = trace.read_text().splitlines()
        first = next(k for k, ln in enumerate(lines) if ln.startswith("t,E,")) + 2
        one = tmp_path / "one.csv"
        one.write_text("\n".join(lines[:first]) + "\n")  # the header and one sample
        for argv in (["fit", str(trace), "--window", "100", "200"], ["fit", str(one)]):
            assert harness.main(argv) == harness.EXIT_USAGE
            err = capsys.readouterr().err.splitlines()
            assert err == ["error: window contains fewer than two samples"], argv

    @pytest.mark.parametrize("column, cell, message", [
        (1, "nan", "window contains a non-finite energy sample"),
        (1, "inf", "window contains a non-finite energy sample"),
        (0, "nan", "trace times must be finite and strictly increasing"),
        (0, "inf", "trace times must be finite and strictly increasing"),
    ])
    def test_fit_refuses_a_non_finite_cell(self, tmp_path, capsys, column, cell, message):
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        harness.main(["simulate", "--config", str(path), "--out", str(out)])
        capsys.readouterr()
        lines = (out / "small_trace.csv").read_text().splitlines()
        cells = lines[-2].split(",")  # a sample inside the default window
        cells[column] = cell
        lines[-2] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert harness.main(["fit", str(bad)]) == harness.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]

    def test_eigen_solve_failure_exits_70(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0),
                                      np.zeros((0, 0)))

        monkeypatch.setattr(geometry, "eigsh", no_convergence)
        path = tmp_path / "rect.ini"
        path.write_text(SMALL_CONFIG.replace("kind = interval", "kind = rect\nnx = 8\nny = 8")
                        .replace("length = 1.0\nnodes = 21\n", "")
                        .replace("x0 = 0.0", "x0 = -0.1 -0.2"))
        assert harness.main(["check", "--config", str(path)]) == harness.EXIT_SOFTWARE == 70
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: eigen-solve did not converge"), err

    def test_fit_rejects_foreign_csv(self, tmp_path, capsys):
        junk = tmp_path / "junk.csv"
        junk.write_text("a,b\n1,2\n")
        assert harness.main(["fit", str(junk)]) == harness.EXIT_USAGE
        capsys.readouterr()
