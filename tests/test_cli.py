"""Command-line interface: determinism, schemas, golden files, exit codes."""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from littlegroup.cli import _report, main

GOLDEN = Path(__file__).parent / "golden"
SQRT2 = math.sqrt(2.0)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# determinism and golden files
# ---------------------------------------------------------------------------

GOLDEN_COMMANDS = {
    "algebra_check": ["algebra-check"],
    "contract": ["contract", "--eta-max", "10", "--steps", "10"],
    "contract_j1": ["contract", "--eta-max", "6", "--steps", "6", "--source", "J1"],
    "coherence": ["coherence", "--energy", "900", "--mass", "0.938"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_repeated_runs_byte_identical(tmp_path, name, fmt):
    argv = GOLDEN_COMMANDS[name] + ["--format", fmt]
    code1, text1 = run_to_file(tmp_path, "a", argv)
    code2, text2 = run_to_file(tmp_path, "b", argv)
    assert code1 == code2 == 0
    assert text1 == text2


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_matches_committed_golden(tmp_path, name, fmt):
    argv = GOLDEN_COMMANDS[name] + ["--format", fmt]
    _, text = run_to_file(tmp_path, "out", argv)
    golden = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert text == golden


def test_squeeze_plot_deterministic(tmp_path):
    argv = ["squeeze-plot", "--n", "1", "--eta", "0.5",
            "--grid=-10:10:24,-10:10:20"]
    _, text1 = run_to_file(tmp_path, "a", argv)
    _, text2 = run_to_file(tmp_path, "b", argv)
    assert text1 == text2


# ---------------------------------------------------------------------------
# algebra-check
# ---------------------------------------------------------------------------

def test_algebra_check_passes(tmp_path):
    code, text = run_to_file(tmp_path, "r.json", ["algebra-check",
                                                  "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert set(doc) == {"params", "results", "residuals"}
    assert len(doc["results"]) >= 18
    assert all(row["passed"] for row in doc["results"])
    relations = [row["relation"] for row in doc["results"]]
    assert "structure constants {J3 N1 N2} = {L Px Py}" in relations


def test_algebra_check_negative_control(tmp_path):
    code, text = run_to_file(tmp_path, "r.json", ["algebra-check", "--corrupt",
                                                  "--format", "json"])
    assert code == 1
    doc = json.loads(text)
    assert any(not row["passed"] for row in doc["results"])


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------

def test_contract_table_structure(tmp_path):
    code, text = run_to_file(
        tmp_path, "c.csv", ["contract", "--eta-max", "10", "--steps", "10"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "eta,residual,residual_scaled"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 11
    residuals = [float(r[1]) for r in rows]
    assert residuals == sorted(residuals, reverse=True)
    assert residuals[0] == pytest.approx(1.0, abs=1e-12)  # ||J2 - c N1|| at eta 0
    scaled_tail = [float(r[2]) for r in rows if float(r[0]) >= 4.0]
    assert max(scaled_tail) / min(scaled_tail) - 1.0 < 0.01


def test_contract_partner_source(tmp_path):
    code, text = run_to_file(
        tmp_path, "c.csv",
        ["contract", "--eta-max", "6", "--steps", "6", "--source", "J1"])
    assert code == 0
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    scaled = [float(r[2]) for r in rows]
    assert scaled[-1] == pytest.approx(1.0, rel=1e-6)


# ---------------------------------------------------------------------------
# squeeze-plot
# ---------------------------------------------------------------------------

def parse_squeeze_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_squeeze_plot_rest_frame_circular(tmp_path):
    code, text = run_to_file(tmp_path, "s.csv",
                             ["squeeze-plot", "--n", "0", "--eta", "0"])
    assert code == 0
    header, rows = parse_squeeze_csv(text)
    assert header == ["representation", "x", "y", "value",
                      "u_semi_axis", "v_semi_axis"]
    semi_u = float(rows[0][4])
    semi_v = float(rows[0][5])
    assert semi_u == semi_v == 1.0


def test_squeeze_plot_boosted_axes_ratio(tmp_path):
    code, text = run_to_file(tmp_path, "s.json",
                             ["squeeze-plot", "--n", "0", "--eta", "1",
                              "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    axes = doc["results"]["ellipse_semi_axes"]
    assert axes["u"] / axes["v"] == pytest.approx(math.e**2, rel=1e-10)
    space = doc["results"]["space_time"]
    assert len(space["values"]) == len(space["z"])
    mom = doc["results"]["momentum_energy"]
    assert len(mom["abs_values"]) == len(mom["q_z"])


def test_squeeze_plot_momentum_oriented_along_positive_axis(tmp_path):
    # sample the emitted momentum grid along both diagonals near the peak
    _, text = run_to_file(tmp_path, "s.json",
                          ["squeeze-plot", "--n", "0", "--eta", "1",
                           "--format", "json"])
    doc = json.loads(text)
    mom = doc["results"]["momentum_energy"]
    q = mom["q_z"]
    vals = mom["abs_values"]
    i = min(range(len(q)), key=lambda k: abs(q[k] - 1.5))
    j = min(range(len(q)), key=lambda k: abs(q[k] + 1.5))
    on_qu = vals[i][i]   # q_z = q_0 = 1.5, along the positive diagonal
    on_qv = vals[i][j]   # q_z = -q_0, across it
    assert on_qu > 10 * on_qv


def test_squeeze_plot_custom_grid_row_count(tmp_path):
    _, text = run_to_file(tmp_path, "s.csv",
                          ["squeeze-plot", "--grid=-8:8:20,-8:8:18"])
    _, rows = parse_squeeze_csv(text)
    assert len(rows) == 2 * 20 * 18


def test_squeeze_plot_csv_and_json_carry_the_same_numbers(tmp_path):
    argv = ["squeeze-plot", "--n", "1", "--eta", "0.5", "--grid=-4:4:16"]
    _, text = run_to_file(tmp_path, "s.csv", argv)
    _, doc = run_to_file(tmp_path, "s.json", argv + ["--format", "json"])
    results = json.loads(doc)["results"]
    axes = results["ellipse_semi_axes"]
    want = []
    for name, (x, y, values) in (("space_time", ("z", "t", "values")),
                                 ("momentum_energy", ("q_z", "q_0", "abs_values"))):
        panel = results[name]
        want += [[name, a, b, panel[values][i][j], axes["u"], axes["v"]]
                 for i, a in enumerate(panel[x]) for j, b in enumerate(panel[y])]
    _, rows = parse_squeeze_csv(text)
    assert len(want) == 2 * 16 * 16
    assert [[row[0]] + [float(c) for c in row[1:]] for row in rows] == want


def hermite_modulus(n, eta, q_z, q_0):
    """|psi_n(eta)| at (q_u, q_v) from scipy's H_n: the modulus of the transform."""
    from scipy.special import eval_hermite
    q_u, q_v = (q_z + q_0) / SQRT2, (q_z - q_0) / SQRT2
    x = (math.exp(-eta) * q_u + math.exp(eta) * q_v) / SQRT2
    y = (math.exp(-eta) * q_u - math.exp(eta) * q_v) / SQRT2
    norm = 1.0 / math.sqrt(math.pi * math.factorial(n) * 2.0**n)
    return np.abs(norm * eval_hermite(n, x) * np.exp(-(x * x + y * y) / 2.0))


@pytest.mark.parametrize("n, eta", [(30, 0.2), (4, 2.5), (0, 2.9), (1, -0.8)])
def test_squeeze_plot_momentum_panel_is_the_closed_form(tmp_path, n, eta):
    _, text = run_to_file(tmp_path, "s.json", ["squeeze-plot", "--n", str(n),
                                               f"--eta={eta!r}", "--format", "json"])
    mom = json.loads(text)["results"]["momentum_energy"]
    half = 6.0 * math.exp(abs(eta))  # the default window, 65 points per axis
    axis = np.linspace(-half, half, 65)
    assert np.allclose(mom["q_z"], axis, rtol=1e-11, atol=0)
    assert np.allclose(mom["q_0"], axis, rtol=1e-11, atol=0)
    want = hermite_modulus(n, eta, axis[:, None], axis)
    assert np.abs(np.array(mom["abs_values"]) - want).max() <= 1e-12


def test_squeeze_plot_bad_grid_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["squeeze-plot", "--grid", "nonsense"])
    assert err.value.code == 2


def test_squeeze_plot_excitation_guard_exits_2(capsys):
    code = main(["squeeze-plot", "--n", "31", "--eta", "0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fourier-check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eta", ["0", "1"])
def test_fourier_check_passes(tmp_path, eta):
    code, text = run_to_file(tmp_path, "f.json",
                             ["fourier-check", "--eta", eta,
                              "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["results"]["passed"] is True
    assert doc["results"]["max_abs_error_central"] <= 1e-6
    assert doc["results"]["parseval_abs_diff"] <= 1e-5


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------

def test_coherence_record(tmp_path):
    code, text = run_to_file(tmp_path, "c.json",
                             ["coherence", "--energy", "900",
                              "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["params"]["mass_gev"] == 0.938  # proton default
    res = doc["results"]
    assert res["coherence_ratio"] == pytest.approx(2.7155693761e-07, rel=1e-9)
    assert res["period_dilation"] * res["interaction_time_contraction"] \
        == pytest.approx(1.0, rel=1e-9)


def test_coherence_at_threshold(tmp_path):
    code, text = run_to_file(tmp_path, "c.csv",
                             ["coherence", "--energy", "0.938"])
    assert code == 0
    header, row = text.strip().split("\n")
    assert header.split(",")[:4] == ["eta", "period_dilation",
                                     "interaction_time_contraction",
                                     "coherence_ratio"]
    assert float(row.split(",")[3]) == 1.0


def test_coherence_help_documents_proton_default(capsys):
    with pytest.raises(SystemExit) as err:
        main(["coherence", "--help"])
    assert err.value.code == 0
    assert "0.938" in capsys.readouterr().out


def test_coherence_below_mass_exits_2(capsys):
    code = main(["coherence", "--energy", "0.5", "--mass", "0.938"])
    assert code == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def test_module_entry_point(tmp_path):
    out = tmp_path / "r.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "littlegroup", "coherence", "--energy", "900",
         "--output", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.read_text().startswith("eta,")


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_stdout_default(capsys):
    code = main(["coherence", "--energy", "2.0", "--mass", "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("eta,")
    assert out.endswith("\n")


# ---------------------------------------------------------------------------
# out-of-range arguments: exit 2, one line on stderr, nothing on stdout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["coherence", "--energy", "nan"],
    ["coherence", "--energy", "inf"],
    ["contract", "--eta-max", "1e3"],
    ["contract", "--eta-max", "nan"],
    ["squeeze-plot", "--eta", "800"],
    ["fourier-check", "--eta", "800"],
    ["fourier-check", "--eta=-inf"],
    ["coherence", "--energy", "1e200"],                    # eta 461: cosh(2 eta) overflows
    ["coherence", "--energy", "1e308", "--mass", "1e-10"],  # E / m overflows to inf
])
def test_out_of_range_argument_is_refused(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing/x.csv", ""], ids=["missing-dir", "a-dir"])
def test_unwritable_output_is_refused(capsys, tmp_path, target):
    path = tmp_path / target
    code = main(["coherence", "--energy", "900", "--output", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1


def test_broken_pipe_on_stdout_exits_0(monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["coherence", "--energy", "900"]) == 0


def test_refusal_has_no_traceback_in_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, "-m", "littlegroup", "contract", "--eta-max", "1e3"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1


def test_squeeze_plot_at_the_largest_rapidity_writes_no_warning():
    proc = subprocess.run(
        [sys.executable, "-m", "littlegroup", "squeeze-plot", "--eta", "350"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_fourier_check_at_the_largest_rapidity_writes_no_warning():
    proc = subprocess.run(
        [sys.executable, "-m", "littlegroup", "fourier-check", "--eta", "350"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout.split("\n")[1].endswith(",false")
    assert proc.stderr == ""


def test_largest_accepted_rapidity_still_runs(tmp_path):
    code, text = run_to_file(tmp_path, "c.csv", ["contract", "--eta-max", "350"])
    assert code == 0
    assert all(math.isfinite(float(x)) for row in text.split("\n")[1:-1]
               for x in row.split(","))


# ---------------------------------------------------------------------------
# cold paths: a fresh process loads only the layers its command uses
# ---------------------------------------------------------------------------

# runs BODY in a fresh process, then lists on the last line of stderr the
# numpy and littlegroup modules the process loaded
_PROBE = """
import sys
try:
    {}
finally:
    print(*sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "littlegroup")),
          file=sys.stderr)
"""
AS_MAIN = 'import runpy; runpy.run_module("littlegroup", run_name="__main__", alter_sys=True)'


def run_fresh(argv, body=AS_MAIN):
    """Exit code, stdout, the body's own stderr, and the modules loaded, for
    `python -m littlegroup ARGV` (or BODY) run in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(body)] + argv,
                          capture_output=True, text=True)
    *stderr, loaded = proc.stderr.splitlines(keepends=True)
    return proc.returncode, proc.stdout, "".join(stderr), set(loaded.split())


def layers_in(loaded):
    return {name.split(".")[1] for name in loaded
            if name.startswith("littlegroup.") and name != "littlegroup.__main__"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_coherence_runs_without_numpy(fmt):
    code, out, err, loaded = run_fresh(["coherence", "--energy", "900", "--format", fmt])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"coherence.{fmt}").read_text(encoding="utf-8")
    assert "numpy" not in loaded
    assert layers_in(loaded) == {"cli", "parton"}


@pytest.mark.parametrize("argv,message", [
    (["coherence", "--energy", "nan"], "beam energy must be a finite real number"),
    (["contract", "--eta-max", "1e3"], "contract needs 0 < eta-max <= 350 and steps >= 1"),
    (["squeeze-plot", "--eta", "800"], "squeeze-plot needs |eta| <= 350"),
    (["fourier-check", "--eta", "800"], "fourier-check needs |eta| <= 350"),
    (["squeeze-plot", "--grid=-1:1:100000"],
     "squeeze-plot needs NZ*NT <= 1048576 grid points"),
    (["squeeze-plot", "--n", "99"], "excitation number must be an integer in [0, 30]"),
    (["squeeze-plot", "--grid=1:-1:16"], "grid bounds must be ordered"),
    (["squeeze-plot", "--grid=-1:1:8"], "grid needs at least 16 samples per axis"),
    (["squeeze-plot", "--grid=-1e308:1e308:16"],
     "grid spacing must be positive and finite: the span overflows or the step underflows"),
    (["squeeze-plot", "--eta", "300", "--grid=-1e300:1e300:16"],
     "window too wide for this rapidity: (|z| + |t|) exp(|eta|) overflows"),
    (["contract", "--steps", "100001"], "contract needs steps <= 100000"),
])
def test_refusal_runs_without_numpy(argv, message):
    code, out, err, loaded = run_fresh(argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert "numpy" not in loaded


def test_usage_error_and_help_run_without_numpy():
    code, out, err, loaded = run_fresh(["coherence"])
    assert code == 2 and out == ""
    assert err.startswith("usage: littlegroup coherence")
    assert err.endswith("error: the following arguments are required: --energy\n")
    assert "numpy" not in loaded
    code, out, err, loaded = run_fresh(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: littlegroup") and "coherence" in out
    assert "numpy" not in loaded


def test_bare_package_import_loads_no_layer():
    code, out, err, loaded = run_fresh([], "import littlegroup")
    assert (code, out, err, loaded) == (0, "", "", {"littlegroup"})
    code, out, err, loaded = run_fresh(
        [], "import littlegroup; print(littlegroup.coherence_ratio(0.0))")
    assert (code, out, err) == (0, "1.0\n", "")
    assert "numpy" not in loaded and layers_in(loaded) == {"parton"}
    code, out, err, loaded = run_fresh([], "import littlegroup; littlegroup.FourVector")
    assert (code, out, err) == (0, "", "")
    assert "numpy" not in loaded and layers_in(loaded) == {"parton"}


def test_wave_function_layers_load_no_algebra():
    code, out, err, loaded = run_fresh([], "import littlegroup.momentum_space")
    assert (code, out, err) == (0, "", "")
    assert layers_in(loaded) == {"parton", "oscillator", "momentum_space"}


@pytest.mark.parametrize("argv,layers", [
    (["contract", "--steps", "2"], {"cli", "parton"}),
    (["algebra-check"], {"cli", "parton", "lorentz_algebra"}),
    (["squeeze-plot", "--eta", "0"], {"cli", "parton", "oscillator"}),
    (["fourier-check", "--eta", "0"], {"cli", "parton", "oscillator", "momentum_space"}),
])
def test_each_command_loads_only_its_layers(argv, layers):
    code, _, err, loaded = run_fresh(argv)
    assert (code, err) == (0, "")
    assert layers_in(loaded) == layers
    if layers == {"cli", "parton"}:
        assert "numpy" not in loaded


def test_csv_cells_keep_bool_int_and_float_apart(capsys):
    # True == 1 == 1.0 hash alike; each must still print as its own type
    args = argparse.Namespace(format="csv", output=None, subcommand="x")
    _report(args, {}, [{"a": True, "b": 1.0, "c": 1},
                       {"a": 1.0, "b": True, "c": -0.0}], {})
    assert capsys.readouterr().out == "a,b,c\ntrue,1,1\n1,true,0\n"


# ---------------------------------------------------------------------------
# any argv: exit 0 with finite numbers, or exit 2 with one line on stderr
# ---------------------------------------------------------------------------

def numbers_in(text, fmt):
    if fmt == "csv":  # every column but squeeze-plot's panel label holds numbers
        header, *rows = [line.split(",") for line in text.splitlines()]
        return [float(cell) for row in rows for key, cell in zip(header, row)
                if key != "representation"]
    found = []

    def walk(x):
        if isinstance(x, dict):
            x = list(x.values())
        if isinstance(x, list):
            for item in x:
                walk(item)
        elif isinstance(x, (int, float)):
            found.append(float(x))

    walk(json.loads(text))
    return found


def assert_clean_outcome(capsys, argv, fmt):
    capsys.readouterr()
    code = main(argv + ["--format", fmt])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 0:
        assert all(math.isfinite(x) for x in numbers_in(out, fmt))
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


formats = st.sampled_from(("csv", "json"))
non_finite = st.sampled_from((math.nan, math.inf, -math.inf))
log_uniform = st.floats(-3.0, 308.0).map(lambda e: 10.0**e)
fixture_ok = settings(deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


@fixture_ok
@given(st.one_of(st.floats(), non_finite), st.integers(1, 50),
       st.sampled_from(("J2", "J1")), formats)
@example(1e3, 10, "J2", "csv")
@example(350.0, 50, "J1", "json")
@example(10.0, 10**7, "J2", "csv")    # refused before the table, whose memory grows with its rows, is built
def test_contract_argv_property(capsys, eta_max, steps, source, fmt):
    argv = ["contract", f"--eta-max={eta_max!r}", "--steps", str(steps), "--source", source]
    assert_clean_outcome(capsys, argv, fmt)


@fixture_ok
@given(st.one_of(log_uniform, non_finite), st.one_of(log_uniform, non_finite), formats)
@example(1e200, 0.938, "csv")
@example(1e308, 1e-10, "json")
def test_coherence_argv_property(capsys, energy, mass, fmt):
    argv = ["coherence", f"--energy={energy!r}", f"--mass={mass!r}"]
    assert_clean_outcome(capsys, argv, fmt)


triples = st.tuples(st.floats(), st.floats(), st.integers(0, 40))


@fixture_ok
@given(st.integers(-3, 35), st.floats(),
       st.one_of(st.none(), st.lists(triples, min_size=1, max_size=2)), formats)
@example(0, 1.0, [(-1.0, 1.0, 100000)], "csv")      # NZ*NT past the point cap
@example(0, 1.0, [(-1.0, 1.0, 3000)], "json")
@example(0, 1.0, [(-math.inf, math.inf, 16)], "csv")
@example(0, 1.0, [(-1e308, 1e308, 16)], "json")     # the span overflows
@example(0, 1.0, [(0.0, 1e-300, 16)], "csv")        # a band far wider than the row
@example(0, 1.0, [(-1.0, 1.0, 16), (0.0, 1e-300, 16)], "json")
def test_squeeze_plot_argv_property(capsys, n, eta, grid, fmt):
    argv = ["squeeze-plot", f"--n={n}", f"--eta={eta!r}"]
    if grid:
        argv.append("--grid=" + ",".join(f"{lo!r}:{hi!r}:{k}" for lo, hi, k in grid))
    assert_clean_outcome(capsys, argv, fmt)
