"""Command-line interface: determinism, schemas, golden files, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from littlegroup.cli import main

GOLDEN = Path(__file__).parent / "golden"


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
# any argv: exit 0 with finite numbers, or exit 2 with one line on stderr
# ---------------------------------------------------------------------------

def numbers_in(text, fmt):
    if fmt == "csv":
        return [float(cell) for line in text.splitlines()[1:] for cell in line.split(",")]
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
