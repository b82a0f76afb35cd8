"""Self-tests of the benchmark: python3 -m pytest -q bench/test_bench.py"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles as orc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

import littlegroup as lg  # noqa: E402


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_op_list(name):
    deck = wl.WORKLOADS[name].deck
    assert deck(7) == deck(7)
    assert wl.deck_digest(deck(7)) == wl.deck_digest(deck(7))
    assert wl.deck_digest(deck(7)) != wl.deck_digest(deck(8))


def test_planted_wrong_values_fail():
    assert wl.check_sweep({"kind": "normalize", "n": 0, "eta": 4.0}, (1.0 + 1e-7, True))[0].ok
    assert not wl.check_sweep({"kind": "normalize", "n": 0, "eta": 4.0}, (27.9, True))[0].ok
    assert not wl.check_sweep({"kind": "normalize", "n": 0, "eta": 0.0}, (1.0, False))[0].ok
    assert not wl.check_sweep({"kind": "widths", "n": 0, "eta": 4.0}, (38.6, 0.0))[0].ok
    op = min(wl.algebra_deck(3), key=lambda o: o["eta"])
    raw = wl.run_algebra_op(op, lg)
    assert all(v.ok for v in wl.check_algebra(op, raw))
    elements = dict(raw[0])
    elements["K3"] = [m + 1e-6 for m in elements["K3"]]
    verdicts = {v.kind: v.ok for v in wl.check_algebra(op, (elements,) + raw[1:])}
    assert verdicts["group"] is False


def test_planted_cli_output_fails():
    op = {"kind": "coherence", "argv": ["coherence", "--energy", "900", "--format", "csv"],
          "expect_exit": 0, "energy": 900.0}
    good = ("eta,period_dilation,interaction_time_contraction,coherence_ratio,"
            "marginal_variance\n7.5595470023,1918.97602473,0.000521111252622,"
            "2.7155693761e-07,920617.245873\n")
    assert wl.check_cli(op, 0, good, "")[0].ok
    assert not wl.check_cli(op, 0, good.replace("1918.97602473", "1918.97612473"), "")[0].ok
    assert not wl.check_cli(op, 1, good, "")[0].ok
    assert not wl.check_cli(op, 0, good, "Traceback (most recent call last):\n  x\nE: y")[0].ok


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_corrupt_algebra_check_is_exit_1(fmt):
    argv = ["algebra-check", "--corrupt", "--format", fmt]
    proc = subprocess.run([sys.executable, "-m", "littlegroup"] + argv, cwd=ROOT,
                          env=run._child_env(), capture_output=True, text=True, timeout=60)
    expected = {"kind": "algebra-check", "argv": argv, "expect_exit": 1}
    assert wl.check_cli(expected, proc.returncode, proc.stdout, proc.stderr)[0].ok
    as_passing = dict(expected, expect_exit=0)
    assert not wl.check_cli(as_passing, proc.returncode, proc.stdout, proc.stderr)[0].ok


@pytest.mark.parametrize("label", orc.GENERATOR_LABELS)
def test_closed_form_group_elements_match_expm(label):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for theta in (-7.3, 0.4, 3.0):
        want = scipy_linalg.expm(-1j * theta * lg.generator(label).matrix).real
        assert np.abs(orc.group_element(label, theta) - want).max() <= 1e-12 * np.abs(want).max()


def test_closed_form_wavefunction_is_normalized():
    z = np.linspace(-30, 30, 1201)
    zz, tt = np.meshgrid(z, z, indexing="ij")
    for n, eta in ((0, 0.0), (4, 1.0), (30, 0.5)):
        dz = z[1] - z[0]
        assert abs(np.sum(orc.wavefunction(n, eta, zz, tt) ** 2) * dz * dz - 1) < 1e-10


def _short_phase(name, ops, traced):
    workload = wl.WORKLOADS[name]
    deck = workload.deck(5)[:ops]
    return run.run_phase(workload, deck, 0.05, traced, lg)


@pytest.mark.parametrize("name,ops", [("algebra-batch", 10), ("rapidity-sweep", 6)])
def test_traced_self_times_within_wall(name, ops):
    phase = _short_phase(name, ops, traced=True)
    stats = spans.layer_stats(phase.spans)
    total_self_ns = sum(self_ns for _, self_ns in stats.values())
    assert stats and all(self_ns >= 0 for _, self_ns in stats.values())
    assert total_self_ns <= phase.busy * 1e9
    # the wrappers are gone once the phase ends
    assert lg.group_element.__module__ == "littlegroup.lorentz_algebra"
    assert not hasattr(lg.group_element, "__wrapped__")


def test_cap_ends_a_phase_mid_deck_and_says_so():
    workload = wl.WORKLOADS["rapidity-sweep"]
    deck = workload.deck(5)
    phase = run.run_phase(workload, deck, 0.001, False, lg)
    assert phase.capped and 0 < phase.ops < len(deck)


def test_every_listed_metric_is_reported():
    traced = _short_phase("algebra-batch", 4, traced=True)
    untraced = _short_phase("algebra-batch", 4, traced=False)
    untraced.setup_walls = [0.3]
    untraced.startup = [{"interpreter_s": 0.1, "numpy_import_s": 0.1,
                         "littlegroup_import_s": 0.1}]
    layer = run._select(run.per_layer(traced, untraced), run._listed_metrics("per_layer"))
    e2e = run._select(run.end_to_end(untraced, 1024), run._listed_metrics("end_to_end"))
    assert all(math.isfinite(m["value"]) for m in {**layer, **e2e}.values())
    assert len(e2e) == 6
    # the algebra batch never samples a wave function: that reads 0 ...
    assert layer["oscillator.sample_wavefunction.calls"]["value"] == 0.0
    # ... but a listed function the library no longer has is an error
    for missing in ("oscillator.no_such_function.calls", "check.no_such_kind.failed",
                    "check.normalize.err_max.eta3", "cli.no_such_counter"):
        with pytest.raises(RuntimeError, match=missing):
            run._select({}, {missing: "count"})


def test_seed_defects_fail_as_known_defects():
    """The defects the benchmark was written against fail the op without
    making the run incorrect; the same failure elsewhere does."""
    phase = run.Phase(7)
    for i, op in enumerate(({"kind": "normalize", "n": 0, "eta": 4.0},
                            {"kind": "normalize", "n": 20, "eta": 0.0},
                            {"kind": "widths", "n": 0, "eta": 4.0})):
        phase.record(i, 0.01, wl.check_sweep(op, wl.run_sweep_op(op, lg)), op)
    op = max(wl.algebra_deck(3), key=lambda o: o["eta"])
    phase.record(3, 0.01, wl.check_algebra(op, wl.run_algebra_op(op, lg)), op)
    assert (phase.failed, phase.unexpected) == (4, 0)
    assert phase.failed_by_kind == {"normalize": 2, "widths": 1, "contraction": 1}
    assert phase.good[:4] == [False] * 4

    for i, op in enumerate(({"kind": "eigen", "n": 2, "eta": 0.0},
                            {"kind": "normalize", "n": 5, "eta": 1.0},
                            {"kind": "widths", "n": 0, "eta": 1.0}), start=4):
        wrong = wl.Verdict(op["kind"], False, math.inf, op["eta"], "planted")
        phase.record(i, 0.01, [wrong], op)
    assert (phase.failed, phase.unexpected) == (7, 3)


def test_latency_is_the_fastest_pass_and_a_failed_pass_spoils_the_op():
    phase = run.Phase(2)
    op = {"kind": "eigen", "n": 0, "eta": 0.0}
    ok = wl.Verdict("eigen", True, 0.0)
    for latency in (0.03, 0.01, 0.02):
        phase.record(0, latency, [ok], op)
    phase.record(1, 0.05, [ok], op)
    phase.record(1, 0.04, [wl.Verdict("eigen", False, math.inf, 0.0, "planted")], op)
    assert phase.best == [0.01, 0.04] and phase.good == [True, False]
    phase.setup_walls = [0.3]
    e2e = run.end_to_end(phase, 1024)
    assert e2e["op_p50_ms"][0] == pytest.approx(25.0)
    assert e2e["goodput_ops_per_s"][0] == pytest.approx(1 / 0.05)


def test_passes_nudge_every_float_input_and_nothing_else():
    op = wl.algebra_deck(4)[0]
    moved = wl.nudge(op, 3)
    assert wl.nudge(op, 0) is op
    assert moved["source"] == op["source"] and moved["invariance"][0][3] is True
    assert moved["eta"] != op["eta"] and abs(moved["eta"] - op["eta"]) < 1e-6
    assert all(a != b for a, b in zip(moved["thetas"]["K1"], op["thetas"]["K1"]))
    assert all(v.ok for v in wl.check_algebra(moved, wl.run_algebra_op(moved, lg))
               if v.kind != "contraction")


def test_refuses_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "algebra-batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
