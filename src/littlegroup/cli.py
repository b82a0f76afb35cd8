"""Command-line front end: check suites and plot-ready data tables.

Subcommands
-----------
algebra-check   run every bracket identity and invariance check
contract        table of the boosted-generator family converging to its limit
squeeze-plot    sampled space-time and momentum-energy wave functions
fourier-check   numeric transform vs the closed form, plus the power identity
coherence       boost kinematics and the decoherence ratio for a beam

Every subcommand takes --format csv|json and --output PATH (default:
standard output) and is deterministic: identical flags produce
byte-identical files.  Exit codes: 0 success, 1 check failure, 2 bad
arguments.  Every subcommand writes through one writer, _report, which
takes Python scalars, lists and dicts: CSV files carry one header row,
snake_case columns, and numbers with 12 significant digits; JSON output
is one object with "params", "results", and "residuals" keys, its
numbers rounded to the same 12 digits.  squeeze-plot's CSV rows and
JSON grids therefore hold the same numbers.  All physics is in natural
units; GeV enters only through the coherence subcommand.

Only the standard library and parton load with this module.  Each
subcommand checks its arguments against parton's domain rules, then
imports the layers it uses, so contract, coherence, --help, usage errors
and every refusal run without numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from . import parton

COMMUTATOR_TOL = 1e-12
INVARIANCE_TOL = 1e-9
INTERVAL_TOL = 1e-10
FOURIER_MAX_ERROR_TOL = 1e-6
PARSEVAL_TOL = 1e-5
MAX_GRID_POINTS = 2**20  # squeeze-plot --grid NZ*NT: a 512^2 CSV already peaks near 360 MB
MAX_CONTRACT_STEPS = 10**5  # contract --steps: 10**5 JSON rows take about 4 s and 170 MB

_CHECK_SEED = 20260808


def _fmt(x: float) -> str:
    s = f"{x:.12g}"
    return "0" if s == "-0" else s


def _jsonify(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_jsonify(v) for v in obj]
    return obj


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _report(args, params: dict, results, residuals: dict) -> None:
    """Write one record, or a list of records sharing their keys, as JSON or CSV.

    Every value is a Python scalar, list or dict; arrays arrive as .tolist().
    An --output path that cannot be written is refused with ValueError.
    """
    if args.format == "json":
        doc = {"params": {"subcommand": args.subcommand, **params},
               "results": results, "residuals": residuals}
        text = json.dumps(_jsonify(doc), indent=2) + "\n"
    else:
        records = [results] if isinstance(results, dict) else results
        header = list(records[0])
        # rows repeat axis and semi-axis values: format each once per call.  Bounded,
        # because data values seldom repeat; typed, because True == 1 == 1.0.
        cell = functools.lru_cache(maxsize=1024, typed=True)(_csv_cell)
        lines = [",".join(header)]
        lines += [",".join(cell(record[k]) for k in header) for record in records]
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:  # a usage error, not a failed check: main exits 2
            raise ValueError(f"cannot write --output {args.output}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# algebra-check
# ---------------------------------------------------------------------------

def _invariance_rows() -> list[tuple[str, float, float]]:
    import random

    import numpy as np

    from . import lorentz_algebra as la

    thetas = np.linspace(-5.0, 5.0, 20).tolist()
    scales = (0.5, 1.0, 10.0)
    rows = []
    # one column per momentum (x, y, z, t), one stacked matrix per group element
    rest = np.array([[0.0, 0.0, 0.0, m] for m in scales]).T
    lightlike = np.array([[0.0, 0.0, w, w] for w in scales]).T
    for kind, labels, p in (("rest", ("J1", "J2", "J3"), rest),
                            ("lightlike", ("J3", "N1", "N2"), lightlike)):
        for label in labels:
            m = np.array([la.group_element(label, theta).matrix for theta in thetas])
            rows.append((f"exp(theta {label}) fixes {kind} momentum",
                         float(np.abs(m @ p - p).max()), INVARIANCE_TOL))
    rng = random.Random(_CHECK_SEED)
    worst_interval = worst_det = 0.0
    for _ in range(100):
        elem = la.group_element(rng.choice(la.GENERATOR_LABELS), rng.uniform(-2.0, 2.0))
        worst_det = max(worst_det, abs(float(np.linalg.det(elem.matrix)) - 1.0))
        p = la.FourVector(*(rng.gauss(0.0, 3.0) for _ in range(4)))
        before = p.interval()
        worst_interval = max(worst_interval, abs(elem.transform(p).interval() - before)
                             / max(1.0, abs(before)))
    rows += [("interval preserved (100 random vectors)", worst_interval, INTERVAL_TOL),
             ("determinant = 1 (100 random elements)", worst_det, INTERVAL_TOL)]
    return rows


def cmd_algebra_check(args) -> int:
    from . import lorentz_algebra as la

    gens = ({**la.GENERATOR_MATRICES, "J1": la.GENERATOR_MATRICES["J1"] + 1e-3}
            if args.corrupt else None)
    checks = [(name, residual, COMMUTATOR_TOL) for name, residual
              in la.relation_residuals(gens) + la.planar_commutation_check()]
    checks += _invariance_rows()
    results = [{"relation": name, "max_residual": residual, "tolerance": tol,
                "passed": residual <= tol} for name, residual, tol in checks]
    _report(args, {"corrupt": bool(args.corrupt)}, results,
            {"max_relation_residual": max(r["max_residual"] for r in results)})
    return 0 if all(r["passed"] for r in results) else 1


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------

def cmd_contract(args) -> int:
    if not 0 < args.eta_max <= parton.MAX_RAPIDITY or args.steps < 1:
        raise ValueError(f"contract needs 0 < eta-max <= {parton.MAX_RAPIDITY:g} "
                         "and steps >= 1")
    if args.steps > MAX_CONTRACT_STEPS:
        raise ValueError(f"contract needs steps <= {MAX_CONTRACT_STEPS}")
    etas = [args.eta_max * k / args.steps for k in range(args.steps + 1)]
    residuals = [parton._contraction_residual(eta, args.source) for eta in etas]
    results = [{"eta": eta, "residual": r, "residual_scaled": r * math.exp(2.0 * eta)}
               for eta, r in zip(etas, residuals)]
    scaled_tail = [r["residual_scaled"] for r in results if r["eta"] >= 4.0]
    spread = (max(scaled_tail) - min(scaled_tail)) if scaled_tail else 0.0
    _report(args, {"eta_max": args.eta_max, "steps": args.steps, "source": args.source,
                   "limit_coefficient": parton.CONTRACTION_LIMIT_COEFFICIENT},
            results, {"scaled_column_spread_eta_ge_4": spread})
    return 0


# ---------------------------------------------------------------------------
# squeeze-plot
# ---------------------------------------------------------------------------

def _parse_grid(spec: str) -> tuple[tuple[float, float, int], ...]:
    triples = []
    for part in spec.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise argparse.ArgumentTypeError(
                "grid must look like ZMIN:ZMAX:NZ[,TMIN:TMAX:NT]")
        try:
            triples.append((float(bits[0]), float(bits[1]), int(bits[2])))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad grid component: {exc}")
    if len(triples) == 1:
        triples.append(triples[0])
    if len(triples) != 2:
        raise argparse.ArgumentTypeError("grid takes at most two axis triples")
    return tuple(triples)


def cmd_squeeze_plot(args) -> int:
    parton._check_rapidity(args.eta, "squeeze-plot")
    if args.grid is not None and args.grid[0][2] * args.grid[1][2] > MAX_GRID_POINTS:
        raise ValueError(f"squeeze-plot needs NZ*NT <= {MAX_GRID_POINTS} grid points")
    parton._check_excitation(args.n, "excitation number")
    if args.grid is not None:  # the default window passes both rules at any allowed eta
        (zmin, zmax, nz), (tmin, tmax, nt) = args.grid
        parton._check_window(zmin, zmax, tmin, tmax, nz, nt)
        parton._check_reach(max(-zmin, zmax), max(-tmin, tmax), args.eta)
    import numpy as np

    from . import oscillator as osc

    state = osc.OscillatorState(args.n, args.eta)
    if args.grid is None:
        space_grid = osc.GridSpec.for_rapidity(args.eta, 65)
    else:
        (zmin, zmax, nz), (tmin, tmax, nt) = args.grid
        space_grid = osc.GridSpec(zmin, zmax, tmin, tmax, nz, nt)
    momentum_grid = dataclasses.replace(osc.GridSpec.for_rapidity(args.eta),
                                        n_z=space_grid.n_z, n_t=space_grid.n_t)
    field = osc.sample_wavefunction(state, space_grid)
    # the transform in closed form: Hermite functions are Fourier eigenfunctions and
    # the kernel is boost invariant, so phi_n = (-i)^n psi_n(eta) at (q_u, q_v), and
    # the modulus drops the phase
    mom = osc.sample_wavefunction(state, momentum_grid)
    semi_u = math.exp(args.eta)
    semi_v = math.exp(-args.eta)
    z, t = space_grid.z_axis.tolist(), space_grid.t_axis.tolist()
    q_z, q_0 = momentum_grid.z_axis.tolist(), momentum_grid.t_axis.tolist()
    psi, abs_phi = field.values.tolist(), np.abs(mom.values).tolist()
    if args.format == "json":
        results = {
            "space_time": {"z": z, "t": t, "values": psi},
            "momentum_energy": {"q_z": q_z, "q_0": q_0, "abs_values": abs_phi},
            "ellipse_semi_axes": {"u": semi_u, "v": semi_v},
        }
    else:
        panels = (("space_time", z, t, psi), ("momentum_energy", q_z, q_0, abs_phi))
        results = [{"representation": name, "x": x, "y": y, "value": value,
                    "u_semi_axis": semi_u, "v_semi_axis": semi_v}
                   for name, xs, ys, values in panels
                   for x, row in zip(xs, values) for y, value in zip(ys, row)]
    _report(args, {"n": args.n, "eta": args.eta, "tail_ok": field.tail_ok}, results, {})
    return 0


# ---------------------------------------------------------------------------
# fourier-check
# ---------------------------------------------------------------------------

def cmd_fourier_check(args) -> int:
    parton._check_rapidity(args.eta, "fourier-check")
    import numpy as np

    from . import momentum_space as ms
    from . import oscillator as osc

    state = osc.OscillatorState(0, args.eta)
    space_grid = osc.GridSpec.for_rapidity(args.eta, 512)
    momentum_grid = osc.GridSpec.for_rapidity(args.eta, 257)
    field = osc.sample_wavefunction(state, space_grid)
    mom = ms.fourier_numeric(field, momentum_grid)
    analytic = ms.sample_momentum_wavefunction(args.eta, momentum_grid)
    central = ms.central_region_mask(momentum_grid, args.eta)
    max_err = float(np.abs(np.abs(mom.values) - analytic.values)[central].max())
    power_space = osc.power_integral(field)
    power_momentum = osc.power_integral(mom)
    parseval_diff = abs(power_momentum - power_space)
    passed = max_err <= FOURIER_MAX_ERROR_TOL and parseval_diff <= PARSEVAL_TOL
    results = {
        "eta": args.eta,
        "max_abs_error_central": max_err,
        "max_abs_error_tolerance": FOURIER_MAX_ERROR_TOL,
        "parseval_space": power_space,
        "parseval_momentum": power_momentum,
        "parseval_abs_diff": parseval_diff,
        "parseval_tolerance": PARSEVAL_TOL,
        "passed": passed,
    }
    _report(args, {"eta": args.eta, "space_points": space_grid.n_z,
                   "momentum_points": momentum_grid.n_z}, results,
            {"max_abs_error_central": max_err, "parseval_abs_diff": parseval_diff})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------

def cmd_coherence(args) -> int:
    beam = parton.BeamSpec(args.energy, args.mass)
    eta = parton.rapidity_from_beam(beam)
    record = {
        "eta": eta,
        "period_dilation": parton.period_dilation(eta),
        "interaction_time_contraction": parton.interaction_time_contraction(eta),
        "coherence_ratio": parton.coherence_ratio(eta),
        "marginal_variance": parton.marginal_variance(eta),
    }
    _report(args, {"energy_gev": args.energy, "mass_gev": args.mass}, record, {})
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="littlegroup",
        description="Little-group algebra checks and squeezed-oscillator data tables")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    common.add_argument("--output", metavar="PATH", default=None,
                        help="write to PATH instead of standard output")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("algebra-check", parents=[common],
                       help="run all bracket identities and invariance checks")
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: perturb a generator so the suite fails")
    p.set_defaults(func=cmd_algebra_check)

    p = sub.add_parser("contract", parents=[common],
                       help="boosted-generator family and its convergence rate")
    p.add_argument("--eta-max", type=float, default=10.0, metavar="F",
                   help="largest rapidity in the table (default: 10)")
    p.add_argument("--steps", type=int, default=10, metavar="N",
                   help="number of rapidity intervals (default: 10)")
    p.add_argument("--source", choices=parton._CONTRACTION_SOURCES, default="J2",
                   help="transverse generator to contract (default: J2)")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("squeeze-plot", parents=[common],
                       help="sampled wave functions in both representations")
    p.add_argument("--n", type=int, default=0, metavar="N",
                   help="excitation number (default: 0)")
    p.add_argument("--eta", type=float, default=1.0, metavar="F",
                   help="boost rapidity (default: 1)")
    p.add_argument("--grid", type=_parse_grid, default=None,
                   metavar="ZMIN:ZMAX:NZ[,TMIN:TMAX:NT]",
                   help="space-time window (default: +-6 exp(|eta|), 65 points); "
                        "write --grid=-8:8:64 when the first bound is negative")
    p.set_defaults(func=cmd_squeeze_plot)

    p = sub.add_parser("fourier-check", parents=[common],
                       help="numeric transform vs closed form, plus Parseval")
    p.add_argument("--eta", type=float, default=1.0, metavar="F",
                   help="boost rapidity (default: 1)")
    p.set_defaults(func=cmd_fourier_check)

    p = sub.add_parser("coherence", parents=[common],
                       help="rapidity, dilation factors, and decoherence ratio")
    p.add_argument("--energy", type=float, required=True, metavar="F",
                   help="beam energy in GeV")
    p.add_argument("--mass", type=float,
                   default=parton.DEFAULT_PROTON_MASS_GEV, metavar="F",
                   help="particle mass in GeV (default: 0.938, proton)")
    p.set_defaults(func=cmd_coherence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
