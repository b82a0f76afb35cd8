"""littlegroup benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload cli-cold|rapidity-sweep|algebra-batch
                         --seed N --seconds S --trace 0|1

Run from the repository root (the library is imported from src/).  Each
op of the seeded deck is timed, then checked against the closed forms
in oracles.py; whole passes over the deck repeat until their op time is
as close to S seconds as whole passes allow.  An op's latency is the
fastest of its passes (see run_phase).  One client, closed loop, BLAS
pinned to one thread.  Set-up (a fresh interpreter importing
littlegroup) is timed twenty times, spread evenly over the op time; its
median is setup_s.

An op that fails inside a known defect of the library at the commit that
introduced the benchmark (workloads.KNOWN_DEFECTS) counts against
goodput and in the check.* per-layer counts.  `failed` counts the ops
that fail anywhere else; the run is correct when there are none.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same
untraced phase, then a traced one, and prints the per-layer metrics
(spans around every public library function, recorded from outside).
The metric names and units printed are those listed in BENCHMARK.json.
The line before the result is a report: seed, op list digest, source
digest, interpreter, numpy and BLAS, sample counts and the first
failure of each kind.  Reports and spans are also written under
bench/results/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
BLAS_THREADS = "1"
SETUP_RUNS = 20
OP_TIMEOUT_S = 120.0

# BLAS reads these once, when numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402
from spans import COUNT_UNITS, LAYERS, SpanLog, Tracer, layer_stats  # noqa: E402


def _child_env(**extra) -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), **extra}


def _percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# set-up: fresh interpreter plus `import littlegroup`
# ---------------------------------------------------------------------------

def measure_setup() -> tuple[float, dict]:
    """Wall time of one set-up, and its start-up split."""
    spawn = time.monotonic_ns()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "launch.py"), "import"],
                          env=_child_env(BENCH_SPAWN_NS=str(spawn)), cwd=ROOT,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import littlegroup failed:\n{proc.stderr}")
    return wall, json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

class Phase:
    """What one timed phase measured, aggregated as the ops complete."""

    def __init__(self, deck_ops: int):
        self.latency: list[float] = []      # every op run, in order
        self.best = [math.inf] * deck_ops   # fastest pass of each deck op
        self.good = [True] * deck_ops       # passed every check in every pass
        self.busy = 0.0
        self.passes = 0
        self.failed = 0         # failed, known defects included
        self.unexpected = 0     # failed outside wl.KNOWN_DEFECTS
        self.failed_by_kind: Counter = Counter()
        self.first_failure: dict[str, str] = {}
        self.first_unexpected: dict[str, str] = {}
        self.capped = False
        self.setup_walls: list[float] = []
        self.err_max: dict[tuple[str, str], float] = defaultdict(float)
        self.exit_codes: Counter = Counter()
        self.tracebacks = 0
        self.out_bytes = 0
        self.startup: list[dict] = []
        self.spans = SpanLog()
        self.counts: dict[str, float] = defaultdict(float)

    @property
    def ops(self) -> int:
        return len(self.latency)

    def record(self, index: int, latency: float, verdicts: list, op: dict) -> None:
        self.latency.append(latency)
        self.busy += latency
        self.best[index] = min(self.best[index], latency)
        failed = [v for v in verdicts if not v.ok]
        self.good[index] = self.good[index] and not failed
        unexpected = [v for v in failed if not wl.known_defect(v, op)]
        self.failed += bool(failed)
        self.unexpected += bool(unexpected)
        for v in failed:
            self.failed_by_kind[v.kind] += 1
            self.first_failure.setdefault(v.kind, f"eta={v.eta}: {v.detail}")
        for v in unexpected:
            self.first_unexpected.setdefault(v.kind, f"{json.dumps(op)}: {v.detail}")
        for v in verdicts:
            if math.isfinite(v.err):
                key = (v.kind, orc.eta_band(v.eta))
                self.err_max[key] = max(self.err_max[key], v.err)

    def merge_trace(self, data: dict) -> None:
        self.spans.merge(data["spans"], self.ops - 1)
        for k, v in data["counts"].items():
            self.counts[k] += v


def run_phase(workload, deck, seconds: float, traced: bool, lg=None,
              setup_runs: int = 0) -> Phase:
    """Whole passes over the deck, as many as bring the op time closest
    to `seconds`.

    The host's speed drifts by up to 2x in spells of a few seconds, so a
    single timing of an op says as much about the spell as about the op.
    Each op is timed once per pass, the passes spread over the whole
    phase, and the fastest of them is the op's latency.  Passes after
    the first nudge the float inputs (wl.nudge), so the fastest pass is
    never a cache hit.  Whole passes give every op the same number of
    timings.  A wall-clock cap of three times `seconds` ends a phase
    mid-pass and marks it capped.  `setup_runs` set-ups are timed
    between ops, evenly spread over the op time, so their median sees
    the same drift as the ops.
    """
    phase = Phase(len(deck))
    tracer = None
    if traced and workload.in_process:
        tracer = Tracer()
        tracer.install()
    started = time.perf_counter()

    def setups_due(upto: float) -> None:
        while (len(phase.setup_walls) < setup_runs
               and phase.busy >= upto * len(phase.setup_walls) / setup_runs):
            wall, split = measure_setup()
            phase.setup_walls.append(wall)
            phase.startup.append(split)

    try:
        while not phase.capped:
            for i, base in enumerate(deck):
                if time.perf_counter() - started > 3 * seconds:
                    phase.capped = True
                    break
                setups_due(seconds)
                if workload.in_process:
                    _run_in_process(workload, i, wl.nudge(base, phase.passes),
                                    phase, tracer, lg)
                else:
                    _run_cli(i, base, phase, traced)
            else:
                phase.passes += 1
                if phase.busy + phase.busy / phase.passes / 2 >= seconds:
                    break
    finally:
        if tracer is not None:
            tracer.uninstall()
            phase.spans, phase.counts = tracer.log, tracer.counts
    setups_due(0.0)   # a phase that ended early still makes them all
    return phase


def _run_in_process(workload, index: int, op, phase: Phase, tracer, lg) -> None:
    if tracer is not None:
        tracer.op = phase.ops
    t0 = time.perf_counter()
    try:
        raw = workload.run(op, lg)
        error = None
    except Exception as exc:  # an op boundary: record and keep measuring
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if error is None:
        try:
            verdicts = workload.check(op, raw)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            error = f"unusable result: {type(exc).__name__}: {exc}"
    if error is not None:
        verdicts = [wl.Verdict(op["kind"], False, math.inf, op.get("eta", 0.0), error)]
    phase.record(index, latency, verdicts, op)


def _run_cli(index: int, op, phase: Phase, traced: bool) -> None:
    spans_out = RESULTS / f"child-{os.getpid()}.json"
    if traced:
        command = [sys.executable, str(BENCH / "launch.py"), "cli"]
    else:
        command = [sys.executable, "-m", "littlegroup"]
    spawn = time.monotonic_ns()
    env = _child_env(BENCH_SPAWN_NS=str(spawn), BENCH_SPANS_OUT=str(spans_out))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(command + op["argv"], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
        exit_code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        exit_code, stdout, stderr = -1, "", "timed out"
    latency = time.perf_counter() - t0
    phase.exit_codes[exit_code] += 1
    phase.tracebacks += wl.TRACEBACK in stderr
    phase.out_bytes += len(stdout.encode())
    phase.record(index, latency, wl.check_cli(op, exit_code, stdout, stderr), op)
    if traced and spans_out.exists():
        data = json.loads(spans_out.read_text(encoding="utf-8"))
        spans_out.unlink()
        phase.startup.append(data["startup"])
        phase.merge_trace(data)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _best(phase: Phase) -> list[float]:
    """Fastest pass of each deck op the phase reached."""
    return [x for x in phase.best if math.isfinite(x)]


def end_to_end(phase: Phase, peak_rss_kb: int) -> dict:
    """Latency and throughput from each op's fastest pass: one pass over
    the deck, at the host's fast speed.  An op counts as good when it
    passed every check in every pass."""
    best = _best(phase)
    best_ms = [1000.0 * x for x in best]
    good = sum(g for g, b in zip(phase.good, phase.best) if math.isfinite(b))
    return {
        "setup_s": (statistics.median(phase.setup_walls), "s"),
        "op_p50_ms": (_percentile(best_ms, 50), "ms"),
        "op_p90_ms": (_percentile(best_ms, 90), "ms"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "goodput_ops_per_s": (good / sum(best), "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        # every op run, at whatever speed the host had: for the report
        "raw_op_p50_ms": (1000.0 * _percentile(phase.latency, 50), "ms"),
        "raw_ops_per_s": (phase.ops / phase.busy, "1/s"),
    }


def per_layer(traced: Phase, untraced: Phase) -> dict:
    """Every per-layer reading the traced phase produced, per op; the
    start-up split is over the set-ups and the traced cli children."""
    ops = traced.ops
    out = {}
    startup = untraced.startup + traced.startup
    for key in ("interpreter_s", "numpy_import_s", "littlegroup_import_s"):
        out[f"startup.{key}"] = (statistics.median(s[key] for s in startup), "s")
    for name, (calls, self_ns) in layer_stats(traced.spans).items():
        out[f"{name}.calls"] = (calls / ops, "calls/op")
        out[f"{name}.self_ms"] = (self_ns / 1e6 / ops, "ms/op")
    for name, total in traced.counts.items():
        out[name] = (total / ops, COUNT_UNITS[name.rsplit(".", 1)[1]])
    out["cli.out_bytes"] = (traced.out_bytes / ops, "B/op")
    for code, n in traced.exit_codes.items():
        out[f"cli.exit_code.{code}"] = (n, "count")
    out["cli.tracebacks"] = (traced.tracebacks, "count")
    out["check.fail_share"] = (traced.failed / ops, "ratio")
    for kind, n in traced.failed_by_kind.items():
        out[f"check.{kind}.failed"] = (n, "count")
    for (kind, band), err in traced.err_max.items():
        out[f"check.{kind}.err_max.{band}"] = (err, "tol")
    overhead = (_percentile(_best(traced), 50) - _percentile(_best(untraced), 50)) * 1000
    out["trace.op_p50_overhead_ms"] = (overhead, "ms")
    out["trace.ops"] = (ops, "count")
    return out


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "littlegroup").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    """HEAD of the checkout's own repository; None outside one."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype, fn.argtypes = ctypes.c_int, []
            return int(fn())
    return None


def environment(seed: int, digest: str) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "op_list_digest": digest,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": int(BLAS_THREADS),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _listed_metrics(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _reads_zero(name: str) -> bool:
    """Whether a listed metric the run did not produce means 0.

    It does for a library function the workload never called, a check
    kind or eta band it never failed or ran, and an exit code no op
    returned.  Any other missing name, a renamed library function say,
    is an error rather than a 0.
    """
    head, *rest = name.split(".")
    if head == "cli" and rest[:1] == ["exit_code"]:
        return len(rest) == 2 and rest[1].lstrip("-").isdigit()
    if head == "check":
        stats = [["failed"]] + [["err_max", band] for band in orc.ETA_BANDS]
        return len(rest) > 1 and rest[0] in wl.CHECK_KINDS and rest[1:] in stats
    if head in LAYERS and len(rest) == 2:
        module = importlib.import_module(f"littlegroup.{head}")
        return inspect.isfunction(getattr(module, rest[0], None))
    return False


def _select(metrics: dict, listed: dict[str, str]) -> dict:
    out = {}
    for name, unit in listed.items():
        if name in metrics:
            value, got_unit = metrics[name]
        elif _reads_zero(name):
            value, got_unit = 0.0, unit
        else:
            raise RuntimeError(f"{name}: listed in BENCHMARK.json, not measured")
        if got_unit != unit:
            raise RuntimeError(f"{name}: unit {got_unit!r}, BENCHMARK.json says {unit!r}")
        out[name] = {"value": float(value), "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (SRC / "littlegroup" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a checkout "
                  "of the repository", file=sys.stderr)
            return 2
    RESULTS.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    workload = wl.WORKLOADS[args.workload]
    deck = workload.deck(args.seed)
    digest = wl.deck_digest(deck)

    lg = None
    warmup_errors = []
    if workload.in_process:
        import littlegroup as lg
        for kind in dict.fromkeys(op["kind"] for op in deck):   # warm-up, one per kind
            op = next(o for o in deck if o["kind"] == kind)
            try:
                workload.run(op, lg)
            except Exception as exc:  # the timed phase counts it as a failed op
                warmup_errors.append(f"{kind}: {type(exc).__name__}: {exc}")
    untraced = run_phase(workload, deck, args.seconds, False, lg, SETUP_RUNS)
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    phases = [untraced]
    if args.trace:
        traced = run_phase(workload, deck, args.seconds, True, lg)
        phases.append(traced)
        metrics = per_layer(traced, untraced)
        with gzip.open(RESULTS / f"spans-{tag}.jsonl.gz", "wt", encoding="utf-8") as f:
            for span in traced.spans.rows():
                f.write(json.dumps(span) + "\n")
        shown = _select(metrics, _listed_metrics("per_layer"))
    else:
        metrics = end_to_end(untraced, peak_kb)
        shown = _select(metrics, _listed_metrics("end_to_end"))
    phase = phases[-1]
    unexpected = sum(p.unexpected for p in phases)
    capped = any(p.capped for p in phases)
    if unexpected:
        print(f"error: {unexpected} ops failed outside the known defects: "
              f"{json.dumps([p.first_unexpected for p in phases])}", file=sys.stderr)
    if capped:
        print(f"warning: a phase hit the {3 * args.seconds:g} s cap mid-pass; its ops were "
              "timed unequally often and are not comparable", file=sys.stderr)

    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, digest),
        "deck_ops": len(deck),
        "samples": {"ops": phase.ops, "passes": phase.ops / len(deck),
                    "latencies": len(_best(phase)),
                    "setup_runs": len(untraced.setup_walls)},
        "capped": capped,
        "busy_s": phase.busy,
        "failed": phase.failed,
        "failed_known_defects": phase.failed - phase.unexpected,
        "good_deck_ops": sum(phase.good),
        "best_ms_by_op": [[op["kind"], round(1000 * b, 3)] for op, b in zip(deck, phase.best)],
        "failed_by_kind": dict(phase.failed_by_kind),
        "first_failure": phase.first_failure,
        "unexpected_failures": [p.unexpected for p in phases],
        "first_unexpected": [p.first_unexpected for p in phases],
        "warmup_errors": warmup_errors,
        "metrics": {k: v[0] for k, v in metrics.items()},
    }
    (RESULTS / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n",
                                                 encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": unexpected == 0, "attempted": phase.ops,
                      "failed": phase.unexpected,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
