#!/usr/bin/env python3
"""refequil benchmark: desk CLI sessions and deep cold best responses.

Run from the repository root:

    python3 perfbench/run.py --workload desk_t2 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results, span
records and the horizon-ladder table go to ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# One BLAS thread: the benchmark is a single caller on a small shared
# machine, and a second BLAS thread spinning after each call only adds noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

#: child interpreters timed per run for import_s, spread evenly over the
#: run (after one untimed warm-up child)
IMPORT_REPS = 8
#: traced operations whose counters are reported: the first ones of a run,
#: so that equal seeds give equal counts whatever the run length
COUNTED_OPS = {"desk_t2": 1, "best_response_deep": 4}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(COUNTED_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def require_source() -> None:
    """Fail fast unless the checkout holds the package source."""
    if not (SRC / "refequil" / "cli.py").is_file():
        print(f"benchmark: no refequil source under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import refequil
    if Path(refequil.__file__).resolve().parent != SRC / "refequil":
        print(f"benchmark: imported refequil from {refequil.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """Highest integer percentile with at least ten samples beyond it.

    Returns (percentile, value), or None when fewer than 20 samples leave
    no percentile at or above the median.
    """
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100.0 * n))  # nearest-rank definition
    return pct, sorted(values)[rank - 1]


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def metadata(args, workload) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": _blas(numpy),
        "closed_loop": "one caller, next operation after the previous "
                       "returns",
        "workload_params": workload.describe(),
    }


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "refequil").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas(numpy) -> dict:
    threads = {var: os.environ.get(var) for var in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    name = None
    try:
        config = numpy.show_config(mode="dicts")
        name = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"library": name, "thread_env": threads,
            "threads": next((v for v in threads.values() if v),
                            "library default")}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def import_time() -> float:
    """Wall time of a fresh interpreter running ``import refequil.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import refequil.cli"], env=env,
                   cwd=ROOT, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


def run_ops(workload, seconds: float, tracer, min_ops: int, between):
    """Closed loop for ``seconds``: the next round starts only if, at the
    median round time so far, it would end in time (the first ``min_ops``
    always run).  A round is ``between(elapsed share of the run)``, then
    one operation; ``between(inf)`` runs once more after the last round.
    Untraced runs also call ``between`` at the pauses inside an operation.
    With a tracer, operations alternate untraced (even) and traced (odd)."""
    from workloads import OpResult
    ops, rounds = [], []
    start = perf_counter()

    def pause():
        between((perf_counter() - start) / seconds)

    while len(ops) < min_ops or (
            perf_counter() - start + median(rounds) <= seconds):
        began = perf_counter()
        between((began - start) / seconds)
        index = len(ops)
        traced = tracer if tracer is not None and index % 2 else None
        try:
            result = workload.run(index, traced,
                                  pause=None if tracer else pause)
        except Exception:  # a crash in the program fails the operation
            result = OpResult(float("nan"),
                              errors=[traceback.format_exc(limit=5)])
        result.traced = traced is not None
        ops.append(result)
        rounds.append(perf_counter() - began)
    between(math.inf)
    return ops


def layer_metrics(workload_name, ops, setups) -> dict:
    """Per-layer metrics of the traced operations and set-ups.

    ``setups`` pairs each traced set-up's Sample with its seconds.  Times
    are medians over traced operations (set-up layers: over traced
    set-ups); ``*_pct`` metrics are the same times as a share of their
    operation or set-up.  Counts are means over the first COUNTED_OPS
    traced operations, so they repeat exactly for a given seed.
    """
    from tracing import VERIFY_SUITES
    traced = [op for op in ops if op.traced and op.trace is not None]
    counted = [op.trace for op in traced[:COUNTED_OPS[workload_name]]]
    pairs = [(op.trace, op.seconds) for op in traced]

    def spent(name, pool=pairs, field="self_s"):
        return median([getattr(s, field).get(name, 0.0) for s, _ in pool])

    def share(name, pool=pairs, field="self_s"):
        return median([100.0 * getattr(s, field).get(name, 0.0) / seconds
                       for s, seconds in pool])

    def count(key):
        return sum(s.count.get(key, 0) for s in counted) / len(counted)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}

    def timed(name, key, pool=pairs, field="self_s"):
        metrics[name + "_s"] = (spent(key, pool, field), "s")
        metrics[name + "_pct"] = (share(key, pool, field), "%")

    timed("config.load", "config.load", setups, "total_s")
    timed("market.certificate", "market.certificate", setups, "total_s")
    metrics["market.increment.calls"] = (count("market.increment.calls"),
                                         "count")
    timed("market.increment.self", "market.increment")
    metrics["market.wealth.calls"] = (count("market.wealth.calls"), "count")
    timed("preferences.validate", "preferences.validate", setups,
          "total_s")
    for key in ("calls", "points"):
        metrics[f"preferences.envelope.{key}"] = (
            count(f"preferences.envelope.{key}"), "count")
    timed("preferences.envelope.self", "preferences.envelope")
    metrics["preferences.gain_loss.calls"] = (
        count("preferences.gain_loss.calls"), "count")
    metrics["bestresponse.best_response.calls"] = (
        count("bestresponse.best_response.calls"), "count")
    timed("bestresponse.best_response.self", "bestresponse.best_response")
    one_step = count("bestresponse.one_step.calls")
    metrics["bestresponse.one_step.calls"] = (one_step, "count")
    metrics["bestresponse.foc_evals"] = (count("bestresponse.foc_evals"),
                                         "count")
    metrics["bestresponse.one_step.clamped"] = (
        count("bestresponse.one_step.clamped"), "count")
    metrics["bestresponse.foc_residual.max"] = (
        max((s.maximum.get("bestresponse.foc_residual", 0.0)
             for s in counted), default=0.0), "abs")
    metrics["bestresponse.memo_hit_ratio"] = (
        1.0 - ratio(one_step, count("bestresponse.solution.calls"))
        if one_step else 0.0, "ratio")
    metrics["bestresponse.terminal.calls"] = (
        count("bestresponse.terminal.calls"), "count")
    timed("bestresponse.terminal.self", "bestresponse.terminal")
    starts = count("equilibrium.picard.starts")
    iters = count("equilibrium.picard.iters")
    metrics["equilibrium.picard.iters"] = (iters, "count")
    metrics["equilibrium.best_responses_per_start"] = (ratio(iters, starts),
                                                       "count")
    metrics["equilibrium.converged_ratio"] = (
        ratio(count("equilibrium.picard.converged"), starts), "ratio")
    timed("equilibrium.find.self", "equilibrium.find")
    metrics["equilibrium.oracle.grid_points"] = (
        count("equilibrium.oracle.grid_points"), "count")
    timed("equilibrium.certify.self", "equilibrium.certify")
    for suite in VERIFY_SUITES:
        metrics[f"verify.suite_s.{suite}"] = (
            spent(f"verify.{suite}", field="total_s"), "s")
        metrics[f"verify.suite_pct.{suite}"] = (
            share(f"verify.{suite}", field="total_s"), "%")
    metrics["verify.checks_failed"] = (count("verify.checks_failed"),
                                       "count")
    commands = [f"cli.{c}" for c in ("solve", "certify", "verify")]
    cli_self = [(sum(s.self_s.get(c, 0.0) for c in commands), seconds)
                for s, seconds in pairs]
    metrics["cli.self_s"] = (median([v for v, _ in cli_self]), "s")
    metrics["cli.self_pct"] = (median([100.0 * v / seconds
                                       for v, seconds in cli_self]), "%")
    for command in commands:
        metrics[command + "_s"] = (spent(command, field="total_s"), "s")
    plain = median([op.seconds for op in ops if not op.traced])
    with_trace = median([op.seconds for op in traced])
    metrics["trace.overhead_s"] = (with_trace - plain, "s")
    metrics["trace.overhead_ratio"] = (ratio(with_trace - plain, plain),
                                       "ratio")
    return metrics


def end_to_end(setup_times, import_samples, ops) -> dict:
    return {
        "setup_s": (median(setup_times), "s"),
        "import_s": (median(import_samples), "s"),
        "op_s": (median([op.seconds for op in ops
                         if math.isfinite(op.seconds)]), "s"),
    }


def report_lines(ops, setup_times, import_samples) -> list[str]:
    """The issue-level breakdown, printed for people (not gated)."""
    good = [op for op in ops if not op.traced and math.isfinite(op.seconds)]
    lines = [f"operations: {len(ops)} attempted, "
             f"{sum(bool(op.errors) for op in ops)} failed, "
             f"fail_ratio {sum(bool(op.errors) for op in ops) / len(ops)!r}"]
    lines.append(f"setup_s: median {median(setup_times)!r} s over "
                 f"{len(setup_times)} set-ups")
    if import_samples:
        lines.append(f"import_s: median {median(import_samples)!r} s over "
                     f"{len(import_samples)} child interpreters")
    for phase in ("solve", "certify", "verify", "best_response"):
        values = [op.phases[phase] for op in good if phase in op.phases]
        if not values:
            continue
        lines.append(f"{phase}_s: median {median(values)!r} s over "
                     f"{len(values)} operations")
        found = tail(values)
        lines.append(f"{phase}_s.tail: "
                     + (f"p{found[0]} {found[1]!r} s" if found else
                        "n/a, fewer than 20 operations"))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer
    from workloads import WORKLOADS, scaling_table

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as scratch:
        workload = WORKLOADS[args.workload](args.seed, Path(scratch))
        meta = metadata(args, workload)
        print("meta: " + json.dumps(meta, sort_keys=True))

        setup_times, traced_setups, import_samples = [], [], []

        def between(elapsed: float) -> None:
            """Set-ups and child interpreters, spread over the run."""
            if tracer is None:
                for _ in range(workload.setup_batch):
                    setup_times.append(workload.setup())
            for _ in range(workload.traced_setup_batch if tracer else 0):
                with tracer.section(f"setup{len(setup_times)}") as sample:
                    setup_times.append(workload.setup())
                traced_setups.append((sample, setup_times[-1]))
            while (not args.trace and len(import_samples) < IMPORT_REPS
                   and elapsed >= len(import_samples) / IMPORT_REPS):
                import_samples.append(import_time())

        workload.warm_up()
        if not args.trace:
            import_time()  # warm-up child, not counted
        ops = run_ops(workload, args.seconds, tracer,
                      min_ops=2 * COUNTED_OPS[args.workload]
                      if args.trace else 1, between=between)
        setup_times += [op.setup_s for op in ops if op.setup_s is not None]
        traced_setups += [(op.setup_trace, op.setup_s) for op in ops
                          if op.setup_trace is not None]
        if len(ops) == 1 and hasattr(workload, "repeat_check"):
            ops[0].errors += workload.repeat_check()
        if hasattr(workload, "pin_check"):
            ops[-1].errors += workload.pin_check()

    failed = sum(bool(op.errors) for op in ops)
    for k, op in enumerate(ops):
        for error in op.errors:
            print(f"op {k} FAILED: {error}", file=sys.stderr)
    for line in report_lines(ops, setup_times, import_samples):
        print(line)

    if args.trace:
        metrics = layer_metrics(args.workload, ops, traced_setups)
        extra = {}
        if args.workload == "best_response_deep":
            extra["scaling"] = scaling_table(args.seed, tracer)
            _write_scaling(OUT / f"scaling-seed{args.seed}.csv",
                           extra["scaling"])
            for row in extra["scaling"]:
                print("scaling: " + json.dumps(row))
        with (OUT / f"spans-{stem}.jsonl").open("w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dict(zip(
                    ("section", "id", "parent", "name", "start", "end"),
                    span))) + "\n")
    else:
        metrics, extra = end_to_end(setup_times, import_samples, ops), {}
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value!r} {unit}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = {}
    for spec in declared["per_layer" if args.trace else "end_to_end"]:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']}: unit {unit!r}, declared "
                               f"{spec['unit']!r}")
        reported[spec["name"]] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": len(ops),
              "failed": failed, "metrics": reported}
    detail = {"meta": meta, "result": result, **extra,
              "setup_s": setup_times, "import_s": import_samples,
              "ops": [{"seconds": op.seconds, "phases": op.phases,
                       "traced": op.traced, "errors": op.errors}
                      for op in ops]}
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


def _write_scaling(path: Path, rows: list[dict]) -> None:
    header = list(rows[0])
    lines = [",".join(header)]
    lines += [",".join(repr(row[k]) if isinstance(row[k], float)
                       else str(row[k]) for k in header) for row in rows]
    path.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(main())
