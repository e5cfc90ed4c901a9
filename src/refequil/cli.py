"""Command-line interface.

Commands: ``solve`` (multistart equilibrium search), ``best-response``
(one best response against a strategy file), ``certify`` (two-sided
equilibrium certification of a candidate), ``verify`` (invariant suites)
and ``report`` (re-render a previous run's summary).

Exit codes: 0 success; 1 the command's own criterion failed (no start
converged / a check failed / certification failed) or a solve raised
``SolveError``; 2 configuration parse
or validation error; 3 market certification failure; 4 preference
validation failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .bestresponse import SolveError, Strategy, best_response
from .config import CertificationError, ConfigError, RunConfig, load_config
from .equilibrium import certify_equilibrium, evaluate_self_value, find_equilibria
from .market import tree_rows
from .preferences import (
    build_envelope_stack,
    envelope_rows,
    validate_preferences,
)
from .verify import report_rows, run_suite

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_CERTIFICATION = 3
EXIT_PREFERENCES = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refequil",
        description="Personal equilibria for reference-dependent investors "
                    "on finite scenario trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--damping", type=float, default=None)
        p.add_argument("--tol", type=float, default=None,
                       help="fixed-point residual tolerance")
        p.add_argument("--max-iters", type=int, default=None)
        p.add_argument("--starts", type=int, default=None)
        p.add_argument("--foc-tol", type=float, default=None)

    p_solve = sub.add_parser("solve", help="search for personal equilibria")
    common(p_solve)
    p_solve.add_argument("--trace", action="store_true",
                         help="write the per-iteration residual trace")

    p_br = sub.add_parser("best-response",
                          help="best response to a reference strategy")
    common(p_br)
    p_br.add_argument("--reference", required=True,
                      help="strategy CSV (node_id, depth, position)")
    p_br.add_argument("--backing", choices=("exact", "grid"), default=None)
    p_br.add_argument("--grid-points", type=int, default=None)

    p_cert = sub.add_parser("certify", help="certify a candidate equilibrium")
    common(p_cert)
    p_cert.add_argument("--candidate", required=True,
                        help="strategy CSV (node_id, depth, position)")
    p_cert.add_argument("--resolution", type=int, default=None,
                        help="oracle grid positions per node")

    p_verify = sub.add_parser("verify", help="run invariant suites")
    common(p_verify)
    p_verify.add_argument("--suite", default="all",
                          choices=("all", "foc", "bounds", "hoelder",
                                   "continuity", "equilibrium"))
    p_verify.add_argument("--samples", type=int, default=400)

    p_report = sub.add_parser("report", help="re-render a run summary")
    common(p_report)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    return {
        "seed": args.seed,
        "output_directory": args.out,
        "damping": args.damping,
        "tolerance": args.tol,
        "max_iterations": getattr(args, "max_iters", None),
        "starts": args.starts,
        "backing": getattr(args, "backing", None),
        "grid_points": getattr(args, "grid_points", None),
        "foc_tolerance": getattr(args, "foc_tol", None),
    }


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _read_strategy(path: str) -> Strategy:
    positions = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            positions[int(row["node_id"])] = float(row["position"])
    return Strategy(positions)


def _gate(config: RunConfig) -> int:
    """Certification and preference validation, shared by every command."""
    cert = config.market.certificate
    if not cert.certified:
        print(f"market certification failed: {cert.status}", file=sys.stderr)
        return EXIT_CERTIFICATION
    x0 = config.initial_capital
    grid = np.linspace(min(-5.0, x0 - 5.0), max(60.0, x0 + 60.0), 801)
    report = validate_preferences(config.preferences.utility,
                                  config.preferences.gain_loss, grid)
    if not report.passed:
        names = ", ".join(c.name for c in report.failed())
        print(f"preference validation failed: {names}", file=sys.stderr)
        return EXIT_PREFERENCES
    return EXIT_OK


def _cmd_solve(config: RunConfig, trace: bool) -> int:
    out = config.output_dir
    market, prefs = config.market, config.preferences
    x0 = config.initial_capital
    stack = build_envelope_stack(prefs, market.certificate.alpha_star,
                                 market.prices.c_f, market.prices.chi,
                                 market.horizon)
    result = find_equilibria(market, prefs, config.solver, x0,
                             seed=config.seed, stack=stack)

    header = ["start_id", "converged", "residual", "value", "iterations"]
    rows = [[r.start_id, r.converged, repr(r.residual), repr(r.value),
             r.iterations] for r in result.reports]
    _write_csv(out / "report.csv", header, rows)

    for rank, idx in enumerate(result.distinct):
        _write_csv(out / f"equilibrium_{rank}.csv",
                   ["node_id", "depth", "position"],
                   result.reports[idx].strategy.rows(market.tree))
    if result.preferred is not None:
        _write_csv(out / "preferred.csv",
                   ["node_id", "depth", "position"],
                   result.preferred_report.strategy.rows(market.tree))
    if trace:
        trace_rows = [[r.start_id, k, repr(res)]
                      for r in result.reports
                      for k, res in enumerate(r.residual_trace)]
        _write_csv(out / "trace.csv", ["start_id", "iteration", "residual"],
                   trace_rows)
    header_t, rows_t = tree_rows(market.tree, market.prices,
                                 market.certificate)
    _write_csv(out / "tree.csv", header_t, rows_t)
    grid = np.linspace(x0 - 2.0, x0 + 2.0, 9)
    header_e, rows_e = envelope_rows(stack, grid)
    _write_csv(out / "envelopes.csv", header_e, rows_e)

    lines = [
        "refequil solve",
        f"seed: {config.seed}",
        f"alpha_star: {market.certificate.alpha_star!r}",
        f"starts: {len(result.reports)}",
        f"converged: {len(result.converged_reports)}",
        f"distinct equilibria: {len(result.distinct)}",
    ]
    if result.preferred is not None:
        pref = result.preferred_report
        lines += [f"preferred start: {pref.start_id}",
                  f"preferred residual: {pref.residual!r}",
                  f"preferred value: {pref.value!r}"]
    else:
        lines.append("no start converged (existence holds in theory; "
                     "the search is heuristic)")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if result.converged_reports else EXIT_FAILED


def _cmd_best_response(config: RunConfig, reference_path: str) -> int:
    market, prefs = config.market, config.preferences
    reference = _read_strategy(reference_path)
    response, values = best_response(
        market, prefs, reference, config.initial_capital,
        foc_tolerance=config.solver.foc_tolerance, backing=config.backing,
        grid_points=config.grid_points)
    out = config.output_dir
    _write_csv(out / "best_response.csv", ["node_id", "depth", "position"],
               response.rows(market.tree))
    value = values[0].evaluate(market.tree.root, config.initial_capital)[0]
    print(f"optimal value: {value!r}")

    # one batch per stage; tree.interior lists the stages in order, so the
    # rows keep their order and the requests that of one-by-one evaluation
    dump_rows = []
    xs = np.linspace(config.initial_capital - 2.0,
                     config.initial_capital + 2.0, 21).tolist()
    for depth, nodes in enumerate(market.tree.levels[:-1]):
        row_nodes = [node for node in nodes for _ in xs]
        columns = values[depth].evaluate_many(row_nodes, xs * len(nodes))
        for node, x, v, v1, v2 in zip(row_nodes, xs * len(nodes), *columns):
            dump_rows.append([node.id, repr(x), repr(v), repr(v1), repr(v2)])
    _write_csv(out / "value_function.csv",
               ["node_id", "x", "value", "dvalue", "d2value"], dump_rows)
    return EXIT_OK


def _cmd_certify(config: RunConfig, candidate_path: str,
                 resolution: int | None) -> int:
    market, prefs = config.market, config.preferences
    candidate = _read_strategy(candidate_path)
    report = certify_equilibrium(
        market, prefs, candidate, config.initial_capital,
        grid_resolution=resolution or config.solver.oracle_resolution,
        config=config.solver)
    out = config.output_dir
    _write_csv(out / "certification.csv",
               ["analytic_residual", "oracle_margin", "oracle_slack",
                "oracle_skipped", "grid_resolution", "certified"],
               [[repr(report.analytic_residual),
                 "" if report.oracle_margin is None
                 else repr(report.oracle_margin),
                 "" if report.oracle_slack is None
                 else repr(report.oracle_slack),
                 report.oracle_skipped, report.grid_resolution,
                 report.certified]])
    value = evaluate_self_value(market, prefs, candidate,
                                config.initial_capital)
    print(f"analytic residual: {report.analytic_residual!r}")
    if report.oracle_skipped:
        print(f"oracle: skipped ({report.notice})")
    else:
        print(f"oracle margin: {report.oracle_margin!r} "
              f"(slack {report.oracle_slack!r})")
    print(f"self value: {value!r}")
    print(f"certified: {report.certified}")
    return EXIT_OK if report.certified else EXIT_FAILED


def _cmd_verify(config: RunConfig, suite: str, samples: int) -> int:
    reports = run_suite(config.market, config.preferences,
                        config.initial_capital, suite=suite, samples=samples,
                        seed=config.seed, config=config.solver)
    header, rows = report_rows(reports)
    _write_csv(config.output_dir / "verify.csv", header, rows)
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  margin={r.worst_margin!r} "
              f"({r.instances} instances)"
              + (f"  [{r.witness}]" if r.witness and not r.passed else ""))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILED


def _cmd_report(config: RunConfig) -> int:
    path = config.output_dir / "summary.txt"
    if not path.exists():
        print(f"no summary at {path}; run solve first", file=sys.stderr)
        return EXIT_FAILED
    print(path.read_text(), end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, _overrides(args),
                             grid_settings=args.command == "best-response")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CertificationError as exc:
        print(f"market certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    gate = _gate(config)
    if gate != EXIT_OK:
        return gate
    try:
        return _dispatch(args, config)
    except SolveError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_FAILED


def _dispatch(args: argparse.Namespace, config: RunConfig) -> int:
    if args.command == "solve":
        return _cmd_solve(config, args.trace)
    if args.command == "best-response":
        return _cmd_best_response(config, args.reference)
    if args.command == "certify":
        return _cmd_certify(config, args.candidate, args.resolution)
    if args.command == "verify":
        return _cmd_verify(config, args.suite, args.samples)
    if args.command == "report":
        return _cmd_report(config)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
