import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refequil.bestresponse import Strategy, best_response
from refequil.cli import build_parser, main
from refequil.config import ConfigError, bundled_fixtures, fixture_path, load_config
from refequil.verify import run_suite

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def symmetric_cfg() -> Path:
    return fixture_path("symmetric_t2")


def test_bundled_fixtures_present():
    assert bundled_fixtures() == ["asymmetric_eex_t2", "stress_t3",
                                  "symmetric_t2"]


def test_load_symmetric_fixture(symmetric_cfg):
    config = load_config(symmetric_cfg)
    assert config.market.certificate.certified
    assert config.market.certificate.alpha_star == 0.5
    assert config.initial_capital == 0.0
    assert config.seed == 7
    assert config.solver.damping == 0.5


def test_load_eex_fixture_builds_certificate():
    config = load_config(fixture_path("asymmetric_eex_t2"))
    assert config.market.certificate.alpha_star == 0.4
    assert config.market.prices.variant == "drift_vol"
    incs = sorted(config.market.prices.increment(c)
                  for c in config.market.tree.root.children)
    assert incs == pytest.approx([-2.4, 0.1, 2.6])


def test_overrides_reach_solver(symmetric_cfg):
    config = load_config(symmetric_cfg, {"seed": 99, "starts": 3,
                                         "tolerance": 1e-6,
                                         "output_directory": "elsewhere"})
    assert config.seed == 99
    assert config.solver.starts == 3
    assert config.solver.tolerance == 1e-6
    assert config.output_dir == Path("elsewhere")


def test_parse_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="not found"):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"market": {"factors": []}}))
    with pytest.raises(ConfigError, match="price"):
        load_config(partial)


def _patch_fixture(tmp_path, mutate, fixture="symmetric_t2") -> str:
    raw = json.loads(fixture_path(fixture).read_text())
    mutate(raw)
    out = tmp_path / "config.json"
    out.write_text(json.dumps(raw))
    return str(out)


def test_solve_writes_artifacts_and_exits_zero(symmetric_cfg, tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--config", str(symmetric_cfg), "--seed", "7",
                 "--out", str(out), "--trace"])
    assert code == 0
    for name in ("report.csv", "preferred.csv", "equilibrium_0.csv",
                 "tree.csv", "summary.txt", "trace.csv"):
        assert (out / name).exists(), name
    with (out / "report.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert rows[0]["converged"] == "True"
    assert float(rows[0]["residual"]) == 0.0
    assert [row["fallbacks"] for row in rows] == ["0"] * 8
    assert "damped fallbacks: 0\n" in (out / "summary.txt").read_text()


def test_solve_is_byte_deterministic(symmetric_cfg, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(symmetric_cfg), "--seed", "7",
                 "--out", str(out_a)]) == 0
    assert main(["solve", "--config", str(symmetric_cfg), "--seed", "7",
                 "--out", str(out_b)]) == 0
    for name in ("report.csv", "preferred.csv", "tree.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{]")
    assert main(["solve", "--config", str(bad), "--out",
                 str(tmp_path / "x")]) == 2


def test_exit_code_certification_failure(tmp_path, capsys):
    cfg = _patch_fixture(tmp_path, lambda raw: raw["market"]["price"]
                         ["increments"].update({"0": 0.5, "1": 0.2}))
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "x")]) == 3
    assert "certification failed" in capsys.readouterr().err


def test_exit_code_preference_failure(tmp_path, capsys):
    def mutate(raw):
        xs = [-3.0, -1.0, 1.0, 3.0]
        raw["preferences"]["utility"] = {
            "family": "table", "x": xs, "u": xs,
            "du": [1.0] * 4, "d2u": [-1e-12] * 4, "c_u": 0.5}
    cfg = _patch_fixture(tmp_path, mutate)
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "x")]) == 4
    assert "preference validation failed" in capsys.readouterr().err


def test_solve_error_exits_cleanly_at_large_capital(tmp_path, capsys):
    # exp utility underflows to 0 at this wealth, so the one-step objective
    # is flat; the CLI reports the SolveError instead of a traceback
    cfg = _patch_fixture(tmp_path, _assign(800.0, "initial_capital"))
    assert main(["solve", "--config", cfg, "--seed", "7", "--out",
                 str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "solve failed: flat first-order condition" in err
    assert "U' and U'' underflow" in err and "increment law" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("capital", [1e153, 1e154, 1e200, 1e308])
def test_gate_passes_capital_where_the_gain_slope_underflows(tmp_path, capsys,
                                                            capital):
    # from 1e154 up, (x / s)^2 overflows on the gate's probe grid and the
    # arctan slope k / (1 + (x / s)^2) rounds to 0.0; the gate reads that
    # sign in log space, so such capital reaches the solver and fails there
    # (exit 1), as 1e153 does, instead of the gate (exit 4)
    cfg = _patch_fixture(tmp_path, _assign(capital, "initial_capital"))
    code, caught = _main_recording_warnings(["solve", "--config", cfg,
                                             "--seed", "7", "--out",
                                             str(tmp_path / "x")])
    assert (code, caught) == (1, [])
    err = capsys.readouterr().err
    assert err.startswith("solve failed: flat first-order condition")
    assert "increment law" not in err
    assert err.count("\n") == 1


def test_solve_error_exits_cleanly_on_degenerate_increments(tmp_path, capsys,
                                                            monkeypatch):
    # the edges out of node 1 carry no increment; a certificate forged for
    # the market lets the law reach the best response, whose curvature
    # there is 0: the CLI reports the flat first-order condition, exit 1
    import refequil.config as config_mod
    from refequil.market import NoArbitrageCertificate

    monkeypatch.setattr(config_mod, "check_uniform_no_arbitrage",
                        lambda tree, prices: NoArbitrageCertificate(
                            0.5, {}, None))
    cfg = _patch_fixture(tmp_path, lambda raw: raw["market"]["price"]
                         ["increments"].update({"0/0": 0.0, "0/1": 0.0}))
    assert main(["solve", "--config", cfg, "--seed", "7", "--out",
                 str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == ("solve failed: flat first-order condition at node 1; "
                   "the increment law is degenerate\n")


def test_solve_exits_1_when_a_search_best_response_is_flagged(
        tmp_path, capsys, monkeypatch):
    # one Newton iteration leaves best responses of the search exhausted:
    # the search still converges, but solve names the flags and exits 1
    import refequil.bestresponse as bestresponse

    monkeypatch.setattr(bestresponse, "_NEWTON_ITERATIONS", 1)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(fixture_path("asymmetric_eex_t2")),
                 "--seed", "7", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    flagged = [line for line in (out / "summary.txt").read_text().splitlines()
               if line.startswith("flagged best responses: 0 clamped, ")]
    assert len(flagged) == 1 and not flagged[0].endswith(" 0 exhausted")
    assert "converged: 8\n" in captured.out
    assert captured.err == flagged[0] + "\n"


def _main_recording_warnings(argv):
    # the CLI runs under Python's default warning filter, which prints
    # numpy's RuntimeWarnings; here every one of them is recorded
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        code = main(argv)
    return code, [w for w in caught if w.category is RuntimeWarning]


def test_solve_error_at_overflowing_utility_prints_one_line(tmp_path,
                                                            capsys):
    # U = -exp(-a x) overflows to -inf at a x = -712, so gaps between
    # utilities are inf - inf; the kernel forms them without a warning and
    # the solve fails with its documented exit code and message alone
    cfg = _patch_fixture(tmp_path, _assign(-712.0, "initial_capital"))
    code, caught = _main_recording_warnings(["solve", "--config", cfg,
                                             "--seed", "7", "--out",
                                             str(tmp_path / "x")])
    assert (code, caught) == (1, [])
    err = capsys.readouterr().err
    assert err.startswith("solve failed: the first-order condition is not "
                          "finite")
    assert err.count("\n") == 1


def test_underflowing_gain_scale_is_a_configuration_error(tmp_path, capsys):
    # s = 1e-300 squares to 0.0, which is finite: it is refused when the
    # configuration loads (exit 2, one line), before any curvature divides
    # by it
    cfg = _patch_fixture(tmp_path, _assign(1e-300, "preferences",
                                           "gain_loss", "s"))
    code, caught = _main_recording_warnings(["solve", "--config", cfg,
                                             "--out", str(tmp_path / "x")])
    assert (code, caught) == (2, [])
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "least normal double" in err
    assert err.count("\n") == 1


def test_preference_gate_rejects_overflowing_loss_slope_quietly(tmp_path,
                                                               capsys):
    # k_minus = 1e308 overflows the loss arm k x on the gate's grid: the
    # gate fails (exit 4) on the non-finite values, without numpy warnings
    cfg = _patch_fixture(tmp_path, _assign(1e308, "preferences",
                                           "gain_loss", "k_minus"))
    code, caught = _main_recording_warnings(["solve", "--config", cfg,
                                             "--out", str(tmp_path / "x")])
    assert (code, caught) == (4, [])
    err = capsys.readouterr().err
    assert err.startswith("preference validation failed: "
                          "gain_loss_linear_losses, gain_loss_lipschitz")
    assert err.count("\n") == 1


def _assign(value, *keys):
    def mutate(raw):
        for key in keys[:-1]:
            raw = raw[key]
        raw[keys[-1]] = value
    return mutate


def _nan_increment_in_three_atom_row(raw):
    # the row keeps a finite move of each sign, so the no-arbitrage scan
    # would certify it; the load refuses the NaN by its key before the
    # increment bound would
    raw["market"]["factors"] = [[{"value": 1.0, "prob": 0.4},
                                 {"value": 0.0, "prob": 0.2},
                                 {"value": -1.0, "prob": 0.4}]]
    raw["market"]["price"]["increments"] = {"0": 0.5, "1": math.nan,
                                            "2": -0.5}


def _tabulated_utility(du_last):
    # -exp(-x) tabulated on five knots, with the last slope replaced
    def mutate(raw):
        x = [-4.0, -2.0, 0.0, 2.0, 4.0]
        du = [math.exp(-v) for v in x[:-1]] + [du_last]
        raw["preferences"]["utility"] = {
            "family": "table", "x": x, "u": [-math.exp(-v) for v in x],
            "du": du, "d2u": [-math.exp(-v) for v in x], "c_u": 1.0}
    return mutate


@pytest.mark.parametrize("fixture,mutate,code,message", [
    ("symmetric_t2", _assign(1.0, "market", "factors", 0, 0), 2,
     "configuration error"),
    ("symmetric_t2", _assign("half", "solver", "damping"), 2,
     "configuration error"),
    ("symmetric_t2", _assign("x", "preferences", "utility", "a"), 2,
     "configuration error"),
    ("symmetric_t2", _assign(-1, "preferences", "utility", "a"), 2,
     "configuration error"),
    ("symmetric_t2", _assign(5, "output"), 2, "configuration error"),
    ("asymmetric_eex_t2", _assign(0.9, "market", "price", "beta"), 3,
     "market certification failed"),
    ("symmetric_t2", _assign(1.4e154, "preferences", "utility", "a"), 2,
     "configuration error"),
    ("symmetric_t2", _assign(math.inf, "initial_capital"), 2,
     "configuration error"),
    ("symmetric_t2", _assign(math.inf, "seed"), 2,
     "configuration error: seed must be finite, not inf"),
    ("asymmetric_eex_t2", _assign([1.0], "market", "price", "sigma"), 2,
     "configuration error"),
    ("symmetric_t2", _assign(0, "solver", "max_iterations"), 2,
     "configuration error"),
    ("symmetric_t2", _assign(1e300, "preferences", "gain_loss", "s"), 2,
     "the gain-arm scale must be positive, with a finite square "
     "(got 1e+300)"),
    ("symmetric_t2", _assign(0, "solver", "oracle_resolution"), 2,
     "oracle_resolution must be at least 2"),
    ("symmetric_t2", _assign(1, "solver", "oracle_resolution"), 2,
     "oracle_resolution must be at least 2"),
    ("symmetric_t2", _assign(21.0, "solver", "oracle_resolution"), 2,
     "oracle_resolution must be an integer, not 21.0"),
    ("symmetric_t2", _assign(True, "solver", "oracle_resolution"), 2,
     "oracle_resolution must be an integer, not True"),
    ("symmetric_t2", _assign(2.5, "solver", "max_iterations"), 2,
     "max_iterations must be an integer, not 2.5"),
    ("symmetric_t2", _assign(True, "solver", "max_iterations"), 2,
     "max_iterations must be an integer, not True"),
    ("symmetric_t2", _assign(2.5, "solver", "starts"), 2,
     "starts must be an integer, not 2.5"),
    ("symmetric_t2", _assign(-1, "solver", "dedup_factor"), 2,
     "unknown solver keys ['dedup_factor']"),
    ("symmetric_t2", _assign(-5, "solver", "oracle_cap"), 2,
     "unknown solver keys ['oracle_cap']"),
    ("symmetric_t2", _nan_increment_in_three_atom_row, 2,
     'market.price.increments["1"] must be finite, not nan'),
    ("symmetric_t2", _assign(math.nan, "market", "price", "increments",
                             "0/1"), 2,
     'market.price.increments["0/1"] must be finite, not nan'),
    ("symmetric_t2", _assign(-math.inf, "market", "price", "increments",
                             "1"), 2,
     'market.price.increments["1"] must be finite, not -inf'),
    # the seed is a non-negative integer: int() truncated a float or a
    # bool, and a negative seed reached numpy's generator
    ("symmetric_t2", _assign(-1, "seed"), 2,
     "seed must be a non-negative integer, not -1"),
    ("symmetric_t2", _assign(1.5, "seed"), 2,
     "seed must be a non-negative integer, not 1.5"),
    ("symmetric_t2", _assign(7.0, "seed"), 2,
     "seed must be a non-negative integer, not 7.0"),
    ("symmetric_t2", _assign(True, "seed"), 2,
     "seed must be a non-negative integer, not True"),
    ("symmetric_t2", _assign(math.nan, "seed"), 2,
     "configuration error: seed must be finite, not nan"),
    ("symmetric_t2", _assign(-math.inf, "seed"), 2,
     "configuration error: seed must be finite, not -inf"),
    # every non-finite number is refused at load by its key path
    ("symmetric_t2", _assign(math.nan, "market", "factors", 0, 0, "prob"), 2,
     "configuration error: market.factors[0][0].prob must be finite, "
     "not nan"),
    ("asymmetric_eex_t2", _assign(math.nan, "market", "factors", 1, 2,
                                  "prob"), 2,
     "configuration error: market.factors[1][2].prob must be finite, "
     "not nan"),
    ("asymmetric_eex_t2", _assign(math.nan, "market", "price", "mu", 0), 2,
     "configuration error: market.price.mu[0] must be finite, not nan"),
    ("asymmetric_eex_t2", _assign(math.nan, "market", "price", "mu", 1,
                                  "coeffs", 0), 2,
     "configuration error: market.price.mu[1].coeffs[0] must be finite, "
     "not nan"),
    ("asymmetric_eex_t2", _assign(math.nan, "market", "price", "sigma", 1),
     2, "configuration error: market.price.sigma[1] must be finite, "
     "not nan"),
    ("asymmetric_eex_t2", _assign({"type": "constant", "value": 1.0},
                                  "market", "price", "sigma", 0), 2,
     "unknown coefficient type 'constant'"),
    ("asymmetric_eex_t2", _assign(math.nan, "market", "price", "beta"), 2,
     "configuration error: market.price.beta must be finite, not nan"),
    ("asymmetric_eex_t2", _assign(math.nan, "market", "price", "c"), 2,
     "configuration error: market.price.c must be finite, not nan"),
    ("asymmetric_eex_t2", _assign(math.inf, "market", "price", "C"), 2,
     "configuration error: market.price.C must be finite, not inf"),
    ("asymmetric_eex_t2", _assign(math.nan, "market", "price", "delta"), 2,
     "configuration error: market.price.delta must be finite, not nan"),
    ("asymmetric_eex_t2", _assign(math.inf, "market", "price", "delta"), 2,
     "configuration error: market.price.delta must be finite, not inf"),
    ("symmetric_t2", _tabulated_utility(du_last=math.nan), 2,
     "configuration error: preferences.utility.du[4] must be finite, "
     "not nan"),
    ("symmetric_t2", _assign(-math.inf, "solver", "damping"), 2,
     "configuration error: solver.damping must be finite, not -inf"),
    # finite values out of range keep their own gates and exit codes
    ("asymmetric_eex_t2", _assign(-0.5, "market", "price", "delta"), 3,
     "delta must lie in (0, 1], not -0.5"),
    ("symmetric_t2", _tabulated_utility(du_last=-1.0), 4,
     "preference validation failed: utility_increasing"),
], ids=["bare_atom", "damping_text", "utility_text", "utility_negative",
        "output_number", "eex_tail_beta", "utility_square_overflows",
        "capital_infinite", "seed_infinite", "sigma_short",
        "max_iterations_zero", "gain_scale_square_overflows",
        "resolution_zero", "resolution_one", "resolution_float",
        "resolution_bool", "max_iterations_float", "max_iterations_bool",
        "starts_float", "dedup_factor_removed", "oracle_cap_removed",
        "increment_nan", "increment_nan_deep", "increment_minus_inf",
        "seed_negative", "seed_float", "seed_whole_float", "seed_bool",
        "seed_nan", "seed_minus_infinite", "prob_nan", "eex_prob_nan",
        "mu_nan", "mu_coeff_nan", "sigma_nan", "constant_coefficient",
        "beta_nan", "c_nan", "C_inf", "delta_nan", "delta_inf",
        "table_du_nan", "damping_minus_inf", "delta_negative",
        "table_du_negative"])
def test_malformed_config_exit_codes(tmp_path, capsys, fixture, mutate, code,
                                     message):
    cfg = _patch_fixture(tmp_path, mutate, fixture)
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "x")]) == code
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


def test_negative_seed_flag_is_a_configuration_error(symmetric_cfg, tmp_path,
                                                     capsys):
    assert main(["solve", "--config", str(symmetric_cfg), "--seed", "-1",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: seed must be a non-negative integer, not -1\n")


@pytest.mark.parametrize("command", [
    ["solve"], ["best-response", "--reference", "zero.csv"],
    ["certify", "--candidate", "zero.csv"], ["verify", "--samples", "20"]],
    ids=["solve", "best-response", "certify", "verify"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under_file"])
def test_unusable_output_directory_is_a_configuration_error(
        symmetric_cfg, tmp_path, capsys, monkeypatch, command, below):
    # a regular file as --out, or a directory below one: the output
    # directory is made before any solve, and its failure is one line
    monkeypatch.chdir(tmp_path)
    Path("zero.csv").write_text("node_id,depth,position\n0,0,0.0\n"
                                "1,1,0.0\n2,1,0.0\n")
    Path("taken").write_text("")
    out = str(Path("taken", below))
    assert main([*command, "--config", str(symmetric_cfg), "--out",
                 out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"configuration error: cannot create output directory {out}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("samples", [0, -3])
def test_sample_count_below_one_is_refused(symmetric_cfg, tmp_path, capsys,
                                           samples):
    # both once ended in a numpy traceback from the session's sampling
    config = load_config(symmetric_cfg)
    with pytest.raises(ValueError, match=r"^samples must be at least 1, "):
        run_suite(config.market, config.preferences, config.initial_capital,
                  samples=samples)
    assert main(["verify", "--config", str(symmetric_cfg), "--samples",
                 str(samples), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: --samples must be at least 1, not {samples}\n")
    assert not (tmp_path / "x").exists()


def _three_period_table(raw):
    # symmetric_t2's coin over three periods, each increment half the
    # latest move
    coin = raw["market"]["factors"][0]
    raw["market"]["factors"] = [[dict(atom) for atom in coin]
                                for _ in range(3)]
    raw["market"]["price"]["increments"] = {
        "/".join(map(str, path)): 0.5 - path[-1]
        for t in (1, 2, 3) for path in itertools.product((0, 1), repeat=t)}


@pytest.mark.parametrize("fixture,horizon", [
    ("symmetric_t2", 2), ("symmetric_t2", 3), ("asymmetric_eex_t2", 2),
    ("stress_t3", 3)], ids=["table_t2", "table_t3", "drift_vol_t2",
                            "drift_vol_t3"])
def test_law_tolerance_does_not_compound_with_depth(tmp_path, fixture,
                                                    horizon):
    # every law sums to 1 + 9e-13, within the factor law's tolerance; the
    # unnormalised path sums reached 1 + 1.8e-12 at depth 2, past it
    def mutate(raw):
        if horizon > len(raw["market"]["factors"]):
            _three_period_table(raw)
        for law in raw["market"]["factors"]:
            law[0]["prob"] += 9e-13

    cfg = _patch_fixture(tmp_path, mutate, fixture)
    tree = load_config(cfg).market.tree
    assert tree.horizon == horizon
    for level in tree.levels[1:]:
        assert math.fsum(n.prob for n in level) == pytest.approx(1.0,
                                                                 abs=1e-15)
    assert main(["solve", "--config", cfg, "--starts", "2", "--out",
                 str(tmp_path / "x")]) == 0


_NON_FINITE_KEYS = [
    (fixture, keys, value)
    for fixture in ("symmetric_t2", "asymmetric_eex_t2", "stress_t3")
    for keys in [("market", "price", "s0"),
                 ("market", "factors", 0, 0, "value"),
                 ("market", "factors", 1, 1, "value"),
                 *[("market", "price", "c_f")] * (fixture == "symmetric_t2")]
    for value in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize(
    "fixture,keys,value", _NON_FINITE_KEYS,
    ids=[f"{f}-{'.'.join(map(str, k))}-{v}" for f, k, v in _NON_FINITE_KEYS])
def test_non_finite_market_value_is_refused_at_load(tmp_path, capsys, fixture,
                                                    keys, value):
    # each of these once loaded: the table model never reads a factor
    # value, and nothing read s0, so solve exited 0 or failed later
    cfg = _patch_fixture(tmp_path, _assign(value, *keys), fixture)
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    path = ("market.factors[{}][{}].value".format(*keys[2:4])
            if keys[1] == "factors" else f"market.price.{keys[-1]}")
    assert err == (f"configuration error: {path} must be finite, "
                   f"not {value!r}\n")


@pytest.mark.parametrize("command", [["solve", "--seed", "7"],
                                     ["certify", "--candidate", "c.csv"]],
                         ids=["solve", "certify"])
@pytest.mark.parametrize("key,value", [
    ("start_radius", -3), ("start_radius", 0), ("start_radius", math.nan),
    ("start_radius", math.inf), ("oracle_radius", 0), ("oracle_radius", -2),
    ("oracle_radius", math.nan), ("oracle_radius", -math.inf),
    ("tolerance", math.nan), ("tolerance", math.inf), ("tolerance", 0),
    ("foc_tolerance", -1), ("foc_tolerance", math.nan),
    # JSON true is a bool, which Python would take as 1.0
    ("damping", True), ("tolerance", True), ("foc_tolerance", True),
    ("start_radius", True), ("oracle_radius", True),
], ids=["start_radius_negative", "start_radius_zero", "start_radius_nan",
        "start_radius_infinite", "oracle_radius_zero",
        "oracle_radius_negative", "oracle_radius_nan",
        "oracle_radius_minus_infinity", "tolerance_nan",
        "tolerance_infinite", "tolerance_zero", "foc_tolerance_negative",
        "foc_tolerance_nan", "damping_true", "tolerance_true",
        "foc_tolerance_true", "start_radius_true", "oracle_radius_true"])
def test_radii_and_tolerances_out_of_range_are_configuration_errors(
        tmp_path, capsys, command, key, value):
    cfg = _patch_fixture(tmp_path, _assign(value, "solver", key))
    assert main([*command, "--config", cfg, "--out",
                 str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"{key} must be" in err and err.count("\n") == 1


EVERY_COMMAND = pytest.mark.parametrize("command", [
    ["solve"], ["best-response", "--reference", "r.csv"],
    ["certify", "--candidate", "c.csv"], ["verify"], ["report"]],
    ids=["solve", "best-response", "certify", "verify", "report"])


@EVERY_COMMAND
@pytest.mark.parametrize("flag", [["--backing", "grid"],
                                  ["--grid-points", "3"]],
                         ids=["backing", "grid_points"])
def test_grid_flags_rejected_by_every_command(symmetric_cfg, command, flag):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*command, "--config", str(symmetric_cfg),
                                   *flag])
    assert exc.value.code == 2


@EVERY_COMMAND
@pytest.mark.parametrize("key,value", [("backing", "grid"),
                                       ("grid_points", 3)],
                         ids=["backing", "grid_points"])
def test_grid_solver_keys_rejected_by_every_command(tmp_path, capsys, command,
                                                    key, value):
    cfg = _patch_fixture(tmp_path, _assign(value, "solver", key))
    assert main([*command, "--config", cfg, "--out",
                 str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err


@pytest.mark.parametrize("resolution", ["0", "1", "-3"])
def test_certify_resolution_below_two_is_a_configuration_error(
        symmetric_cfg, tmp_path, capsys, resolution):
    out = tmp_path / "run"
    assert main(["certify", "--config", str(symmetric_cfg), "--out",
                 str(out), "--candidate", str(tmp_path / "c.csv"),
                 "--resolution", resolution]) == 2
    assert capsys.readouterr().err == (
        "configuration error: invalid solver configuration: "
        "oracle_resolution must be at least 2\n")
    assert not out.exists()


def test_verify_command_passes_and_writes_csv(symmetric_cfg, tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--config", str(symmetric_cfg), "--seed", "3",
                 "--out", str(out), "--samples", "60", "--suite", "foc"])
    assert code == 0
    with (out / "verify.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["check"] == "foc_residual"
    assert rows[0]["passed"] == "True"


def test_best_response_and_certify_round_trip(symmetric_cfg, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--config", str(symmetric_cfg), "--seed", "7",
                 "--out", str(out)]) == 0
    assert main(["best-response", "--config", str(symmetric_cfg),
                 "--out", str(out),
                 "--reference", str(out / "preferred.csv")]) == 0
    assert (out / "best_response.csv").exists()
    assert (out / "value_function.csv").exists()
    assert main(["certify", "--config", str(symmetric_cfg),
                 "--out", str(out), "--resolution", "21",
                 "--candidate", str(out / "preferred.csv")]) == 0
    with (out / "certification.csv").open() as fh:
        row = next(csv.DictReader(fh))
    assert row["certified"] == "True"
    assert row["grid_resolution"] == "21"


def test_certify_rejects_bad_candidate(symmetric_cfg, tmp_path):
    out = tmp_path / "run"
    bad = out / "bad.csv"
    out.mkdir()
    config = load_config(symmetric_cfg)
    with bad.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "depth", "position"])
        for node in config.market.tree.interior:
            writer.writerow([node.id, node.depth, 0.25])
    assert main(["certify", "--config", str(symmetric_cfg), "--out",
                 str(out), "--candidate", str(bad),
                 "--resolution", "21"]) == 1


@pytest.mark.parametrize("command,flag,written", [
    ("certify", "--candidate", "certification.csv"),
    ("best-response", "--reference", "best_response.csv")],
    ids=["certify", "best-response"])
@pytest.mark.parametrize("edit,message", [
    (None, "cannot read strategy"),
    (lambda rows: [rows[0].replace(",0.0", ",half")] + rows[1:],
     "numeric position"),
    (lambda rows: rows[:1] + [rows[1].replace(",0.0", ",nan")] + rows[2:],
     "not finite"),
    (lambda rows: rows + rows[-1:], "duplicate node id"),
    (lambda rows: rows[:-1], "no position for interior nodes"),
    (lambda rows: rows + ["99,1,5.0"], "not interior nodes"),
    (lambda rows: [row.split(",")[0] + ",7,0.0" for row in rows],
     "has depth")],
    ids=["missing_file", "non_numeric", "non_finite", "duplicate_id",
         "missing_id", "stray_id", "wrong_depth"])
def test_malformed_strategy_csv_exits_2(symmetric_cfg, tmp_path, capsys,
                                        command, flag, written, edit,
                                        message):
    # the zero strategy is the symmetric fixture's equilibrium; each edit
    # breaks its CSV in one way
    tree = load_config(symmetric_cfg).market.tree
    rows = [f"{node.id},{node.depth},0.0" for node in tree.interior]
    strategy = tmp_path / "strategy.csv"
    if edit is not None:
        strategy.write_text("node_id,depth,position\n"
                            + "".join(f"{row}\n" for row in edit(rows)))
    out = tmp_path / "run"
    assert main([command, "--config", str(symmetric_cfg), "--out", str(out),
                 flag, str(strategy)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert message in err
    assert not (out / written).exists()


def test_report_command_replays_summary(symmetric_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--config", str(symmetric_cfg), "--seed", "7",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(symmetric_cfg), "--out",
                 str(out)]) == 0
    assert "preferred residual: 0.0" in capsys.readouterr().out
    assert main(["report", "--config", str(symmetric_cfg), "--out",
                 str(tmp_path / "empty")]) == 1


def test_console_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "refequil.cli", "--help"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout


def test_cli_import_loads_no_scipy(tmp_path):
    # a fresh interpreter: importing the CLI loads no scipy module, and a
    # tabulated utility still loads, through its lazy scipy.interpolate
    xs = np.linspace(-6.0, 6.0, 25)
    cfg = _patch_fixture(tmp_path, _assign(
        {"family": "table", "x": xs.tolist(), "u": (-np.exp(-xs)).tolist(),
         "du": np.exp(-xs).tolist(), "d2u": (-np.exp(-xs)).tolist(),
         "c_u": 0.05}, "preferences", "utility"))
    script = (
        "import sys\n"
        "import refequil.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "from refequil.config import load_config\n"
        f"utility = load_config({cfg!r}).preferences.utility\n"
        "print(type(utility).__name__, float(utility.u(0.0)),\n"
        "      'scipy.interpolate' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "TabulatedUtility -1.0 True"]


def test_value_dump_equals_one_by_one_evaluation(tmp_path):
    # the dump asks each stage once for all of its rows; the file must equal
    # asking row by row
    cfg = fixture_path("asymmetric_eex_t2")
    config = load_config(cfg)
    tree = config.market.tree
    positions = {node.id: 0.25 * (node.id % 3 - 1) for node in tree.interior}
    reference = tmp_path / "reference.csv"
    reference.write_text("node_id,depth,position\n" + "".join(
        f"{node.id},{node.depth},{positions[node.id]!r}\n"
        for node in tree.interior))
    out = tmp_path / "br"
    assert main(["best-response", "--config", str(cfg), "--out", str(out),
                 "--reference", str(reference)]) == 0

    x0 = config.initial_capital
    _, values = best_response(config.market, config.preferences,
                              Strategy(positions), x0,
                              foc_tolerance=config.solver.foc_tolerance)
    values[0].evaluate(tree.root, x0)
    expected = []
    for node in tree.interior:
        for x in np.linspace(x0 - 2.0, x0 + 2.0, 21):
            triple = values[node.depth].evaluate(node, float(x))
            expected.append([str(node.id), repr(float(x)),
                             *map(repr, triple)])
    with (out / "value_function.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node_id", "x", "value", "dvalue", "d2value"]
    assert rows[1:] == expected


def test_verify_cli_on_drift_vol_fixture(tmp_path):
    out = tmp_path / "v_eex"
    code = main(["verify", "--config", str(fixture_path("asymmetric_eex_t2")),
                 "--seed", "3", "--out", str(out), "--samples", "60",
                 "--suite", "bounds"])
    assert code == 0


def test_tabulated_drift_coefficients(tmp_path):
    raw = json.loads(fixture_path("asymmetric_eex_t2").read_text())
    raw["market"]["price"]["mu"] = [
        0.1, {"type": "table",
              "values": {"0": -0.1, "1": 0.0, "2": 0.1}}]
    cfg = tmp_path / "tabulated.json"
    cfg.write_text(json.dumps(raw))
    config = load_config(cfg)
    assert config.market.certificate.certified
    tree = config.market.tree
    down_child = tree.root.children[0].children[0]
    up_child = tree.root.children[2].children[2]
    assert config.market.prices.increment(down_child) == pytest.approx(
        -0.1 + 1.0 * -2.5)
    assert config.market.prices.increment(up_child) == pytest.approx(
        0.1 + 1.0 * 2.5)


def test_table_coefficient_matches_atoms_exactly(tmp_path):
    # a history coordinate is looked up by its atom value; one that is no
    # atom has no tabulated path, rather than that of the nearest atom
    cfg = _patch_fixture(tmp_path, lambda raw: raw["market"]["price"].update(
        mu=[0.1, {"type": "table",
                  "values": {"0": -0.1, "1": 0.0, "2": 0.1}}]),
        fixture="asymmetric_eex_t2")
    config = load_config(cfg)
    mu = config.market.prices.mu[1]
    atoms = [v for (v,) in config.market.tree.distributions[0].values]
    assert [mu(np.array([a])) for a in atoms] == [-0.1, 0.0, 0.1]
    for coord in (atoms[0] + 1e-9, 0.3 * atoms[0]):
        with pytest.raises(ConfigError, match="not an atom"):
            mu(np.array([coord]))


def _leaf_paths(node, path=()):
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for k, value in enumerate(node):
            yield from _leaf_paths(value, path + (k,))
    else:
        yield path


_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.lists(st.floats(-5.0, 5.0), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 3), max_size=2))


@settings(max_examples=120, deadline=None)
@given(fixture=st.sampled_from(bundled_fixtures()), data=st.data())
def test_config_fuzz_exits_with_documented_code(fixture, data):
    # one leaf of a bundled fixture mutated or deleted: config load and
    # the gates end in a documented exit code, never in a traceback.  The
    # command runs under Python's default warning filter, as the CLI does:
    # numpy's overflow warnings on absurd magnitudes (k_minus = 1e308)
    # print and do not raise.
    raw = json.loads(fixture_path(fixture).read_text())
    path = data.draw(st.sampled_from(list(_leaf_paths(raw))))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_FUZZ_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("default", RuntimeWarning)
            code = main(["report", "--config", str(cfg), "--out",
                         str(Path(tmp) / "out")])
    assert code in range(5), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _numeric_leaf_paths(fixture):
    raw = json.loads(fixture_path(fixture).read_text())
    for path in _leaf_paths(raw):
        leaf = raw
        for key in path:
            leaf = leaf[key]
        if type(leaf) in (int, float):
            yield path


_NON_FINITE_LEAVES = [
    (fixture, keys, value)
    for fixture in ("symmetric_t2", "asymmetric_eex_t2", "stress_t3")
    for keys in _numeric_leaf_paths(fixture)
    for value in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize(
    "fixture,keys,value", _NON_FINITE_LEAVES,
    ids=[f"{f}-{'.'.join(map(str, k))}-{v}" for f, k, v in _NON_FINITE_LEAVES])
def test_non_finite_leaf_ends_at_load_or_certification(tmp_path, capsys,
                                                       fixture, keys, value):
    # every numeric leaf of a bundled fixture, seed included, ends at load
    # with its key path; report never solves, so any exit past the gate
    # would be a value that got through
    cfg = _patch_fixture(tmp_path, _assign(value, *keys), fixture)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["report", "--config", cfg, "--out",
                     str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == (f"configuration error: {_key_path(keys)} must be finite, "
                   f"not {value!r}\n")
    assert caught == []


def _key_path(keys) -> str:
    """``market.price.mu[1].coeffs[0]``, ``increments["0/1"]``."""
    path = ""
    for key in keys:
        if isinstance(key, int):
            path += f"[{key}]"
        elif key.isidentifier():
            path += f".{key}" if path else key
        else:
            path += f'["{key}"]'
    return path
