import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from refequil.cli import build_parser, main
from refequil.config import ConfigError, bundled_fixtures, fixture_path, load_config

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
    assert config.backing == "exact"


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
    assert "Traceback" not in err


def _assign(value, *keys):
    def mutate(raw):
        for key in keys[:-1]:
            raw = raw[key]
        raw[keys[-1]] = value
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
], ids=["bare_atom", "damping_text", "utility_text", "utility_negative",
        "output_number", "eex_tail_beta"])
def test_malformed_config_exit_codes(tmp_path, capsys, fixture, mutate, code,
                                     message):
    cfg = _patch_fixture(tmp_path, mutate, fixture)
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "x")]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["solve"], ["certify", "--candidate", "c.csv"], ["verify"], ["report"]],
    ids=["solve", "certify", "verify", "report"])
@pytest.mark.parametrize("flag", [["--backing", "grid"],
                                  ["--grid-points", "3"]],
                         ids=["backing", "grid_points"])
def test_grid_flags_only_on_best_response(symmetric_cfg, command, flag):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*command, "--config", str(symmetric_cfg),
                                   *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["solve"], ["certify", "--candidate", "c.csv"], ["verify"], ["report"]],
    ids=["solve", "certify", "verify", "report"])
@pytest.mark.parametrize("key,value", [("backing", "grid"),
                                       ("grid_points", 3)],
                         ids=["backing", "grid_points"])
def test_grid_solver_keys_only_on_best_response(tmp_path, capsys, command,
                                                key, value):
    cfg = _patch_fixture(tmp_path, _assign(value, "solver", key))
    assert main([*command, "--config", cfg, "--out",
                 str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err


def test_best_response_reads_grid_solver_keys(tmp_path):
    def mutate(raw):
        raw["solver"].update({"backing": "grid", "grid_points": 101})
    cfg = _patch_fixture(tmp_path, mutate)
    config = load_config(cfg)
    assert (config.backing, config.grid_points) == ("grid", 101)
    reference = tmp_path / "zero.csv"
    reference.write_text("node_id,depth,position\n" + "".join(
        f"{node.id},{node.depth},0.0\n"
        for node in config.market.tree.interior))
    assert main(["best-response", "--config", cfg, "--out",
                 str(tmp_path / "br"), "--reference", str(reference)]) == 0


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


def test_best_response_with_grid_backing(symmetric_cfg, tmp_path):
    out = tmp_path / "grid"
    assert main(["solve", "--config", str(symmetric_cfg), "--seed", "7",
                 "--out", str(out)]) == 0
    code = main(["best-response", "--config", str(symmetric_cfg),
                 "--out", str(out), "--backing", "grid",
                 "--grid-points", "101",
                 "--reference", str(out / "preferred.csv")])
    assert code == 0
    with (out / "best_response.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(abs(float(r["position"])) <= 1e-6 for r in rows)


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
