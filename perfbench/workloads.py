"""The benchmark's workloads: what one operation does and how it is checked.

Every workload runs in one process with one caller in a closed loop: the
next operation starts only after the previous one returned.

``desk_t2``
    One operation is a desk session per fixture, run in-process through
    ``refequil.cli.main``: ``solve --seed S``, ``certify --candidate
    <that run's preferred.csv>``, ``verify --suite <suite> --samples N``.
    Once per run, after the measured loop, ``solve --seed S`` on
    ``stress_t3`` checks the regression pin, untimed.
``best_response_deep``
    One operation is one cold ``best_response`` (no warm starts, no state
    shared with earlier calls) on a freshly generated certified T=4,
    3-atom tree, against a random reference in +-1.

Correctness is checked after each operation, outside its timed section.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import refequil.bestresponse as bestresponse_mod
import refequil.cli as cli_mod
import refequil.config as config_mod
import refequil.market as market_mod
import refequil.preferences as preferences_mod

#: ROADMAP regression pin on the stress_t3 preferred value (abs 1e-9)
STRESS_PIN = -0.8161887867031362
STRESS_PIN_TOL = 1e-9
#: closed-form preferred value of symmetric_t2
SYMMETRIC_VALUE = -1.0
#: one-step first-order-condition target of the deep best responses
FOC_TOLERANCE = 1e-10


@dataclass
class OpResult:
    """One operation: its wall time, per-phase times and any failures."""

    seconds: float
    phases: dict[str, float] = field(default_factory=dict)
    setup_s: float | None = None
    errors: list[str] = field(default_factory=list)
    #: tracing samples of the operation and of its set-up (traced runs)
    trace: object = None
    setup_trace: object = None
    traced: bool = False


# ---------------------------------------------------------------------------
# desk sessions on the bundled fixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fixture:
    name: str
    suite: str = "all"
    samples: int = 0
    #: expected preferred value and the absolute tolerance on it
    pin: tuple[float, float] | None = None


class DeskSession:
    """solve -> certify -> verify on each fixture, through the CLI entry."""

    #: set-ups timed at every pause of an untraced run: before each
    #: operation, after each of its commands and after the last operation,
    #: so that their median spans the run as the operations' median does
    setup_batch = 1
    #: traced set-ups, timed before each operation of a traced run
    traced_setup_batch = 3

    def __init__(self, fixtures: list[Fixture], seed: int, scratch: Path,
                 pinned: list[Fixture] = ()) -> None:
        self.fixtures = fixtures
        self.pinned = list(pinned)
        self.cli_seed = seed
        self.scratch = scratch
        self.paths = {f.name: str(config_mod.fixture_path(f.name))
                      for f in (*fixtures, *self.pinned)}
        self._reference: dict[str, bytes] | None = None
        self._reference_dir: Path | None = None

    def describe(self) -> dict:
        return {"cli_seed": self.cli_seed,
                "fixtures": [{"name": f.name, "suite": f.suite,
                              "samples": f.samples} for f in self.fixtures],
                "pinned": [f.name for f in self.pinned]}

    def warm_up(self) -> None:
        """One untimed set-up: first file reads and lazy imports."""
        self.setup()

    def setup(self) -> float:
        """Config load (market + certificate), the CLI preference gate and
        the envelope stack, for every fixture of the session."""
        start = perf_counter()
        for fixture in self.fixtures:
            config = config_mod.load_config(self.paths[fixture.name])
            if cli_mod._gate(config) != cli_mod.EXIT_OK:
                raise RuntimeError(f"{fixture.name}: the CLI gate refused "
                                   "the bundled fixture")
            market = config.market
            preferences_mod.build_envelope_stack(
                config.preferences, market.certificate.alpha_star,
                market.prices.c_f, market.prices.chi, market.horizon)
        return perf_counter() - start

    def _commands(self, fixture: Fixture, out: Path):
        common = ["--config", self.paths[fixture.name], "--out", str(out),
                  "--seed", str(self.cli_seed)]
        yield "solve", ["solve", *common]
        yield "certify", ["certify", *common,
                          "--candidate", str(out / "preferred.csv")]
        yield "verify", ["verify", *common, "--suite", fixture.suite,
                         "--samples", str(fixture.samples)]

    def run(self, index: int, tracer=None, pause=None) -> OpResult:
        """One session; its time is the sum of its commands' times.

        ``pause``, if given, is called after each command, outside the
        timed commands (untraced runs time their set-ups there).
        """
        run_dir = self.scratch / f"op{index}"
        phases = {"solve": 0.0, "certify": 0.0, "verify": 0.0}
        codes = []
        section = tracer.section(f"op{index}") if tracer else nullcontext()
        with section as sample:
            for fixture in self.fixtures:
                for phase, argv in self._commands(fixture,
                                                  run_dir / fixture.name):
                    began = perf_counter()
                    with (tracer.span(f"cli.{phase}") if tracer
                          else nullcontext()):
                        codes.append((fixture.name, phase, _cli(argv)))
                    phases[phase] += perf_counter() - began
                    if pause is not None:
                        pause()
        result = OpResult(sum(phases.values()), phases, trace=sample)
        self._check(run_dir, codes, result.errors)
        return result

    def _check(self, run_dir: Path, codes, errors: list[str]) -> None:
        for name, phase, (code, stderr) in codes:
            if code != 0:
                errors.append(f"{name} {phase}: exit code {code}: "
                              f"{stderr.strip()[-300:]}")
        for fixture in self.fixtures:
            if fixture.pin is None:
                continue
            value = _preferred_value(run_dir / fixture.name / "summary.txt")
            target, tol = fixture.pin
            if value is None or not abs(value - target) <= tol:
                errors.append(f"{fixture.name}: preferred value {value!r}, "
                              f"expected {target!r} within {tol!r}")
        digests = _digests(run_dir)
        if self._reference is None:
            self._reference, self._reference_dir = digests, run_dir
            return
        if digests != self._reference:
            errors.append(f"outputs of {run_dir.name} differ from those of "
                          f"{self._reference_dir.name} at the same seed")
        shutil.rmtree(run_dir, ignore_errors=True)

    def pin_check(self) -> list[str]:
        """Run ``solve`` once, untimed, on each pinned fixture and check
        its exit code and preferred value."""
        errors = []
        for fixture in self.pinned:
            out = self.scratch / "pinned" / fixture.name
            _, argv = next(self._commands(fixture, out))
            code, stderr = _cli(argv)
            value = _preferred_value(out / "summary.txt")
            target, tol = fixture.pin
            if code != 0:
                errors.append(f"{fixture.name} solve: exit code {code}: "
                              f"{stderr.strip()[-300:]}")
            elif value is None or not abs(value - target) <= tol:
                errors.append(f"{fixture.name}: preferred value {value!r}, "
                              f"expected {target!r} within {tol!r}")
            shutil.rmtree(out, ignore_errors=True)
        return errors

    def repeat_check(self) -> list[str]:
        """Rerun solve once, untimed, when the run had a single operation,
        and compare its files with the first operation's."""
        errors = []
        repeat_dir = self.scratch / "repeat"
        for fixture in self.fixtures:
            out = repeat_dir / fixture.name
            _, argv = next(self._commands(fixture, out))
            code, stderr = _cli(argv)
            if code != 0:
                errors.append(f"{fixture.name} repeat solve: exit code "
                              f"{code}: {stderr.strip()[-300:]}")
        for rel, digest in _digests(repeat_dir).items():
            if self._reference.get(rel) != digest:
                errors.append(f"repeat solve output {rel} differs from the "
                              "first operation's")
        shutil.rmtree(repeat_dir, ignore_errors=True)
        return errors


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.main(argv)
    return code, err.getvalue()


def _preferred_value(summary: Path) -> float | None:
    if not summary.is_file():
        return None
    for line in summary.read_text().splitlines():
        if line.startswith("preferred value:"):
            return float(line.split(":", 1)[1])
    return None


def _digests(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).digest()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# deep cold best responses on random certified trees
# ---------------------------------------------------------------------------

def random_instance(rng: np.random.Generator, horizon: int, n_atoms: int):
    """A random certified market, preferences and capital.

    The recipe of ``tests/conftest.py::random_certified_instance``:
    symmetric-support factors with bounded-below masses and per-period
    drifts small against the move size, so every draw is certifiable.
    """
    m = market_mod
    move = float(rng.uniform(0.8, 1.3))
    if n_atoms == 2:
        p = float(rng.uniform(0.25, 0.75))
        atoms = [(move, p), (-move, 1.0 - p)]
    else:
        p_mid = float(rng.uniform(0.1, 0.3))
        p_up = float(rng.uniform(0.25, 0.45))
        atoms = [(move, p_up), (0.0, p_mid), (-move, 1.0 - p_up - p_mid)]
    tree = m.ScenarioTree([m.FactorDistribution.from_atoms(atoms)
                           for _ in range(horizon)])
    scale = float(rng.uniform(0.3, 0.8))
    drifts = rng.uniform(-0.25, 0.25, size=horizon) * scale * move
    c_f = float(np.max(np.abs(drifts)) + scale * move)

    def increment(history: np.ndarray, _d=drifts, _s=scale) -> float:
        return float(_d[history.size - 1] + _s * history[-1])

    market = m.Market.assemble(tree, m.TablePriceModel(50.0, c_f, 1.0,
                                                       func=increment))
    pf = preferences_mod
    prefs = pf.Preferences(
        pf.ExponentialUtility(float(rng.uniform(0.3, 1.2)),
                              c_u=float(rng.uniform(0.01, 0.1))),
        pf.ArctanGainLoss.tight(float(rng.uniform(0.05, 0.4))))
    x0 = float(rng.uniform(-1.0, 1.0))
    return market, prefs, x0


def envelope_stack(market, prefs):
    return preferences_mod.build_envelope_stack(
        prefs, market.certificate.alpha_star, market.prices.c_f,
        market.prices.chi, market.horizon)


def random_reference(rng: np.random.Generator, market):
    interior = market.tree.interior
    return bestresponse_mod.Strategy(
        {node.id: float(h)
         for node, h in zip(interior, rng.uniform(-1.0, 1.0, len(interior)))})


def cold_best_response(market, prefs, reference, x0, stack):
    return bestresponse_mod.best_response(market, prefs, reference, x0,
                                          stack=stack,
                                          foc_tolerance=FOC_TOLERANCE)


class DeepBestResponse:
    """Cold best responses on fresh T=4, 3-atom trees (121 nodes)."""

    #: each operation times the set-up of its own instance
    setup_batch = 0
    traced_setup_batch = 0
    horizon = 4
    atoms = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def describe(self) -> dict:
        return {"horizon": self.horizon, "atoms": self.atoms,
                "reference": "uniform(-1, 1) per interior node"}

    def warm_up(self) -> None:
        """One untimed best response on an instance of its own stream, so
        that the timed instances are the same with or without it."""
        rng = np.random.default_rng([self.seed, 0])
        market, prefs, x0 = random_instance(rng, self.horizon, self.atoms)
        cold_best_response(market, prefs, random_reference(rng, market), x0,
                           envelope_stack(market, prefs))

    def run(self, index: int, tracer=None, pause=None) -> OpResult:
        section = tracer.section(f"setup{index}") if tracer else nullcontext()
        with section as setup_sample:
            start = perf_counter()
            market, prefs, x0 = random_instance(self.rng, self.horizon,
                                                self.atoms)
            stack = envelope_stack(market, prefs)
            setup_s = perf_counter() - start
        reference = random_reference(self.rng, market)
        section = tracer.section(f"op{index}") if tracer else nullcontext()
        with section as sample:
            start = perf_counter()
            strategy, values = cold_best_response(market, prefs, reference,
                                                  x0, stack)
            seconds = perf_counter() - start
        result = OpResult(seconds, {"best_response": seconds}, setup_s,
                          trace=sample, setup_trace=setup_sample)
        result.errors = check_best_response(market, x0, stack, strategy,
                                            values)
        return result


def check_best_response(market, x0, stack, strategy, values) -> list[str]:
    """On-path one-step solutions: unclamped, FOC residual within
    tolerance, position inside the stage's optimizer bracket."""
    errors = []
    path = market_mod.wealth(market.tree, market.prices, strategy, x0)
    for node in market.tree.interior:
        x = path.at(node)
        solution = values[node.depth].solution(node, x)
        bound = float(stack[node.depth].position_bound(x))
        if solution.clamped:
            errors.append(f"node {node.id}: clamped one-step solution")
        if not solution.residual <= FOC_TOLERANCE:
            errors.append(f"node {node.id}: FOC residual "
                          f"{solution.residual!r} > {FOC_TOLERANCE!r}")
        if not abs(solution.position) <= bound:
            errors.append(f"node {node.id}: position {solution.position!r} "
                          f"outside the bracket {bound!r}")
        if strategy.at(node) != solution.position:
            errors.append(f"node {node.id}: strategy position differs from "
                          "the stage optimizer")
    return errors


def scaling_table(seed: int, tracer) -> list[dict]:
    """One cold best response per rung of the horizon ladder.

    Rungs: T = 1..5 with 2 atoms and T = 1..4 with 3 atoms, each drawn from
    its own stream of the workload seed.  The wall time is measured
    untraced; the one-step count comes from a second, traced call.
    """
    rows = []
    for atoms, horizons in ((2, range(1, 6)), (3, range(1, 5))):
        for horizon in horizons:
            rng = np.random.default_rng([seed, atoms, horizon])
            market, prefs, x0 = random_instance(rng, horizon, atoms)
            stack = envelope_stack(market, prefs)
            reference = random_reference(rng, market)
            start = perf_counter()
            cold_best_response(market, prefs, reference, x0, stack)
            seconds = perf_counter() - start
            with tracer.section(f"ladder-{atoms}-{horizon}") as sample:
                cold_best_response(market, prefs, reference, x0, stack)
            rows.append({
                "atoms": atoms, "horizon": horizon,
                "nodes": len(market.tree.nodes),
                "interior": len(market.tree.interior),
                "one_step_calls":
                    sample.count["bestresponse.one_step.calls"],
                "foc_evals": sample.count["bestresponse.foc_evals"],
                "best_response_s": seconds,
            })
    return rows


WORKLOADS = {
    "desk_t2": lambda seed, scratch: DeskSession([
        Fixture("symmetric_t2", "all", 100, (SYMMETRIC_VALUE, 0.0)),
        Fixture("asymmetric_eex_t2", "all", 100),
    ], seed, scratch, pinned=[
        Fixture("stress_t3", pin=(STRESS_PIN, STRESS_PIN_TOL)),
    ]),
    "best_response_deep": lambda seed, scratch: DeepBestResponse(seed),
}
