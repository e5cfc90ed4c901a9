"""Spans and counters installed from outside on refequil's public names.

Nothing under ``src/`` knows about this module.  ``Tracer.section`` patches
each traced name where it is looked up (module globals and class
attributes), collects one ``Sample`` of counters and span times, and puts
every original back when the section ends, so untraced code runs with no
wrapper at all.  Wrappers only count, time and return the wrapped call's
value unchanged.

Self time is a span's duration minus the part of it covered by its child
spans.  Calls that are sub-microsecond and made ~10^5 times per operation
(gain-loss evaluations, wealth roll-forwards, memo lookups) get a counter
and no timer.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import refequil.bestresponse as bestresponse_mod
import refequil.cli as cli_mod
import refequil.config as config_mod
import refequil.equilibrium as equilibrium_mod
import refequil.market as market_mod
import refequil.preferences as preferences_mod
import refequil.verify as verify_mod

#: envelope families evaluated through log-space scans (directly or via a
#: scanned family); ``position_bound``, ``wealth_window`` and
#: ``value_floor`` are closed-form and stay untraced
ENVELOPE_FAMILIES = (
    "log_slope_floor", "log_slope_cap", "log_curve_floor", "log_curve_cap",
    "log_past_coeff", "log_objective_coeff", "log_position_past_coeff",
    "slope_floor", "slope_cap", "curve_floor", "curve_cap", "past_coeff",
    "position_past_coeff",
)

#: verify check functions and the suite each belongs to
VERIFY_CHECKS = {
    "_check_foc": "foc",
    "_check_optimizer_bound": "bounds",
    "_check_curvature_floor": "bounds",
    "_check_value_bounds": "bounds",
    "_check_derivative_sandwich": "bounds",
    "_fd_checks": "bounds",
    "_check_value_shape": "bounds",
    "_check_dominance": "bounds",
    "_check_linear_branch": "bounds",
    "_check_satisfaction_sandwich": "bounds",
    "_check_satisfaction_derivative": "bounds",
    "_check_satisfaction_concavity": "bounds",
    "_check_envelope_positivity": "bounds",
    "_check_elasticity": "bounds",
    "_check_hoelder": "hoelder",
    "_check_price_modulus": "hoelder",
    "_check_no_arbitrage": "hoelder",
    "_check_continuity": "continuity",
    "_equilibrium_checks": "equilibrium",
}
VERIFY_SUITES = ("session", "foc", "bounds", "hoelder", "continuity",
                 "equilibrium")


class Sample:
    """Counters and span times of one traced section."""

    def __init__(self) -> None:
        self.count: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.maximum: defaultdict = defaultdict(float)


class Tracer:
    """Installs wrappers for the length of a section and keeps its spans.

    Spans of the coarse layers are kept in memory as
    ``(section, span_id, parent_id, name, start, end)`` and written out by
    the caller when the run ends; the fine-grained timed calls (price
    increments, terminal evaluations) are aggregated only.
    """

    def __init__(self) -> None:
        self.sample = Sample()
        self.spans: list[tuple] = []
        #: open spans as [span_id or None, child seconds, start]
        self._open: list[list] = []
        self._section = ""
        self._next_id = 0
        self._env_depth = 0
        self._origin = perf_counter()

    # -- sections ---------------------------------------------------------
    @contextmanager
    def section(self, label: str):
        """Trace everything called inside the block; yields its Sample."""
        self.sample, self._section, self._open = Sample(), label, []
        targets = self._targets()
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in targets]
        try:
            for owner, attr, make in targets:
                setattr(owner, attr, make(getattr(owner, attr)))
            yield self.sample
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the CLI commands)."""
        frame = self._enter(name, record=True)
        try:
            yield
        finally:
            self._exit(name, frame)

    # -- span bookkeeping ---------------------------------------------------
    def _enter(self, name: str, record: bool) -> list:
        self.sample.count[name + ".calls"] += 1
        span_id = None
        if record:
            self._next_id += 1
            span_id = self._next_id
        frame = [span_id, 0.0, perf_counter()]
        self._open.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = perf_counter()
        span_id, child, start = frame
        self._open.pop()
        duration = end - start
        self.sample.total_s[name] += duration
        self.sample.self_s[name] += duration - child
        if self._open:
            self._open[-1][1] += duration
        if span_id is not None:
            parent = next((f[0] for f in reversed(self._open)
                           if f[0] is not None), None)
            self.spans.append((self._section, span_id, parent, name,
                               start - self._origin, end - self._origin))

    # -- wrapper factories ----------------------------------------------------
    def _timed(self, name: str, record: bool = True):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = self._enter(name, record)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(name, frame)
            return wrapper
        return make

    def _counted(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.sample.count[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _envelope(self, fn):
        """Outermost family calls only: nested scans belong to their caller."""
        name = "preferences.envelope"

        @functools.wraps(fn)
        def wrapper(stage, x, *args, **kwargs):
            if self._env_depth:
                return fn(stage, x, *args, **kwargs)
            self._env_depth = 1
            self.sample.count[name + ".points"] += _size(x)
            frame = self._enter(name, record=True)
            try:
                return fn(stage, x, *args, **kwargs)
            finally:
                self._exit(name, frame)
                self._env_depth = 0
        return wrapper

    def _one_step(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            solution = fn(*args, **kwargs)
            s = self.sample
            s.count["bestresponse.one_step.calls"] += 1
            s.count["bestresponse.foc_evals"] += solution.iterations
            s.count["bestresponse.one_step.clamped"] += bool(solution.clamped)
            s.maximum["bestresponse.foc_residual"] = max(
                s.maximum["bestresponse.foc_residual"], solution.residual)
            return solution
        return wrapper

    def _picard(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = fn(*args, **kwargs)
            s = self.sample
            s.count["equilibrium.picard.starts"] += 1
            s.count["equilibrium.picard.iters"] += report.iterations
            s.count["equilibrium.picard.converged"] += bool(report.converged)
            return report
        return wrapper

    def _oracle(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.sample.count["equilibrium.oracle.grid_points"] += (
                    int(bound["resolution"])
                    ** len(bound["market"].tree.interior))
            return result
        return wrapper

    def _suite_runner(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reports = fn(*args, **kwargs)
            self.sample.count["verify.checks_failed"] += sum(
                not r.passed for r in reports)
            return reports
        return wrapper

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced name."""
        br, cli, eq, mk = (bestresponse_mod, cli_mod, equilibrium_mod,
                           market_mod)
        pref, ver = preferences_mod, verify_mod
        targets = [
            (cli, "load_config", self._timed("config.load")),
            (config_mod, "load_config", self._timed("config.load")),
            (mk, "check_uniform_no_arbitrage",
             self._timed("market.certificate")),
            (config_mod, "check_uniform_no_arbitrage",
             self._timed("market.certificate")),
            (config_mod, "build_eex_model",
             self._timed("market.certificate")),
            (mk.TablePriceModel, "increment",
             self._timed("market.increment", record=False)),
            (mk.DriftVolPriceModel, "increment",
             self._timed("market.increment", record=False)),
            (br, "wealth", self._counted("market.wealth")),
            (cli, "validate_preferences", self._timed("preferences.validate")),
            (pref, "validate_preferences",
             self._timed("preferences.validate")),
            (ver, "validate_preferences", self._timed("preferences.validate")),
            (pref.ArctanGainLoss, "nu", self._counted("preferences.gain_loss")),
            (pref.ArctanGainLoss, "dnu",
             self._counted("preferences.gain_loss")),
            (pref.ArctanGainLoss, "d2nu",
             self._counted("preferences.gain_loss")),
            (br, "solve_one_step", self._one_step),
            (br.RecursiveValue, "solution",
             self._counted("bestresponse.solution")),
            (br.TerminalValue, "evaluate",
             self._timed("bestresponse.terminal", record=False)),
            (eq, "iterate_fixed_point", self._picard),
            (ver, "iterate_fixed_point", self._picard),
            (eq, "_oracle_sweep", self._oracle),
            (cli, "find_equilibria", self._timed("equilibrium.find")),
            (ver, "find_equilibria", self._timed("equilibrium.find")),
            (cli, "certify_equilibrium", self._timed("equilibrium.certify")),
            (ver, "certify_equilibrium", self._timed("equilibrium.certify")),
            (cli, "run_suite", self._suite_runner),
            (ver, "_Session", self._timed("verify.session")),
        ]
        targets += [(module, "best_response",
                     self._timed("bestresponse.best_response"))
                    for module in (br, eq, ver, cli)]
        for cls in (pref.StageEnvelopes, pref.TerminalEnvelopes,
                    pref.PropagatedEnvelopes):
            targets += [(cls, attr, self._envelope)
                        for attr in ENVELOPE_FAMILIES if attr in vars(cls)]
        targets += [(ver, fn, self._timed(f"verify.{suite}"))
                    for fn, suite in VERIFY_CHECKS.items()]
        return targets


def _size(x) -> int:
    return int(np.size(x))
