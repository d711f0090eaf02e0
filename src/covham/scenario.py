"""Scenario files: one JSON document per run.

A scenario names the field species and its constants, the source
worldlines, the momentum grid, the evolution window, and optional
gauge, bracket-vector and output settings.  Loading validates
everything up front so a verification run never dies halfway through
with a bad parameter; every complaint is a ScenarioError that names the
offending section.  Every real number goes through `_finite`.

`Scenario.plan` (a SuitePlan) is where every scenario-dependent suite
decision is made, once: each suite's grid, step counts and sector, and
which suites `--suite all` runs.  Loading holds its step counts to
STEP_BUDGET, and `covham.verify` runs what it says.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .brackets import MAX_STATE_SIZE
from .canonical import CanonicalGauge
from .dirac import DiracCoupling, interaction_spinor
from .dynamics import SWITCH_ON_SLACK, sample_times, uniform_spacing
from .errors import ScenarioError, ZeroModeError
from .fields import FieldSpec, em_field, scalar_field, spinor_field, tensor_field
from .modes import (DEFAULT_MODE_BUDGET, STENCIL_K0H, STEP_BUDGET, ModeGrid,
                    box_mode_grid, build_mode_grid, k0_bounds)
from .worldlines import SHAPE_PARAMS, Worldline

FORMATS = ("json", "csv", "both")

_FIELD_KEYS = {
    "scalar": {"kind", "s", "m", "c"},
    "tensor": {"kind", "rank", "a2", "b2"},
    "em": {"kind", "c"},
    "dirac": {"kind", "s", "m", "c"},
}

_SHAPE_KEYS = set().union(*SHAPE_PARAMS.values())
_PARTICLE_KEYS = {"kind", "coupling", "position", "t_start", "tau_on",
                  "xi1", "xi2", "xi3"} | _SHAPE_KEYS

_SECTIONS = {"field", "particles", "grid", "time", "gauge", "bracket",
             "output"}


@dataclass(frozen=True)
class Scenario:
    """Validated run configuration.  Its grid is build_mode_grid(kmax,
    n_per_axis, field.kappa): the k0 floor is that function's rule."""

    field: FieldSpec
    particles: tuple[Worldline, ...]
    kmax: float
    n_per_axis: int
    x0_start: float
    x0_end: float
    steps: int
    gauge: CanonicalGauge
    v: np.ndarray
    output_dir: str = "out"
    output_format: str = "json"
    sha256: str = ""

    def build_grid(self) -> ModeGrid:
        return build_mode_grid(self.kmax, self.n_per_axis, self.field.kappa)

    @cached_property
    def plan(self) -> SuitePlan:
        """Every suite decision (SuitePlan), on first use."""
        return SuitePlan(self)

    def metadata(self) -> dict:
        return {
            "field": self.field.kind,
            "kmax": self.kmax,
            "n_per_axis": self.n_per_axis,
            "particles": len(self.particles),
            "steps": self.steps,
            "window": [self.x0_start, self.x0_end],
        }


# largest k0 h on the hamilton suite's two probed modes
_PROBE_K0H = 0.06
# largest (k0 + orbit turn) h on the hamilton grid at the order check's
# coarsest count (its slope leaves 4 +- 0.4 near pi / 2)
_ORDER_TURN_H = 1.5
# bytes of one saved history (steps + 1 slices of every mode's
# coefficients) that the simulate and hamilton grids are cut to
_HISTORY_BYTES = 2**28


def _refined(span: float, k0: float, k0h: float, least: int):
    """Steps over span that keep k0 h <= k0h, at least `least`; inf when
    the count overflows a float."""
    need = span * k0 / k0h
    return max(least, math.ceil(need)) if math.isfinite(need) else need


def _fitted(field: FieldSpec, n_max: int, make):
    """make(n) = (grid, steps, ...) for the most nodes per axis n <=
    n_max whose saved history of steps (None: none saved) fits
    _HISTORY_BYTES; make(1) if none does."""
    entry = 16 * len(field.branches) * field.n_components
    for n in range(n_max, 0, -1):
        grid, steps, *_ = made = make(n)
        if steps is None or (steps + 1) * len(grid) * entry <= _HISTORY_BYTES:
            break
    return made


class SuitePlan:
    """Each scenario-dependent suite decision, from the scenario's values
    alone (no RNG draw).

    simulate: a soft grid (kmax <= 2, <= 5 per axis), `steps` (even, for
    its halves), `steps_fd` (k0 h <= STENCIL_K0H for the stencil) and the
    `causality_probe` (t_on -+ 4 h in 8 steps, when no sample precedes
    the first switch-on t_on; else None).
    hamilton: the grid capped at 5 per axis, the `probes` of its sourced
    residual and `hamilton_steps` (k0 h <= _PROBE_K0H on them, None
    without sources) over its `hamilton_span` from `hamilton_start`
    (x0_start, or the first switch-on if that is at or after the end of
    the window from x0_start), and the integrator order check's
    `order_steps` (n, 2n, 4n), n = 64 unless the grid's largest k0 or
    an orbit needs more.  A circular source adds (the current's order
    in u_dot + 1) times its |omega| to k0 in every step rule.  Both
    grids lose nodes per axis until the history saved at steps_fd or
    hamilton_steps fits _HISTORY_BYTES.  bracket: the field's sector or
    the spinor's rank-0 stand-in on `bracket_grid`, as many of three box
    modes as MAX_STATE_SIZE holds, and `bracket_note` (None, or what was
    replaced or cut).  green: the scenario grid averaged over `green_window` =
    (period, center), or `green_skip` = (record, reason).  `suites`:
    what `--suite all` runs, in order.
    """

    def __init__(self, s: Scenario):
        kappa, span = s.field.kappa, s.x0_end - s.x0_start
        self.steps = 2 * math.ceil(max(s.steps, 8) / 2)
        # a circular source's rate also turns with its orbit: harmonics of
        # omega up to the current's order in u_dot, plus one for its phase
        turn = (s.field.current_order + 1) * max(
            (abs(w.omega) for w in s.particles), default=0.0)

        def simulate(n):
            grid = build_mode_grid(min(s.kmax, 2.0), n, kappa)
            return grid, _refined(span, float(np.max(grid.k0)) + turn,
                                  STENCIL_K0H, self.steps)

        self.simulate_grid, self.steps_fd = _fitted(
            s.field, min(s.n_per_axis, 5), simulate)
        t_on = min((w.switch_on_time() for w in s.particles),
                   default=s.x0_start)
        # h: the simulate spacing, as uniform_spacing gives it
        h = np.diff(sample_times(s.x0_start, s.x0_end, self.steps)[:2])[0]
        self.causality_probe = (
            (t_on - 4.0 * h, t_on + 4.0 * h, 8) if s.particles
            and s.x0_start >= t_on - SWITCH_ON_SLACK else None)
        self.hamilton_span = min(2.0, span)
        # a window that every source switches on after holds no source:
        # then it opens at the first switch-on
        self.hamilton_start = (t_on if t_on >= s.x0_start + self.hamilton_span
                               else s.x0_start)

        def hamilton(n):
            grid = build_mode_grid(s.kmax, n, kappa)
            order = np.argsort(grid.k0)
            probes = (int(order[0]), int(order[len(order) // 3]))
            return grid, (_refined(
                self.hamilton_span, float(max(grid.k0[list(probes)])) + turn,
                _PROBE_K0H, 64) if s.particles else None), probes

        self.hamilton_grid, self.hamilton_steps, self.probes = _fitted(
            s.field, min(s.n_per_axis, 5), hamilton)
        # Simpson's error grows with k0 h as well as with the orbit's turn
        coarse = _refined(self.hamilton_span,
                          float(np.max(self.hamilton_grid.k0)) + turn,
                          _ORDER_TURN_H, 64)
        self.order_steps = (coarse, 2 * coarse, 4 * coarse)

        sector, note = s.field, None
        if not sector.has_bracket_sector:
            note = (f"{sector.kind} sector has no unconstrained (q, pi) "
                    f"bracket; checks run on the rank-0 sector at kappa = "
                    f"{sector.kappa}")
            sector = scalar_field(s=1.0, m=sector.kappa, c=1.0)
        fit = MAX_STATE_SIZE // (len(sector.branches) * 5
                                 * sector.n_components)
        box = [(1, 0, 0), (0, 1, 0), (0, 1, 1)][:max(1, fit)]
        if fit < 3:
            note = (f"rank-{sector.rank} box cut to {len(box)} of 3 modes: "
                    f"the dense Poisson tensor holds {MAX_STATE_SIZE} "
                    "variables")
        self.bracket_sector, self.bracket_note = sector, note
        self.bracket_grid = box_mode_grid(1.0, box, sector.kappa)

        self.green_window, self.green_skip = _plan_green(s)
        self.suites = (("dirac-algebra", "hamilton", "simulate", "bracket")
                       + ("parseval",) * s.field.has_parseval_identity
                       + ("green",) * (self.green_skip is None))


def _plan_green(s: Scenario):
    """(period, center), None, or None, (record, reason)."""
    skip = "green/applicability"
    if not s.field.green_radii:
        return None, (skip, "green oracle comparisons cover the em and "
                      f"scalar species, not {s.field.kind}")
    if not s.particles:
        return None, (skip, "green suite needs at least one source worldline")
    if any(w.kind != "static" for w in s.particles):
        return None, (skip, "time-averaged comparison requires static sources")
    # the full grid's smallest k0, bit for bit, without building it
    k0_min = k0_bounds(s.kmax, s.n_per_axis, s.field.kappa)[0]
    period = 2.0 * np.pi / max(k0_min, 1.0)
    center = s.x0_end - period / 2.0
    # the average must start after the switch-on front has passed
    # the largest radius, with 1 to spare for the transient
    t_on = min(w.switch_on_time() for w in s.particles)
    needed = t_on + max(s.field.green_radii) + 1.0
    if center - period / 2.0 <= needed:
        return None, ("green/window", "evolution window too short for a "
                      "post-transient average (need x0_end > "
                      f"{needed + period:.2f})")
    # the cube grid is periodic with length L = 2 pi / dk: a massless
    # field's image fronts are undamped and must not reach a sample point
    reach = max(s.field.green_radii) + max(np.linalg.norm(
        w.position - s.particles[0].position) for w in s.particles)
    latest = t_on + np.pi * s.n_per_axis / s.kmax - reach
    if s.field.kappa == 0.0 and s.x0_end > latest:
        return None, ("green/window", "evolution window too long for the "
                      "periodic grid: a source image reaches the comparison "
                      "radii (need x0_end <= "
                      f"{math.floor(100.0 * latest) / 100.0:.2f})")
    return (period, center), None


def _shown(value) -> str:
    """value's repr, cut short (reprlib) at any length or depth."""
    import reprlib
    return reprlib.repr(value)


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise ScenarioError(f"{where}: {msg}")


def _finite(val, where: str, what: str) -> float:
    _require(isinstance(val, (int, float)) and not isinstance(val, bool),
             where, f"{what} must be a number")
    # Python's json admits NaN and Infinity, and integers beyond float range
    try:
        num = float(val)
    except OverflowError:
        num = math.inf
    _require(math.isfinite(num), where, f"{what} must be finite")
    return num


def _number(blk: dict, where: str, key: str, default=None) -> float:
    if key not in blk:
        if default is None:
            raise ScenarioError(f"{where}: missing required entry '{key}'")
        return float(default)
    return _finite(blk[key], where, f"'{key}'")


def _integer(blk: dict, where: str, key: str, low: int) -> int:
    val = blk.get(key)
    _require(isinstance(val, int) and not isinstance(val, bool)
             and val >= low, where, f"{key} must be an integer >= {low}")
    return val


def _vector(blk: dict, where: str, key: str, msg: str, n: int = 3,
            default=None) -> np.ndarray:
    raw = blk.get(key, default)
    _require(isinstance(raw, list) and len(raw) == n, where, msg)
    return np.array([_finite(val, where, f"{key}[{i}]")
                     for i, val in enumerate(raw)])


def _section(data: dict, name: str, keys) -> dict:
    """An optional object section whose entries are all named in keys."""
    blk = data.get(name, {})
    _require(isinstance(blk, dict), name, "must be an object")
    extra = set(blk) - set(keys)
    _require(not extra, name, f"unknown entries: {_shown(sorted(extra))}")
    return blk


def _complex_vector(raw, where: str) -> np.ndarray:
    """4-spinors in JSON: each entry a number or an [re, im] pair."""
    _require(isinstance(raw, list) and len(raw) == 4, where,
             "must be a list of 4 entries (numbers or [re, im] pairs)")
    out = np.zeros(4, dtype=complex)
    for i, entry in enumerate(raw):
        if isinstance(entry, (int, float)):
            out[i] = _finite(entry, where, f"entry {i}")
        elif isinstance(entry, list) and len(entry) == 2:
            out[i] = complex(_finite(entry[0], where, f"entry {i} (re)"),
                             _finite(entry[1], where, f"entry {i} (im)"))
        else:
            raise ScenarioError(
                f"{where}[{i}]: expected a number or an [re, im] pair")
    return out


def _build_field(blk, where: str = "field") -> FieldSpec:
    _require(isinstance(blk, dict), where, "must be an object")
    kind = blk.get("kind")
    _require(isinstance(kind, str) and kind in _FIELD_KEYS, where,
             f"kind must be one of {sorted(_FIELD_KEYS)}, got "
             f"{_shown(kind)}")
    extra = set(blk) - _FIELD_KEYS[kind]
    _require(not extra, where,
             f"unknown entries for {kind}: {_shown(sorted(extra))}")

    if kind == "tensor":
        make, args = tensor_field, dict(rank=_integer(blk, where, "rank", 1),
                                        a2=_number(blk, where, "a2"),
                                        b2=_number(blk, where, "b2"))
    elif kind == "em":
        make, args = em_field, dict(c=_number(blk, where, "c", 1.0))
    else:
        make = scalar_field if kind == "scalar" else spinor_field
        args = {key: _number(blk, where, key, 1.0) for key in ("s", "m", "c")}
    try:
        return make(**args)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _build_particle(blk, spec: FieldSpec, where: str) -> Worldline:
    _require(isinstance(blk, dict), where, "must be an object")
    extra = set(blk) - _PARTICLE_KEYS
    _require(not extra, where, f"unknown entries: {_shown(sorted(extra))}")
    kind = blk.get("kind", "static")
    _require(isinstance(kind, str) and kind in SHAPE_PARAMS, where,
             f"kind must be static, uniform, or circular, got {_shown(kind)}")
    foreign = (_SHAPE_KEYS - set(SHAPE_PARAMS[kind])) & set(blk)
    _require(not foreign, where,
             f"a {kind} particle takes no {sorted(foreign)}")
    coupling = _number(blk, where, "coupling")
    # a source that sources nothing leaves every sourced check at 0 / 0
    _require(coupling != 0.0, where, "coupling must be nonzero")
    position = _vector(blk, where, "position",
                       "position must be a spatial 3-vector")

    spinors = {key: _complex_vector(blk[key], f"{where}.{key}")
               for key in ("xi1", "xi2", "xi3") if key in blk}
    if spec.kind == "spinor":
        _require("xi1" in spinors, where,
                 "dirac sources need coupling spinors (xi1)")
    else:
        _require(not spinors, where, "coupling spinors (xi1-xi3) need a "
                 f"dirac field, not {spec.kind}")

    kwargs = dict(
        kind=kind,
        coupling=coupling,
        position=position,
        t_start=_number(blk, where, "t_start", 0.0),
        tau_on=_number(blk, where, "tau_on", 0.0),
        xi=DiracCoupling(**spinors) if spinors else None,
    )
    for name in SHAPE_PARAMS[kind]:
        kwargs[name] = (
            _vector(blk, where, name, "beta must be a spatial 3-vector")
            if name == "beta" else
            _number(blk, where, name, 0.0 if name == "phase0" else None))
    try:
        w = Worldline(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    # spinors that cancel source nothing, as a zero coupling does
    _require(not (spinors and _spinors_cancel(w, spinors)), where,
             "the coupling spinors cancel: xi1 + slash(u_dot) xi2 + "
             "slash(u_dot)^2 xi3 vanishes along the worldline")
    return w


def _spinors_cancel(w: Worldline, spinors: dict) -> bool:
    """True when the interaction spinor of `spinors` (xi1-xi3) vanishes
    to round-off along w.

    It is constant on a straight worldline and affine in (cos phi, sin
    phi) on an orbit, so the switch-on state and the states one and two
    thirds of a turn later settle it.  The spinors are scaled to real
    and imaginary parts of at most 1 first, part by part so that no
    complex division overflows, which keeps every product finite.
    """
    top = max(np.abs(v.view(float)).max() for v in spinors.values()) or 1.0
    unit = {k: (v.view(float) / top).view(complex) for k, v in spinors.items()}
    # proper time of a third of a turn (0: no orbit); past 1e300 the
    # orbit is static to round-off
    third = 2.0 * np.pi / (3.0 * w.gamma * abs(w.omega)) if w.omega else 0.0
    _, udot = w.state(w.tau_on + np.arange(3) * min(third, 1e300))
    xi = interaction_spinor(DiracCoupling(**unit), udot)
    # slash(u_dot)^p xi_(p+1) rounds off like gamma^p
    bound = sum(np.abs(unit[k]).max() * w.gamma**p
                for p, k in enumerate(("xi1", "xi2", "xi3")) if k in unit)
    return bool(np.abs(xi).max() <= 1e-12 * bound)


def scenario_from_dict(data: dict, sha256: str = "") -> Scenario:
    _require(isinstance(data, dict), "scenario", "top level must be an object")
    extra = set(data) - _SECTIONS
    _require(not extra, "scenario",
             f"unknown sections: {_shown(sorted(extra))}")
    for section in ("field", "grid", "time"):
        _require(section in data, "scenario",
                 f"missing required section '{section}'")

    spec = _build_field(data["field"])

    raw_particles = data.get("particles", [])
    _require(isinstance(raw_particles, list), "particles", "must be a list")
    particles = tuple(
        _build_particle(blk, spec, f"particles[{i}]")
        for i, blk in enumerate(raw_particles)
    )

    grid = _section(data, "grid", {"kmax", "n_per_axis"})
    kmax = _number(grid, "grid", "kmax")
    _require(kmax > 0.0, "grid", "kmax must be positive")
    n_per_axis = _integer(grid, "grid", "n_per_axis", 1)
    _require(n_per_axis**3 <= DEFAULT_MODE_BUDGET, "grid",
             f"{n_per_axis}^3 modes exceed the budget of {DEFAULT_MODE_BUDGET}")
    # from the centre and corner nodes, without building the grid
    low, top = k0_bounds(kmax, n_per_axis, spec.kappa)
    _require(math.isfinite(top), "grid",
             f"kmax = {kmax} puts the corner k0 past the float range")
    try:  # the mode weights take the cube of modes._axis' cell width
        (2.0 * kmax / n_per_axis) ** 3
    except OverflowError:
        raise ScenarioError(f"grid: kmax = {kmax} puts the cell volume "
                            "dk^3 past the float range") from None
    if not low <= top:  # the grid's floor drops every node
        light = f"on a field this light (kappa = {spec.kappa:.6g})"
        raise ScenarioError("grid: " + (
            "n_per_axis = 1 leaves one node, the zero mode k = 0, and "
            f"{light} the grid drops it; use n_per_axis >= 2"
            if n_per_axis == 1 else f"kmax = {kmax} is so small that, "
            f"{light}, the grid drops every node as the zero mode"))

    time = _section(data, "time", {"x0_start", "x0_end", "steps"})
    x0_start = _number(time, "time", "x0_start")
    x0_end = _number(time, "time", "x0_end")
    _require(x0_end > x0_start, "time", "x0_end must exceed x0_start")
    steps = _integer(time, "time", "steps", 2)
    _require(steps <= STEP_BUDGET, "time",
             f"{steps} steps exceed the budget of {STEP_BUDGET}")

    gauge_blk = _section(data, "gauge", {"z_re", "z_im"})
    z = complex(_number(gauge_blk, "gauge", "z_re", 2**-0.5),
                _number(gauge_blk, "gauge", "z_im", 0.0))
    try:
        gauge = CanonicalGauge(z=z)
    except ValueError as exc:
        raise ScenarioError(f"gauge: {exc}") from exc

    v = _vector(_section(data, "bracket", {"V"}), "bracket", "V",
                "V must be a list of 4 reals", 4, [1.0, 0.0, 0.0, 0.0])

    out_blk = _section(data, "output", {"directory", "format"})
    out_format = out_blk.get("format", "json")
    _require(out_format in FORMATS, "output",
             f"format must be one of {FORMATS}")
    out_dir = out_blk.get("directory", "out")
    _require(isinstance(out_dir, str) and out_dir != "", "output",
             "directory must be a non-empty string")

    s = Scenario(
        field=spec,
        particles=particles,
        kmax=kmax,
        n_per_axis=n_per_axis,
        x0_start=x0_start,
        x0_end=x0_end,
        steps=steps,
        gauge=gauge,
        v=v,
        output_dir=out_dir,
        output_format=out_format,
        sha256=sha256,
    )
    try:
        plan = s.plan
    except ZeroModeError as exc:  # a kmax so small that k0 underflows
        raise ScenarioError(f"grid: {exc}") from exc
    # every suite window keeps to the step budget and, far from x0 = 0,
    # to equal steps; a moved hamilton window or probe is the particles' fault
    start = plan.hamilton_start
    hamilton = ("time" if start == s.x0_start else "particles", "hamilton",
                start, start + plan.hamilton_span)
    for where, suite, a, b, steps in (
            ("time", "simulate", s.x0_start, s.x0_end, plan.steps),
            ("time", "simulate", s.x0_start, s.x0_end, plan.steps_fd),
            (*hamilton, plan.hamilton_steps),
            (*hamilton, plan.order_steps[-1] if s.particles else None),
            ("particles", "simulate",
             *(plan.causality_probe or (start, start, None)))):
        if steps is None:  # no source (hamilton) or no probe (simulate)
            continue
        _require(steps <= STEP_BUDGET, "time", f"the {suite} suite needs "
                 f"{steps:.6g} steps over the window, above the budget of "
                 f"{STEP_BUDGET}")
        try:
            uniform_spacing(sample_times(a, b, steps))
        except ValueError as exc:
            raise ScenarioError(f"{where}: the {suite} suite's {steps} steps "
                                f"over [{a:.10g}, {b:.10g}] are too far from "
                                f"x0 = 0 to stay equal: {exc}") from exc
    return s


def load_scenario(path) -> Scenario:
    """Read, parse, and validate one scenario file."""
    path = Path(path)
    try:
        if not path.is_file():
            raise ScenarioError(f"{path}: no such scenario file")
        raw = path.read_bytes()
        data = json.loads(raw.decode("utf-8"))
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        # unreadable, not UTF-8, or nested past the parser's depth
        raise ScenarioError(f"{path}: cannot read the file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(data, sha256=hashlib.sha256(raw).hexdigest())
