"""Scenario files: one JSON document per run.

A scenario names the field species and its constants, the source
worldlines, the momentum grid, the evolution window, and optional
gauge, bracket-vector, tolerance, and output settings.  Loading
validates everything up front so a verification run never dies halfway
through with a bad parameter; every complaint is a ScenarioError that
names the offending section.  Every real number goes through `_finite`,
and the tolerance rule in `check_tolerances` is shared with the CLI and
`covham.verify`.

`Scenario.plan` (a SuitePlan) is where every scenario-dependent suite
decision is made, once: each suite's grid, step counts and sector, and
which suites `--suite all` runs.  Loading holds its step counts to
STEP_BUDGET, and `covham.verify` runs what it says.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from pathlib import Path

import numpy as np

from .brackets import MAX_STATE_SIZE
from .canonical import CanonicalGauge
from .dirac import DiracCoupling
from .errors import ScenarioError, ZeroModeError
from .fields import FieldSpec, em_field, scalar_field, spinor_field, tensor_field
from .modes import (DEFAULT_MODE_BUDGET, STENCIL_K0H, STEP_BUDGET, ModeGrid,
                    box_mode_grid, build_mode_grid, k0_bounds)
from .worldlines import SHAPE_PARAMS, Worldline

FORMATS = ("json", "csv", "both")

_FIELD_KEYS = {
    "scalar": {"kind", "s", "m", "c", "a2", "b2"},
    "tensor": {"kind", "rank", "a2", "b2"},
    "em": {"kind", "c", "b2"},
    "dirac": {"kind", "s", "m", "c", "a2", "b2"},
}

_SHAPE_KEYS = set().union(*SHAPE_PARAMS.values())
_PARTICLE_KEYS = {"kind", "coupling", "position", "t_start", "tau_on",
                  "xi1", "xi2", "xi3"} | _SHAPE_KEYS

_SECTIONS = {"field", "particles", "grid", "time", "gauge", "bracket",
             "tolerances", "output"}

# every check's default tolerance, by name; the defaults double as the
# documented check contract
DEFAULT_TOLERANCES = {
    "clifford": 1e-15,
    "projector": 1e-12,
    "shell_annihilation": 1e-10,
    "roundtrip": 1e-12,
    "gauge_invariance": 1e-12,
    "hamilton_free": 1e-10,
    "hamilton_sourced": 1e-6,
    "gradient_fd": 1e-6,
    "order_window": 0.4,
    "causality": 0.0,
    "mode_equation": 1e-6,
    "superposition": 1e-12,
    "segmented": 1e-12,
    "exact_vs_simpson": 1e-8,
    "parseval": 1e-6,
    "antisymmetry": 1e-12,
    "bilinearity": 1e-12,
    "leibniz": 1e-10,
    "jacobi": 1e-8,
    "canonical_pair": 1e-12,
    "conservation": 0.0,
    "green_em": 0.05,
    "green_scalar": 0.05,
}


@dataclass(frozen=True)
class Scenario:
    """Validated run configuration."""

    field: FieldSpec
    particles: tuple[Worldline, ...]
    kmax: float
    n_per_axis: int
    k0_floor: float
    x0_start: float
    x0_end: float
    steps: int
    gauge: CanonicalGauge
    v: np.ndarray
    tolerances: dict[str, float] = dc_field(default_factory=dict)
    output_dir: str = "out"
    output_format: str = "json"
    sha256: str = ""

    def build_grid(self) -> ModeGrid:
        return build_mode_grid(self.kmax, self.n_per_axis, self.field.kappa,
                               k0_floor=self.k0_floor)

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


def _refined(span: float, k0: float, k0h: float, least: int):
    """Steps over span that keep k0 h <= k0h, at least `least`; inf when
    the count overflows a float."""
    need = span * k0 / k0h
    return max(least, math.ceil(need)) if math.isfinite(need) else need


class SuitePlan:
    """Each scenario-dependent suite decision, from the scenario's values
    alone (no RNG draw).

    simulate: a soft grid (kmax <= 2, <= 5 per axis), `steps` (even, for
    its halves) and `steps_fd` (k0 h <= STENCIL_K0H for the stencil).
    hamilton: the grid capped at 5 per axis, the `probes` of its sourced
    residual and `hamilton_steps` (k0 h <= _PROBE_K0H on them, None
    without sources) over its `hamilton_span` from `hamilton_start`
    (x0_start, or the first switch-on if that is at or after the end of
    the window from x0_start).  bracket: the field's
    sector or the spinor's rank-0 stand-in on `bracket_grid`, as many of
    three box modes as MAX_STATE_SIZE holds, and `bracket_note` (None, or
    what was replaced or cut).  green: the scenario grid averaged over
    `green_window` = (period, center), or `green_skip` = (record,
    reason).  `suites`: what `--suite all` runs, in order.
    """

    def __init__(self, s: Scenario):
        kappa, span = s.field.kappa, s.x0_end - s.x0_start
        self.simulate_grid = build_mode_grid(min(s.kmax, 2.0),
                                             min(s.n_per_axis, 5), kappa)
        self.steps = 2 * math.ceil(max(s.steps, 8) / 2)
        self.steps_fd = _refined(span, float(np.max(self.simulate_grid.k0)),
                                 STENCIL_K0H, self.steps)
        n = min(s.n_per_axis, 5)
        grid = self.hamilton_grid = build_mode_grid(
            s.kmax, n, kappa, k0_floor=s.k0_floor if n == s.n_per_axis
            else None)
        order = np.argsort(grid.k0)
        self.probes = (int(order[0]), int(order[len(order) // 3]))
        self.hamilton_span = min(2.0, span)
        # a window that every source switches on after holds no source:
        # then it opens at the first switch-on
        t_on = min((w.switch_on_time() for w in s.particles),
                   default=s.x0_start)
        self.hamilton_start = (t_on if t_on >= s.x0_start + self.hamilton_span
                               else s.x0_start)
        self.hamilton_steps = (_refined(
            self.hamilton_span, float(max(grid.k0[list(self.probes)])),
            _PROBE_K0H, 64) if s.particles else None)

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
    k0_min = k0_bounds(s.kmax, s.n_per_axis, s.field.kappa, s.k0_floor)[0]
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
    _require(not extra, name, f"unknown entries: {sorted(extra)}")
    return blk


def check_tolerances(values) -> dict[str, float]:
    """The one tolerance rule, for the scenario's `tolerances` section,
    `covham run --tol` and `run_verification`: every name is a key of
    DEFAULT_TOLERANCES and every value a finite number >= 0 (an infinite
    tolerance would make its check unable to fail)."""
    _require(isinstance(values, dict), "tolerances", "must be an object")
    unknown = set(values) - set(DEFAULT_TOLERANCES)
    _require(not unknown, "tolerances",
             f"unknown tolerance names {sorted(map(str, unknown))}; known "
             f"names: {', '.join(sorted(DEFAULT_TOLERANCES))}")
    out = {name: _finite(val, "tolerances", f"'{name}'")
           for name, val in values.items()}
    for name, val in out.items():
        _require(val >= 0.0, "tolerances", f"'{name}' must be >= 0")
    return out


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
             f"kind must be one of {sorted(_FIELD_KEYS)}, got {kind!r}")
    extra = set(blk) - _FIELD_KEYS[kind]
    _require(not extra, where,
             f"unknown entries for {kind}: {sorted(extra)}")

    if kind == "tensor":
        make, args = tensor_field, dict(rank=_integer(blk, where, "rank", 1),
                                        a2=_number(blk, where, "a2"),
                                        b2=_number(blk, where, "b2"))
    elif kind == "em":
        make, args = em_field, dict(c=_number(blk, where, "c", 1.0))
        if "b2" in blk:
            _require(_number(blk, where, "b2") == 0.0, where,
                     "the em species has no mass term: b2 must be 0")
    else:
        make = scalar_field if kind == "scalar" else spinor_field
        args = {key: _number(blk, where, key, 1.0) for key in ("s", "m", "c")}
    try:
        spec = make(**args)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc

    # explicit a2/b2 entries must agree with the species relations
    for key, want in (("a2", spec.a2), ("b2", spec.b2)):
        if kind != "tensor" and key in blk:
            got = _number(blk, where, key)
            _require(abs(got - want) <= 1e-12 * (1.0 + abs(want)), where,
                     f"{key} = {got} contradicts the {kind} species "
                     f"relation ({key} = {want})")
    return spec


def _build_particle(blk, spec: FieldSpec, where: str) -> Worldline:
    _require(isinstance(blk, dict), where, "must be an object")
    extra = set(blk) - _PARTICLE_KEYS
    _require(not extra, where, f"unknown entries: {sorted(extra)}")
    kind = blk.get("kind", "static")
    _require(isinstance(kind, str) and kind in SHAPE_PARAMS, where,
             f"kind must be static, uniform, or circular, got {kind!r}")
    foreign = (_SHAPE_KEYS - set(SHAPE_PARAMS[kind])) & set(blk)
    _require(not foreign, where,
             f"a {kind} particle takes no {sorted(foreign)}")
    coupling = _number(blk, where, "coupling")
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
        return Worldline(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def scenario_from_dict(data: dict, sha256: str = "") -> Scenario:
    _require(isinstance(data, dict), "scenario", "top level must be an object")
    extra = set(data) - _SECTIONS
    _require(not extra, "scenario", f"unknown sections: {sorted(extra)}")
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

    grid = _section(data, "grid", {"kmax", "n_per_axis", "k0_floor"})
    kmax = _number(grid, "grid", "kmax")
    _require(kmax > 0.0, "grid", "kmax must be positive")
    n_per_axis = _integer(grid, "grid", "n_per_axis", 1)
    _require(n_per_axis**3 <= DEFAULT_MODE_BUDGET, "grid",
             f"{n_per_axis}^3 modes exceed the budget of {DEFAULT_MODE_BUDGET}")
    k0_floor = _number(grid, "grid", "k0_floor", 1e-6 * kmax)
    _require(k0_floor >= 0.0, "grid", "k0_floor must be >= 0")
    # from the centre and corner nodes, without building the grid
    _require(n_per_axis % 2 == 0 or spec.kappa > 0.0 or k0_floor > 0.0,
             "grid", "an odd n_per_axis keeps the massless zero mode k = 0 "
             "(kappa = 0); set k0_floor > 0")
    top = k0_bounds(kmax, n_per_axis, spec.kappa, k0_floor)[1]
    _require(math.isfinite(top), "grid",
             f"kmax = {kmax} puts the corner k0 past the float range")
    _require(k0_floor <= top, "grid", f"k0_floor = {k0_floor} drops every "
             f"node (the largest k0 is {top:.6g})")

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
        k0_floor=k0_floor,
        x0_start=x0_start,
        x0_end=x0_end,
        steps=steps,
        gauge=gauge,
        v=v,
        tolerances=check_tolerances(data.get("tolerances", {})),
        output_dir=out_dir,
        output_format=out_format,
        sha256=sha256,
    )
    try:
        plan = s.plan
    except ZeroModeError as exc:  # 1e-6 kmax, the capped floor, is 0
        raise ScenarioError(f"grid: {exc}") from exc
    # steps_fd >= steps; the fixed counts are far below the budget
    for suite, need in (("simulate", plan.steps_fd),
                        ("hamilton", plan.hamilton_steps or 0)):
        _require(need <= STEP_BUDGET, "time", f"the {suite} suite needs "
                 f"{need:.6g} steps over the window, above the budget of "
                 f"{STEP_BUDGET}")
    return s


def load_scenario(path) -> Scenario:
    """Read, parse, and validate one scenario file."""
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"{path}: no such scenario file")
    raw = path.read_bytes()
    try:
        data = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(data, sha256=hashlib.sha256(raw).hexdigest())
