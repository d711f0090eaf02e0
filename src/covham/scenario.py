"""Scenario files: one JSON document per run.

A scenario names the field species and its constants, the source
worldlines, the momentum grid, the evolution window, and optional
gauge, bracket-vector, tolerance, and output settings.  Loading
validates everything up front so a verification run never dies halfway
through with a bad parameter; every complaint is a ScenarioError that
names the offending section.  Every real number goes through `_finite`,
and the tolerance rule in `check_tolerances` is shared with the CLI and
`covham.verify`.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .canonical import CanonicalGauge
from .dirac import DiracCoupling
from .errors import ScenarioError
from .fields import FieldSpec, em_field, scalar_field, spinor_field, tensor_field
from .modes import DEFAULT_MODE_BUDGET, ModeGrid, build_mode_grid
from .worldlines import Worldline

FORMATS = ("json", "csv", "both")

_FIELD_KEYS = {
    "scalar": {"kind", "s", "m", "c", "a2", "b2"},
    "tensor": {"kind", "rank", "a2", "b2"},
    "em": {"kind", "c", "b2"},
    "dirac": {"kind", "s", "m", "c", "a2", "b2"},
}

_PARTICLE_KEYS = {"kind", "coupling", "position", "t_start", "tau_on",
                  "beta", "radius", "omega", "phase0", "xi1", "xi2", "xi3"}

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

    def metadata(self) -> dict:
        return {
            "field": self.field.kind,
            "kmax": self.kmax,
            "n_per_axis": self.n_per_axis,
            "particles": len(self.particles),
            "steps": self.steps,
            "window": [self.x0_start, self.x0_end],
        }


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
    _require(kind in ("static", "uniform", "circular"), where,
             f"kind must be static, uniform, or circular, got {kind!r}")
    coupling = _number(blk, where, "coupling")
    position = _vector(blk, where, "position",
                       "position must be a spatial 3-vector")

    xi = None
    if "xi1" in blk:
        xi = DiracCoupling(
            xi1=_complex_vector(blk["xi1"], f"{where}.xi1"),
            xi2=(_complex_vector(blk["xi2"], f"{where}.xi2")
                 if "xi2" in blk else None),
            xi3=(_complex_vector(blk["xi3"], f"{where}.xi3")
                 if "xi3" in blk else None),
        )
    if spec.kind == "spinor" and xi is None:
        raise ScenarioError(
            f"{where}: dirac sources need coupling spinors (xi1)")

    kwargs = dict(
        kind=kind,
        coupling=coupling,
        position=position,
        t_start=_number(blk, where, "t_start", 0.0),
        tau_on=_number(blk, where, "tau_on", 0.0),
        xi=xi,
    )
    if kind == "uniform":
        kwargs["beta"] = _vector(blk, where, "beta",
                                 "uniform worldline needs a beta 3-vector")
    if kind == "circular":
        kwargs["radius"] = _number(blk, where, "radius")
        kwargs["omega"] = _number(blk, where, "omega")
        kwargs["phase0"] = _number(blk, where, "phase0", 0.0)
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

    time = _section(data, "time", {"x0_start", "x0_end", "steps"})
    x0_start = _number(time, "time", "x0_start")
    x0_end = _number(time, "time", "x0_end")
    _require(x0_end > x0_start, "time", "x0_end must exceed x0_start")
    steps = _integer(time, "time", "steps", 2)

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

    return Scenario(
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
