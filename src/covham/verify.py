"""Verification suites: named checks over a scenario, reported as records.

Every check produces one record {name, status, measured, tolerance,
metadata}.  Suites never abort on a module error; the error becomes a
failed record with its message and the run continues.  Reports carry a
schema version, the scenario digest, the package version, and the RNG
seed, and serialize with sorted keys and no timestamps, so the same
scenario, seed and BLAS thread count give byte-identical bodies.

Each scenario-dependent choice (the suites' grids, step counts and
bracket sector, and what `--suite all` runs) is read from `Scenario.plan`,
which `covham validate` has held to the step budget; the fixed counts,
such as the parseval box, stay with their suites.

Tolerances are all named.  The table of defaults and the one rule for
overriding them (a known name and a finite number >= 0) live in
`covham.scenario`, so the scenario's `tolerances` section, `covham run
--tol` and the `tolerances` argument of `run_verification` are checked
alike.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .brackets import (
    BracketConfig,
    QuadraticObservable,
    canonical_pair_bracket,
    dw_conservation_check,
    jacobi_terms,
    poisson_bracket,
    product,
)
from .canonical import (
    CanonicalGauge,
    canonical_at_point,
    constant_amplitudes,
    from_canonical,
    gradient_consistency,
    hamilton_residual,
    history_amplitudes,
    mode_hamiltonian_canonical,
    to_canonical,
)
from .dirac import GAMMA, clifford_defect, projector_defects, shell_projector
from .dynamics import (
    SWITCH_ON_SLACK,
    _slice_profile,
    _straight_line_mean,
    evolve_amplitudes,
    mode_equation_residual,
    source_rate,
    straight_line_amplitudes,
)
from .fields import family_pair
from .green import green_oracle
from .minkowski import on_shell_k
from .position import parseval_check
from .scenario import DEFAULT_TOLERANCES, Scenario, check_tolerances

SUITE_NAMES = ("simulate", "hamilton", "bracket", "parseval", "green",
               "dirac-algebra")


@dataclass
class CheckRecord:
    name: str
    status: str  # "pass" | "fail"
    measured: float | None
    tolerance: float | None
    metadata: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    suite: str
    seed: int
    scenario_sha256: str
    scenario: dict
    records: list[CheckRecord]
    tables: dict[str, list[dict]] = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.records)

    def to_dict(self) -> dict:
        return {
            "schema_version": "1",
            "suite": self.suite,
            "records": [r.to_dict() for r in self.records],
            "reproducibility": {
                "package_version": __version__,
                "scenario_sha256": self.scenario_sha256,
                "seed": self.seed,
            },
            "scenario": self.scenario,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _add(records: list, name: str, measured: float, tol: float,
         metadata: dict | None = None) -> None:
    measured = float(measured)
    status = "pass" if math.isfinite(measured) and measured <= tol else "fail"
    records.append(CheckRecord(name, status, measured, float(tol),
                               metadata or {}))


def _worst(*values) -> float:
    """Largest of the values; a NaN wins, where the builtin max drops it."""
    return float(np.max(values))


def _fail(records: list, name: str, error: str) -> None:
    records.append(CheckRecord(name, "fail", None, None, {"error": error}))


def _random_amps(field, rng):
    """Random amplitudes (plus, minus) for the families the species
    stores; minus is None for em."""
    comp = field.component_shape
    return family_pair([np.asarray(rng.normal(size=comp)
                                   + 1j * rng.normal(size=comp))
                        for _ in field.branches])


# ---------------------------------------------------------------- dirac

def _suite_dirac(s: Scenario, rng, tol, records, tables) -> None:
    # one relation per pair (mu, nu) of the gammas
    _add(records, "dirac/clifford", clifford_defect(), tol["clifford"],
         {"relations": len(GAMMA) ** 2})

    kappa = s.field.kappa if s.field.kappa > 0.0 else 1.0
    k = on_shell_k(rng.uniform(-3.0, 3.0, size=(100, 3)), kappa)
    _add(records, "dirac/projectors",
         _worst(*projector_defects(k, kappa).values()), tol["projector"],
         {"draws": len(k), "kappa": kappa})

    if s.field.kind == "spinor" and s.particles:
        worldlines = list(s.particles)
        worst, draws = 0.0, range(4)
        for draw in draws:
            k = on_shell_k(rng.uniform(-2.0, 2.0, size=3), kappa)
            x0 = s.x0_start + (draw + 1) / 5.0 * (s.x0_end - s.x0_start)
            rate_p, rate_m = source_rate(s.field, worldlines, k, x0)
            p_plus = shell_projector(k, kappa, +1)
            p_minus = shell_projector(k, kappa, -1)
            for mat, vec in ((p_minus, rate_p), (p_plus, rate_m)):
                norm = float(np.linalg.norm(vec))
                if norm != 0.0:
                    worst = _worst(worst,
                                float(np.linalg.norm(mat @ vec)) / norm)
        _add(records, "dirac/branch_annihilation", worst,
             tol["shell_annihilation"], {"samples": len(draws)})


# ------------------------------------------------------------- hamilton

def _suite_hamilton(s: Scenario, rng, tol, records, tables) -> None:
    field = s.field
    plan = s.plan
    grid = plan.hamilton_grid
    worldlines = list(s.particles)
    idx = rng.choice(len(grid), size=min(6, len(grid)), replace=False)
    x = np.array([0.35, 0.1, -0.2, 0.05])

    # the sampled modes as one stack, amplitude pairs drawn mode by mode
    k = grid.k[idx]
    drawn = [field.families(*_random_amps(field, rng)) for _ in idx]
    ap, am = family_pair(np.stack(f) for f in zip(*drawn))
    mode = to_canonical(field, k, ap, am, s.gauge)
    back = from_canonical(field, k, mode, s.gauge)
    _add(records, "hamilton/roundtrip", np.max(np.abs(np.subtract(
        field.families(*back), field.families(ap, am)))),
         tol["roundtrip"], {"modes": int(len(idx))})

    # J must not move under a phase rotation of the split constant z
    phases = [CanonicalGauge(z=s.gauge.z * np.exp(1j * phi))
              for phi in (0.9, 2.2, 4.1)]
    j_ref, *j_rot = [mode_hamiltonian_canonical(
        field, k, canonical_at_point(field, k, ap, am, x, gauge), x,
        worldlines, gauge) for gauge in [s.gauge] + phases]
    _add(records, "hamilton/gauge_invariance",
         _worst(np.abs(np.subtract(j_rot, j_ref)) / (1.0 + np.abs(j_ref))),
         tol["gauge_invariance"], {"phases": len(phases)})
    _add(records, "hamilton/gradient_fd", gradient_consistency(
        field, k, mode, x, worldlines, s.gauge), tol["gradient_fd"],
         {"modes": int(len(idx))})

    worst_free, free = 0.0, idx[:2]
    for i in free:
        ap, am = _random_amps(field, rng)
        # stencil truncation goes like (k0 h)^4; halve the default step
        # so high-k0 grid corners stay inside the tolerance budget
        h = 2.5e-3 / (1.0 + grid.k[i, 0])
        r1, r2 = hamilton_residual(field, grid.k[i],
                                   constant_amplitudes(ap, am), x,
                                   worldlines=None, gauge=s.gauge, h=h)
        worst_free = _worst(worst_free, r1, r2)
    _add(records, "hamilton/free_residual", worst_free,
         tol["hamilton_free"], {"modes": len(free)})

    if not worldlines:
        return

    # short local window: the residual probes one interior slice, with
    # steps refined on the probed modes
    start = plan.hamilton_start
    end = start + plan.hamilton_span
    steps = plan.hamilton_steps
    hist = evolve_amplitudes(field, worldlines, grid, start, end, steps,
                             save="all")
    h = hist.spacing()
    mid = len(hist.x0) // 2
    x_mid = np.array([hist.x0[mid], 0.3, -0.1, 0.2])
    worst_src = 0.0
    for i in plan.probes:
        r1, r2 = hamilton_residual(field, grid.k[i],
                                   history_amplitudes(hist, mode_index=i),
                                   x_mid, worldlines=worldlines,
                                   gauge=s.gauge, h=h)
        worst_src = _worst(worst_src, r1, r2)
    _add(records, "hamilton/sourced_residual", worst_src,
         tol["hamilton_sourced"], {"steps": steps, "x0": float(hist.x0[mid])})

    finals = {n: evolve_amplitudes(field, worldlines, grid, start, end, n,
                                   save="last").coeffs[-1]
              for n in (64, 128, 256)}
    counts = list(finals)
    diffs = [float(np.max(np.abs(finals[n] - finals[m])))
             for n, m in zip(counts, counts[1:])]
    e_coarse, e_fine = diffs
    slope = math.log2(e_coarse / e_fine) if e_fine > 0.0 else float("inf")
    _add(records, "hamilton/integrator_order", abs(slope - 4.0),
         tol["order_window"], {"steps": counts, "slope": slope})
    tables["hamilton_convergence"] = [
        {"steps": n, "difference_to_next": e} for n, e in zip(counts, diffs)]


# ------------------------------------------------------------- simulate

def _suite_simulate(s: Scenario, rng, tol, records, tables) -> None:
    field = s.field
    plan = s.plan
    grid, steps, steps_fd = plan.simulate_grid, plan.steps, plan.steps_fd
    worldlines = list(s.particles)
    hist = evolve_amplitudes(field, worldlines, grid, s.x0_start, s.x0_end,
                             steps, save="all")

    t_on = min((w.switch_on_time() for w in worldlines),
               default=float("inf"))
    probe, meta = hist, {}
    if hist.x0[0] >= t_on - SWITCH_ON_SLACK:
        # no sample precedes the first switch-on: evolve 4 that do
        h = hist.spacing()
        probe = evolve_amplitudes(field, worldlines, grid, t_on - 4.0 * h,
                                  t_on + 4.0 * h, 8)
        meta["probe_window"] = [float(probe.x0[0]), float(probe.x0[-1])]
    mask = probe.x0 < t_on - SWITCH_ON_SLACK
    meta["pre_crossing_samples"] = int(np.sum(mask))
    _add(records, "simulate/causality",
         np.max(np.abs(probe.coeffs[mask]), initial=0.0), tol["causality"],
         meta)

    # the stencil check needs (k0 h)^4 below tolerance: its own steps
    hist_fd = (hist if steps_fd == steps else
               evolve_amplitudes(field, worldlines, grid, s.x0_start,
                                 s.x0_end, steps_fd, save="all"))
    _add(records, "simulate/mode_equation",
         mode_equation_residual(field, worldlines, grid, hist_fd),
         tol["mode_equation"], {"steps": steps_fd})

    if worldlines and all(w.straight for w in worldlines):
        # the window may open after a switch-on: compare increments
        start, end = (np.array(field.families(*straight_line_amplitudes(
            field, worldlines, grid, t))) for t in (s.x0_start, s.x0_end))
        want = end - start
        diff = float(np.max(np.abs(hist_fd.coeffs[-1] - want)))
        size = float(np.max(np.abs(want)))
        _add(records, "simulate/exact_vs_simpson", diff / (1.0 + size),
             tol["exact_vs_simpson"], {"steps": steps_fd})

    if len(worldlines) >= 2:
        worst, fracs = 0.0, (0.25, 0.5, 0.9)
        for frac in fracs:
            x0 = s.x0_start + frac * (s.x0_end - s.x0_start)
            total, *parts = (np.array(field.families(*source_rate(
                field, lines, grid.k, x0)))
                for lines in [worldlines] + [[w] for w in worldlines])
            scale = 1.0 + float(np.max(np.abs(total[0])))
            worst = _worst(worst, float(np.max(np.abs(total - sum(parts))))
                           / scale)
        _add(records, "simulate/superposition", worst, tol["superposition"],
             {"times": len(fracs)})

    mid = 0.5 * (s.x0_start + s.x0_end)
    first = evolve_amplitudes(field, worldlines, grid, s.x0_start, mid,
                              steps // 2, save="last")
    second = evolve_amplitudes(field, worldlines, grid, mid, s.x0_end,
                               steps // 2, init_plus=first.final_plus,
                               init_minus=first.final_minus, save="last")
    scale = 1.0 + float(np.max(np.abs(hist.plus[-1])))
    diff = float(np.max(np.abs(second.coeffs[-1] - hist.coeffs[-1]))) / scale
    _add(records, "simulate/segmented", diff, tol["segmented"],
         {"steps": steps})


# -------------------------------------------------------------- bracket

def _random_quadratic(layout, rng):
    a = rng.normal(size=layout.size)
    m = rng.normal(size=(layout.size, layout.size))
    return QuadraticObservable(rng.normal(), a, 0.5 * (m + m.T))


def _suite_bracket(s: Scenario, rng, tol, records, tables) -> None:
    plan = s.plan
    meta = {"sector": plan.bracket_sector.kind}
    if plan.bracket_note:
        meta["note"] = plan.bracket_note
    cfg = BracketConfig(plan.bracket_sector, plan.bracket_grid, s.v)
    lay = cfg.layout
    state = rng.normal(size=lay.size)
    a, b, c = (_random_quadratic(lay, rng) for _ in range(3))

    ab = poisson_bracket(a, b, cfg, state)
    ba = poisson_bracket(b, a, cfg, state)
    _add(records, "bracket/antisymmetry", abs(ab + ba) / (1.0 + abs(ab)),
         tol["antisymmetry"], meta)

    lhs = poisson_bracket(2.5 * a + (-1.25) * b, c, cfg, state)
    rhs = (2.5 * poisson_bracket(a, c, cfg, state)
           - 1.25 * poisson_bracket(b, c, cfg, state))
    _add(records, "bracket/bilinearity", abs(lhs - rhs) / (1.0 + abs(rhs)),
         tol["bilinearity"], meta)

    lhs = poisson_bracket(product(a, b), c, cfg, state)
    rhs = (a.value(state) * poisson_bracket(b, c, cfg, state)
           + b.value(state) * poisson_bracket(a, c, cfg, state))
    _add(records, "bracket/leibniz", abs(lhs - rhs) / (1.0 + abs(rhs)),
         tol["leibniz"], meta)

    # the defect grows with the state and the observables; relative to
    # the three terms it measures round-off.  V = 0 zeroes every term.
    terms = jacobi_terms(a, b, c, cfg, state)
    scale = sum(abs(t) for t in terms)
    defect = abs(sum(terms))
    _add(records, "bracket/jacobi", defect / scale if scale else defect,
         tol["jacobi"], meta)

    # {q_c(k_i), V.pi_c'(k_j)} on the plus branch for the first and last
    # box modes and every component pair, all from one block of Lambda:
    # Lambda on the pi unit columns, read at the q rows
    box = sorted({0, len(cfg.grid) - 1})
    q, pi = lay.index[box, 0, 0], lay.index[box, 0, 1:]  # (i, c), (j, mu, c')
    units = np.zeros((lay.size, pi.size))
    units[pi.ravel(), np.arange(pi.size)] = 1.0
    block = cfg.apply(units)[q.ravel()]
    got = np.moveaxis(block.reshape(q.shape + pi.shape), 3, -1) @ cfg.v
    comps, k = np.arange(lay.comp_size), cfg.grid.k_spatial[box]
    want = [[canonical_pair_bracket(comps[:, None], comps, ki, kj, cfg)
             for kj in k] for ki in k]  # (i, j, c, c')
    _add(records, "bracket/canonical_pair",
         np.max(np.abs(got - np.moveaxis(want, 2, 1))), tol["canonical_pair"],
         {**meta, "pairs": got.size})

    _add(records, "bracket/conservation",
         dw_conservation_check(cfg, rng.normal(size=lay.size)),
         tol["conservation"], meta)


# ------------------------------------------------------------- parseval

def _suite_parseval(s: Scenario, rng, tol, records, tables) -> None:
    field = s.field
    triples = [(1, 0, 0), (0, 1, 1), (1, 1, 0), (0, 0, 2)]
    entries = [(n, *_random_amps(field, rng)) for n in triples]
    box_length = 2.0 * np.pi
    measured = parseval_check(field, box_length, entries,
                              x0_span=(0.0, 0.7), n_t=4)
    _add(records, "parseval/box_sum", measured, tol["parseval"],
         {"modes": len(entries), "box_length": box_length})


# ---------------------------------------------------------------- green

def averaged_profile(field, worldlines, grid, points, center: float,
                     period: float, n_samples: int = 32):
    """Time-averaged reconstruction at fixed spatial points.

    Averages over n_samples slices t at the midpoints of one period
    centered at `center`.  A value is linear in the mode coefficients,
    and with x = (t, p) the phase factors as e^{-ik.x} = e^{-ik0 t}
    e^{+ik.p}, so the average is taken on the coefficients before any
    sum over modes: with t_ref = center,

        D_pm = (1/S) sum_t C_pm(t) exp(mp i k0 (t - t_ref)),

    C_pm(t) the closed form for straight worldlines (exact from each
    switch-on, no time stepping; a source adds nothing on slices up to
    its own switch-on), and each point is reconstructed once, at
    (t_ref, p).  The em field's 2 Re is linear too.  The samples are
    uniform, so the sum over them rotates each mode's phases by a fixed
    factor per sample; a static source's sum depends on k0 alone and
    runs once per distinct k0 of the grid, then is gathered by mode (see
    dynamics._straight_line_mean).  Averaging over a full period
    suppresses the oscillatory transient left by the switch-on, so the
    result approximates the steady field.  Raises ValueError, naming the
    argument, for no worldlines, an n_samples that is not an integer >= 1
    or a period that is not positive, and for a circular source.

    The points share the slice t_ref, so on a cube grid the mode sum
    runs axis by axis for all of them at once (dynamics._slice_profile):
    the mean's coefficients are scaled in place by w exp(mp i k0 t_ref),
    then one BLAS product contracts the first axis of every point, (P x
    n) @ (n x n^2 components), and small batched products the other two.
    The working set is the mean's coefficients plus one source's at a
    time, each (branches, N, *component_shape): 7 MB for em on a 48^3
    grid; the sum adds one complex scale per mode (1.8 MB there) and
    the (P, n^2 components) first contraction (0.7 MB at 5 points).  A grid built by
    hand takes one reconstruct_field call per point.
    """
    if not worldlines:
        raise ValueError("worldlines must hold at least one source")
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ValueError(f"n_samples must be an integer >= 1, got "
                         f"{n_samples!r}")
    if not period > 0.0:
        raise ValueError(f"period must be positive, got {period}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    t_on = min(w.switch_on_time() for w in worldlines)
    spacing = period / n_samples
    first = center - 0.5 * (period - spacing)
    if first <= t_on:
        raise ValueError("averaging window starts before the switch-on")

    # the mean's array is fresh, so the sum may scale it in place
    return _slice_profile(field, grid, _straight_line_mean(
        field, worldlines, grid, first, spacing, n_samples, center),
        center, points)


def _suite_green(s: Scenario, rng, tol, records, tables) -> None:
    if s.plan.green_skip is not None:
        _fail(records, *s.plan.green_skip)
        return

    field = s.field
    worldlines = list(s.particles)
    grid = s.build_grid()
    period, center = s.plan.green_window
    anchor = worldlines[0].position
    direction = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    radii = np.array(field.green_radii)
    points = anchor[None, :] + radii[:, None] * direction[None, :]
    averaged = averaged_profile(field, worldlines, grid, points, center,
                                period)

    # the real em field is compared in its time component A_0
    values = np.real(averaged[:, 0] if field.is_real else averaged)
    rows = []
    worst = 0.0
    for r, got, pt in zip(radii, values, points):
        ref = np.real(green_oracle(field, worldlines,
                                   np.concatenate([[center], pt])))
        ref = float(ref[0] if field.is_real else ref)
        err = abs(float(got) - ref) / abs(ref)
        worst = _worst(worst, err)
        rows.append({"radius": float(r), "reconstructed": float(got),
                     "reference": ref, "rel_err": err})
    if field.is_real:
        _add(records, "green/coulomb", worst, tol["green_em"],
             {"radii": radii.tolist(), "kmax": s.kmax,
              "n_per_axis": s.n_per_axis})
    else:
        _add(records, "green/yukawa_direct", worst, tol["green_scalar"],
             {"radii": radii.tolist()})
        kappa = field.kappa
        half = len(radii) // 2
        worst_ratio = 0.0
        for i in range(half):
            r = float(radii[i])
            ratio = float(values[half + i] / values[i])
            want = math.exp(-kappa * r) / 2.0
            worst_ratio = _worst(worst_ratio, abs(ratio - want) / want)
        _add(records, "green/yukawa_ratio", worst_ratio,
             tol["green_scalar"], {"radii": radii[:half].tolist()})
    tables["green_profile"] = rows


# ------------------------------------------------------------ dispatch

_SUITES = {
    "simulate": _suite_simulate,
    "hamilton": _suite_hamilton,
    "bracket": _suite_bracket,
    "parseval": _suite_parseval,
    "green": _suite_green,
    "dirac-algebra": _suite_dirac,
}


def run_verification(s: Scenario, suite: str, seed: int = 0,
                     tolerances: dict[str, float] | None = None) -> Report:
    """Run one suite (or all applicable) and collect the report."""
    if suite != "all" and suite not in _SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {SUITE_NAMES + ('all',)}")
    merged = {**DEFAULT_TOLERANCES,
              **check_tolerances({**s.tolerances, **(tolerances or {})})}

    names = s.plan.suites if suite == "all" else [suite]

    records: list[CheckRecord] = []
    tables: dict[str, list[dict]] = {}
    rng = np.random.default_rng(seed)
    for name in names:
        try:
            _SUITES[name](s, rng, merged, records, tables)
        except Exception as exc:  # noqa: BLE001 - suite isolation
            _fail(records, f"{name}/error", f"{type(exc).__name__}: {exc}")
    return Report(suite=suite, seed=seed, scenario_sha256=s.sha256,
                  scenario=s.metadata(), records=records, tables=tables)


def write_report(report: Report, directory, fmt: str = "json") -> list[Path]:
    """Write report.json and/or CSV tables; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        path = directory / "report.json"
        path.write_text(report.to_json())
        written.append(path)
    if fmt in ("csv", "both"):
        path = directory / "records.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "status", "measured", "tolerance"])
            for rec in report.records:
                writer.writerow([rec.name, rec.status, rec.measured,
                                 rec.tolerance])
        written.append(path)
        for name, rows in sorted(report.tables.items()):
            if not rows:
                continue
            path = directory / f"{name}.csv"
            with path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
            written.append(path)
    return written
