"""Scenario loading, verification suites, and the CLI.

Suites here run on deliberately small grids; the full-resolution
protocols live in the acceptance suite.
"""
import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covham import canonical, dirac, dynamics, position, scenario, verify
from covham.brackets import (
    BracketConfig,
    GeneralObservable,
    QuadraticObservable,
)
from covham.cli import main
from covham.dynamics import source_rate
from covham.errors import ScenarioError
from covham.fields import FieldSpec
from covham.scenario import Scenario, load_scenario, scenario_from_dict
from covham.minkowski import component_signs, minkowski_dot
from covham.verify import DEFAULT_TOLERANCES, run_verification, write_report
from covham.worldlines import Worldline, static_worldline

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def free_scalar_dict():
    return {
        "field": {"kind": "scalar", "s": 1.0, "m": 1.0, "c": 1.0},
        "grid": {"kmax": 3.0, "n_per_axis": 4},
        "time": {"x0_start": 0.0, "x0_end": 2.0, "steps": 16},
    }


def sourced_scalar_dict(extra_particle=False):
    data = free_scalar_dict()
    data["particles"] = [
        {"kind": "static", "coupling": 1.0, "position": [0.0, 0.0, 0.0]},
    ]
    if extra_particle:
        data["particles"].append(
            {"kind": "uniform", "coupling": -0.5,
             "position": [0.5, 0.0, 0.0], "beta": [0.3, 0.0, 0.0]})
    data["time"]["steps"] = 80
    return data


def dirac_dict():
    return {
        "field": {"kind": "dirac", "s": 1.0, "m": 1.2, "c": 1.0},
        "particles": [
            {"kind": "static", "coupling": 0.8, "position": [0.2, -0.1, 0.3],
             "xi1": [0.4, [-0.2, 0.1], 0.3, 0.05],
             "xi2": [0.1, 0.2, -0.15, [0.0, 0.3]]},
        ],
        "grid": {"kmax": 3.0, "n_per_axis": 4},
        "time": {"x0_start": 0.0, "x0_end": 2.0, "steps": 80},
    }


# the shipped scenarios with every optional section present, so that a
# mutation can reach each kind of entry
_FULL_SHIPPED = {
    path.stem: {**json.loads(path.read_text()),
                "gauge": {"z_re": 0.5, "z_im": 0.5},
                "bracket": {"V": [1.0, 0.0, 0.0, 0.0]},
                "tolerances": {"roundtrip": 1e-12}}
    for path in SCENARIOS.glob("*.json")
}

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400)
    | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner,
                                     max_size=4)),
    max_leaves=8)


def _entry_paths(node, path=()):
    """The key path of every entry (section, object key, list item)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _entry_paths(child, path + (key,))


class TestScenarioLoading:
    def test_defaults_filled(self):
        s = scenario_from_dict(free_scalar_dict())
        assert s.gauge.z == pytest.approx(2**-0.5)
        assert np.array_equal(s.v, [1.0, 0.0, 0.0, 0.0])
        assert s.output_format == "json"
        assert s.particles == ()

    def test_build_grid_uses_field_mass(self):
        s = scenario_from_dict(free_scalar_dict())
        grid = s.build_grid()
        # every node sits on the field's mass shell k.k = kappa^2
        assert np.allclose(minkowski_dot(grid.k, grid.k), s.field.kappa**2)
        assert len(grid) == 64

    def test_load_from_file_records_digest(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(free_scalar_dict()))
        s = load_scenario(path)
        assert len(s.sha256) == 64

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"field": {,}')
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="no such scenario"):
            load_scenario(tmp_path / "absent.json")

    def test_em_mass_term_rejected(self):
        data = free_scalar_dict()
        data["field"] = {"kind": "em", "c": 1.0, "b2": 0.1}
        with pytest.raises(ScenarioError,
                           match=r"^field: unknown entries for em: \['b2'\]"):
            scenario_from_dict(data)

    def test_em_explicit_zero_mass_rejected(self):
        # b2 = 0 is the em relation itself, and still no entry of em
        data = free_scalar_dict()
        data["field"] = {"kind": "em", "c": 1.0, "b2": 0.0}
        with pytest.raises(ScenarioError,
                           match=r"^field: unknown entries for em: \['b2'\]"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("section, blk", [
        ("field", {"kind": "scalar", "s": 1.0, "m": 1.0, "a2": 1.0}),
        ("field", {"kind": "scalar", "s": 1.0, "m": 1.0, "b2": 1.0}),
        ("field", {"kind": "dirac", "s": 1.0, "m": 1.0, "a2": 1.0}),
        ("field", {"kind": "dirac", "s": 1.0, "m": 1.0, "b2": 1.0}),
        ("field", {"kind": "em", "c": 1.0, "a2": -1.0 / (8.0 * np.pi)}),
        ("grid", {"kmax": 3.0, "n_per_axis": 4, "k0_floor": 3e-6}),
    ], ids=["scalar-a2", "scalar-b2", "dirac-a2", "dirac-b2", "em-a2",
            "grid-k0_floor"])
    def test_derived_constants_are_unknown_entries(self, tmp_path, capsys,
                                                   section, blk):
        # the last entry of each block is the value the species relation
        # or the grid rule derives
        data = free_scalar_dict()
        data[section] = blk
        with pytest.raises(ScenarioError, match=(
                rf"^{section}: unknown entries.*\['{list(blk)[-1]}'\]")):
            scenario_from_dict(data)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert (f"invalid scenario: {section}: unknown entries"
                in capsys.readouterr().err)

    def test_dirac_without_coupling_spinors(self):
        data = dirac_dict()
        del data["particles"][0]["xi2"]
        # only zeros: a source that sources nothing
        data["particles"][0]["xi1"] = [0, 0, 0, 0]
        with pytest.raises(ScenarioError,
                           match=r"^particles\[0\]: .*coupling spinors"):
            scenario_from_dict(data)
        del data["particles"][0]["xi1"]
        with pytest.raises(ScenarioError, match="coupling spinors"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("shape, spinors", [
        ({"kind": "static"}, {"xi3": -np.eye(4)}),
        ({"kind": "static"}, {"xi2": -dirac.GAMMA[0]}),
        ({"kind": "circular", "radius": 0.3, "omega": 1.0},
         {"xi3": -np.eye(4)})],
        ids=["static-xi3", "static-xi2", "circular-xi3"])
    def test_dirac_coupling_spinors_that_cancel(self, shape, spinors):
        # slash(u_dot)^2 = 1, so xi1 + slash(u_dot) xi2 + slash(u_dot)^2
        # xi3 vanishes on these worldlines, at every phase of the orbit;
        # with xi1 doubled the source loads
        data = dirac_dict()
        blk = data["particles"][0]
        del blk["xi2"]
        blk.update(shape)
        xi1 = np.array([0.4, -0.2 + 0.1j, 0.3, 0.05])
        blk["xi1"] = [[v.real, v.imag] for v in xi1]
        for key, op in spinors.items():
            blk[key] = [[v.real, v.imag] for v in op @ xi1]
        with pytest.raises(ScenarioError,
                           match=r"^particles\[0\]: .*spinors cancel"):
            scenario_from_dict(data)
        blk["xi1"] = [[2.0 * v.real, 2.0 * v.imag] for v in xi1]
        assert scenario_from_dict(data).particles[0].xi is not None

    def test_complex_spinor_entries_parsed(self):
        s = scenario_from_dict(dirac_dict())
        xi = s.particles[0].xi
        assert xi.xi1[1] == pytest.approx(-0.2 + 0.1j)
        assert xi.xi2[3] == pytest.approx(0.3j)

    def test_time_window_validation(self):
        data = free_scalar_dict()
        data["time"]["steps"] = 1
        with pytest.raises(ScenarioError, match="steps"):
            scenario_from_dict(data)
        # over the step budget, directly or through a suite's refinement:
        # on the sourced scalar, kmax 1e3 makes the hamilton plan 27,639
        # steps, where simulate, on its soft grid, takes 1,411
        for make, steps, x0_end, kmax in (
                (free_scalar_dict, 10**12, 2.0, 4.0),
                (free_scalar_dict, 20_001, 2.0, 4.0),
                (free_scalar_dict, 64, 1e4, 4.0),
                (sourced_scalar_dict, 64, 15.2, 1e3)):
            data = make()
            data["time"].update(steps=steps, x0_end=x0_end)
            data["grid"]["kmax"] = kmax
            with pytest.raises(ScenarioError, match="^time: .*steps"):
                scenario_from_dict(data)
        # with no source no suite refines past the soft grid
        data = free_scalar_dict()
        data["time"].update(steps=64, x0_end=15.2)
        data["grid"]["kmax"] = 1e3
        plan = scenario_from_dict(data).plan
        assert (plan.steps_fd, plan.hamilton_steps) == (1411, None)
        # the corner k0 of kmax 1e308 is past the float range
        data["grid"]["kmax"] = 1e308
        with pytest.raises(ScenarioError, match="^(grid|time): "):
            scenario_from_dict(data)
        for x0_end in (-1.0, 0.0):  # before, and at, x0_start = 0
            data = free_scalar_dict()
            data["time"]["x0_end"] = x0_end
            with pytest.raises(ScenarioError, match="^time: x0_end"):
                scenario_from_dict(data)

    def test_order_steps_keep_to_the_step_budget(self, monkeypatch):
        # the order check's finest count is held to the budget at load
        # like every other suite count; a finer k0 h rule pushes the
        # sourced scalar's past it while hamilton_steps stays at 90
        assert scenario_from_dict(sourced_scalar_dict()).plan.order_steps \
            == (64, 128, 256)
        monkeypatch.setattr(scenario, "_ORDER_TURN_H", 1e-3)
        with pytest.raises(ScenarioError,
                           match=r"^time: the hamilton suite needs \d+"):
            scenario_from_dict(sourced_scalar_dict())

    def test_unknown_section_rejected(self):
        data = free_scalar_dict()
        data["extras"] = {}
        with pytest.raises(ScenarioError, match="unknown sections"):
            scenario_from_dict(data)

    def test_particle_errors_name_their_index(self):
        data = sourced_scalar_dict()
        data["particles"][0] = {"kind": "uniform", "coupling": 1.0,
                                "position": [0, 0, 0],
                                "beta": [1.2, 0.0, 0.0]}
        with pytest.raises(ScenarioError, match=r"particles\[0\]"):
            scenario_from_dict(data)

    def test_echoed_input_stays_short(self):
        # a field kind nested 900 deep, and 5,000-character kinds, keys and
        # tolerance names, each quoted back cut short
        nested = free_scalar_dict()
        for _ in range(900):
            nested["field"]["kind"] = [nested["field"]["kind"]]
        long_kind = sourced_scalar_dict()
        long_kind["particles"][0]["kind"] = "k" * 5000
        section = free_scalar_dict()
        section["s" * 5000] = {}
        key = free_scalar_dict()
        key["grid"]["g" * 5000] = 1.0
        tolerance = free_scalar_dict()
        tolerance["tolerances"] = {"t" * 5000: 1.0}
        for data, where in ((nested, "field"), (long_kind, "particles[0]"),
                            (section, "scenario"), (key, "grid"),
                            (tolerance, "tolerances")):
            with pytest.raises(ScenarioError) as err:
                scenario_from_dict(data)
            message = str(err.value)
            assert message.startswith(f"{where}: ") and len(message) < 500

    def test_bracket_vector_validation(self):
        data = free_scalar_dict()
        data["bracket"] = {"V": [1.0, 0.0]}
        with pytest.raises(ScenarioError, match="V must be"):
            scenario_from_dict(data)

    def test_boolean_steps_rejected(self):
        data = free_scalar_dict()
        data["time"]["steps"] = True
        with pytest.raises(ScenarioError, match="steps"):
            scenario_from_dict(data)

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_mutated_entry_loads_or_raises_scenario_error(self, data):
        name = data.draw(st.sampled_from(sorted(_FULL_SHIPPED)))
        doc = copy.deepcopy(_FULL_SHIPPED[name])
        path = data.draw(st.sampled_from(list(_entry_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(_JSON_VALUES)
        try:
            result = scenario_from_dict(doc)
        except ScenarioError:
            return
        assert isinstance(result, Scenario)


def _perturb_tensor(monkeypatch, q_at, pi_at, transpose_sign):
    """Add d to Lambda[q, pi] and transpose_sign * d to Lambda[pi, q];
    q_at and pi_at are (mode, branch, row) in the index view, component 0."""
    original = BracketConfig.poisson_tensor

    def poisson_tensor(cfg):
        lam = original(cfg)
        q = cfg.layout.index[q_at + (0,)]
        pi = cfg.layout.index[pi_at + (0,)]
        d = 1e-3 * np.max(np.abs(lam))
        lam[q, pi] += d
        lam[pi, q] += transpose_sign * d
        return lam

    monkeypatch.setattr(BracketConfig, "poisson_tensor", poisson_tensor)


def _misscale_multiple(monkeypatch):
    original = QuadraticObservable.__rmul__
    monkeypatch.setattr(QuadraticObservable, "__rmul__",
                        lambda self, alpha: original(self, alpha * 1.001))


def _drop_leibniz_term(monkeypatch):
    def product(a, b):  # grad(ab) without the b grad(a) term
        return GeneralObservable(lambda s: a.value(s) * b.value(s),
                                 lambda s: a.value(s) * b.gradient(s))

    monkeypatch.setattr(verify, "product", product)


# one named fault per bracket record that can fail; the canonical pair
# reads modes 0 and 2 only, so the symmetric part sits in mode 1
_BRACKET_FAULTS = {
    "symmetric_tensor_part": lambda mp: _perturb_tensor(
        mp, (1, 0, 0), (1, 0, 1), 1.0),
    "misscaled_multiple": _misscale_multiple,
    "leibniz_term_dropped": _drop_leibniz_term,
    "cross_mode_coupling": lambda mp: _perturb_tensor(
        mp, (0, 0, 0), (2, 0, 1), -1.0),
}


def _sources_after_window_dict():
    """Two sources switching on after the window: every sample precedes
    the crossings, and unpatched every coefficient stays zero.  (A
    switch-on inside the window fails simulate/mode_equation, whose
    stencil spans the kink.)"""
    data = sourced_scalar_dict(extra_particle=True)
    for blk in data["particles"]:
        blk["t_start"] = data["time"]["x0_end"] + 0.5
    return data


def _ignore_init_plus(monkeypatch):
    original = verify.evolve_amplitudes

    def evolve(*args, init_plus=None, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "evolve_amplitudes", evolve)


# one named fault per simulate record that has none elsewhere
def _drifting_constant_amplitudes(monkeypatch):
    def drifting(coeff_plus, coeff_minus=None):
        def amp_at(x0):
            # no longer constant: d_0 C != 0 on a free field
            return tuple(None if c is None else (1.0 + 1e-3 * x0) * c
                         for c in (coeff_plus, coeff_minus))
        return amp_at

    monkeypatch.setattr(verify, "constant_amplitudes", drifting)


def _sign_flipped_from_canonical(monkeypatch):
    original = canonical.from_canonical

    def flipped(*args, **kwargs):
        return tuple(None if a is None else -a
                     for a in original(*args, **kwargs))

    monkeypatch.setattr(verify, "from_canonical", flipped)


def _order_two_error(monkeypatch):
    original = verify.evolve_amplitudes

    def evolve(*args, **kwargs):
        hist = original(*args, **kwargs)
        if kwargs.get("save") != "last":
            return hist
        # a second-order error term on the fourth-order final slice
        factor = 1.0 + 1.0 / args[5] ** 2
        return dataclasses.replace(hist, coeffs=factor * hist.coeffs)

    monkeypatch.setattr(verify, "evolve_amplitudes", evolve)


def _late_source(name, t_start):
    """A shipped scenario whose sources all switch on at t_start."""
    def data():
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        for blk in data["particles"]:
            blk["t_start"] = t_start
        return data
    return data


_HAMILTON_FAULTS = {
    "drifting_free_amplitudes": _drifting_constant_amplitudes,
    "sign_flipped_from_canonical": _sign_flipped_from_canonical,
    "order_two_final_slice": _order_two_error,
}


def _scaled_gamma_one(monkeypatch):
    gamma = dirac.GAMMA.copy()
    gamma[1] *= 1.01
    monkeypatch.setattr(dirac, "GAMMA", gamma)


def _nan_gamma_two(monkeypatch):
    gamma = dirac.GAMMA.copy()
    gamma[2, 0, 0] = np.nan
    monkeypatch.setattr(dirac, "GAMMA", gamma)


def _scaled_slash(monkeypatch):
    original = dirac.slash
    monkeypatch.setattr(dirac, "slash", lambda k: 1.01 * original(k))


def _swapped_source_families(monkeypatch):
    original = verify.source_rate
    monkeypatch.setattr(verify, "source_rate",
                        lambda *args: original(*args)[::-1])


# one named fault per dirac-algebra record, and a NaN that must reach all
_DIRAC_FAULTS = {
    "scaled_gamma_one": _scaled_gamma_one,
    "scaled_slash": _scaled_slash,
    "swapped_source_families": _swapped_source_families,
    "nan_gamma_two": _nan_gamma_two,
}


def _scaled_single_source_rate(monkeypatch):
    original = verify.source_rate

    def rate(field, worldlines, *args):
        rates = original(field, worldlines, *args)
        if len(worldlines) != 1:
            return rates
        return tuple(None if r is None else (1.0 + 1e-9) * r for r in rates)

    monkeypatch.setattr(verify, "source_rate", rate)


_SIMULATE_FAULTS = {
    "source_always_active": lambda mp: mp.setattr(
        Worldline, "active_at", lambda self, x0: True),
    "init_plus_ignored": _ignore_init_plus,
    "single_source_rate_scaled": _scaled_single_source_rate,
}


_MATRIX_FIELDS = {
    "scalar": {"kind": "scalar", "s": 1.0, "m": 1.0, "c": 1.0},
    "rank1": {"kind": "tensor", "rank": 1, "a2": 1.0, "b2": 1.0},
    "rank2": {"kind": "tensor", "rank": 2, "a2": 1.0, "b2": 1.0},
    "em": {"kind": "em", "c": 1.0},
    "dirac": {"kind": "dirac", "s": 1.0, "m": 1.2, "c": 1.0},
}
_MATRIX_SHAPES = {
    "static": {"kind": "static"},
    "uniform": {"kind": "uniform", "beta": [0.2, -0.3, 0.1]},
    "circular": {"kind": "circular", "radius": 0.5, "omega": 1.2},
}


_BASE_SUITES = ("dirac-algebra", "hamilton", "simulate", "bracket")


def _suites_run(monkeypatch):
    """The list, filled as run_verification runs, of the suites it runs."""
    ran = []

    def wrap(name, suite):
        def run(*args):
            ran.append(name)
            suite(*args)
        return run

    monkeypatch.setattr(verify, "_SUITES", {
        name: wrap(name, suite) for name, suite in verify._SUITES.items()})
    return ran


def _matrix_dict(kind, shape):
    """One always-on source of the given shape driving the given field
    over [0, 2] in 64 steps."""
    particle = {"coupling": 0.8, "position": [0.1, -0.2, 0.05],
                **_MATRIX_SHAPES[shape]}
    grid = {"kmax": 4.0, "n_per_axis": 6}
    if kind == "dirac":
        particle.update(xi1=[0.4, [-0.2, 0.1], 0.3, 0.05],
                        xi2=[0.1, 0.2, -0.15, [0.0, 0.3]])
        grid = {"kmax": 3.0, "n_per_axis": 4}
    return {"field": _MATRIX_FIELDS[kind], "particles": [particle],
            "grid": grid,
            "time": {"x0_start": 0.0, "x0_end": 2.0, "steps": 64}}


class TestVerificationSuites:
    def test_hamilton_free_scalar_passes(self):
        s = scenario_from_dict(free_scalar_dict())
        report = run_verification(s, "hamilton", seed=3)
        names = {r.name for r in report.records}
        assert names == {"hamilton/roundtrip", "hamilton/gauge_invariance",
                         "hamilton/gradient_fd", "hamilton/free_residual"}
        assert report.passed, [r.to_dict() for r in report.records
                               if r.status != "pass"]

    def test_one_mode_grid_records_count_one_mode(self):
        # a one-node cube gives a one-mode hamilton grid; every mode count
        # in the records is the number of modes the check evaluated
        data = json.loads((SCENARIOS / "free_scalar.json").read_text())
        data["grid"] = {"kmax": 2.0, "n_per_axis": 1}
        s = scenario_from_dict(data)
        assert len(s.plan.hamilton_grid) == 1
        report = run_verification(s, "hamilton", seed=0)
        assert {r.name: r.metadata.get("modes") for r in report.records} == {
            "hamilton/roundtrip": 1, "hamilton/gauge_invariance": None,
            "hamilton/gradient_fd": 1, "hamilton/free_residual": 1}

    @pytest.mark.parametrize("fault, data, failing", [
        ("drifting_free_amplitudes", free_scalar_dict,
         {"hamilton/free_residual"}),
        ("sign_flipped_from_canonical", free_scalar_dict,
         {"hamilton/roundtrip"}),
        ("order_two_final_slice", sourced_scalar_dict,
         {"hamilton/integrator_order"}),
        # every switch-on at or after the default window's end: the
        # window opens at the switch-on, and its order is measured there
        *(pytest.param("order_two_final_slice", _late_source(name, t_start),
                       {"hamilton/integrator_order"}, id=f"late-{name}")
          for name, t_start in (("static_scalar_source", 5.0),
                                ("static_em_charge", 3.0),
                                ("dirac_static_source", 2.5))),
    ])
    def test_hamilton_records_flag_injected_faults(self, fault, data,
                                                   failing, monkeypatch):
        s = scenario_from_dict(data())

        def failures():
            report = run_verification(s, "hamilton", seed=3)
            return {r.name for r in report.records if r.status != "pass"}

        assert failures() == set()
        _HAMILTON_FAULTS[fault](monkeypatch)
        assert failures() == failing

    def test_hamilton_sourced_records(self):
        s = scenario_from_dict(sourced_scalar_dict())
        report = run_verification(s, "hamilton", seed=3)
        names = {r.name for r in report.records}
        assert "hamilton/sourced_residual" in names
        assert "hamilton/integrator_order" in names
        # the table rows are the step counts the order check evolved
        order = {r.name: r for r in report.records}["hamilton/integrator_order"]
        assert [row["steps"] for row in report.tables[
            "hamilton_convergence"]] == order.metadata["steps"][:-1]
        assert report.passed, [r.to_dict() for r in report.records
                               if r.status != "pass"]

    @pytest.mark.parametrize("kmax, particle", [
        (60.0, {"kind": "circular", "radius": 0.4, "omega": 1.2}),
        (150.0, {"kind": "static"}),
        (150.0, {"kind": "uniform", "beta": [0.3, 0.1, 0.0]}),
        (150.0, {"kind": "circular", "radius": 0.4, "omega": 1.2})],
        ids=["kmax60-circular", "kmax150-static", "kmax150-uniform",
             "kmax150-circular"])
    def test_integrator_order_steps_resolve_large_k0(self, kmax, particle):
        # Simpson's error grows with k0 h: 64 coarse steps read a slope
        # off by 0.49 to 5.7 on these rank-1 grids.  Only this record is
        # asserted: hamilton/free_residual, whose stencil spacing no step
        # count moves, still fails at this kmax
        data = _matrix_dict("rank1", "static")
        data["grid"].update(kmax=kmax, n_per_axis=4)
        data["particles"][0].update(particle)
        report = run_verification(scenario_from_dict(data), "hamilton",
                                  seed=0)
        order = {r.name: r for r in report.records}[
            "hamilton/integrator_order"]
        assert order.status == "pass", order.to_dict()

    @pytest.mark.parametrize("t_start, start", [
        (0.0, 0.0), (1.9, 0.0), (2.0, 2.0), (2.5, 2.5)])
    def test_hamilton_window_opens_at_a_late_switch_on(self, t_start,
                                                       start):
        # span 2 from x0_start 0: a switch-on inside keeps the window
        data = _late_source("dirac_static_source", t_start)()
        plan = scenario_from_dict(data).plan
        assert (plan.hamilton_start, plan.hamilton_span) == (start, 2.0)

    def test_late_switch_on_gives_a_sourced_residual(self):
        s = scenario_from_dict(_late_source("dirac_static_source", 2.5)())
        report = run_verification(s, "hamilton", seed=0)
        rec = {r.name: r for r in report.records}["hamilton/sourced_residual"]
        assert rec.measured > 0.0 and 2.5 < rec.metadata["x0"] < 4.5

    @pytest.mark.parametrize("omega", [1.2, 3.0, 6.0, 12.0, 50.0, 200.0])
    @pytest.mark.parametrize("field", [
        {"kind": "tensor", "rank": 1, "a2": 1.0, "b2": 1.0},
        {"kind": "scalar"}, {"kind": "em"}, {"kind": "dirac"}],
        ids=["rank1", "scalar", "em", "dirac"])
    def test_circular_source_rejected_or_passes_every_suite(self, field,
                                                            omega):
        # speed 0.5 at every omega: the rate turns with the orbit's
        # harmonics, which the step rules must resolve or the load reject
        particle = {"kind": "circular", "coupling": 1.0,
                    "position": [0.0, 0.0, 0.0], "radius": 0.5 / omega,
                    "omega": omega}
        if field["kind"] == "dirac":
            spinors = dirac_dict()["particles"][0]
            particle.update(xi1=spinors["xi1"], xi2=spinors["xi2"],
                            xi3=[0.2, 0.0, [0.1, -0.1], 0.05])
        data = {"field": field, "particles": [particle],
                "grid": {"kmax": 2.0, "n_per_axis": 4},
                "time": {"x0_start": 0.0, "x0_end": 2.0, "steps": 16}}
        try:
            s = scenario_from_dict(data)
        except ScenarioError as exc:
            assert str(exc).startswith("time: "), exc  # the step budget
            return
        report = run_verification(s, "all", seed=0)
        assert report.passed, [r.to_dict() for r in report.records
                               if r.status != "pass"]

    @pytest.mark.parametrize("name", ["static_scalar_source",
                                      "dirac_static_source"])
    def test_gradient_fd_flags_scaled_q_gradient(self, name, monkeypatch):
        s = load_scenario(SCENARIOS / f"{name}.json")

        def gradient_fd():
            report = run_verification(s, "hamilton", seed=0)
            return [r for r in report.records
                    if r.name == "hamilton/gradient_fd"][0]

        assert gradient_fd().status == "pass"
        # the analytic gradients of mode_hamiltonian_gradients and of
        # gradient_consistency, on coupling rows built once
        original = canonical._gradients

        def scaled(*args, **kwargs):
            grads = original(*args, **kwargs)
            grads[..., 0, :] *= 1.0 + 1e-3  # row 0 holds the q gradient
            return grads

        monkeypatch.setattr(canonical, "_gradients", scaled)
        assert gradient_fd().status == "fail"

    def test_simulate_suite_two_sources(self):
        s = scenario_from_dict(sourced_scalar_dict(extra_particle=True))
        report = run_verification(s, "simulate", seed=5)
        names = {r.name for r in report.records}
        assert {"simulate/causality", "simulate/mode_equation",
                "simulate/superposition", "simulate/segmented",
                "simulate/exact_vs_simpson"} <= names
        assert report.passed, [r.to_dict() for r in report.records
                               if r.status != "pass"]

    @pytest.mark.parametrize("name", ["dirac_static_source",
                                      "static_em_charge",
                                      "static_scalar_source"])
    def test_early_switch_on_is_rejected_or_passes(self, name):
        # t_start = -10^e: far from x0 = 0 the causality probe about the
        # switch-on stops holding equal steps, and loading names the
        # particles; every scenario it accepts passes simulate and hamilton
        base = json.loads((SCENARIOS / f"{name}.json").read_text())
        outcomes = set()
        for e in range(1, 21):
            data = copy.deepcopy(base)
            data["particles"][0]["t_start"] = -10.0**e
            try:
                s = scenario_from_dict(data)
            except ScenarioError as exc:
                assert str(exc).startswith("particles: "), (e, str(exc))
                outcomes.add("rejected")
                continue
            failed = [(r.name, r.measured)
                      for suite in ("simulate", "hamilton")
                      for r in run_verification(s, suite).records
                      if r.status != "pass"]
            assert not failed, (e, failed)
            outcomes.add("ran")
        assert outcomes == {"rejected", "ran"}

    def test_exact_vs_simpson_only_with_straight_sources(self):
        free = run_verification(scenario_from_dict(free_scalar_dict()),
                                "simulate", seed=5)
        assert "simulate/exact_vs_simpson" not in {r.name
                                                   for r in free.records}
        data = sourced_scalar_dict()
        data["particles"][0].update(kind="circular", radius=0.4, omega=1.1)
        orbit = run_verification(scenario_from_dict(data), "simulate",
                                 seed=5)
        assert "simulate/exact_vs_simpson" not in {r.name
                                                   for r in orbit.records}

    def test_exact_vs_simpson_flags_flipped_phase_rate(self, monkeypatch):
        def flipped(field, worldlines, grid, x0):
            # straight_line_amplitudes with the sign of s flipped
            plus, minus = (np.zeros((len(grid),) + field.component_shape,
                                    dtype=complex) for _ in range(2))
            for w in worldlines:
                span = x0 - w.switch_on_time()
                if span <= 0.0:
                    continue
                rp, rm = source_rate(field, [w], grid.k, w.switch_on_time())
                _, udot = w.state(w.tau_on)
                half = -0.5 * span * minkowski_dot(grid.k, udot) / udot[0]
                factor = span * np.exp(1j * half) * np.sinc(half / np.pi)
                plus = plus + rp * factor
                minus = minus + rm * np.conj(factor)
            return plus, minus

        s = scenario_from_dict(sourced_scalar_dict(extra_particle=True))
        monkeypatch.setattr(verify, "straight_line_amplitudes", flipped)
        report = run_verification(s, "simulate", seed=5)
        rec = [r for r in report.records
               if r.name == "simulate/exact_vs_simpson"][0]
        assert rec.status == "fail" and rec.measured > 1e-3

    def test_mode_equation_record_fails_on_nan_history(self, monkeypatch):
        # blocks of 16 samples: slice 100 lies past the first block
        s = scenario_from_dict(sourced_scalar_dict())
        plan = s.plan
        assert plan.steps_fd != plan.steps
        original = verify.evolve_amplitudes

        def evolve(*args, **kwargs):
            hist = original(*args, **kwargs)
            if args[5] == plan.steps_fd:
                hist.coeffs[100, 0, 3] = np.nan
            return hist

        def record():
            report = run_verification(s, "simulate", seed=5)
            return {r.name: r for r in report.records}[
                "simulate/mode_equation"]

        monkeypatch.setattr(dynamics, "_SERIES_BLOCK",
                            16 * 2 * len(plan.simulate_grid))
        assert record().status == "pass"
        monkeypatch.setattr(verify, "evolve_amplitudes", evolve)
        rec = record()
        assert rec.status == "fail" and np.isnan(rec.measured)

    @pytest.mark.parametrize("fault, data, failing", [
        # the straight series anchors at the window start, so the
        # evolved history itself carries the fault
        ("source_always_active", _sources_after_window_dict,
         {"simulate/causality", "simulate/exact_vs_simpson",
          "simulate/mode_equation", "simulate/segmented"}),
        ("init_plus_ignored", lambda: sourced_scalar_dict(True),
         {"simulate/segmented"}),
        ("single_source_rate_scaled", lambda: sourced_scalar_dict(True),
         {"simulate/superposition"}),
        # the window opens at the switch-on: only the probe sees the fault
        ("source_always_active", sourced_scalar_dict, {"simulate/causality"}),
    ])
    def test_simulate_records_flag_injected_faults(self, fault, data,
                                                   failing, monkeypatch):
        s = scenario_from_dict(data())

        def failures():
            report = run_verification(s, "simulate", seed=5)
            return {r.name for r in report.records if r.status != "pass"}

        assert failures() == set()
        _SIMULATE_FAULTS[fault](monkeypatch)
        assert failures() == failing

    @pytest.mark.parametrize("shape", sorted(_MATRIX_SHAPES))
    @pytest.mark.parametrize("kind", sorted(_MATRIX_FIELDS))
    def test_every_species_and_shape_passes_every_suite(self, kind, shape,
                                                         monkeypatch):
        s = scenario_from_dict(_matrix_dict(kind, shape))
        ran = _suites_run(monkeypatch)
        report = run_verification(s, "all", seed=0)
        assert report.passed, [r.to_dict() for r in report.records
                               if r.status != "pass"]
        # green: a moving source, no oracle, or a window too short
        parseval = ("parseval",) if kind in ("scalar", "rank1",
                                             "rank2") else ()
        assert ran == list(s.plan.suites) == list(_BASE_SUITES + parseval)

    def test_bracket_suite_scalar(self):
        s = scenario_from_dict(free_scalar_dict())
        report = run_verification(s, "bracket", seed=7)
        assert report.passed, [r.to_dict() for r in report.records
                               if r.status != "pass"]
        conservation = [r for r in report.records
                        if r.name == "bracket/conservation"][0]
        assert conservation.measured == 0.0

    def test_bracket_jacobi_flags_broken_structure(self, monkeypatch):
        original = BracketConfig.poisson_tensor

        def poisson_tensor(cfg):
            lam = original(cfg)
            lam[0, -1] += 1e-3 * np.max(np.abs(lam))  # no longer antisymmetric
            return lam

        monkeypatch.setattr(BracketConfig, "poisson_tensor", poisson_tensor)
        s = scenario_from_dict(free_scalar_dict())
        report = run_verification(s, "bracket", seed=7)
        rec = [r for r in report.records if r.name == "bracket/jacobi"][0]
        assert rec.status == "fail"

    @pytest.mark.parametrize("fault, failing", [
        ("symmetric_tensor_part", {"bracket/antisymmetry", "bracket/jacobi"}),
        ("misscaled_multiple", {"bracket/bilinearity"}),
        ("leibniz_term_dropped", {"bracket/leibniz"}),
        ("cross_mode_coupling", {"bracket/canonical_pair"}),
    ])
    def test_bracket_records_flag_injected_faults(self, fault, failing,
                                                  monkeypatch):
        s = scenario_from_dict(free_scalar_dict())

        def failures():
            report = run_verification(s, "bracket", seed=7)
            return {r.name for r in report.records if r.status != "pass"}

        assert failures() == set()
        _BRACKET_FAULTS[fault](monkeypatch)
        assert failures() == failing

    def test_bracket_suite_zero_vector_keeps_every_record(self):
        # V = 0 zeroes every Jacobi term: no 0 / 0 in the relative defect
        data = free_scalar_dict()
        data["bracket"] = {"V": [0.0, 0.0, 0.0, 0.0]}
        report = run_verification(scenario_from_dict(data), "bracket", seed=7)
        assert "bracket/jacobi" in {r.name for r in report.records}
        assert report.passed, [r.to_dict() for r in report.records]

    def test_bracket_suite_runs_on_the_rank_two_field(self, monkeypatch):
        s = load_scenario(SCENARIOS / "rank2_circular_orbit.json")
        builds = []
        original = BracketConfig.poisson_tensor
        monkeypatch.setattr(BracketConfig, "poisson_tensor",
                            lambda cfg: builds.append(1) or original(cfg))
        report = run_verification(s, "bracket", seed=7)
        assert report.passed, [r.to_dict() for r in report.records]
        assert all(r.metadata["sector"] == "tensor" and "note" not in
                   r.metadata for r in report.records)
        pair = [r for r in report.records
                if r.name == "bracket/canonical_pair"][0]
        assert pair.metadata["pairs"] == 4 * 16**2
        # nine law brackets and the canonical-pair block share one Lambda
        assert len(builds) == 1

    def test_bracket_pair_flags_signs_tiled_from_rank_one(self,
                                                          monkeypatch):
        # Lambda built with the rank-1 signs repeated over the first index:
        # the laws hold for any signs, the closed pair reads the metric
        s = load_scenario(SCENARIOS / "rank2_circular_orbit.json")

        def failures():
            report = run_verification(s, "bracket", seed=7)
            return {r.name for r in report.records if r.status != "pass"}

        assert failures() == set()
        monkeypatch.setattr(FieldSpec, "pairing_signs", lambda self: np.tile(
            component_signs(1), (4, 1)))
        assert failures() == {"bracket/canonical_pair"}

    def test_bracket_suite_cuts_the_rank_four_box(self):
        # 2,560 variables a mode: one box mode fits the dense tensor
        data = json.loads((SCENARIOS / "rank2_circular_orbit.json")
                          .read_text())
        data["field"]["rank"] = 4
        report = run_verification(scenario_from_dict(data), "bracket",
                                  seed=7)
        assert report.passed, [r.to_dict() for r in report.records]
        for rec in report.records:
            assert rec.metadata["sector"] == "tensor"
            assert "box cut to 1 of 3 modes" in rec.metadata["note"]
        pair = [r for r in report.records
                if r.name == "bracket/canonical_pair"][0]
        assert pair.metadata["pairs"] == 256**2

    def test_rank_four_all_suites_peak_below_500_mb(self):
        # the child reports its own peak: RUSAGE_CHILDREN would also count
        # every earlier child of this process
        data = json.loads((SCENARIOS / "rank2_circular_orbit.json")
                          .read_text())
        data["field"]["rank"] = 4
        child = ("import json, resource, sys\n"
                 "from covham.scenario import scenario_from_dict\n"
                 "from covham.verify import run_verification\n"
                 "report = run_verification(scenario_from_dict("
                 "json.loads(sys.argv[1])), 'all')\n"
                 "print(report.passed, resource.getrusage("
                 "resource.RUSAGE_SELF).ru_maxrss)\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(SCENARIOS.parent / "src"),
                       os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", child, json.dumps(data)],
                             env=env, capture_output=True, text=True,
                             check=True)
        passed, peak_kib = out.stdout.split()
        assert passed == "True"
        assert int(peak_kib) < 500 * 1024

    def test_bracket_suite_dirac_uses_fallback_sector(self):
        s = scenario_from_dict(dirac_dict())
        report = run_verification(s, "bracket", seed=7)
        assert report.passed
        anti = [r for r in report.records
                if r.name == "bracket/antisymmetry"][0]
        assert "rank-0 sector" in anti.metadata["note"]

    def test_parseval_scalar_passes(self):
        s = scenario_from_dict(free_scalar_dict())
        report = run_verification(s, "parseval", seed=11)
        assert report.passed
        assert report.records[0].name == "parseval/box_sum"

    def test_parseval_box_sum_flags_scaled_density(self, monkeypatch):
        s = scenario_from_dict(free_scalar_dict())

        def failures():
            report = run_verification(s, "parseval", seed=11)
            return {r.name for r in report.records if r.status != "pass"}

        assert failures() == set()
        original = position.dw_density
        monkeypatch.setattr(position, "dw_density",
                            lambda *a, **kw: 1.001 * original(*a, **kw))
        assert failures() == {"parseval/box_sum"}

    def test_parseval_em_fails_with_context(self):
        data = free_scalar_dict()
        data["field"] = {"kind": "em"}
        s = scenario_from_dict(data)
        report = run_verification(s, "parseval", seed=11)
        assert not report.passed
        assert "error" in report.records[0].metadata

    def test_dirac_algebra_suite(self):
        s = scenario_from_dict(dirac_dict())
        report = run_verification(s, "dirac-algebra", seed=13)
        names = {r.name for r in report.records}
        assert names == {"dirac/clifford", "dirac/projectors",
                         "dirac/branch_annihilation"}
        assert report.passed, [r.to_dict() for r in report.records
                               if r.status != "pass"]

    @pytest.mark.parametrize("fault, failing", [
        ("scaled_gamma_one", {"dirac/clifford", "dirac/projectors",
                              "dirac/branch_annihilation"}),
        ("scaled_slash", {"dirac/projectors", "dirac/branch_annihilation"}),
        ("swapped_source_families", {"dirac/branch_annihilation"}),
        ("nan_gamma_two", {"dirac/clifford", "dirac/projectors",
                           "dirac/branch_annihilation"}),
    ])
    def test_dirac_records_flag_injected_faults(self, fault, failing,
                                                monkeypatch):
        s = scenario_from_dict(dirac_dict())

        def failures():
            report = run_verification(s, "dirac-algebra", seed=3)
            return {r.name for r in report.records if r.status != "pass"}

        assert failures() == set()
        _DIRAC_FAULTS[fault](monkeypatch)
        assert failures() == failing

    def test_all_suite_covers_applicable(self):
        s = scenario_from_dict(free_scalar_dict())
        report = run_verification(s, "all", seed=1)
        prefixes = {r.name.split("/")[0] for r in report.records}
        # no particles and no static source, so the green suite is skipped
        assert prefixes == {"dirac", "hamilton", "simulate", "bracket",
                            "parseval"}
        assert report.passed

    def test_records_unique(self):
        s = scenario_from_dict(sourced_scalar_dict())
        report = run_verification(s, "all", seed=1)
        names = [r.name for r in report.records]
        assert len(names) == len(set(names))

    def test_report_determinism(self):
        s = scenario_from_dict(sourced_scalar_dict())
        a = run_verification(s, "hamilton", seed=21).to_json()
        b = run_verification(s, "hamilton", seed=21).to_json()
        assert a == b

    def test_tolerance_override_forces_failure(self):
        s = scenario_from_dict(free_scalar_dict())
        report = run_verification(s, "hamilton", seed=3,
                                  tolerances={"roundtrip": 1e-30})
        assert not report.passed

    def test_unknown_tolerance_rejected(self):
        s = scenario_from_dict(free_scalar_dict())
        with pytest.raises(ValueError, match="unknown tolerance"):
            run_verification(s, "hamilton", tolerances={"bogus": 1.0})

    def test_unknown_suite_rejected(self):
        s = scenario_from_dict(free_scalar_dict())
        with pytest.raises(ValueError, match="unknown suite"):
            run_verification(s, "everything")

    def test_schema_fields(self):
        s = scenario_from_dict(free_scalar_dict())
        body = json.loads(run_verification(s, "parseval", seed=2).to_json())
        assert body["schema_version"] == "1"
        assert body["reproducibility"]["seed"] == 2
        assert set(body["records"][0]) == {"name", "status", "measured",
                                           "tolerance", "metadata"}


class TestGreenSuite:
    def test_scalar_profile_structure(self):
        data = sourced_scalar_dict()
        data["grid"] = {"kmax": 8.0, "n_per_axis": 48}  # the shipped grid
        data["time"] = {"x0_start": 0.0, "x0_end": 15.2, "steps": 64}
        s = scenario_from_dict(data)
        report = run_verification(s, "green", seed=0)
        names = {r.name for r in report.records}
        assert names == {"green/yukawa_direct", "green/yukawa_ratio"}
        assert report.passed, [r.to_dict() for r in report.records]
        rows = report.tables["green_profile"]
        assert len(rows) == 6
        assert all(np.isfinite(row["rel_err"]) for row in rows)

    @pytest.mark.parametrize("kind", ["scalar", "em"])
    def test_radial_distortion_fails(self, kind, monkeypatch):
        # the grid of test_scalar_profile_structure and its em twin
        data = sourced_scalar_dict()
        if kind == "em":
            data["field"] = {"kind": "em", "c": 1.0}
        data["grid"] = {"kmax": 8.0, "n_per_axis": 48}
        data["time"] = {"x0_start": 0.0, "x0_end": 15.2, "steps": 64}
        s = scenario_from_dict(data)
        assert run_verification(s, "green", seed=0).passed
        original = verify.averaged_profile

        def distorted(field, worldlines, grid, points, center, period,
                      **kwargs):
            vals = original(field, worldlines, grid, points, center, period,
                            **kwargs)
            r = np.linalg.norm(points - worldlines[0].position, axis=1)
            return vals * ((1.0 + r) ** 2).reshape(
                (-1,) + (1,) * (vals.ndim - 1))

        monkeypatch.setattr(verify, "averaged_profile", distorted)
        report = run_verification(s, "green", seed=0)
        want = ({"green/coulomb"} if kind == "em"
                else {"green/yukawa_direct", "green/yukawa_ratio"})
        assert {r.name for r in report.records
                if r.status == "fail"} == want

    @pytest.mark.parametrize("kind", ["scalar", "em"])
    def test_nan_coefficient_fails_every_record(self, kind, monkeypatch):
        # one NaN among the mean's coefficients reaches every radius
        # through the axis sum, and a NaN error fails each record
        data = sourced_scalar_dict()
        if kind == "em":
            data["field"] = {"kind": "em", "c": 1.0}
        data["grid"] = {"kmax": 8.0, "n_per_axis": 48}
        data["time"] = {"x0_start": 0.0, "x0_end": 15.2, "steps": 64}
        s = scenario_from_dict(data)
        assert run_verification(s, "green", seed=0).passed
        original = dynamics._straight_line_mean

        def poisoned(*args, **kwargs):
            coeffs = original(*args, **kwargs)
            coeffs.reshape(-1)[0] = np.nan  # mode 0, branch 0, component 0
            return coeffs

        monkeypatch.setattr(dynamics, "_straight_line_mean", poisoned)
        report = run_verification(s, "green", seed=0)
        assert all(np.isnan(row["reconstructed"])
                   for row in report.tables["green_profile"])
        want = ({"green/coulomb"} if kind == "em"
                else {"green/yukawa_direct", "green/yukawa_ratio"})
        assert {r.name for r in report.records if r.status == "fail"} == want

    def test_uncovered_species_not_applicable(self):
        s = scenario_from_dict(dirac_dict())
        record = run_verification(s, "green", seed=0).records[0]
        assert (record.name, record.metadata["error"]) == (
            "green/applicability", "green oracle comparisons cover the em "
            "and scalar species, not spinor")
        names = {r.name.split("/")[0]
                 for r in run_verification(s, "all", seed=0).records}
        assert names.isdisjoint({"green", "parseval"})

    @pytest.mark.parametrize("kind, needed", [("scalar", "7.11"),
                                              ("em", "9.44")])
    def test_short_window_not_applicable(self, kind, needed):
        # window [0, 2]: the average would start before the field has
        # settled at the largest radius
        s = scenario_from_dict(_matrix_dict(kind, "static"))
        record, = run_verification(s, "green", seed=0).records
        assert (record.name, record.status) == ("green/window", "fail")
        assert f"need x0_end > {needed})" in record.metadata["error"]
        report = run_verification(s, "all", seed=0)
        assert "green" not in {r.name.split("/")[0] for r in report.records}
        assert report.passed

    def test_window_boundary_not_applicable(self):
        # needed 4.0 + period 2 pi: the averaging window opens at needed
        # exactly, which the rule still rejects
        data = json.loads((SCENARIOS / "static_em_charge.json").read_text())
        x0_end = 10.283185307179586
        data["time"]["x0_end"] = x0_end
        plan = scenario_from_dict(data).plan
        assert plan.green_skip[0] == "green/window"
        data["time"]["x0_end"] = float(np.nextafter(x0_end, np.inf))
        assert scenario_from_dict(data).plan.green_skip is None

    @pytest.mark.parametrize("x0_end, second, latest", [
        (19.0, None, "15.84"),
        # a second charge 1 from the first: its images arrive 1 earlier
        (15.2, [1.0, 0.0, 0.0], "14.84")])
    def test_long_massless_window_not_applicable(self, x0_end, second,
                                                 latest):
        # L = 2 pi / dk = 18.85 on the shipped em grid: a periodic image
        # of the charge reaches r = 3 before x0_end = 19
        data = json.loads((SCENARIOS / "static_em_charge.json").read_text())
        data["time"]["x0_end"] = x0_end
        if second:
            data["particles"].append({"kind": "static", "coupling": 0.5,
                                      "position": second})
        s = scenario_from_dict(data)
        record, = run_verification(s, "green", seed=0).records
        assert (record.name, record.status) == ("green/window", "fail")
        assert f"need x0_end <= {latest})" in record.metadata["error"]
        report = run_verification(s, "all", seed=0)
        assert "green" not in {r.name.split("/")[0] for r in report.records}
        assert report.passed, [r.to_dict() for r in report.records
                               if r.status != "pass"]

    def test_long_static_window_validates_and_passes(self, tmp_path):
        # 4,911 simulate steps: the budget counts the soft grid's k0, not
        # the corner shell energy of the scenario grid
        data = json.loads((SCENARIOS / "static_scalar_source.json")
                          .read_text())
        data["time"]["x0_end"] = 50.0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 0
        s = load_scenario(path)
        assert s.plan.steps_fd == 4911
        report = run_verification(s, "all", seed=0)
        assert "green/yukawa_direct" in {r.name for r in report.records}
        assert report.passed, [r.to_dict() for r in report.records
                               if r.status != "pass"]

    @pytest.mark.parametrize("t_start", [-1e10, -1e13])
    def test_far_past_switch_on_writes_no_error(self, t_start):
        # the oracles anchor at the crossing of each point's slice, so a
        # line that started 1e10 away puts no point on it; whether the
        # records pass is the green window rule's concern
        data = json.loads((SCENARIOS / "static_scalar_source.json")
                          .read_text())
        data["particles"][0]["t_start"] = t_start
        report = run_verification(scenario_from_dict(data), "green", seed=0)
        assert {r.name for r in report.records} == {
            "green/yukawa_direct", "green/yukawa_ratio"}

    def test_moving_source_not_applicable(self):
        data = sourced_scalar_dict(extra_particle=True)
        s = scenario_from_dict(data)
        report = run_verification(s, "green", seed=0)
        assert not report.passed
        assert "static" in report.records[0].metadata["error"]


class TestCli:
    def write(self, tmp_path, data):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write(tmp_path, free_scalar_dict())
        assert main(["validate", path]) == 0
        valid, suites, green = capsys.readouterr().out.splitlines()
        assert "valid" in valid
        assert suites == ("--suite all runs: dirac-algebra, hamilton, "
                          "simulate, bracket, parseval")
        assert green == ("green skipped (green/applicability): green suite "
                         "needs at least one source worldline")

    def test_validate_bad(self, tmp_path, capsys):
        data = free_scalar_dict()
        data["time"]["steps"] = 0
        path = self.write(tmp_path, data)
        assert main(["validate", path]) == 1
        assert "steps" in capsys.readouterr().err

    def test_run_writes_reports(self, tmp_path, capsys):
        path = self.write(tmp_path, free_scalar_dict())
        out = tmp_path / "out"
        code = main(["run", path, "--suite", "hamilton",
                     "--out", str(out), "--format", "both", "--seed", "4"])
        assert code == 0
        body = json.loads((out / "report.json").read_text())
        assert body["schema_version"] == "1"
        assert (out / "records.csv").read_text().startswith("name,")
        assert "checks passed" in capsys.readouterr().out

    def test_run_deterministic_bytes(self, tmp_path):
        path = self.write(tmp_path, free_scalar_dict())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", path, "--suite", "bracket", "--out", str(out1)])
        main(["run", path, "--suite", "bracket", "--out", str(out2)])
        assert ((out1 / "report.json").read_bytes()
                == (out2 / "report.json").read_bytes())

    def test_failing_tolerance_exit_code(self, tmp_path):
        path = self.write(tmp_path, free_scalar_dict())
        code = main(["run", path, "--suite", "hamilton",
                     "--out", str(tmp_path / "o"),
                     "--tol", "roundtrip=1e-30"])
        assert code == 1

    def test_bad_tolerance_flag(self, tmp_path, capsys):
        path = self.write(tmp_path, free_scalar_dict())
        for flag, message in (("bogus=1", "unknown tolerance"),
                              ("clifford=nan", "finite"),
                              ("clifford=inf", "finite")):
            assert main(["run", path, "--out", str(tmp_path / "o"),
                         "--tol", flag]) == 2, flag
            assert message in capsys.readouterr().err, flag

    def test_long_tolerance_flag_is_cut_short(self, tmp_path, capsys):
        path = self.write(tmp_path, free_scalar_dict())
        for flag in ("x" * 3000, "roundtrip=" + "1" * 3000 + "z"):
            assert main(["run", path, "--out", str(tmp_path / "o"),
                         "--tol", flag]) == 2
            err = capsys.readouterr().err
            assert "--tol" in err and len(err) < 200, err

    def test_uncreatable_out_dir(self, tmp_path, capsys):
        path = self.write(tmp_path, free_scalar_dict())
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", path, "--suite", "dirac-algebra",
                     "--out", str(blocker / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_tolerance_names_documented(self):
        # the CLI help promise: every default is a known name
        for name in ("roundtrip", "jacobi", "green_em", "causality"):
            assert name in DEFAULT_TOLERANCES

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_shipped_scenario_passes_every_suite(self, path, monkeypatch):
        s = load_scenario(path)
        ran = _suites_run(monkeypatch)
        report = run_verification(s, "all", seed=0)
        assert report.passed, [r.to_dict() for r in report.records
                               if r.status != "pass"]
        extra = {"dirac_static_source": (), "free_scalar": ("parseval",),
                 "rank2_circular_orbit": ("parseval",),
                 "static_em_charge": ("green",),
                 "static_scalar_source": ("parseval", "green"),
                 "scalar_units_coupling": ("parseval", "green")}[path.stem]
        assert ran == list(s.plan.suites) == list(_BASE_SUITES + extra)

    def test_shipped_scenarios_validate(self, capsys):
        paths = sorted(SCENARIOS.glob("*.json"))
        assert paths
        for path in paths:
            assert main(["validate", str(path)]) == 0, path.name
        capsys.readouterr()

    @pytest.mark.parametrize("kind", ["non_utf8", "deep_nesting",
                                      "permission"])
    def test_unreadable_file_is_an_invalid_scenario(self, kind, tmp_path,
                                                    capsys, monkeypatch):
        path = tmp_path / "scenario.json"
        if kind == "non_utf8":
            path.write_bytes(b'\xff\xfe{"field": 1}')
        elif kind == "deep_nesting":
            path.write_text("[" * 100_000 + "]" * 100_000)
        else:
            path.write_text(json.dumps(free_scalar_dict()))

            def denied(self):
                raise PermissionError(13, "Permission denied", str(self))

            # a root test run reads any file: deny the read itself
            monkeypatch.setattr(Path, "read_bytes", denied)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid scenario: {path}: ")
        assert "Traceback" not in err

    # the source's switch-on, or the window and its source together,
    # moved a decade at a time away from x0 = 0
    @pytest.mark.parametrize("name", ["static_scalar_source",
                                      "static_em_charge"])
    @pytest.mark.parametrize("move, decade", [
        *(("switch_on", d) for d in range(1, 21)),
        *(("translate", d) for d in range(1, 8))])
    def test_far_window_is_rejected_or_runs_clean(self, name, move, decade,
                                                  tmp_path, capsys):
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        offset = 10.0**decade
        data["particles"][0]["t_start"] = offset
        if move == "translate":
            data["time"]["x0_start"] += offset
            data["time"]["x0_end"] += offset
        path = self.write(tmp_path, data)
        if main(["validate", path]) == 1:
            # a window moved to the switch-on is the particles' fault
            section = "particles" if move == "switch_on" else "time"
            assert re.match(f"invalid scenario: {section}: the "
                            "(hamilton|simulate) suite's",
                            capsys.readouterr().err)
            return
        out = tmp_path / "out"
        main(["run", path, "--suite", "all", "--out", str(out)])
        records = json.loads((out / "report.json").read_text())["records"]
        assert not [r["name"] for r in records
                    if r["name"].endswith("/error")]

    def test_overflowing_switch_on_is_rejected(self, tmp_path, capsys):
        # tau_on 1e308 at beta 0.9: the switch-on time overflows to inf
        data = sourced_scalar_dict()
        data["particles"][0] = {"kind": "uniform", "coupling": 1.0,
                                "position": [0.0, 0.0, 0.0],
                                "beta": [0.9, 0.0, 0.0], "tau_on": 1e308}
        assert main(["validate", self.write(tmp_path, data)]) == 1
        assert capsys.readouterr().err.startswith(
            "invalid scenario: particles: the hamilton suite's")


class TestNonFinite:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "int-overflow"])
    def test_validate_rejects_nonfinite_coupling(self, tmp_path, capsys,
                                                 value):
        data = sourced_scalar_dict()
        data["particles"][0]["coupling"] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))  # Python's json writes NaN
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "particles[0]" in err and "finite" in err

    @pytest.mark.parametrize("key, value", [
        ("position", [float("nan"), 0.0, 0.0]),
        ("beta", [0.1, float("inf"), 0.0]),
        ("xi1", [0.4, [0.0, float("nan")], 0.3, 0.05]),
    ], ids=["position", "beta", "xi1"])
    def test_validate_rejects_nonfinite_particle_entries(self, tmp_path,
                                                         capsys, key, value):
        data = dirac_dict()
        data["particles"][0].update(kind="uniform", beta=[0.1, 0.0, 0.0])
        data["particles"][0][key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "particles[0]" in err and "finite" in err
        assert "Traceback" not in err

    def test_nan_coupling_fails_sourced_checks(self):
        # a worldline built in code bypasses the scenario validation; the
        # NaN it carries must fail every check it reaches, not read as 0
        s = scenario_from_dict(sourced_scalar_dict())
        s = dataclasses.replace(s, particles=(
            static_worldline([0.0, 0.0, 0.0], coupling=float("nan")),))
        records = {}
        for suite in ("hamilton", "simulate"):
            for rec in run_verification(s, suite, seed=0).records:
                records[rec.name] = rec
        for name in ("hamilton/gauge_invariance", "hamilton/gradient_fd",
                     "hamilton/sourced_residual", "simulate/mode_equation"):
            assert records[name].status == "fail", name
            assert np.isnan(records[name].measured), name


class TestBadSpeciesConstants:
    @pytest.mark.parametrize("section, blk", [
        ("field", {"kind": "tensor", "rank": 5, "a2": 1.0, "b2": 1.0}),
        ("field", {"kind": "tensor", "rank": 1, "a2": -1.0, "b2": 1.0}),
        ("field", {"kind": "tensor", "rank": 1, "a2": 0.0, "b2": 1.0}),
        ("field", {"kind": "scalar", "s": 0.0}),
        ("field", {"kind": "em", "c": 0.0}),
        ("field", {"kind": "scalar", "m": -1.0}),
        ("field", {"kind": "dirac", "m": 0.0}),
        ("grid", {"kmax": 3.0, "n_per_axis": 100000}),
        ("grid", {"kmax": 1e7, "n_per_axis": 1}),
        ("field", {"kind": ["scalar"]}),
        ("field", {"kind": "scalar", "m": 1e200}),
        ("field", {"kind": "scalar", "s": 1e-160}),
        ("field", {"kind": "scalar", "c": 1e200}),
        ("field", {"kind": "dirac", "m": 1e200}),
        ("grid", {"kmax": 1e120, "n_per_axis": 4}),
        ("bracket", {"V": ["a", 0, 0, 0]}),
        ("bracket", {"V": [[1], 0, 0, 0]}),
        ("bracket", {"V": [10**400, 0, 0, 0]}),
        ("bracket", {"V": [True, 0, 0, 0]}),
        ("tolerances", {"bogus": 1.0}),
        ("tolerances", {"clifford": float("inf")}),
        ("tolerances", {"clifford": 10**400}),
        ("particles", [{"kind": "static", "coupling": 1.0,
                        "position": [0, 0, 0], "beta": [0.9, 0, 0],
                        "radius": 3.0, "omega": 5.0}]),
        ("particles", [{"kind": "circular", "coupling": 1.0,
                        "position": [0, 0, 0], "radius": 1.0, "omega": 0.5,
                        "beta": [0.99, 0, 0]}]),
        ("particles", [{"kind": "circular", "coupling": 1.0,
                        "position": [0, 0, 0], "radius": 1.0, "omega": 0.5,
                        "xi1": [1, 0, 0, 0]}]),
        ("particles", [{"kind": "static", "coupling": 0.0,
                        "position": [0, 0, 0]}]),
    ], ids=["rank-5", "a2-negative", "a2-zero", "scalar-s-0", "em-c-0",
            "scalar-m-neg", "dirac-m-0", "over-mode-budget",
            "one-node-lighter-than-floor", "kind-list", "b2-overflow",
            "kappa-squared-overflow", "scalar-c-kappa-squared-overflow",
            "dirac-m-kappa-squared-overflow", "cell-volume-overflow",
            "V-string", "V-nested-list",
            "V-int-overflow", "V-bool", "unknown-tolerance",
            "infinite-tolerance", "tolerance-int-overflow",
            "static-with-orbit-entries", "circular-with-beta",
            "xi-on-scalar-field", "coupling-zero"])
    def test_validate_rejects(self, tmp_path, capsys, section, blk):
        data = free_scalar_dict()
        data[section] = blk
        where = f"{section}[0]" if section == "particles" else section
        with pytest.raises(ScenarioError, match=f"^{re.escape(where)}: "):
            scenario_from_dict(data)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"invalid scenario: {where}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("a2", [0.0, -1.0])
    def test_tensor_needs_positive_a2(self, a2):
        # a2 = 0 is the bound: past tensor_field's check, kappa^2 = b2 / a2
        # fails another way, so only the message pins the bound
        data = free_scalar_dict()
        data["field"] = {"kind": "tensor", "rank": 1, "a2": a2, "b2": 1.0}
        with pytest.raises(ScenarioError,
                           match="^field: tensor species needs a2 > 0"):
            scenario_from_dict(data)

    def test_validate_rejects_the_massless_zero_mode(self, tmp_path,
                                                     capsys):
        # an odd n puts a node at k = 0, which the grid drops: a one-node
        # grid keeps nothing, and no entry can keep the zero mode
        data = json.loads((SCENARIOS / "static_em_charge.json").read_text())
        data["grid"] = {"kmax": 2, "n_per_axis": 1}
        with pytest.raises(ScenarioError, match="^grid: n_per_axis = 1 "
                           "leaves one node, the zero mode") as exc:
            scenario_from_dict(data)
        assert "floor" not in str(exc.value)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert "invalid scenario: grid: n_per_axis = 1" in (
            capsys.readouterr().err)
        # a kmax so small that every k0 underflows to 0 leaves more nodes
        data["grid"] = {"kmax": 1e-300, "n_per_axis": 4}
        with pytest.raises(ScenarioError, match="^grid: kmax = 1e-300 is so "
                           "small that.*drops every node") as exc:
            scenario_from_dict(data)
        assert "floor" not in str(exc.value)
        data["grid"] = {"kmax": 4, "n_per_axis": 5, "k0_floor": 0}
        with pytest.raises(ScenarioError,
                           match=r"^grid: unknown entries: \['k0_floor'\]"):
            scenario_from_dict(data)
        data["grid"] = {"kmax": 4, "n_per_axis": 5}
        assert len(scenario_from_dict(data).build_grid()) == 5**3 - 1
