"""Scenario loading, verification suites, and the CLI.

Suites here run on deliberately small grids; the full-resolution
protocols live in the acceptance suite.
"""
import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covham import canonical, dirac, position, verify
from covham.brackets import (
    BracketConfig,
    GeneralObservable,
    QuadraticObservable,
)
from covham.cli import main
from covham.dynamics import source_rate
from covham.errors import ScenarioError
from covham.scenario import Scenario, load_scenario, scenario_from_dict
from covham.minkowski import minkowski_dot
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
        assert s.k0_floor == pytest.approx(1e-6 * 3.0)
        assert s.output_format == "json"
        assert s.particles == ()

    def test_build_grid_uses_field_mass(self):
        s = scenario_from_dict(free_scalar_dict())
        grid = s.build_grid()
        assert grid.kappa == pytest.approx(s.field.kappa)
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
        with pytest.raises(ScenarioError, match="b2 must be 0"):
            scenario_from_dict(data)

    def test_em_explicit_zero_mass_ok(self):
        data = free_scalar_dict()
        data["field"] = {"kind": "em", "c": 1.0, "b2": 0.0}
        assert scenario_from_dict(data).field.kind == "em"

    def test_scalar_constant_contradiction(self):
        data = free_scalar_dict()
        data["field"]["a2"] = 2.0  # scalar relation fixes a2 = s^2/c = 1
        with pytest.raises(ScenarioError, match="contradicts"):
            scenario_from_dict(data)

    def test_dirac_without_coupling_spinors(self):
        data = dirac_dict()
        del data["particles"][0]["xi1"]
        del data["particles"][0]["xi2"]
        with pytest.raises(ScenarioError, match="coupling spinors"):
            scenario_from_dict(data)

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
        # over the step budget, directly or through the refined window
        for steps, x0_end, kmax in ((10**12, 2.0, 4.0), (20_001, 2.0, 4.0),
                                    (64, 1e4, 4.0), (64, 15.2, 1e3),
                                    (64, 2.0, 1e308)):
            data = free_scalar_dict()
            data["time"].update(steps=steps, x0_end=x0_end)
            data["grid"]["kmax"] = kmax
            with pytest.raises(ScenarioError, match="^time: .*steps"):
                scenario_from_dict(data)
        data = free_scalar_dict()
        data["time"]["x0_end"] = -1.0
        with pytest.raises(ScenarioError, match="x0_end"):
            scenario_from_dict(data)

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


class TestVerificationSuites:
    def test_hamilton_free_scalar_passes(self):
        s = scenario_from_dict(free_scalar_dict())
        report = run_verification(s, "hamilton", seed=3)
        names = {r.name for r in report.records}
        assert names == {"hamilton/roundtrip", "hamilton/gauge_invariance",
                         "hamilton/gradient_fd", "hamilton/free_residual"}
        assert report.passed, [r.to_dict() for r in report.records
                               if r.status != "pass"]

    @pytest.mark.parametrize("fault, data, failing", [
        ("drifting_free_amplitudes", free_scalar_dict,
         {"hamilton/free_residual"}),
        ("sign_flipped_from_canonical", free_scalar_dict,
         {"hamilton/roundtrip"}),
        ("order_two_final_slice", sourced_scalar_dict,
         {"hamilton/integrator_order"}),
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
        assert "hamilton_convergence" in report.tables
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
        original = canonical.mode_hamiltonian_gradients

        def scaled(*args, **kwargs):
            grads = original(*args, **kwargs)
            out = dataclasses.replace(grads, rows=grads.rows.copy())
            out.q[...] *= 1.0 + 1e-3  # q is the row-0 view of rows
            return out

        monkeypatch.setattr(canonical, "mode_hamiltonian_gradients", scaled)
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
            plus, minus = 0.0, 0.0
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

    @pytest.mark.parametrize("fault, data, failing", [
        ("source_always_active", _sources_after_window_dict,
         {"simulate/causality", "simulate/exact_vs_simpson"}),
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

    def test_uncovered_species_not_applicable(self):
        s = scenario_from_dict(dirac_dict())
        record = run_verification(s, "green", seed=0).records[0]
        assert (record.name, record.metadata["error"]) == (
            "green/applicability", "green oracle comparisons cover the em "
            "and scalar species, not spinor")
        names = {r.name.split("/")[0]
                 for r in run_verification(s, "all", seed=0).records}
        assert names.isdisjoint({"green", "parseval"})

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
        assert "valid" in capsys.readouterr().out

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

    def test_shipped_scenarios_validate(self, capsys):
        for name in ("free_scalar", "static_em_charge",
                     "static_scalar_source", "dirac_static_source"):
            assert main(["validate", f"scenarios/{name}.json"]) == 0
        capsys.readouterr()


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
        ("field", {"kind": "scalar", "s": 0.0}),
        ("field", {"kind": "em", "c": 0.0}),
        ("field", {"kind": "scalar", "m": -1.0}),
        ("field", {"kind": "dirac", "m": 0.0}),
        ("grid", {"kmax": 3.0, "n_per_axis": 100000}),
        ("field", {"kind": ["scalar"]}),
        ("field", {"kind": "scalar", "m": 1e200}),
        ("field", {"kind": "scalar", "s": 1e-160}),
        ("bracket", {"V": ["a", 0, 0, 0]}),
        ("bracket", {"V": [[1], 0, 0, 0]}),
        ("bracket", {"V": [10**400, 0, 0, 0]}),
        ("bracket", {"V": [True, 0, 0, 0]}),
        ("tolerances", {"bogus": 1.0}),
        ("tolerances", {"clifford": float("inf")}),
        ("tolerances", {"clifford": 10**400}),
    ], ids=["rank-5", "a2-negative", "scalar-s-0", "em-c-0", "scalar-m-neg",
            "dirac-m-0", "over-mode-budget", "kind-list", "b2-overflow",
            "kappa-squared-overflow", "V-string", "V-nested-list",
            "V-int-overflow", "V-bool", "unknown-tolerance",
            "infinite-tolerance", "tolerance-int-overflow"])
    def test_validate_rejects(self, tmp_path, capsys, section, blk):
        data = free_scalar_dict()
        data[section] = blk
        with pytest.raises(ScenarioError, match=f"^{section}: "):
            scenario_from_dict(data)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"invalid scenario: {section}: " in err
        assert "Traceback" not in err
