"""Negative controls for the benchmark's checks.

Each check must pass on the program's real output and fail on a
corrupted one: a flipped coefficient sign, an off-shell k, a NaN, a
perturbed Poisson-tensor entry, changed report bytes.  Run from the
repository root:

    python3 -m pytest perfbench -q
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import covham as ch  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wk  # noqa: E402

VEC = ch.tensor_field(rank=1, a2=1.0, b2=1.0)
DIRAC = ch.spinor_field(s=1.0, m=1.2, c=1.0)
XI = ([0.4, -0.2 + 0.1j, 0.3, 0.05], [0.1, 0.2, -0.15, 0.3j])
CIRC = {"kind": "circular", "position": [0.1, -0.2, 0.05], "radius": 0.5,
        "omega": 1.2, "phase0": 0.7, "coupling": 1.0, "xi": XI}
UNIF = {"kind": "uniform", "position": [0.2, 0.1, -0.1],
        "beta": [0.1, -0.2, 0.15], "coupling": 0.7, "xi": XI}


def _lines(*srcs):
    return [wk.OrbitEvolve._worldline(s) for s in srcs]


def _names(ops, ok):
    return [op.name for op in ops if op.ok is ok]


def test_within_fails_nan_and_inf():
    assert ref.within(0.0, 0.0)
    assert not ref.within(math.nan, 1.0)
    assert not ref.within(math.inf, 1.0)
    assert math.isnan(ref.max_rel_dev([1.0, math.nan], [1.0, 1.0]))


# ------------------------------------------------------------ green-static

EM = {"field": {"kind": "em", "c": 1.0},
      "particles": [{"kind": "static", "coupling": 1.0,
                     "position": [0.0, 0.0, 0.0]}]}
SCALAR = {"field": {"kind": "scalar", "s": 1.0, "m": 1.0, "c": 1.0},
          "particles": [{"kind": "static", "coupling": 1.0,
                         "position": [0.0, 0.0, 0.0]}]}


def _profile_rows(scenario, radii, scale=1.01):
    fld = ch.scenario_from_dict({**scenario, "grid": {"kmax": 1.0,
                                                      "n_per_axis": 2},
                                 "time": {"x0_start": 0.0, "x0_end": 1.0,
                                          "steps": 2}})
    rows = []
    for r in radii:
        x = np.array([50.0, r / np.sqrt(3), r / np.sqrt(3), r / np.sqrt(3)])
        val = np.real(ch.green_oracle(fld.field, list(fld.particles), x))
        val = float(np.atleast_1d(val)[0])
        rows.append({"radius": str(r), "reconstructed": repr(scale * val),
                     "reference": repr(val)})
    return rows


@pytest.mark.parametrize("scenario", [EM, SCALAR])
def test_green_profile_checks(scenario):
    rows = _profile_rows(scenario, [1.0, 1.5, 2.0])
    ops = []
    worst = wk.green_profile_devs(scenario, rows, "s", ops)
    assert all(op.ok for op in ops) and abs(worst - 0.01) < 1e-9

    flipped = [dict(r) for r in rows]
    flipped[1]["reconstructed"] = repr(-float(flipped[1]["reconstructed"]))
    ops = []
    wk.green_profile_devs(scenario, flipped, "s", ops)
    assert _names(ops, False) == ["s/profile@1.5"]

    nan = [dict(r) for r in rows]
    nan[0]["reference"] = "nan"
    ops = []
    wk.green_profile_devs(scenario, nan, "s", ops)
    assert _names(ops, False) == ["s/oracle@1"]


def test_report_records_must_pass_and_be_finite():
    good = {"name": "a", "status": "pass", "measured": 1e-13,
            "tolerance": 1e-12}
    ops = []
    wk.check_records({"records": [
        good,
        {**good, "name": "nan", "measured": math.nan},
        {**good, "name": "over", "measured": 2e-12},
        {**good, "name": "error", "status": "fail", "measured": None,
         "tolerance": None},
    ]}, "s", ops)
    assert _names(ops, True) == ["s/a"]


def test_determinism_check():
    hashes, ops = {}, []
    wk.check_determinism(hashes, "s", "aa", 0, ops)
    wk.check_determinism(hashes, "s", "aa", 1, ops)
    assert [op.ok for op in ops] == [True]
    wk.check_determinism(hashes, "s", "ab", 2, ops)
    assert [op.ok for op in ops] == [True, False]


# ------------------------------------------------------------ orbit-evolve

@pytest.fixture(scope="module")
def orbit():
    grid = ch.build_mode_grid(3.0, 4, VEC.kappa)
    hist = ch.evolve_amplitudes(VEC, _lines(CIRC, UNIF), grid, 0.0, 2.0, 400,
                                save="last")
    return grid, hist.plus[-1], hist.minus[-1]


def test_quadrature_reference_matches_fine_evolution(orbit):
    grid, plus, minus = orbit
    r_plus, r_minus = ref.vector_coefficients(grid.k, [CIRC, UNIF], VEC.a2,
                                              0.0, 2.0, panels=20)
    assert ref.max_rel_dev(plus, r_plus) < 1e-9
    assert ref.max_rel_dev(minus, r_minus) < 1e-9
    assert ref.rms_rel_dev((plus, minus), (r_plus, r_minus)) < 1e-9
    bad = plus.copy()
    bad[3, 0] *= -1.0
    assert not ref.within(ref.rms_rel_dev((bad, minus), (r_plus, r_minus)),
                          wk.ORBIT_TOL)
    assert not ref.within(ref.rms_rel_dev((plus, minus * np.nan),
                                          (r_plus, r_minus)), wk.ORBIT_TOL)


def test_superposition_check_fails_on_a_corrupted_part(orbit):
    grid, plus, _ = orbit
    parts = [ch.evolve_amplitudes(VEC, [w], grid, 0.0, 2.0, 400,
                                  save="last").plus[-1]
             for w in _lines(CIRC, UNIF)]
    assert ref.within(ref.max_rel_dev(parts[0] + parts[1], plus), 1e-12)
    parts[1][5, 2] *= -1.0
    assert not ref.within(ref.max_rel_dev(parts[0] + parts[1], plus), 1e-12)


def test_branch_check_fails_off_shell_and_on_a_flipped_sign():
    grid = ch.build_mode_grid(3.0, 4, DIRAC.kappa)
    hist = ch.evolve_amplitudes(DIRAC, _lines(CIRC, UNIF), grid, 0.0, 1.0, 40,
                                save="last")
    plus, minus = hist.plus[-1], hist.minus[-1]
    assert ref.branch_defect(grid.k, DIRAC.kappa, plus, minus) < 1e-12
    off_shell = grid.k.copy()
    off_shell[:, 0] *= 1.05
    assert not ref.within(ref.branch_defect(off_shell, DIRAC.kappa, plus,
                                            minus), 1e-10)
    bad = plus.copy()
    bad[7, 1] *= -1.0
    assert not ref.within(ref.branch_defect(grid.k, DIRAC.kappa, bad, minus),
                          1e-10)


def test_causality_check():
    x0 = np.linspace(-0.2, 0.2, 5)
    c = np.zeros((5, 3, 4), dtype=complex)
    c[2:] = 1.0
    assert wk.causality_defect(x0, c, c, 0.0) == 0.0
    early = c.copy()
    early[1, 0, 0] = 1e-300
    assert not ref.within(wk.causality_defect(x0, early, c, 0.0), 0.0)
    assert not ref.within(wk.causality_defect(x0, 0 * c, None, 0.0), 0.0)


def test_reconstruction_reference(orbit):
    grid, plus, minus = orbit
    xs = np.array([[2.0, 0.1, 0.2, -0.3], [2.0, -1.0, 0.5, 0.0]])
    got = np.array([ch.reconstruct_field(VEC, grid, plus, minus, x)
                    for x in xs])
    want = ref.reconstruct(grid.k, grid.weight, plus, minus, xs)
    assert ref.max_rel_dev(got, want) < 1e-12
    got[1, 3] = -got[1, 3]
    assert not ref.within(ref.max_rel_dev(got, want), 1e-10)


def test_switch_on_reference_and_the_mid_panel_fault():
    grid = ch.build_mode_grid(3.0, 6, VEC.kappa)
    pos = [0.1, -0.2, 0.15]
    line = ch.static_worldline(pos, 1.0, tau_on=wk.SWITCH_ON_AT)
    on = wk.SWITCH_ON_AT
    at_start = ch.evolve_amplitudes(VEC, [line], grid, on, on + 2.0, 80,
                                    save="last")
    want = ref.static_switch_on_coefficients(grid.k, pos, 1.0, VEC.a2, on,
                                             on + 2.0)
    assert ref.max_rel_dev(at_start.plus[-1], want[0]) < 1e-7
    mid = ch.evolve_amplitudes(VEC, [line], grid, 0.0, 2.0, 80, save="last")
    want = ref.static_switch_on_coefficients(grid.k, pos, 1.0, VEC.a2, on,
                                             2.0)
    assert not ref.within(ref.max_rel_dev(mid.plus[-1], want[0]),
                          wk.ORBIT_TOL)


# ------------------------------------------------------- canonical-algebra

def _small_canonical_state(monkeypatch=None, perturb=None):
    """The canonical-algebra inputs cut to 20 scalar and 10 vector modes."""
    wl = wk.CanonicalAlgebra()
    inp = wl.inputs(3, HERE.parent)
    sizes = {"scalar": 200, "vector": 400}
    inp["n_scalar"] = inp["n_scalar"][:20]
    inp["n_vector"] = inp["n_vector"][:10]
    inp["n_jacobi"] = inp["n_jacobi"][:3]
    inp["linear"] = {k: v[:, :sizes[k]] for k, v in inp["linear"].items()}
    inp["dense_state"] = {k: v[:sizes[k]]
                          for k, v in inp["dense_state"].items()}
    inp["jacobi"] = [(c, a[:120], q[:120, :120]) for c, a, q in inp["jacobi"]]
    inp["jacobi_state"] = inp["jacobi_state"][:120]
    inp["amps_scalar"] = tuple(a[:20] for a in inp["amps_scalar"])
    inp["amps_vector"] = tuple(a[:10] for a in inp["amps_vector"])
    inp["grad_modes"] = [0, 5]
    inp["free_modes"] = list(range(10))
    inp["pairs"] = [(2, 2, 1, 1, "plus"), (2, 4, 0, 1, "minus")]
    state = wl.setup(inp)
    if perturb is not None:
        original = ch.BracketConfig.poisson_tensor

        def poisson_tensor(cfg):
            lam = original(cfg)
            if lam.shape[0] == state["layouts"]["vector"].size:
                lam[perturb] += 1e-3 * np.max(np.abs(lam))
            return lam

        monkeypatch.setattr(ch.BracketConfig, "poisson_tensor",
                            poisson_tensor)
    return wl, inp, state


def test_pair_and_antisymmetry_fail_on_a_perturbed_entry(monkeypatch):
    wl, _, state = _small_canonical_state()
    lay = state["layouts"]["vector"]
    entry = (lay.q_index(2, "plus", 1), lay.pi_index(2, "plus", 0, 1))
    wl, _, state = _small_canonical_state(monkeypatch, entry)
    result = wl.run_pass(state, 0)
    assert _names(result.ops, False) == ["vector/antisymmetry",
                                         "pair/2,2,1,1"]


@pytest.mark.parametrize("fld", [ch.scalar_field(1.0, 1.0, 1.0), VEC])
def test_structure_apply_matches_the_dense_tensor(fld):
    ns = [(1, 0, 0), (0, 1, 1), (1, 2, 0)]
    v = [1.0, 0.3, -0.2, 0.1]
    cfg = ch.BracketConfig(fld, ch.box_mode_grid(wk.BOX, ns, fld.kappa), v=v)
    x = np.random.default_rng(0).normal(size=cfg.layout.size)
    got = ref.structure_apply(ref.box_weights(ns, wk.BOX, fld.kappa), v,
                              fld.pairing_signs(), 2, x)
    assert np.allclose(got, cfg.poisson_tensor() @ x, rtol=1e-14, atol=0.0)


def _jacobi_case(monkeypatch=None):
    ns = [(1, 0, 0), (0, 1, 1), (1, 2, 0)]
    v = np.array([1.0, 0.3, -0.2, 0.1])
    cfg = ch.BracketConfig(VEC, ch.box_mode_grid(wk.BOX, ns, VEC.kappa), v=v)
    n = cfg.layout.size
    rng = np.random.default_rng(1)
    quads = []
    for _ in range(3):
        m = rng.normal(size=(n, n))
        quads.append((rng.normal(size=n), 0.5 * (m + m.T)))
    s = rng.normal(size=n)
    terms = ref.jacobi_terms(quads, s, lambda x: ref.structure_apply(
        ref.box_weights(ns, wk.BOX, VEC.kappa), v, ref.ETA, 2, x))
    if monkeypatch is not None:
        original = ch.BracketConfig.poisson_tensor

        def poisson_tensor(cfg):
            lam = original(cfg)
            lam[4, 25] += 1e-3 * np.max(np.abs(lam))
            return lam

        monkeypatch.setattr(ch.BracketConfig, "poisson_tensor",
                            poisson_tensor)
    obs = [ch.QuadraticObservable(0.0, a, q) for a, q in quads]
    defect = ch.jacobi_defect(*obs, cfg, s)
    return terms, defect / sum(abs(t) for t in terms)


def test_jacobi_relative_defect(monkeypatch):
    terms, rel = _jacobi_case()
    assert abs(sum(terms)) / sum(abs(t) for t in terms) < 1e-12
    assert rel < 1e-12
    _, rel = _jacobi_case(monkeypatch)
    assert not ref.within(rel, 1e-10)


def test_box_weights_match_the_program():
    ns = [(1, 0, 0), (2, -1, 3)]
    grid = ch.box_mode_grid(wk.BOX, ns, VEC.kappa)
    assert np.allclose(ref.box_weights(ns, wk.BOX, VEC.kappa), grid.weight,
                       rtol=1e-14, atol=0.0)


def test_canonical_workload_pass_on_a_small_state():
    wl, inp, state = _small_canonical_state()
    result = wl.run_pass(state, 0)
    assert all(op.ok for op in result.ops), [
        (op.name, op.value) for op in result.ops if not op.ok]


def _product_missing_a_term(a, b):
    return ch.GeneralObservable(lambda s: a.value(s) * b.value(s),
                                lambda s: a.value(s) * b.gradient(s))


_FROM_CANONICAL = ch.from_canonical


def _from_canonical_flipped(*args, **kwargs):
    plus, minus = _FROM_CANONICAL(*args, **kwargs)
    return -plus, minus


@pytest.mark.parametrize("target, replacement, failing", [
    ("product", _product_missing_a_term,
     ["scalar/leibniz", "vector/leibniz"]),
    ("from_canonical", _from_canonical_flipped,
     ["scalar/roundtrip", "vector/roundtrip"]),
    ("parseval_check", lambda *a, **k: math.nan, ["parseval"]),
    ("dw_conservation_check", lambda *a, **k: 1e-300,
     ["scalar/dw_conservation", "vector/dw_conservation"]),
    ("gradient_consistency", lambda *a, **k: math.nan, ["gradient_fd"]),
    ("hamilton_residual", lambda *a, **k: (0.0, math.inf),
     ["hamilton/free", "hamilton/sourced"]),
])
def test_canonical_checks_fail_on_corrupted_results(monkeypatch, target,
                                                    replacement, failing):
    wl, _, state = _small_canonical_state()
    monkeypatch.setattr(ch, target, replacement)
    result = wl.run_pass(state, 0)
    assert _names(result.ops, False) == failing


# -------------------------------------------------------------- the runner

def test_runner_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (HERE.parent / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "orbit-evolve", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
    assert "no covham sources" in out.stderr


def test_benchmark_json_names_the_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wk.WORKLOADS)
