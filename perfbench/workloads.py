"""The three benchmark workloads.

Each workload has three steps.  inputs(seed, root) draws every random
input from the seed and touches no covham code.  setup(inputs) is the
program's set-up: importing covham happens before it, and it loads and
validates scenarios and builds grids and configurations.  run_pass(state,
index) makes one full pass; it times only the program calls, then checks
their outputs against the independent computations in reference.py and
returns one Op per checked operation.

Why these three: green-static is where nearly all of `covham run --suite
all` time goes today (averaged_profile over 110,592 modes past a static
source), so exact-phase evolution for straight worldlines shows there.
orbit-evolve drives the same integrator with curved and moving sources,
which get no closed-form phase, and reconstructs at many points on one
slice (the other way round from green-static).  canonical-algebra runs
the bracket, canonical-variable and Parseval layers at the sizes where
their dense or looped implementations cost the most; the other two
workloads barely touch them.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import covham as ch
import covham.cli
import reference as ref

TWO_PI = 2.0 * np.pi


@dataclass
class Op:
    """One checked operation: ok is False when the check failed.

    known_fault marks the operation kept failing on purpose until the
    program is fixed; it counts in `failed` but not against `correct`.
    """

    name: str
    ok: bool
    value: float
    tol: float
    known_fault: bool = False


@dataclass
class PassResult:
    wall_s: float
    ops: list
    values: dict = field(default_factory=dict)


class Stopwatch:
    """Adds up the time spent inside `with` blocks."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t0
        return False


def _check(ops: list, name: str, value: float, tol: float,
           known_fault: bool = False) -> None:
    ops.append(Op(name, ref.within(value, tol), float(value), tol,
                  known_fault))


# ------------------------------------------------------------ green-static

GREEN_SCENARIOS = ("static_em_charge", "static_scalar_source")
GREEN_TOL = 0.05  # the program's green_em / green_scalar acceptance
ORACLE_TOL = 1e-12


class GreenStatic:
    """Both shipped 48^3 static-source scenarios through `covham run`."""

    name = "green-static"

    def inputs(self, seed: int, root: Path) -> dict:
        return {
            "seed": seed,  # the RNG seed `covham run --seed` records
            "scenarios": [root / "scenarios" / f"{s}.json"
                          for s in GREEN_SCENARIOS],
            "out": root / ".perfbench_out" / self.name,
        }

    def setup(self, inp: dict) -> dict:
        # the pass loads and builds them again inside `covham run`; here
        # they are the set-up a library user pays before the first call
        for path in inp["scenarios"]:
            ch.load_scenario(path).build_grid()
        return {"inp": inp, "hashes": {}}

    def run_pass(self, state: dict, index: int) -> PassResult:
        inp = state["inp"]
        sw = Stopwatch()
        ops: list = []
        devs = {}
        for path in inp["scenarios"]:
            out = inp["out"] / path.stem
            argv = ["run", str(path), "--suite", "all", "--seed",
                    str(inp["seed"]), "--out", str(out), "--format", "both"]
            with contextlib.redirect_stdout(io.StringIO()), sw:
                code = covham.cli.main(argv)
            _check(ops, f"{path.stem}/exit", float(code), 0.0)
            check_records(json.loads((out / "report.json").read_text()),
                          path.stem, ops)
            with open(out / "green_profile.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            devs[path.stem] = green_profile_devs(
                json.loads(path.read_text()), rows, path.stem, ops)
            check_determinism(state["hashes"], path.stem,
                              ref.sha256_file(out / "report.json"), index, ops)
        coulomb = devs["static_em_charge"]
        yukawa = devs["static_scalar_source"]
        return PassResult(sw.total, ops, {
            "accuracy_dev": max(coulomb, yukawa),
            "coulomb_max_rel_dev": coulomb,
            "yukawa_max_rel_dev": yukawa,
        })


def check_records(report: dict, label: str, ops: list) -> None:
    """Every report record must pass with a finite measurement <= tolerance."""
    for rec in report["records"]:
        value = math.nan if rec["measured"] is None else rec["measured"]
        tol = math.nan if rec["tolerance"] is None else rec["tolerance"]
        ops.append(Op(f"{label}/{rec['name']}",
                      rec["status"] == "pass" and ref.within(value, tol),
                      value, tol))


def check_determinism(hashes: dict, label: str, digest: str, index: int,
                      ops: list) -> None:
    """From the second pass on, report.json must hash as in the first."""
    first = hashes.setdefault(label, digest)
    if index > 0:
        _check(ops, f"{label}/deterministic",
               0.0 if digest == first else 1.0, 0.0)


def green_profile_devs(scenario: dict, rows: list, label: str,
                       ops: list) -> float:
    """Check the averaged profile against e/r or Yukawa; return the worst.

    scenario is the raw JSON document; rows are green_profile.csv rows
    (radius, reconstructed, reference).  Each radius gives two checks:
    the program's closed-form oracle against this module's own formula,
    and the averaged reconstruction against the same formula at 5%.
    """
    src = scenario["field"]
    coupling = scenario["particles"][0]["coupling"]
    radii = np.array([float(r["radius"]) for r in rows])
    got = np.array([float(r["reconstructed"]) for r in rows])
    oracle = np.array([float(r["reference"]) for r in rows])
    if src["kind"] == "em":
        want = ref.coulomb(coupling, radii)
    else:
        s, m, c = (src.get(key, 1.0) for key in ("s", "m", "c"))
        want = ref.yukawa(coupling, s * s / c, m * c / s, radii)
    devs = ref.profile_devs(got, want)
    for r, dev, o_dev in zip(radii, devs, ref.profile_devs(oracle, want)):
        _check(ops, f"{label}/oracle@{r:g}", o_dev, ORACLE_TOL)
        _check(ops, f"{label}/profile@{r:g}", dev, GREEN_TOL)
    return float(np.max(devs)) if devs.size else math.nan


# ------------------------------------------------------------ orbit-evolve

ORBIT_KMAX = 4.0
ORBIT_N = 16  # 4,096 modes per field
ORBIT_T = 4.0
ORBIT_K0H = 0.2  # k0_max * h of the long evolutions
FD_K0H = 0.03  # finer steps for the mode-equation stencil, as in simulate
LATTICE = 8  # 8^3 reconstruction points
ORBIT_TOL = 1e-5
SWITCH_ON_AT = 0.537  # inside a Simpson panel for every step count used
SWITCH_ON_STEPS = (40, 80, 160, 320)
# the switch-on probe does not depend on the seed, so its known failure
# is the same share of every run
PROBE_POSITION = (0.1, -0.2, 0.15)


def _spinor(rng) -> np.ndarray:
    return (rng.normal(size=4) + 1j * rng.normal(size=4)) * 0.3


class OrbitEvolve:
    """Rank-1 tensor and Dirac fields, a circular and a uniform source."""

    name = "orbit-evolve"

    def inputs(self, seed: int, root: Path) -> dict:
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        circ = {"kind": "circular", "position": [0.1, -0.2, 0.05],
                "radius": 0.5, "omega": 1.2,
                "phase0": float(rng.uniform(0.0, TWO_PI)), "coupling": 1.0,
                "xi": (_spinor(rng), _spinor(rng))}
        unif = {"kind": "uniform",
                "position": rng.uniform(-0.3, 0.3, size=3).tolist(),
                "beta": (0.3 * direction).tolist(), "coupling": 0.7,
                "xi": (_spinor(rng), _spinor(rng))}
        return {
            "sources": [circ, unif],
            "lattice_offset": rng.uniform(-0.1, 0.1, size=3),
        }

    def setup(self, inp: dict) -> dict:
        vec = ch.tensor_field(rank=1, a2=1.0, b2=1.0)
        dirac = ch.spinor_field(s=1.0, m=1.2, c=1.0)
        lines = [self._worldline(src) for src in inp["sources"]]
        probe = ch.build_mode_grid(3.0, 6, vec.kappa)
        return {
            "inp": inp, "vec": vec, "dirac": dirac, "lines": lines,
            "grid_vec": ch.build_mode_grid(ORBIT_KMAX, ORBIT_N, vec.kappa),
            "grid_dirac": ch.build_mode_grid(ORBIT_KMAX, ORBIT_N, dirac.kappa),
            "probe": probe,
            "probe_line": ch.static_worldline(PROBE_POSITION, 1.0,
                                              tau_on=SWITCH_ON_AT),
        }

    @staticmethod
    def _worldline(src: dict):
        xi = ch.DiracCoupling(xi1=src["xi"][0], xi2=src["xi"][1])
        if src["kind"] == "circular":
            return ch.circular_worldline(src["position"], src["radius"],
                                         src["omega"], src["coupling"],
                                         phase0=src["phase0"], xi=xi)
        return ch.uniform_worldline(src["position"], src["beta"],
                                    src["coupling"], xi=xi)

    def run_pass(self, state: dict, index: int) -> PassResult:
        inp = state["inp"]
        vec, dirac = state["vec"], state["dirac"]
        gv, gd = state["grid_vec"], state["grid_dirac"]
        lines = state["lines"]
        sw = Stopwatch()
        ops: list = []

        steps = int(math.ceil(ORBIT_T * float(np.max(gv.k0)) / ORBIT_K0H))
        steps_d = int(math.ceil(ORBIT_T * float(np.max(gd.k0)) / ORBIT_K0H))
        with sw:
            joint = ch.evolve_amplitudes(vec, lines, gv, 0.0, ORBIT_T, steps,
                                         save="last")
            singles = [ch.evolve_amplitudes(vec, [w], gv, 0.0, ORBIT_T, steps,
                                            save="last") for w in lines]
            spin = ch.evolve_amplitudes(dirac, lines, gd, 0.0, ORBIT_T,
                                        steps_d, save="last")
        c_plus, c_minus = joint.plus[-1], joint.minus[-1]

        r_plus, r_minus = ref.vector_coefficients(
            gv.k, inp["sources"], vec.a2, 0.0, ORBIT_T,
            panels=int(math.ceil(ORBIT_T / 0.1)))
        orbit_dev = ref.rms_rel_dev((c_plus, c_minus), (r_plus, r_minus))
        _check(ops, "vector/quadrature", orbit_dev, ORBIT_TOL)
        _check(ops, "vector/superposition", max(
            ref.max_rel_dev(singles[0].plus[-1] + singles[1].plus[-1], c_plus),
            ref.max_rel_dev(singles[0].minus[-1] + singles[1].minus[-1],
                            c_minus)), 1e-12)
        _check(ops, "dirac/branch", ref.branch_defect(
            gd.k, dirac.kappa, spin.plus[-1], spin.minus[-1]), 1e-10)

        # a window straddling the switch-on at x0 = 0: exact zeros before
        for label, fld, grid in (("vector", vec, gv), ("dirac", dirac, gd)):
            with sw:
                hist = ch.evolve_amplitudes(fld, lines, grid, -0.25, 0.25, 10,
                                            save="all")
            _check(ops, f"{label}/causality",
                   causality_defect(hist.x0, hist.plus, hist.minus, 0.0), 0.0)

        n_fd = int(math.ceil(0.3 * float(np.max(gv.k0)) / FD_K0H))
        with sw:
            hist = ch.evolve_amplitudes(vec, lines, gv, 1.0, 1.3, n_fd,
                                        save="all")
            resid = ch.mode_equation_residual(vec, lines, gv, hist)
        _check(ops, "vector/mode_equation", resid, 1e-6)
        del hist

        axis = np.linspace(-1.5, 1.5, LATTICE)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                       axis=-1).reshape(-1, 3) + inp["lattice_offset"]
        xs = np.column_stack([np.full(len(pts), ORBIT_T), pts])
        with sw:
            field_vals = np.array([ch.reconstruct_field(vec, gv, c_plus,
                                                        c_minus, x)
                                   for x in xs])
        _check(ops, "vector/reconstruction", ref.max_rel_dev(
            field_vals, ref.reconstruct(gv.k, gv.weight, c_plus, c_minus,
                                        xs)), 1e-10)

        # the same static source switched on inside a panel, and at the
        # start of the window; only the second is fourth order today
        probe, line = state["probe"], state["probe_line"]
        for label, start, fault in (("mid_panel", 0.0, True),
                                    ("at_start", SWITCH_ON_AT, False)):
            end = start + 2.0
            want_p, want_m = ref.static_switch_on_coefficients(
                probe.k, PROBE_POSITION, 1.0, vec.a2, SWITCH_ON_AT, end)
            worst = 0.0
            for n in SWITCH_ON_STEPS:
                with sw:
                    h = ch.evolve_amplitudes(vec, [line], probe, start, end, n,
                                             save="last")
                worst = max(worst, ref.max_rel_dev(h.plus[-1], want_p),
                            ref.max_rel_dev(h.minus[-1], want_m))
            _check(ops, f"switch_on/{label}", worst, ORBIT_TOL,
                   known_fault=fault)

        return PassResult(sw.total, ops, {"accuracy_dev": orbit_dev,
                                          "orbit_rms_rel_dev": orbit_dev})


def causality_defect(x0, plus, minus, t_on: float) -> float:
    """max |C| on samples before t_on; 1.0 if no sample after is nonzero.

    The second clause keeps the check from passing on an evolution that
    never switched on.
    """
    x0 = np.asarray(x0)
    before = x0 < t_on
    arrays = [plus] if minus is None else [plus, minus]
    pre = max(float(np.max(np.abs(a[before]))) for a in arrays)
    post = max(float(np.max(np.abs(a[~before]))) for a in arrays)
    return pre if post > 0.0 else 1.0


# ------------------------------------------------------- canonical-algebra

BOX = TWO_PI  # box length: k = n for integer triples n
DENSE_VARS = 4000  # near MAX_STATE_SIZE = 4096 in both bracket sectors
JACOBI_MODES = 40  # rank-1 sector of 1,600 variables
PAIRS = 8
PARSEVAL_MODES = 8
GRAD_MODES = 24
FREE_MODES = 64
# first nonzero entry positive, so no two candidates are spatial opposites
PARSEVAL_CANDIDATES = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1),
    (1, -1, 0), (0, 1, -1), (1, 0, -1), (1, 1, 1), (0, 2, 1), (1, 2, 0),
    (2, 0, 1), (1, -1, 2), (2, 1, -1), (0, 1, 2),
]
HAMILTON_BOX = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
                (1, 0, 1)]


def _linear(vec):
    return ch.GeneralObservable(lambda s: float(vec @ s), lambda s: vec)


def _amps(rng, comp, count):
    shape = (count,) + comp
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape),
            rng.normal(size=shape) + 1j * rng.normal(size=shape))


class CanonicalAlgebra:
    """Bracket laws, canonical pairs, Parseval and canonical variables."""

    name = "canonical-algebra"

    def inputs(self, seed: int, root: Path) -> dict:
        rng = np.random.default_rng(seed)
        cube = np.array([(a, b, c) for a in range(-5, 6)
                         for b in range(-5, 6) for c in range(-5, 6)
                         if (a, b, c) != (0, 0, 0)])
        n_scalar = cube[rng.choice(len(cube), DENSE_VARS // 10,
                                   replace=False)]
        n_vector = cube[rng.choice(len(cube), DENSE_VARS // 40,
                                   replace=False)]
        n_jacobi = cube[rng.choice(len(cube), JACOBI_MODES, replace=False)]
        jn = JACOBI_MODES * 40

        def quad():
            m = rng.normal(size=(jn, jn))
            return (float(rng.normal()), rng.normal(size=jn), 0.5 * (m + m.T))

        rest = [PARSEVAL_CANDIDATES[i] for i in rng.choice(
            len(PARSEVAL_CANDIDATES), PARSEVAL_MODES - 1, replace=False)]
        pairs = []
        for p in range(PAIRS):
            i, j = rng.choice(len(n_vector), 2, replace=False)
            mu, nu = rng.integers(0, 4, size=2)
            if p % 2 == 0:  # half of them on the diagonal, nonzero
                j, nu = i, mu
            pairs.append((int(i), int(j), int(mu), int(nu),
                          ("plus", "minus")[p % 4 // 2]))
        return {
            "n_scalar": n_scalar, "n_vector": n_vector, "n_jacobi": n_jacobi,
            "v": np.concatenate([[1.0], rng.uniform(-0.4, 0.4, size=3)]),
            "linear": {s: rng.normal(size=(3, DENSE_VARS))
                       for s in ("scalar", "vector")},
            "dense_state": {s: rng.normal(size=DENSE_VARS)
                            for s in ("scalar", "vector")},
            "jacobi": [quad() for _ in range(3)],
            "jacobi_state": rng.normal(size=jn),
            "pairs": pairs,
            "parseval": [(2, 0, 0)] + rest,  # max |n| = 2 fixes the lattice
            "parseval_amps": _amps(rng, (4,), PARSEVAL_MODES),
            "amps_scalar": _amps(rng, (), len(n_scalar)),
            "amps_vector": _amps(rng, (4,), len(n_vector)),
            "grad_modes": rng.choice(len(n_vector), GRAD_MODES,
                                     replace=False),
            "free_modes": rng.choice(len(n_vector), FREE_MODES,
                                     replace=False),
            "point": np.concatenate([[0.35], rng.uniform(-0.5, 0.5, 3)]),
        }

    def setup(self, inp: dict) -> dict:
        scalar = ch.scalar_field(s=1.0, m=1.0, c=1.0)
        vec = ch.tensor_field(rank=1, a2=1.0, b2=1.0)
        cfg = {
            "scalar": ch.BracketConfig(scalar, ch.box_mode_grid(
                BOX, inp["n_scalar"], scalar.kappa), v=inp["v"]),
            "vector": ch.BracketConfig(vec, ch.box_mode_grid(
                BOX, inp["n_vector"], vec.kappa), v=inp["v"]),
        }
        jcfg = ch.BracketConfig(vec, ch.box_mode_grid(
            BOX, inp["n_jacobi"], vec.kappa), v=inp["v"])
        jacobi = [ch.QuadraticObservable(c, a, q) for c, a, q in inp["jacobi"]]
        lines = [ch.circular_worldline([0.1, 0.0, 0.0], 0.4, 1.0, 0.8),
                 ch.static_worldline([0.0, 0.2, -0.1], 1.1)]
        return {"inp": inp, "scalar": scalar, "vec": vec, "cfg": cfg,
                "jcfg": jcfg, "jacobi": jacobi, "lines": lines,
                "layouts": {s: c.layout for s, c in cfg.items()},
                "ham_grid": ch.box_mode_grid(BOX, HAMILTON_BOX, vec.kappa)}

    def run_pass(self, state: dict, index: int) -> PassResult:
        inp = state["inp"]
        sw = Stopwatch()
        ops: list = []

        for sector, cfg in state["cfg"].items():
            s = inp["dense_state"][sector]
            a, b, c = (_linear(v) for v in inp["linear"][sector])
            with sw:
                ab = ch.poisson_bracket(ch.product(a, b), c, cfg, s)
                ba = ch.poisson_bracket(c, ch.product(a, b), cfg, s)
                lhs = ch.poisson_bracket(ch.product(a, c), b, cfg, s)
                t1 = a.value(s) * ch.poisson_bracket(c, b, cfg, s)
                t2 = c.value(s) * ch.poisson_bracket(a, b, cfg, s)
                dw = ch.dw_conservation_check(cfg, s)
            _check(ops, f"{sector}/antisymmetry",
                   abs(ab + ba) / (abs(ab) + abs(ba)), 1e-12)
            _check(ops, f"{sector}/leibniz",
                   abs(lhs - t1 - t2) / (abs(t1) + abs(t2)), 1e-10)
            _check(ops, f"{sector}/dw_conservation", dw, 0.0)

        cfg = state["cfg"]["vector"]
        lay = state["layouts"]["vector"]
        zero = np.zeros(lay.size)
        weights = ref.box_weights(inp["n_vector"], BOX, state["vec"].kappa)
        vv = abs(float(np.sum(ref.ETA * inp["v"] ** 2)))
        for i, j, mu, nu, branch in inp["pairs"]:
            q = ch.coordinate_observable(lay, "q", i, branch, comp=mu)
            p = ch.momentum_vector_observable(lay, cfg.v, j, branch, comp=nu)
            with sw:
                got = ch.poisson_bracket(q, p, cfg, zero)
            want = ref.pair_value(inp["v"], mu, nu, i, j, weights)
            _check(ops, f"pair/{i},{j},{mu},{nu}",
                   abs(got - want) / (vv / weights[i]), 1e-12)

        jcfg, js = state["jcfg"], inp["jacobi_state"]
        with sw:
            defect = ch.jacobi_defect(*state["jacobi"], jcfg, js)
        terms = ref.jacobi_terms(
            [(a, q) for _, a, q in inp["jacobi"]], js,
            lambda x: ref.structure_apply(
                ref.box_weights(inp["n_jacobi"], BOX, state["vec"].kappa),
                inp["v"], ref.ETA, 2, x))
        _check(ops, "jacobi/relative",
               defect / sum(abs(t) for t in terms), 1e-10)

        vec = state["vec"]
        cp, cm = inp["parseval_amps"]
        entries = [(n, cp[i], cm[i]) for i, n in enumerate(inp["parseval"])]
        with sw:
            pv = ch.parseval_check(vec, BOX, entries, x0_span=(0.0, 0.7),
                                   n_t=4)
        _check(ops, "parseval", pv, 1e-6)

        for sector, fld in (("scalar", state["scalar"]), ("vector", vec)):
            grid = state["cfg"][sector].grid
            ap, am = inp[f"amps_{sector}"]
            with sw:
                back = [ch.from_canonical(fld, grid.k[i], ch.to_canonical(
                    fld, grid.k[i], ap[i], am[i])) for i in range(len(grid))]
            _check(ops, f"{sector}/roundtrip", max(
                ref.max_rel_dev(np.array([bp for bp, _ in back]), ap),
                ref.max_rel_dev(np.array([bm for _, bm in back]), am)), 1e-12)

        grid = state["cfg"]["vector"].grid
        ap, am = inp["amps_vector"]
        x = inp["point"]
        with sw:
            grad = max(ch.gradient_consistency(
                vec, grid.k[i], ch.to_canonical(vec, grid.k[i], ap[i], am[i]),
                x, state["lines"]) for i in inp["grad_modes"])
            free = max(max(ch.hamilton_residual(
                vec, grid.k[i], ch.constant_amplitudes(ap[i], am[i]), x,
                h=2.5e-3 / (1.0 + grid.k[i, 0]))) for i in inp["free_modes"])
        _check(ops, "gradient_fd", grad, 1e-6)
        # roundoff and truncation reach 5e-11 on these modes (|k| up to 8.7)
        _check(ops, "hamilton/free", free, 1e-9)

        # sourced Hamilton equations along an evolved history; fixed modes,
        # sources and probe point, so the residual does not depend on seed
        hg = state["ham_grid"]
        n_steps = max(64, int(math.ceil(float(np.max(hg.k0)) / 0.06)))
        with sw:
            hist = ch.evolve_amplitudes(vec, state["lines"], hg, 0.0, 1.0,
                                        n_steps, save="all")
            mid = np.array([hist.x0[len(hist.x0) // 2], 0.3, -0.1, 0.2])
            sourced = max(max(ch.hamilton_residual(
                vec, hg.k[i], ch.history_amplitudes(hist, mode_index=i), mid,
                state["lines"], h=hist.spacing())) for i in range(len(hg)))
        _check(ops, "hamilton/sourced", sourced, 1e-6)

        return PassResult(sw.total, ops, {"accuracy_dev": sourced,
                                          "hamilton_max_residual": sourced})


WORKLOADS = {w.name: w for w in (GreenStatic(), OrbitEvolve(),
                                 CanonicalAlgebra())}
