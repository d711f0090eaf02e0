"""Canonical split, mode Hamiltonian, gradients, Hamilton equations.

The sourced Hamilton-equation tests use closed-form coefficient
histories: for a static source the rate is rate(0) exp(pm i k0 t), so
the exact coefficients follow from one rate evaluation and the phase
integral.  That keeps the check independent of the integrator.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covham import canonical
from covham.canonical import (
    DEFAULT_GAUGE,
    CanonicalGauge,
    CanonicalMode,
    canonical_at_point,
    constant_amplitudes,
    from_canonical,
    gradient_consistency,
    hamilton_residual,
    history_amplitudes,
    mode_hamiltonian,
    mode_hamiltonian_canonical,
    mode_hamiltonian_gradients,
    to_canonical,
)
from covham.dirac import DiracCoupling
from covham.dynamics import evolve_amplitudes, source_rate
from covham.errors import CanonicalStructureError
from covham.fields import (em_field, family_pair, scalar_field, spinor_field,
                           tensor_field)
from covham.minkowski import METRIC_DIAG, five_point, on_shell_k
from covham.modes import build_mode_grid
from covham.verify import _random_amps as random_amps
from covham.worldlines import (
    circular_worldline,
    static_worldline,
    uniform_worldline,
)

SCALAR = scalar_field()
VECTOR = tensor_field(rank=1, a2=0.7, b2=0.7 * 1.3**2)
EM = em_field()
SPINOR = spinor_field(s=1.0, m=1.2, c=1.0)
RANK2 = tensor_field(rank=2, a2=1.0, b2=0.81)
ALL_SPECIES = [SCALAR, VECTOR, EM, SPINOR]

XI = DiracCoupling(xi1=np.array([0.4, -0.2 + 0.1j, 0.3, 0.05]),
                   xi2=np.array([0.1, 0.2, -0.15, 0.3j]))


def species_k(field):
    return on_shell_k([0.5, -0.3, 0.8], field.kappa)


def make_sources(field):
    xi = XI if field.kind == "spinor" else None
    return [
        static_worldline([0.2, -0.1, 0.3], coupling=0.8, xi=xi),
        uniform_worldline([-0.3, 0.2, 0.0], [0.2, -0.1, 0.3],
                          coupling=-1.1, xi=xi),
    ]


def static_closed_form(field, w, k):
    """Exact coefficients for a single static source with t_start = 0."""
    k0 = k[0]
    r0 = source_rate(field, [w], k, 0.0)

    def amp_at(x0):
        int_plus = (np.exp(+1j * k0 * x0) - 1.0) / (+1j * k0)
        int_minus = (np.exp(-1j * k0 * x0) - 1.0) / (-1j * k0)
        c_plus = r0[0] * int_plus
        c_minus = None if r0[1] is None else r0[1] * int_minus
        return c_plus, c_minus

    return amp_at


class TestCanonicalSplit:
    def test_frozen_scalar_split(self):
        # a2 = kappa = 1, k = (1, 0, 0, 0), default gauge z = 1/sqrt(2):
        # eps = 1, so T~+ = 1 gives pi_+ = (sqrt(2), 0, 0, 0), q_+ = 0
        # and T~- = i gives pi_- = 0, q_- = sqrt(2); branch 0 is plus
        k = on_shell_k([0.0, 0.0, 0.0], 1.0)
        mode = to_canonical(SCALAR, k, 1.0 + 0.0j, 1.0j)
        assert mode.rows.shape == (2, 5)
        assert mode.pi[0, 0] == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert np.all(mode.pi[0, 1:] == 0.0)
        assert mode.q[0] == pytest.approx(0.0, abs=1e-15)
        assert np.max(np.abs(mode.pi[1])) == pytest.approx(0.0, abs=1e-15)
        assert mode.q[1] == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_epsilon_values(self):
        assert SCALAR.epsilon(2.0, CanonicalGauge(z=2.0 + 0.0j).z) \
            == pytest.approx(0.25, rel=1e-14)
        assert spinor_field().epsilon(2.0, DEFAULT_GAUGE.z) \
            == pytest.approx(0.5, rel=1e-14)
        # em scale carries no gauge dependence
        e1 = EM.epsilon(2.0, DEFAULT_GAUGE.z)
        e2 = EM.epsilon(2.0, CanonicalGauge(z=3.0 + 4.0j).z)
        assert e1 == e2 == pytest.approx(1.0 / np.sqrt(16.0 * np.pi),
                                         rel=1e-14)

    def test_roundtrip_all_species(self):
        rng = np.random.default_rng(11)
        gauges = [DEFAULT_GAUGE, CanonicalGauge(z=0.8 - 1.3j)]
        for field in ALL_SPECIES:
            k = species_k(field)
            for gauge in gauges:
                a_plus, a_minus = random_amps(field, rng)
                mode = to_canonical(field, k, a_plus, a_minus, gauge)
                b_plus, b_minus = from_canonical(field, k, mode, gauge)
                assert np.allclose(b_plus, a_plus, rtol=1e-12, atol=1e-14)
                if a_minus is None:
                    assert b_minus is None
                else:
                    assert np.allclose(b_minus, a_minus, rtol=1e-12,
                                       atol=1e-14)

    @given(
        re_p=st.floats(-5, 5), im_p=st.floats(-5, 5),
        re_m=st.floats(-5, 5), im_m=st.floats(-5, 5),
        re_z=st.floats(-2, 2), im_z=st.floats(-2, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_scalar_property(self, re_p, im_p, re_m, im_m,
                                       re_z, im_z):
        z = complex(re_z, im_z)
        if abs(z) < 0.1:
            z = z + 0.5
        gauge = CanonicalGauge(z=z)
        k = on_shell_k([0.4, 0.2, -0.7], 1.0)
        a_plus = complex(re_p, im_p)
        a_minus = complex(re_m, im_m)
        mode = to_canonical(SCALAR, k, a_plus, a_minus, gauge)
        b_plus, b_minus = from_canonical(SCALAR, k, mode, gauge)
        assert b_plus == pytest.approx(a_plus, rel=1e-11, abs=1e-12)
        assert b_minus == pytest.approx(a_minus, rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("gauge", [DEFAULT_GAUGE,
                                       CanonicalGauge(0.8 - 1.3j)],
                             ids=["default", "z"])
    @pytest.mark.parametrize("field", [SCALAR, VECTOR, RANK2, EM, SPINOR],
                             ids=["scalar", "rank1", "rank2", "em", "spinor"])
    def test_split_follows_the_module_formulas(self, field, gauge):
        # w_b = g_b T~_b, q_b = -+2 eps Im w_b (em: +), pi_mu = 2 eps k_mu
        # Re w_b, with g_b and eps per species written out
        rng = np.random.default_rng(41)
        z = gauge.z
        for lead in ((), (3,)):
            k = on_shell_k(rng.uniform(-1.5, 1.5, size=lead + (3,)),
                           field.kappa)
            shape = lead + field.component_shape
            amps = [rng.normal(size=shape) + 1j * rng.normal(size=shape)
                    for _ in field.branches]
            mode = to_canonical(field, k, *family_pair(amps), gauge)
            for i in np.ndindex(lead):
                k0 = k[i][0]
                if field.kind == "em":
                    g, signs = [np.conj(z) / abs(z)], [1.0]
                    eps = np.sqrt(-field.a2 / k0)
                elif field.kind == "spinor":
                    g, signs = [z, np.conj(z)], [-1.0, 1.0]
                    eps = np.sqrt(field.a2 / (4.0 * k0 * field.kappa
                                              * abs(z) ** 2))
                else:
                    g, signs = [z, np.conj(z)], [-1.0, 1.0]
                    eps = np.sqrt(field.a2 / (2.0 * k0 * abs(z) ** 2))
                k_low = METRIC_DIAG * k[i]
                for b, (g_b, s_b, amp) in enumerate(zip(g, signs, amps)):
                    w = g_b * amp[i]
                    rows = mode.rows[i][b]
                    np.testing.assert_allclose(
                        rows[0], s_b * 2.0 * eps * w.imag, rtol=1e-14, atol=0)
                    np.testing.assert_allclose(
                        rows[1:], 2.0 * eps * np.multiply.outer(k_low, w.real),
                        rtol=1e-14, atol=0)
            back = from_canonical(field, k, mode, gauge)
            for got, amp in zip(back, amps):
                np.testing.assert_allclose(got, amp, rtol=1e-13, atol=1e-14)

    def test_em_single_family_enforced(self):
        k = species_k(EM)
        amp = np.ones(4, dtype=complex)
        with pytest.raises(ValueError, match="single amplitude family"):
            to_canonical(EM, k, amp, amp)

    def test_collinearity_rejection(self):
        rng = np.random.default_rng(4)
        k = species_k(SCALAR)
        mode = to_canonical(SCALAR, k, *random_amps(SCALAR, rng))
        rows = mode.rows.copy()
        rows[0, 2] += 0.3  # pi_1 of the plus branch
        broken = CanonicalMode(field=SCALAR, rows=rows)
        with pytest.raises(CanonicalStructureError, match="collinear"):
            from_canonical(SCALAR, k, broken)

    @pytest.mark.parametrize("row", [0, 1, 2], ids=["q", "pi_0", "pi_1"])
    def test_non_finite_row_rejected(self, row):
        # a NaN compares False against the collinearity bound; it must
        # still fail the check instead of converting back silently
        k = species_k(SCALAR)
        mode = to_canonical(SCALAR, k, 0.4 - 0.2j, 0.1 + 0.3j)
        rows = mode.rows.copy()
        rows[1, row] = np.nan
        with pytest.raises(CanonicalStructureError):
            from_canonical(SCALAR, k, CanonicalMode(field=SCALAR, rows=rows))

    def test_gauge_zero_rejected(self):
        with pytest.raises(ValueError):
            CanonicalGauge(z=0.0 + 0.0j)


class TestModeHamiltonian:
    def test_frozen_free_value(self):
        # b2 / k0 * |C+|^2 with b2 = 1, k0 = 2, |C+| = 1
        k = on_shell_k([np.sqrt(3.0), 0.0, 0.0], 1.0)
        assert k[0] == pytest.approx(2.0, rel=1e-15)
        value = mode_hamiltonian(SCALAR, k, 1.0 + 0.0j, 0.0j, x0=0.7)
        assert value == pytest.approx(0.5, rel=1e-14)

    def test_em_free_value_is_exactly_zero(self):
        rng = np.random.default_rng(9)
        k = species_k(EM)
        a, _ = random_amps(EM, rng)
        assert mode_hamiltonian(EM, k, a, None, x0=0.3) == 0.0
        mode = to_canonical(EM, k, a, None)
        x = np.array([0.3, 1.0, -2.0, 0.5])
        assert mode_hamiltonian_canonical(EM, k, mode, x) == pytest.approx(
            0.0, abs=1e-14)

    def test_canonical_matches_amplitude_form(self):
        # same J through canonical variables at any point and gauge
        rng = np.random.default_rng(21)
        x0 = 1.2
        points = [np.array([x0, 0.0, 0.0, 0.0]),
                  np.array([x0, 0.7, -1.1, 0.4])]
        gauges = [DEFAULT_GAUGE, CanonicalGauge(z=1.1 - 0.6j)]
        for field in ALL_SPECIES:
            k = species_k(field)
            sources = make_sources(field)
            c_plus, c_minus = random_amps(field, rng)
            expected = mode_hamiltonian(field, k, c_plus, c_minus, x0,
                                        sources)
            for x in points:
                for gauge in gauges:
                    mode = canonical_at_point(field, k, c_plus, c_minus, x,
                                              gauge)
                    value = mode_hamiltonian_canonical(field, k, mode, x,
                                                       sources, gauge)
                    assert value == pytest.approx(expected, rel=1e-11,
                                                  abs=1e-12)

    def test_sources_enter_additively(self):
        rng = np.random.default_rng(33)
        k = species_k(SCALAR)
        c_plus, c_minus = random_amps(SCALAR, rng)
        w1, w2 = make_sources(SCALAR)
        free = mode_hamiltonian(SCALAR, k, c_plus, c_minus, 1.0)
        j1 = mode_hamiltonian(SCALAR, k, c_plus, c_minus, 1.0, [w1])
        j2 = mode_hamiltonian(SCALAR, k, c_plus, c_minus, 1.0, [w2])
        both = mode_hamiltonian(SCALAR, k, c_plus, c_minus, 1.0, [w1, w2])
        assert both == pytest.approx(j1 + j2 - free, rel=1e-13)
        # a source that has not switched on yet contributes nothing
        later = static_worldline([0, 0, 0], coupling=3.0, t_start=5.0)
        assert mode_hamiltonian(SCALAR, k, c_plus, c_minus, 1.0, [later]) \
            == pytest.approx(free, rel=1e-14)


class TestGradients:
    def test_free_gradient_identities(self):
        rng = np.random.default_rng(13)
        for field in ALL_SPECIES:
            k = species_k(field)
            mode = to_canonical(field, k, *random_amps(field, rng))
            x = np.array([0.9, 0.1, 0.2, 0.3])
            grads = mode_hamiltonian_gradients(field, k, mode, x)
            sign = -1.0 if field.kind == "em" else 1.0
            assert np.allclose(grads.pi, sign * mode.pi, rtol=0, atol=1e-15)
            assert np.allclose(grads.q, sign * field.kappa**2 * mode.q,
                               rtol=0, atol=1e-15)

    @pytest.mark.parametrize("field", ALL_SPECIES,
                             ids=[f.kind + str(f.rank) for f in ALL_SPECIES])
    def test_gradients_match_finite_differences(self, field):
        rng = np.random.default_rng(17)
        k = species_k(field)
        c_plus, c_minus = random_amps(field, rng)
        x = np.array([1.2, 0.3, -0.4, 0.2])
        mode = canonical_at_point(field, k, c_plus, c_minus, x)
        defect = gradient_consistency(field, k, mode, x, make_sources(field))
        assert defect < 1e-9

    def test_gradients_match_fd_rank2(self):
        field = tensor_field(rank=2, a2=1.0, b2=0.81)
        rng = np.random.default_rng(19)
        k = species_k(field)
        c_plus, c_minus = random_amps(field, rng)
        x = np.array([1.2, 0.3, -0.4, 0.2])
        mode = canonical_at_point(field, k, c_plus, c_minus, x)
        defect = gradient_consistency(field, k, mode, x, make_sources(field))
        assert defect < 1e-9

    @pytest.mark.parametrize("calls", [1, 3])
    def test_coupling_rows_built_once(self, monkeypatch, calls):
        # one source walk per call serves the analytic gradients and all
        # 160 stencil probes of the rank-1 field
        walks = []
        walk = canonical.source_terms

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(canonical, "source_terms", counted)
        rng = np.random.default_rng(23)
        k = species_k(VECTOR)
        x = np.array([1.2, 0.3, -0.4, 0.2])
        mode = canonical_at_point(VECTOR, k, *random_amps(VECTOR, rng), x)
        for _ in range(calls):
            gradient_consistency(VECTOR, k, mode, x, make_sources(VECTOR))
        assert len(walks) == calls

    @pytest.mark.parametrize("source", ["circular", "static"])
    @pytest.mark.parametrize("field", [SCALAR, VECTOR, RANK2, EM, SPINOR],
                             ids=["scalar", "rank1", "rank2", "em", "spinor"])
    def test_defect_matches_per_probe_hamiltonian(self, field, source):
        xi = XI if field.kind == "spinor" else None
        if source == "circular":
            w = circular_worldline([0.1, -0.2, 0.0], radius=0.4, omega=1.1,
                                   coupling=0.9, xi=xi)
        else:
            w = static_worldline([0.2, -0.1, 0.3], coupling=0.8, xi=xi)
        rng = np.random.default_rng(29)
        k = species_k(field)
        x = np.array([1.2, 0.3, -0.4, 0.2])
        mode = canonical_at_point(field, k, *random_amps(field, rng), x)
        # the probes written out on mode_hamiltonian_canonical, which
        # rebuilds the coupling rows for every probe, then one stencil
        delta = 1e-3
        analytic = mode_hamiltonian_gradients(field, k, mode, x, [w]).rows
        scale = 1.0 + np.max(np.abs(analytic))
        sigma = field.pairing_signs()
        # idx = (branch, row, *component); row 0 is q, row 1 + mu is pi_mu
        entries = list(np.ndindex(mode.rows.shape))
        # samples[o, i]: J with entry i moved by offset o
        samples = np.empty((4, len(entries)))
        for i, idx in enumerate(entries):
            for o, off in enumerate(np.array([-2.0, -1.0, 1.0, 2.0]) * delta):
                probe = mode.rows.copy()
                probe[idx] += off
                samples[o, i] = mode_hamiltonian_canonical(
                    field, k, replace(mode, rows=probe), x, [w])
        fd = five_point(samples, delta)
        worst = 0.0
        for i, idx in enumerate(entries):
            row = idx[1]
            sign = sigma[idx[2:]] * (1.0 if row == 0 else METRIC_DIAG[row - 1])
            worst = np.maximum(worst,
                               abs(fd[i] * sign - analytic[idx]) / scale)
        assert gradient_consistency(field, k, mode, x, [w]) == float(worst)

    @pytest.mark.parametrize("field", [SCALAR, VECTOR, RANK2],
                             ids=["rank0", "rank1", "rank2"])
    def test_probe_blocks_equal_one_block(self, field, monkeypatch):
        rng = np.random.default_rng(53)
        k = on_shell_k([[0.5, -0.3, 0.8], [0.2, 0.1, -0.4],
                        [-0.6, 0.4, 0.1]], field.kappa)
        amps = [np.stack([random_amps(field, rng)[b] for _ in range(3)])
                for b in range(2)]
        x = np.array([1.2, 0.3, -0.4, 0.2])
        mode = canonical_at_point(field, k, *amps, x)
        sources = make_sources(field)
        whole = gradient_consistency(field, k, mode, x, sources)
        # 1 entry per block, and 3 (which divides no entry count here)
        for entries in (1, 3):
            monkeypatch.setattr(canonical, "_PROBE_BYTES",
                                entries * 4 * mode.rows.nbytes)
            assert gradient_consistency(field, k, mode, x, sources) == whole

    def test_rank_three_probes_stay_within_the_budget(self, monkeypatch):
        field = tensor_field(rank=3, a2=1.0, b2=1.0)
        rng = np.random.default_rng(59)
        k = on_shell_k(rng.uniform(-1.0, 1.0, size=(4, 3)), field.kappa)
        rows = rng.normal(size=(4, 2, 5) + field.component_shape)
        mode = CanonicalMode(field=field, rows=rows)
        sources = make_sources(field)
        budget = 2**20
        monkeypatch.setattr(canonical, "_PROBE_BYTES", budget)
        # the probes of every entry at once would be 640 x 4 copies of
        # the rows, 52 MB
        assert 640 * 4 * mode.rows.nbytes > 40 * budget
        tracemalloc.start()
        try:
            defect = gradient_consistency(field, k, mode, x=np.zeros(4),
                                          worldlines=sources)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert defect < 1e-6
        # one block of probes and the few arrays of its size that J's
        # evaluation makes
        assert peak < 4 * budget


FIVE_SPECIES = pytest.mark.parametrize(
    "field", [SCALAR, VECTOR, RANK2, EM, SPINOR],
    ids=["scalar", "rank1", "rank2", "em", "spinor"])


class TestStacking:
    @FIVE_SPECIES
    def test_stacked_points_match_per_point_calls(self, field):
        rng = np.random.default_rng(31)
        k = species_k(field)
        c_plus, c_minus = random_amps(field, rng)
        points = rng.normal(size=(4, 4, 4))
        stacked = canonical_at_point(field, k, c_plus, c_minus, points)
        for idx in np.ndindex(points.shape[:-1]):
            single = canonical_at_point(field, k, c_plus, c_minus,
                                        points[idx])
            assert np.array_equal(stacked.rows[idx], single.rows)

    @FIVE_SPECIES
    def test_stacked_amplitudes_keep_the_trailing_shape_check(self, field):
        k = species_k(field)
        comp = field.component_shape
        amp = np.ones((3,) + comp, dtype=complex)
        minus = None if field.kind == "em" else amp
        mode = to_canonical(field, k, amp, minus)
        n_b = len(field.branches)
        assert mode.rows.shape == (3, n_b, 5) + comp
        assert mode.q.shape == (3, n_b) + comp
        assert mode.pi.shape == (3, n_b, 4) + comp
        if not comp:
            return  # every shape is a stack of scalar amplitudes
        bad = np.ones((3,) + comp[:-1] + (comp[-1] + 1,), dtype=complex)
        with pytest.raises(ValueError, match="amp_plus shape"):
            to_canonical(field, k, bad, None if minus is None else amp)
        if minus is not None:
            # one family that would broadcast against the other
            with pytest.raises(ValueError, match="amp_minus shape"):
                to_canonical(field, k, amp, amp[0])

    @FIVE_SPECIES
    def test_one_stacked_call_per_stencil(self, field, monkeypatch):
        calls = {"_canonical_value": 0, "to_canonical": 0}
        for name in calls:
            original = getattr(canonical, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(canonical, name, counted)
        rng = np.random.default_rng(37)
        k = species_k(field)
        c_plus, c_minus = random_amps(field, rng)
        x = np.array([1.2, 0.3, -0.4, 0.2])
        mode = canonical_at_point(field, k, c_plus, c_minus, x)
        calls["to_canonical"] = 0
        gradient_consistency(field, k, mode, x, make_sources(field))
        # one J evaluation on the probes of every stored entry
        assert calls["_canonical_value"] == 1
        hamilton_residual(field, k, constant_amplitudes(c_plus, c_minus), x)
        # the mode at x, then the 16 shifted points in one call
        assert calls["to_canonical"] == 2


def stacked_draw(field, rng, n=4):
    """n on-shell wave vectors (n, 4) and their amplitudes, stacked per
    family (minus None for em)."""
    k = on_shell_k(rng.uniform(-1.5, 1.5, size=(n, 3)), field.kappa)
    drawn = [field.families(*random_amps(field, rng)) for _ in range(n)]
    return (k, *family_pair(np.stack(f) for f in zip(*drawn)))


def mode_of(amps, i):
    return None if amps is None else amps[i]


class TestStackedModes:
    """Stacked wave vectors against the per-mode loop, and per-mode
    scaling of the checks."""

    @FIVE_SPECIES
    def test_split_matches_per_mode_calls(self, field):
        k, ap, am = stacked_draw(field, np.random.default_rng(41))
        mode = to_canonical(field, k, ap, am)
        back = field.families(*from_canonical(field, k, mode))
        for i in range(len(k)):
            single = to_canonical(field, k[i], ap[i], mode_of(am, i))
            assert np.array_equal(mode.rows[i], single.rows)
            want = field.families(*from_canonical(field, k[i], single))
            for got, one in zip(back, want):
                assert np.array_equal(got[i], one)

    @FIVE_SPECIES
    def test_hamiltonian_and_gradients_match_per_mode_calls(self, field):
        k, ap, am = stacked_draw(field, np.random.default_rng(43))
        x = np.array([1.2, 0.3, -0.4, 0.2])
        sources = make_sources(field)
        mode = canonical_at_point(field, k, ap, am, x)
        j = mode_hamiltonian_canonical(field, k, mode, x, sources)
        grads = mode_hamiltonian_gradients(field, k, mode, x, sources).rows
        assert j.shape == (len(k),)
        defects = []
        for i in range(len(k)):
            single = canonical_at_point(field, k[i], ap[i], mode_of(am, i), x)
            assert j[i] == pytest.approx(mode_hamiltonian_canonical(
                field, k[i], single, x, sources), rel=1e-13, abs=1e-13)
            want = mode_hamiltonian_gradients(field, k[i], single, x,
                                              sources).rows
            assert np.max(np.abs(grads[i] - want)) <= 1e-13 * np.max(
                np.abs(want))
            defects.append(gradient_consistency(field, k[i], single, x,
                                                sources))
        # each defect is already relative to its mode's gradient scale
        assert abs(gradient_consistency(field, k, mode, x, sources)
                   - max(defects)) <= 1e-13

    def test_large_mode_does_not_hide_a_bent_small_mode(self):
        # a bend of 1e-6 is far above tol (1 + |pi|) for the small mode;
        # scaled by the 1e6-sized neighbour it would pass
        k = on_shell_k([[0.5, -0.3, 0.8], [0.2, 0.1, -0.4]], SCALAR.kappa)
        mode = to_canonical(SCALAR, k, np.array([1e6, 0.3 - 0.2j]),
                            np.array([1e6j, 0.1 + 0.4j]))
        for i, raises in ((0, False), (1, True)):
            rows = mode.rows.copy()
            rows[i, 0, 2] += 1e-6  # pi_1 of mode i's plus branch
            bent = replace(mode, rows=rows)
            if raises:
                with pytest.raises(CanonicalStructureError,
                                   match="collinear"):
                    from_canonical(SCALAR, k, bent)
            else:
                from_canonical(SCALAR, k, bent)

    def test_gradient_defect_is_scaled_per_mode(self, monkeypatch):
        # an offset of 1e-6 on every analytic gradient reads 1e-6 / (1 +
        # max |gradient|) per mode, so the small mode sets the worst
        # value; scaled by its 1e3-sized neighbour it would shrink
        # the analytic gradients of mode_hamiltonian_gradients and of
        # gradient_consistency, on coupling rows built once
        original = canonical._gradients

        def offset(*args, **kwargs):
            grads = original(*args, **kwargs)
            return replace(grads, rows=grads.rows + 1e-6)

        monkeypatch.setattr(canonical, "_gradients", offset)
        rng = np.random.default_rng(47)
        big, small = random_amps(VECTOR, rng), random_amps(VECTOR, rng)
        ap, am = (np.stack([1e3 * b, s]) for b, s in zip(big, small))
        k = on_shell_k([[0.5, -0.3, 0.8], [0.2, 0.1, -0.4]], VECTOR.kappa)
        x = np.array([1.2, 0.3, -0.4, 0.2])
        sources = make_sources(VECTOR)
        defects = [gradient_consistency(
            VECTOR, k[i], canonical_at_point(VECTOR, k[i], ap[i], am[i], x),
            x, sources) for i in range(2)]
        assert defects[1] > 10.0 * defects[0]
        stacked = gradient_consistency(
            VECTOR, k, canonical_at_point(VECTOR, k, ap, am, x), x, sources)
        assert stacked == pytest.approx(defects[1], rel=1e-6)


class TestHamiltonResidual:
    @pytest.mark.parametrize("field", ALL_SPECIES,
                             ids=[f.kind + str(f.rank) for f in ALL_SPECIES])
    def test_free_residuals(self, field):
        rng = np.random.default_rng(23)
        k = species_k(field)
        c_plus, c_minus = random_amps(field, rng)
        amp_at = constant_amplitudes(c_plus, c_minus)
        x = np.array([0.8, 0.25, -0.6, 0.15])
        r1, r2 = hamilton_residual(field, k, amp_at, x)
        assert r1 < 1e-10
        assert r2 < 1e-10

    @pytest.mark.parametrize("field", ALL_SPECIES,
                             ids=[f.kind + str(f.rank) for f in ALL_SPECIES])
    def test_sourced_residuals_closed_form(self, field):
        xi = XI if field.kind == "spinor" else None
        w = static_worldline([0.2, -0.1, 0.3], coupling=0.8, xi=xi)
        k = species_k(field)
        amp_at = static_closed_form(field, w, k)
        x = np.array([1.3, 0.4, -0.2, 0.7])
        r1, r2 = hamilton_residual(field, k, amp_at, x, [w])
        assert r1 < 1e-8
        assert r2 < 1e-8

    def test_sourced_residual_from_history(self):
        w = static_worldline([0, 0, 0], coupling=1.0)
        grid = build_mode_grid(kmax=1.0, n_per_axis=2, kappa=1.0)
        hist = evolve_amplitudes(SCALAR, [w], grid, 0.0, 2.0, steps=400)
        idx = 3
        amp_at = history_amplitudes(hist, mode_index=idx)
        x = np.array([1.0, 0.3, 0.1, -0.2])
        r1, r2 = hamilton_residual(SCALAR, grid.k[idx], amp_at, x, [w],
                                   h=hist.spacing())
        assert r1 < 1e-6
        assert r2 < 1e-6

    def test_residual_flags_wrong_dynamics(self):
        w = static_worldline([0.2, -0.1, 0.3], coupling=0.8)
        k = species_k(SCALAR)
        good = static_closed_form(SCALAR, w, k)

        def corrupted(x0):
            c_plus, c_minus = good(x0)
            return 1.1 * c_plus, c_minus

        x = np.array([1.3, 0.4, -0.2, 0.7])
        r1, r2 = hamilton_residual(SCALAR, k, corrupted, x, [w])
        assert max(r1, r2) > 1e-3

    def test_history_provider_rejects_off_sample(self):
        w = static_worldline([0, 0, 0], coupling=1.0)
        grid = build_mode_grid(kmax=1.0, n_per_axis=1, kappa=1.0)
        hist = evolve_amplitudes(SCALAR, [w], grid, 0.0, 1.0, steps=10)
        amp_at = history_amplitudes(hist)
        with pytest.raises(ValueError, match="sample"):
            amp_at(0.123)


def test_sourced_residuals_closed_form_rank2():
    # the closed-form check above stops at rank 1; the coupling row must
    # also carry the rank-2 velocity monomial
    field = tensor_field(rank=2, a2=1.0, b2=0.81)
    w = static_worldline([0.2, -0.1, 0.3], coupling=0.8)
    k = species_k(field)
    amp_at = static_closed_form(field, w, k)
    x = np.array([1.3, 0.4, -0.2, 0.7])
    r1, r2 = hamilton_residual(field, k, amp_at, x, [w])
    assert r1 < 1e-8
    assert r2 < 1e-8


def test_spinor_source_without_coupling_spinors_raises_everywhere():
    w = static_worldline([0.2, -0.1, 0.3], coupling=0.8)
    k = species_k(SPINOR)
    c_plus, c_minus = random_amps(SPINOR, np.random.default_rng(29))
    x = np.array([1.1, 0.2, 0.3, -0.4])
    mode = canonical_at_point(SPINOR, k, c_plus, c_minus, x)
    calls = [
        lambda: source_rate(SPINOR, [w], k, x[0]),
        lambda: mode_hamiltonian(SPINOR, k, c_plus, c_minus, x[0], [w]),
        lambda: mode_hamiltonian_canonical(SPINOR, k, mode, x, [w]),
        lambda: mode_hamiltonian_gradients(SPINOR, k, mode, x, [w]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="coupling spinors"):
            call()
