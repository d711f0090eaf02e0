"""Species constants and tensor contractions."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covham.brackets import StateLayout
from covham.canonical import from_canonical, to_canonical
from covham.dirac import DiracCoupling
from covham.errors import ScenarioError
from covham.dynamics import (
    evolve_amplitudes,
    source_rate,
    straight_line_amplitudes,
)
from covham.fields import (
    FieldSpec,
    contract_full,
    em_field,
    scalar_field,
    spinor_field,
    tensor_field,
)
from covham.modes import build_mode_grid
from covham.position import parseval_check
from covham.scenario import scenario_from_dict
from covham.verify import _random_amps
from covham.worldlines import static_worldline

SPECIES = [scalar_field(), tensor_field(rank=1, a2=0.7, b2=1.2), em_field(),
           spinor_field(m=1.2)]


class TestSpeciesConstants:
    def test_scalar_map(self):
        f = scalar_field(s=2.0, m=3.0, c=4.0)
        assert f.a2 == pytest.approx(1.0)  # s^2/c = 4/4
        assert f.b2 == pytest.approx(36.0)  # m^2 c
        assert f.kappa == pytest.approx(6.0)  # mc/s
        assert f.b2 == pytest.approx(f.a2 * f.kappa**2)

    def test_em_map(self):
        f = em_field(c=2.0)
        assert f.a2 == pytest.approx(-1.0 / (16.0 * np.pi))
        assert f.b2 == 0.0 and f.kappa == 0.0 and f.is_real

    def test_spinor_first_order_relation(self):
        f = spinor_field(s=2.0, m=3.0, c=5.0)
        assert f.a2 == 2.0 and f.b2 == 15.0
        assert f.kappa == pytest.approx(f.b2 / f.a2)  # one power of kappa

    def test_tensor_kappa_from_ratio(self):
        f = tensor_field(rank=2, a2=4.0, b2=9.0)
        assert f.kappa == pytest.approx(1.5)
        assert f.component_shape == (4, 4)
        assert f.n_components == 16

    def test_em_with_mass_term_rejected(self):
        with pytest.raises(ValueError, match="em.*b2"):
            FieldSpec(kind="em", rank=1, a2=-1.0, b2=0.1, kappa=0.0)

    def test_inconsistent_kappa_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            FieldSpec(kind="tensor", rank=1, a2=1.0, b2=1.0, kappa=2.0)

    def test_component_shapes(self):
        assert scalar_field().component_shape == ()
        assert em_field().component_shape == (4,)
        assert spinor_field().component_shape == (4,)
        assert tensor_field(0, 1.0, 1.0).component_shape == ()

    def test_pairing_signs(self):
        assert np.all(em_field().pairing_signs() == [1, -1, -1, -1])
        assert np.all(spinor_field().pairing_signs() == [1, 1, -1, -1])
        assert float(scalar_field().pairing_signs()) == 1.0


class TestSpeciesTable:
    @pytest.mark.parametrize("field", SPECIES,
                             ids=[f.kind for f in SPECIES])
    def test_every_producer_follows_the_family_rule(self, field):
        # the real em field keeps plus only; every other species both
        want = ("plus",) if field.kind == "em" else ("plus", "minus")
        assert field.branches == want

        def stored(pair):
            return tuple(name for name, c in zip(("plus", "minus"), pair)
                         if c is not None)

        xi = None
        if field.kind == "spinor":
            xi = DiracCoupling(xi1=[0.4, -0.2 + 0.1j, 0.3, 0.05])
        sources = [static_worldline([0.1, 0.0, -0.2], coupling=0.8, xi=xi)]
        grid = build_mode_grid(2.0, 2, field.kappa)
        assert stored(source_rate(field, sources, grid.k, 0.5)) == want
        assert stored(source_rate(field, sources, grid.k[0], 0.5)) == want
        assert stored(straight_line_amplitudes(field, sources, grid,
                                               1.0)) == want
        hist = evolve_amplitudes(field, sources, grid, 0.0, 1.0, 4)
        assert stored((hist.plus, hist.minus)) == want
        amps = _random_amps(field, np.random.default_rng(3))
        assert stored(amps) == want
        mode = to_canonical(field, grid.k[0], *amps)
        assert mode.rows.shape[0] == len(want)
        assert stored(from_canonical(field, grid.k[0], mode)) == want
        if field.has_bracket_sector:
            assert StateLayout(field, grid).branches == want

    @pytest.mark.parametrize("field, covered", [
        (scalar_field(), True), (tensor_field(rank=1, a2=0.7, b2=1.2), True),
        (em_field(), True), (spinor_field(m=1.2), False),
        (tensor_field(rank=2, a2=1.0, b2=1.0), True)],
        ids=["scalar", "vector", "em", "spinor", "tensor2"])
    def test_bracket_sector_rule(self, field, covered):
        # StateLayout and the bracket suite's plan read the same entry
        assert field.has_bracket_sector is covered
        base = scenario_from_dict({
            "field": {"kind": "scalar"},
            "grid": {"kmax": 2.0, "n_per_axis": 2},
            "time": {"x0_start": 0.0, "x0_end": 1.0, "steps": 8}})
        plan = dataclasses.replace(base, field=field).plan
        sector, note = plan.bracket_sector, plan.bracket_note
        assert (sector is field, note is None) == (covered, covered)
        grid = build_mode_grid(2.0, 2, field.kappa)
        if covered:
            StateLayout(field, grid)
        else:
            with pytest.raises(ValueError, match="spinor"):
                StateLayout(field, grid)

    @pytest.mark.parametrize("field", SPECIES,
                             ids=["scalar", "vector", "em", "spinor"])
    def test_parseval_and_green_rules(self, field):
        # the suites read the table; parseval_check raises on the rest
        entries = [((1, 0, 0), *_random_amps(field,
                                             np.random.default_rng(2)))]
        if field.has_parseval_identity:
            assert parseval_check(field, 2.0 * np.pi, entries, n_t=2) < 1e-6
        else:
            with pytest.raises(ScenarioError):
                parseval_check(field, 2.0 * np.pi, entries, n_t=2)
        assert (len(field.green_radii) > 0) == (field.kind in ("em",
                                                               "scalar"))
        with pytest.raises(AttributeError):
            field.green_radii = (1.0,)

    def test_family_rule_enforced(self):
        one = np.ones(4, dtype=complex)
        with pytest.raises(ValueError, match="single amplitude family"):
            em_field().families(one, one)
        with pytest.raises(ValueError, match="both amplitude families"):
            spinor_field().families(one, None)

    def test_real_field_factors(self):
        em, vec = em_field(), tensor_field(rank=1, a2=0.7, b2=1.2)
        assert (em.real_factor, vec.real_factor) == (2.0, 1.0)
        assert (em.free_sign, vec.free_sign) == (-1.0, 1.0)
        assert em.field_value(np.array([1.0 + 2.0j])) == 2.0
        # em's epsilon does not depend on |z|, the complex species' does
        assert em.epsilon(2.0, 3.0 + 4.0j) == em.epsilon(2.0, 1.0)
        assert vec.epsilon(2.0, 2.0) == pytest.approx(
            0.5 * vec.epsilon(2.0, 1.0), rel=1e-15)


class TestContractFull:
    def test_rank1_known_value(self):
        a = np.array([1.0, 2.0, 0.0, 0.0])
        b = np.array([3.0, 4.0, 0.0, 0.0])
        assert contract_full(a, b) == pytest.approx(3.0 - 8.0)

    def test_rank2_single_mixed_component(self):
        # A_{01} = 1: A.A = eta^00 eta^11 |A_01|^2 = -1
        a = np.zeros((4, 4))
        a[0, 1] = 1.0
        assert contract_full(a, a) == pytest.approx(-1.0)

    def test_conjugation_convention(self):
        a = np.zeros(4, dtype=complex)
        a[0] = 1j
        assert contract_full(a, a) == pytest.approx(1.0 + 0j)
        assert contract_full(a, a, conjugate_first=False) == pytest.approx(-1.0 + 0j)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="mismatch"):
            contract_full(np.zeros(4), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="length 4"):
            contract_full(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="rank 4"):
            contract_full(np.zeros((4,) * 5), np.zeros((4,) * 5))

    @given(rank=st.integers(0, 3), seed=st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_hermiticity_of_pairing(self, rank, seed):
        rng = np.random.default_rng(seed)
        shape = (4,) * rank
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert contract_full(a, b) == pytest.approx(
            np.conj(contract_full(b, a)), rel=1e-12, abs=1e-12)
