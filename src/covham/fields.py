"""Field species and their quadratic-form constants.

A species is summarized by the pair (a2, b2) entering its free
Lagrangian density.  For a complex rank-l tensor field T,

    L = a2 * dT*.dT - b2 * T*.T,        kappa^2 = b2 / a2,

with all tensor indices contracted through the metric.  The specific
species map to:

    scalar      rank 0, a2 = s^2 / c,       b2 = m^2 c
    tensor      rank l, a2, b2 given,       b2 = a2 * kappa^2
    em          rank 1, a2 = -1/(8 pi c),   b2 = 0        (real field)
    spinor      4 components, a2 = s,       b2 = m c,  b2/a2 = kappa

The spinor entry is first order, so b2/a2 carries one power of kappa,
not two; its "components" live in spinor space, not on a Lorentz index.

Field components are stored with lower indices throughout the package
(T_{nu1..nul}, A_nu, polymomenta pi_{mu nu..}); contractions raise
indices by sign flips via component_signs.

FieldSpec is also the species table: each per-species decision that
more than one module reads is a derived property or method here, so the
other modules loop over field.branches instead of testing the kind.
The em field is the only real species: it stores one coefficient family,
its polymomentum carries real_factor = 2, and its canonical free part
has the sign -1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dirac import slash
from .minkowski import component_signs

_KINDS = ("scalar", "tensor", "em", "spinor")
_GREEN_RADII = {"em": (1.0, 1.5, 2.0, 2.5, 3.0),
                "scalar": (0.8, 0.9, 1.0, 1.6, 1.8, 2.0)}


@dataclass(frozen=True)
class FieldSpec:
    """Species tag plus the constants every formula downstream needs."""

    kind: str
    rank: int
    a2: float
    b2: float
    kappa: float
    is_real: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if not all(map(math.isfinite, (self.a2, self.b2, self.kappa))):
            raise ValueError(f"{self.kind}: a2, b2 and kappa must be finite")
        if self.a2 == 0.0:
            raise ValueError(f"{self.kind}: a2 must be nonzero")
        if self.kind == "em":
            if self.b2 != 0.0:
                raise ValueError(
                    "em: b2 must vanish (massless gauge field), got "
                    f"b2 = {self.b2}"
                )
            if self.kappa != 0.0:
                raise ValueError("em: kappa must vanish")
            if not self.is_real:
                raise ValueError("em: field must be real")
        elif self.kind == "spinor":
            # first-order kinetic term: one power of kappa
            if not np.isclose(self.b2, self.a2 * self.kappa, rtol=1e-12, atol=0.0):
                raise ValueError(
                    f"spinor: b2 = {self.b2} inconsistent with "
                    f"a2 * kappa = {self.a2 * self.kappa}"
                )
        else:
            if not np.isclose(self.b2, self.a2 * self.kappa * self.kappa, rtol=1e-12, atol=0.0):
                raise ValueError(
                    f"{self.kind}: b2 = {self.b2} inconsistent with "
                    f"a2 * kappa^2 = {self.a2 * self.kappa * self.kappa}"
                )
        if self.kind != "em" and self.is_real:
            raise ValueError("only the em species is stored as a real field")

    @property
    def component_shape(self) -> tuple[int, ...]:
        """Shape of one field value: () scalar, (4,)*rank tensor/em, (4,) spinor."""
        if self.kind == "scalar":
            return ()
        if self.kind == "spinor":
            return (4,)
        return (4,) * self.rank

    @property
    def n_components(self) -> int:
        return math.prod(self.component_shape)

    def pairing_signs(self) -> np.ndarray:
        """Signs raising all component indices in quadratic pairings.

        Metric signs for tensor indices; for the spinor species the role
        is played by diag(gamma^0) = (1, 1, -1, -1), the signs of the
        Dirac adjoint pairing psi_bar psi.
        """
        if self.kind == "spinor":
            return np.array([1.0, 1.0, -1.0, -1.0])
        return component_signs(self.rank)

    @property
    def branches(self) -> tuple[str, ...]:
        """Coefficient families stored per mode; the real em field keeps
        plus only, its conjugate being implied by reality."""
        return ("plus",) if self.is_real else ("plus", "minus")

    def families(self, plus, minus, what: str = "amplitude") -> list:
        """[plus] or [plus, minus] by the family rule; raises ValueError
        when minus is given for the real field or missing otherwise."""
        if self.is_real:
            if minus is not None:
                raise ValueError(
                    f"{self.kind} species carries a single {what} family")
            return [plus]
        if minus is None:
            raise ValueError(f"complex species need both {what} families")
        return [plus, minus]

    @property
    def has_bracket_sector(self) -> bool:
        """Whether the (q, pi) bracket layout covers the species: component
        ranks 0 and 1; the spinor's constraint momenta form no pair."""
        return self.kind != "spinor" and self.rank <= 1

    @property
    def has_parseval_identity(self) -> bool:
        """parseval_check covers the second-order complex species only."""
        return not self.is_real and self.kind != "spinor"

    @property
    def green_radii(self) -> tuple[float, ...]:
        """Green suite comparison radii; empty where it does not apply."""
        return _GREEN_RADII.get(self.kind, ())

    @property
    def real_factor(self) -> float:
        """2 for the real field (theta = 2 a2 dA), 1 for complex ones
        (theta = a2 dT*)."""
        return 2.0 if self.is_real else 1.0

    def field_value(self, family_sum):
        """Field value from the summed family terms: the real field adds
        the conjugate of its single family."""
        return 2.0 * np.real(family_sum) if self.is_real else family_sum

    @property
    def free_sign(self) -> float:
        """Sign of the canonical free part: -1 for em, whose value
        vanishes on the massless shell while its gradients do not."""
        return -1.0 if self.is_real else 1.0

    @property
    def q_signs(self) -> tuple[float, ...]:
        """s_b per branch in Im w_b = s_b q_b / (2 eps)."""
        return (1.0,) if self.is_real else (-1.0, 1.0)

    def gauge_factors(self, z: complex) -> tuple:
        """g_b per branch in w_b = g_b T~_b: the real field sees the
        gauge constant z as a conjugated phase only."""
        if self.is_real:
            return (np.conj(z / abs(z)),)
        return (z, np.conj(z))

    def epsilon(self, k0: float, z: complex) -> float:
        """Canonical normalization eps(k0) for the gauge constant z."""
        if self.is_real:
            return float(np.sqrt(-self.a2 / k0))
        if self.kind == "spinor":
            return float(np.sqrt(self.a2 / (4.0 * k0 * self.kappa))) / abs(z)
        return float(np.sqrt(self.a2 / (2.0 * k0))) / abs(z)

    @property
    def rate_norms(self) -> tuple:
        """Per branch, summed source currents to dC/dx0."""
        if self.is_real:
            return (4.0j * np.pi,)
        return (-1j / self.a2, +1j / self.a2)

    @property
    def coupling_strength(self) -> float:
        """Source factor of the canonical coupling rows of the
        second-order species: 2, or 2 / c = -16 pi a2 for em."""
        return -16.0 * np.pi * self.a2 if self.is_real else 2.0

    def shell_operators(self, k) -> tuple[np.ndarray, np.ndarray]:
        """The spinor's kappa + slash(k) and kappa - slash(k)."""
        eye = self.kappa * np.eye(4)
        sl = slash(k)
        return eye + sl, eye - sl


def with_conjugate(x):
    """Yield x for the plus branch, then conj(x) for minus; lazily, so
    zipped after one family it never conjugates."""
    yield x
    yield np.conj(x)


def family_pair(values) -> tuple:
    """(plus, minus) from per-branch values; minus None for one family."""
    return (*values, None)[:2]


def scalar_field(s: float = 1.0, m: float = 1.0, c: float = 1.0) -> FieldSpec:
    """Complex Klein-Gordon field; kappa = m c / s."""
    if not (s > 0.0 and c > 0.0 and m >= 0.0):
        raise ValueError("scalar species needs s > 0, c > 0 and m >= 0")
    return FieldSpec(kind="scalar", rank=0, a2=s * s / c, b2=m * m * c,
                     kappa=m * c / s)


def tensor_field(rank: int, a2: float, b2: float) -> FieldSpec:
    """Complex rank-l tensor field with given quadratic constants."""
    if not 0 <= rank <= 4:
        raise ValueError("rank must be between 0 and 4")
    if a2 <= 0.0 or b2 < 0.0:
        raise ValueError("tensor species needs a2 > 0 and b2 >= 0")
    return FieldSpec(kind="tensor", rank=rank, a2=a2, b2=b2,
                     kappa=float(np.sqrt(b2 / a2)))


def em_field(c: float = 1.0) -> FieldSpec:
    """Electromagnetic four-potential in Lorenz gauge (real, massless)."""
    if not c > 0.0:
        raise ValueError("em species needs c > 0")
    return FieldSpec(kind="em", rank=1, a2=-1.0 / (8.0 * np.pi * c), b2=0.0,
                     kappa=0.0, is_real=True)


def spinor_field(s: float = 1.0, m: float = 1.0, c: float = 1.0) -> FieldSpec:
    """First-order spinor field; a2 = s, b2 = m c, kappa = m c / s."""
    if not (s > 0.0 and c > 0.0 and m > 0.0):
        raise ValueError("spinor species needs s > 0, c > 0 and m > 0")
    return FieldSpec(kind="spinor", rank=1, a2=s, b2=m * c, kappa=m * c / s)


def contract_full(a: np.ndarray, b: np.ndarray, conjugate_first: bool = True):
    """Full metric contraction of two equal-rank tensors.

    Returns sum over all components of sigma * conj(a) * b where sigma
    raises every index.  With conjugate_first=False the product is
    bilinear instead.  Validates that both operands have pure (4,)*rank
    shape with rank <= 4.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if any(d != 4 for d in a.shape):
        raise ValueError(f"tensor axes must all have length 4, got {a.shape}")
    rank = a.ndim
    if rank > 4:
        raise ValueError("contractions supported up to rank 4")
    sigma = component_signs(rank)
    left = np.conj(a) if conjugate_first else a
    return np.sum(sigma * left * b)
