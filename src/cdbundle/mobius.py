"""Disc automorphisms phi_{t,a}(z) = t (z - a) / (1 - conj(a) z) and their cocycle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiscDomainError

_UNIMODULAR_TOL = 1e-12


@dataclass(frozen=True)
class MobiusMap:
    """phi_{t,a} with |t| = 1 and |a| < 1.

    The family is closed under composition and inversion, so it carries the
    full automorphism group of the disc.
    """

    t: complex
    a: complex

    def __post_init__(self):
        if abs(abs(self.t) - 1.0) > _UNIMODULAR_TOL:
            raise ValueError(f"|t| must be 1, got |t| = {abs(self.t)}")
        if abs(self.a) >= 1.0:
            raise ValueError(f"|a| must be < 1, got |a| = {abs(self.a)}")

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1.0, 0.0)

    def apply(self, z: complex) -> complex:
        if abs(z) >= 1.0:
            raise DiscDomainError(f"|z| must be < 1, got {abs(z)}")
        return self.t * (z - self.a) / (1 - np.conj(self.a) * z)

    __call__ = apply

    def derivative(self, z: complex) -> complex:
        return self.t * (1 - abs(self.a) ** 2) / (1 - np.conj(self.a) * z) ** 2

    def inverse(self) -> "MobiusMap":
        # phi_{t,a}^{-1} = phi_{conj(t), -t a}
        return MobiusMap(np.conj(self.t), -self.t * self.a)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """The map z -> self(other(z))."""
        m = self._matrix() @ other._matrix()
        a_new = -m[0, 1] / m[0, 0]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        deriv_at_a = det / (m[1, 0] * a_new + m[1, 1]) ** 2
        t_new = deriv_at_a * (1 - abs(a_new) ** 2)
        t_new /= abs(t_new)  # squash rounding off the unit circle
        return MobiusMap(t_new, a_new)

    def _matrix(self) -> np.ndarray:
        return np.array([[self.t, -self.t * self.a], [-np.conj(self.a), 1.0]], dtype=complex)


def mobius_inverse(phi: MobiusMap) -> MobiusMap:
    return phi.inverse()


def mobius_compose(phi: MobiusMap, psi: MobiusMap) -> MobiusMap:
    return phi.compose(psi)


def cocycle_c(phi: MobiusMap, z: complex) -> complex:
    """c(phi^{-1}, z): the derivative of the inverse automorphism at z.

    Satisfies the cocycle identity
    c((phi psi)^{-1}, z) = c(phi^{-1}, psi^{-1}(z)) * c(psi^{-1}, z).
    """
    if abs(z) >= 1.0:
        raise DiscDomainError(f"|z| must be < 1, got {abs(z)}")
    return phi.inverse().derivative(z)
