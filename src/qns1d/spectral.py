"""Discrete torus geometry and Fourier-space primitives.

Fields live on the unit torus [0, 1) sampled at ``n_collocation`` equispaced
points. The spectral representation is the real FFT normalized so that mode 0
carries the field mean: ``f_hat = rfft(f) / n``. The Galerkin space keeps the
modes ``|j| <= m_modes`` (wavenumber ``k_j = 2*pi*j``); quadratic products are
additionally masked at ``floor(2*m_modes/3)`` so that the retained
coefficients of a pointwise product are free of aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class GridConfigError(ValueError):
    """Grid parameters violate a structural constraint."""


class UsageError(ValueError):
    """An operation was called outside its documented domain."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def to_spectral(values: np.ndarray) -> np.ndarray:
    """Mean-normalized half-spectrum ``rfft(values) / n`` of n samples.

    A stack of fields (samples along the last axis) is transformed row by row
    in one call. The spectrum is multiplied by 1/n: numpy divides a complex
    array by n + 0j by computing 1/n once and multiplying by it, so the
    product has the quotient's values and NaN positions, at a fraction of
    its cost; only the sign of a zero part can differ.
    """
    spec = np.fft.rfft(values)
    spec *= 1.0 / values.shape[-1]
    return spec


def to_physical(spec: np.ndarray, n: int) -> np.ndarray:
    """Samples on n equispaced points of a mean-normalized half-spectrum.

    When n exceeds the spectrum's own grid, irfft zero-pads the missing
    modes, which is spectral interpolation onto the finer grid. A stack of
    spectra (modes along the last axis) is transformed row by row in one call.
    """
    return np.fft.irfft(spec * n, n=n)


def ddx(values: np.ndarray, order: int) -> np.ndarray:
    """Spectral derivative of periodic samples (along the last axis) on their
    own grid, with no band limit."""
    return ddx_rows(values[None], [order])[0]


def ddx_rows(values: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    """Spectral derivatives of the rows of a stack of periodic samples on
    their own grid: row i of the result is the derivative of order
    ``orders[i]`` of ``values[i]``.

    One forward transform of the stack serves every derivative, and one
    inverse transform returns them all; each row has the bits of
    ``ddx(values[i], orders[i])``, as a stacked transform treats each row as
    it treats that row alone.
    """
    n = values.shape[-1]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, 1.0 / n)
    spec = np.fft.rfft(values)
    factors = {o: (1j * k) ** o for o in orders}
    for row, o in zip(spec, orders):
        row *= factors[o]
    return np.fft.irfft(spec, n=n)


@dataclass(frozen=True)
class TorusGrid:
    """Collocation points, wavenumbers and the product cut for one resolution.

    ``k_half`` holds the wavenumbers 2*pi*j, j = 0..n/2, of the half
    spectrum used with the real FFT. ``dealias_cut`` is the last mode that a
    quadratic product keeps: floor(2*m_modes/3) when dealiasing is on, else
    m_modes.
    """

    n_collocation: int
    m_modes: int
    dealias: bool = True
    x: np.ndarray = field(init=False, repr=False)
    k_half: np.ndarray = field(init=False, repr=False)
    dealias_cut: int = field(init=False)

    def __post_init__(self) -> None:
        n, m = self.n_collocation, self.m_modes
        if n <= 0 or m <= 0:
            raise GridConfigError("n_collocation and m_modes must be positive")
        if n % 2 != 0:
            raise GridConfigError(f"n_collocation must be even, got {n}")
        if m > n // 2:
            raise GridConfigError(f"m_modes={m} exceeds n_collocation/2={n // 2}")
        if 3 * n < 4 * m:
            raise GridConfigError(
                f"n_collocation={n} below 4*m_modes/3={4 * m / 3:.1f}; "
                "2/3-rule dealiasing needs n >= 4m/3"
            )
        object.__setattr__(self, "x", _frozen(np.arange(n) / n))
        object.__setattr__(self, "k_half", _frozen(2.0 * np.pi * np.arange(n // 2 + 1)))
        object.__setattr__(self, "dealias_cut", (2 * m) // 3 if self.dealias else m)

    @property
    def n_half(self) -> int:
        return self.n_collocation // 2 + 1


@dataclass(frozen=True)
class RealField:
    """A real field with paired physical samples and spectral coefficients.

    Both representations are stored; constructors keep them consistent
    (``spectral = rfft(physical) / n``). Instances are immutable and safe to
    share across threads.
    """

    physical: np.ndarray
    spectral: np.ndarray

    @classmethod
    def from_physical(cls, values: np.ndarray, grid: TorusGrid) -> "RealField":
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_collocation,):
            raise GridConfigError(
                f"physical length {values.shape} does not match grid n={grid.n_collocation}"
            )
        return cls(_frozen(values.copy()), _frozen(to_spectral(values)))

    @classmethod
    def from_spectral(cls, coeffs: np.ndarray, grid: TorusGrid) -> "RealField":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (grid.n_half,):
            raise GridConfigError(
                f"spectral length {coeffs.shape} does not match grid half-spectrum {grid.n_half}"
            )
        phys = to_physical(coeffs, grid.n_collocation)
        return cls(_frozen(phys), _frozen(coeffs.copy()))


def project(field: RealField, grid: TorusGrid) -> RealField:
    """L2-orthogonal projection onto the Galerkin band |j| <= m_modes."""
    spec = field.spectral.copy()
    spec[grid.m_modes + 1 :] = 0.0
    return RealField.from_spectral(spec, grid)


def resample(field: RealField, grid: TorusGrid, n_fine: int) -> np.ndarray:
    """Spectrally interpolate the field onto n_fine equispaced points."""
    if n_fine < grid.n_collocation:
        raise UsageError("resample only upsamples")
    return to_physical(field.spectral, n_fine)


def _mode_multiplicity(grid: TorusGrid) -> np.ndarray:
    # modes 0 and n/2 appear once in the half spectrum, all others twice
    mult = np.full(grid.n_half, 2.0)
    mult[0] = 1.0
    mult[-1] = 1.0
    return mult


def hs_norm(field: RealField | np.ndarray, s: float, grid: TorusGrid) -> float | np.ndarray:
    """Sobolev H^s norm, diagonal in the Fourier basis: (sum (1+k^2)^s |f_j|^2)^1/2;
    a stack of half-spectra gives one norm per row, summed along the last axis."""
    c2 = np.abs(field.spectral if isinstance(field, RealField) else field) ** 2
    w = (1.0 + grid.k_half**2) ** s
    norms = np.sqrt(np.sum(_mode_multiplicity(grid) * w * c2, axis=-1))
    return float(norms) if norms.ndim == 0 else norms
