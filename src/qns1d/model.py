"""Model parameters, the (psi, u) state, the smooth cut-off and its W^{2,inf} norm.

The dynamics are written in the log-density variable psi = log(rho), so
rho = exp(psi) is positive by construction. The momentum equation collects
six contributions: advection, pressure, viscosity, viscosity gradient,
dispersion and the quadratic quantum term. The paper's smooth cut-off
factors of the W^{2,inf} norms of u and psi are 1 below the radius R, where
a path stops; the right-hand side itself, and the one place the cut-off
acts (the corrector's transport), live in the integrator's step kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import RealField, TorusGrid, UsageError, _frozen, resample, to_physical, to_spectral

# oversampling used when evaluating sup-norms on the collocation grid
W2INF_OVERSAMPLE = 8

# relative margin on a Wiener bound of the W^{2,inf} norm, covering rounding
# in the bound's sum and in the sup-norm's transform
BOUND_SLACK = 1e-9


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation."""


@dataclass(frozen=True)
class ModelParams:
    """Physical and regularization parameters.

    gamma > 1 is the pressure exponent, alpha >= 0 the viscosity exponent
    (viscosity rho^alpha). cutoff_radius is the plateau edge of the smooth
    cut-off; monitor_order the Sobolev order used by regularity monitors.
    """

    gamma: float
    alpha: float
    cutoff_radius: float = 1e6
    monitor_order: int = 4
    enable_cutoff: bool = True
    global_regularity_regime: bool = field(init=False)

    def __post_init__(self) -> None:
        if not self.gamma > 1.0:
            raise DomainError(f"gamma must exceed 1, got {self.gamma}")
        if self.alpha < 0.0:
            raise DomainError(f"alpha must be nonnegative, got {self.alpha}")
        if not self.cutoff_radius > 0.0:
            raise DomainError("cutoff_radius must be positive")
        if self.monitor_order < 4:
            raise DomainError("monitor_order must be at least 4")
        object.__setattr__(
            self, "global_regularity_regime", 0.0 <= self.alpha <= 0.5
        )


@dataclass(frozen=True)
class State:
    """Band-limited (psi, u) pair at one time instant."""

    psi: RealField
    u: RealField
    time: float = 0.0


def cutoff_phi(y: float, radius: float) -> float:
    """Smooth cut-off: 1 on [0, R], 0 on [R+1, inf), C^2 quintic bridge between.

    The bridge is the unique quintic with vanishing first and second
    derivatives at both ends of [R, R+1].
    """
    if y < 0.0:
        raise UsageError(f"cutoff argument must be nonnegative, got {y}")
    if y <= radius:
        return 1.0
    if y >= radius + 1.0:
        return 0.0
    t = y - radius
    return 1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def w2inf_floor(grid: TorusGrid) -> float:
    """The largest coefficient bound whose sup-norm transform cannot overflow:
    the oversampled inverse scales the spectra by its W2INF_OVERSAMPLE * n
    points, so a bound above this could hide an overflow."""
    return np.finfo(float).max / (W2INF_OVERSAMPLE * grid.n_collocation)


# per grid size, the read-only tables of w2inf_norm: see _norm_tables
_NORM_TABLES: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, float]] = {}


def _norm_tables(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The factors (1j k)^o of orders 1 and 2, the ``wiener_weights``,
    max_o k^o and the ``w2inf_floor``: read-only, and built once per grid
    size."""
    tables = _NORM_TABLES.get(grid.n_collocation)
    if tables is None:
        k = grid.k_half
        # every mode but j = 0 is interior to the real transform on the
        # oversampled sup-norm grid and so counts twice
        mult = np.full(grid.n_half, 2.0)
        mult[0] = 1.0
        tables = tuple(_frozen(a) for a in (
            np.stack([(1j * k) ** 1, (1j * k) ** 2]),
            np.stack([mult, mult * k, mult * k**2]),
            np.maximum(k**2, 1.0))) + (w2inf_floor(grid),)
        _NORM_TABLES[grid.n_collocation] = tables
    return tables


def wiener_weights(grid: TorusGrid) -> np.ndarray:
    """The (3, n_half) weights W[o, j] = mult_j k_j^o of the Wiener bound
    sup|d^o f/dx^o| <= sum_j W[o, j] |c_j| on the oversampled sup-norm
    grid, where mult_j is 1 for the mean and 2 for every other mode. The
    array is read-only and shared by every caller on the grid's size."""
    return _norm_tables(grid)[1]


def w2inf_norm(spec: np.ndarray, grid: TorusGrid) -> float | list[float]:
    """max over derivative orders 0..2 of the sup of |d^j f/dx^j|.

    ``spec`` is the mean-normalized half-spectrum of f, or a stack of them,
    (F, n_half) or (P, F, n_half), whose norms come back as (nested) lists.
    Sup norms are taken on a W2INF_OVERSAMPLE-times finer grid (spectral
    interpolation); the plain grid undersamples peaks of high modes. All
    rows and orders share one inverse transform, which changes no row's bits.

    Only the orders that can hold the max are transformed. A DFT coefficient
    never exceeds the grid sup of its field, so M = max_j |c_j| max_o k_j^o
    is a lower bound of the norm, while order o's sup is at most its Wiener
    bound B_o = sum_j W[o, j] |c_j| (``wiener_weights``). An order with
    B_o (1 + s) < M (1 - s), s = BOUND_SLACK for rounding, stays below an
    order that is transformed, so dropping it changes no bit of the norm. A
    field whose M exceeds ``w2inf_floor`` or is NaN drops no order, so an
    overflow or a NaN still reaches the norm; a zero field drops none either.
    """
    spec = np.asarray(spec)
    powers, weights, top_power, floor = _norm_tables(grid)
    derivs = np.empty(spec.shape[:-1] + (3, spec.shape[-1]), dtype=complex)
    derivs[..., 0, :] = spec
    derivs[..., 1, :] = spec * powers[0]
    derivs[..., 2, :] = spec * powers[1]
    # a bound or M that overflows, or a 0 * inf, only keeps orders
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(spec)
        bounds = mags @ weights.T
        peak = (mags * top_power).max(axis=-1, keepdims=True)
        keep = ~((bounds * (1.0 + BOUND_SLACK) < peak * (1.0 - BOUND_SLACK)) & (peak <= floor))
    fine = to_physical(derivs[keep], W2INF_OVERSAMPLE * grid.n_collocation)
    np.abs(fine, out=fine)
    # a dropped order stands at 0, below every sup; np.max propagates a NaN
    # order, so a state whose derivatives overflow has a non-finite norm
    sups = np.zeros(keep.shape)
    sups[keep] = fine.max(axis=-1)
    norms = sups.max(axis=-1)
    return norms.tolist() if spec.ndim > 1 else float(norms)


def quantum_identity_residual(rho: RealField, grid: TorusGrid) -> float:
    """sup-norm residual of 2*rho*d/dx(sqrt(rho)''/sqrt(rho)) = d/dx(rho*(log rho)'').

    Both sides are evaluated pseudo-spectrally on a 2x oversampled grid, with
    every composition (sqrt, log, quotients, products) band-limited to the
    Galerkin band before the next derivative, so the residual tracks the
    band-limitation error of the grid and decays spectrally in m_modes for
    analytic densities.
    """
    if np.any(rho.physical <= 0.0):
        raise DomainError("density must be strictly positive pointwise")
    n = grid.n_collocation
    n_fine = 2 * n
    # n/3 is the alias-free band of the evaluation grid itself
    cap = min(grid.m_modes, n // 3)
    k = 2.0 * np.pi * np.arange(n_fine // 2 + 1)

    def trunc(values: np.ndarray) -> np.ndarray:
        spec = to_spectral(values)
        spec[cap + 1 :] = 0.0
        return spec

    def ddx(spec: np.ndarray, order: int = 1) -> np.ndarray:
        return to_physical(spec * (1j * k) ** order, n_fine)

    rho_f = resample(rho, grid, n_fine)
    sqrt_spec = trunc(np.sqrt(rho_f))
    log_spec = trunc(np.log(rho_f))
    rho_f = to_physical(trunc(rho_f), n_fine)
    sqrt_f = to_physical(sqrt_spec, n_fine)

    bohm = ddx(sqrt_spec, 2) / sqrt_f
    lhs = 2.0 * rho_f * ddx(trunc(bohm))
    rhs = ddx(trunc(rho_f * ddx(log_spec, 2)))
    return float(np.max(np.abs(lhs - rhs)))
