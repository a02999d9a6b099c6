"""Conserved/dissipated functionals, entropy identities, and runtime monitors.

All integrals are evaluated by periodic trapezoid quadrature (the grid mean)
on an oversampled grid: the integrands are non-polynomial in the spectral
coefficients (powers and exponentials of rho), so quadrature on the bare
collocation grid would alias.

``compute_record`` is the only code that evaluates the monitored
functionals, on one State or on P States in one stacked pass. It resamples
[psi, u] onto the QUAD_OVERSAMPLE grid in one stacked transform and takes
every derivative in one ``ddx_rows``, one forward and one inverse transform
of a stack of five rows: psi', u', (rho^((gamma+alpha-1)/2))',
(rho^(alpha/2))' (unused for alpha = 0) and the one second derivative,
(rho^(alpha/2))'' or, for alpha = 0, psi'', of a second copy of its row.
The 8x resample of psi for min rho makes four transforms per pass. numpy's transforms, and its means, sums and mins along
the last, contiguous axis, treat each row of a stack as they treat that row
alone, so the stacking changes no bit of a record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import DomainError, ModelParams, State, w2inf_norm
from .spectral import RealField, TorusGrid, ddx, ddx_rows, hs_norm, resample, to_physical

QUAD_OVERSAMPLE = 2
# oversampling of the entropy-identity residuals and the combination check
IDENTITY_OVERSAMPLE = 4
# exponent of the monitored no-vacuum norm ||1/rho||_inf^BETA
BETA = 1.0


def _fourth(values: np.ndarray) -> np.ndarray:
    """values**4, as the square of the square.

    numpy's SIMD ``pow`` drops to a scalar path for negative bases on some
    hosts: on an AVX-512 host, ``d ** 4`` of a (64, 128) array of signed
    derivatives takes about 500 us, against 4 us for this form. Its value is
    within 2 ulps of ``pow``'s.
    """
    return np.square(np.square(values))


def _quad(values: np.ndarray) -> float | np.ndarray:
    """Grid mean along the last axis: a float for one field, one per row for a stack."""
    means = np.mean(values, axis=-1)
    return float(means) if means.ndim == 0 else means


@dataclass(frozen=True)
class MonitorRecord:
    """Time-stamped values of every tracked functional."""

    time: float
    mass: float  # int rho, rho = exp(psi)
    energy: float  # int rho*u^2/2 + rho^gamma/(gamma-1) + |d/dx sqrt(rho)|^2
    energy_dissipation_rate: float  # int rho^alpha |du/dx|^2
    # the energy integrand with u replaced by the effective velocity
    # V = u + rho^(alpha-2) drho/dx = u + exp((alpha-1)psi) dpsi/dx
    bd_entropy: float
    # the weighted entropy-dissipation integrals; for alpha != 0
    #   (4*gamma/(gamma+alpha-1)^2 * int |d rho^((gamma+alpha-1)/2)|^2,
    #    4/alpha^2                * int |d^2 rho^(alpha/2)|^2,
    #    4(4-3*alpha)/(3*alpha^3)  * int rho^(-alpha) |d rho^(alpha/2)|^4);
    # for alpha = 0 the second slot is (1/2) int (d^2 log rho)^2, the third 0
    bd_terms: tuple[float, float, float]
    min_rho: float  # min of rho, sampled on an 8x finer grid
    inv_rho_beta_norm: float  # min_rho^(-BETA)
    hs_norms: tuple[float, float]  # H^(s+1) of psi, H^s of u; s = monitor_order
    w2inf_norms: tuple[float, float]  # W^{2,inf} norms of psi, u

    CSV_HEADER = (
        "time,mass,energy,energy_dissipation_rate,bd_entropy,"
        "bd_term_pressure,bd_term_second_order,bd_term_quartic,"
        "min_rho,inv_rho_beta_norm,hs_norm_psi,hs_norm_u,w2inf_psi,w2inf_u"
    )

    def to_row(self) -> list[float]:
        return [
            self.time, self.mass, self.energy, self.energy_dissipation_rate,
            self.bd_entropy, *self.bd_terms, self.min_rho, self.inv_rho_beta_norm,
            *self.hs_norms, *self.w2inf_norms,
        ]


def bd_pressure_identity_residual(rho: RealField, params: ModelParams,
                                  grid: TorusGrid) -> tuple[float, float]:
    """(|LHS - RHS|, RHS) of the pressure-entropy identity, both sides by quadrature.

    LHS = int d(rho^gamma)/dx * Q dx with Q = rho^(alpha-2) * drho/dx;
    RHS = 4*gamma/(gamma+alpha-1)^2 * int |d rho^((gamma+alpha-1)/2)/dx|^2.
    """
    gamma, alpha = params.gamma, params.alpha
    if abs(gamma + alpha - 1.0) < 1e-12:
        raise DomainError("gamma + alpha = 1 degenerates the pressure identity")
    if np.any(rho.physical <= 0.0):
        raise DomainError("density must be strictly positive pointwise")
    r = np.abs(resample(rho, grid, IDENTITY_OVERSAMPLE * grid.n_collocation))
    q = r ** (alpha - 2.0) * ddx(r, 1)
    lhs = _quad(ddx(r**gamma, 1) * q)
    rhs = (4.0 * gamma / (gamma + alpha - 1.0) ** 2
           * _quad(ddx(r ** (0.5 * (gamma + alpha - 1.0)), 1) ** 2))
    return abs(lhs - rhs), rhs


def bd_quantum_identity_residual(rho: RealField, alpha: float, grid: TorusGrid) -> float:
    """|I_direct - I_closed| for the theta = alpha/2 entropy-dissipation identity.

    I_direct = 2 * int d/dx(rho^(alpha-1) drho/dx) * (d^2 sqrt(rho)/sqrt(rho)) dx;
    I_closed = 4(4-3a)/(3a^3) int rho^-a |d rho^(a/2)|^4 + 4/a^2 int |d^2 rho^(a/2)|^2.
    The factor 2 makes the two sides equal as integrals (checked numerically
    to machine precision across alpha); without it they differ by exactly 2.
    """
    if alpha == 0.0:
        raise DomainError("alpha = 0 uses the separate log-density dissipation branch")
    if np.any(rho.physical <= 0.0):
        raise DomainError("density must be strictly positive pointwise")
    r = np.abs(resample(rho, grid, IDENTITY_OVERSAMPLE * grid.n_collocation))
    bohm = ddx(np.sqrt(r), 2) / np.sqrt(r)
    i_direct = 2.0 * _quad(ddx(r ** (alpha - 1.0) * ddx(r, 1), 1) * bohm)
    half = r ** (0.5 * alpha)
    i_closed = (4.0 * (4.0 - 3.0 * alpha) / (3.0 * alpha**3)
                * _quad(r ** (-alpha) * _fourth(ddx(half, 1)))
                + 4.0 / alpha**2 * _quad(ddx(half, 2) ** 2))
    return abs(i_direct - i_closed)


def functional_inequality_margin(f: RealField, grid: TorusGrid,
                                 oversample: int = 8) -> tuple[float, float]:
    """(margin, LHS) of the 9/16 inequality: LHS = (9/16) int (f'')^2, and the
    margin LHS - int |d sqrt(f)/dx|^4 is nonnegative for positive f in H^2."""
    if np.any(f.physical <= 0.0):
        raise DomainError("field must be strictly positive pointwise")
    vals = resample(f, grid, oversample * grid.n_collocation)
    if np.any(vals <= 0.0):
        raise DomainError("field must stay positive on the oversampled grid")
    lhs = 9.0 / 16.0 * _quad(ddx(vals, 2) ** 2)
    rhs = _quad(_fourth(ddx(np.sqrt(vals), 1)))
    return lhs - rhs, lhs


def nonneg_combination_check(rho: RealField, alpha: float, grid: TorusGrid) -> float:
    """Lower bound for the quantum dissipation pair: 16(3-2a)/(9a^3) * quartic integral.

    Combines the quartic slot with the second-order slot bounded below through
    the 9/16 inequality (applied to rho^(alpha/2)). Nonnegative exactly for
    alpha in (0, 3/2]; outside that range the signed value is returned without
    assertion.
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    r = np.abs(resample(rho, grid, IDENTITY_OVERSAMPLE * grid.n_collocation))
    quartic = _quad(r ** (-alpha) * _fourth(ddx(r ** (0.5 * alpha), 1)))
    value = 16.0 * (3.0 - 2.0 * alpha) / (9.0 * alpha**3) * quartic
    if alpha <= 1.5 and value < -1e-10:
        raise DomainError(
            f"nonnegative combination violated for alpha={alpha}: {value:.3e}"
        )
    return value


def _energy_density(rho: np.ndarray, v: np.ndarray, psi: np.ndarray,
                    dpsi: np.ndarray, gamma: float) -> np.ndarray:
    """rho*v^2/2 + rho^gamma/(gamma-1) + |d/dx sqrt(rho)|^2, with |d sqrt(rho)|^2 = rho*psi'^2/4."""
    return (0.5 * rho * v**2
            + np.exp(gamma * psi) / (gamma - 1.0)
            + 0.25 * dpsi**2 * rho)


def compute_record(states: State | Sequence[State], params: ModelParams, grid: TorusGrid,
                   w2inf_psi: float | Sequence[float] | None = None,
                   w2inf_u: float | Sequence[float] | None = None,
                   ) -> MonitorRecord | list[MonitorRecord]:
    """Evaluate every monitored functional on one state, or on a sequence of
    states in one stacked pass that gives each its own record's bits.

    The W^{2,inf} norms, one value per state, are the caller's when both are
    given, else both are taken here in one stacked transform.
    """
    given = w2inf_psi is not None and w2inf_u is not None
    if one := isinstance(states, State):
        states, w2inf_psi, w2inf_u = [states], [w2inf_psi], [w2inf_u]
    gamma, alpha = params.gamma, params.alpha
    s = params.monitor_order
    spec = np.array([[st.psi.spectral for st in states], [st.u.spectral for st in states]])
    psi, u = to_physical(spec, QUAD_OVERSAMPLE * grid.n_collocation)
    rho = np.exp(psi)
    half = rho ** (0.5 * alpha)
    dpsi, du, d_pressure, d_half, second = ddx_rows(
        np.stack((psi, u, rho ** (0.5 * (gamma + alpha - 1.0)), half,
                  psi if alpha == 0.0 else half)), [1, 1, 1, 1, 2])
    if alpha == 0.0:
        second_order = 0.5 * _quad(second ** 2)
        quartic = np.zeros(len(states))
    else:
        second_order = 4.0 / alpha**2 * _quad(second ** 2)
        quartic = (4.0 * (4.0 - 3.0 * alpha) / (3.0 * alpha**3)
                   * _quad(rho ** (-alpha) * _fourth(d_half)))
    v = u + np.exp((alpha - 1.0) * psi) * dpsi
    rho_min = np.exp(np.min(to_physical(spec[0], 8 * grid.n_collocation), axis=-1))
    if not given:
        w2inf_psi, w2inf_u = w2inf_norm(spec, grid)
    cols = (
        _quad(rho), _quad(_energy_density(rho, u, psi, dpsi, gamma)),
        _quad(np.exp(alpha * psi) * du**2), _quad(_energy_density(rho, v, psi, dpsi, gamma)),
        4.0 * gamma / (gamma + alpha - 1.0) ** 2 * _quad(d_pressure**2), second_order, quartic,
        rho_min, hs_norm(spec[0], s + 1, grid), hs_norm(spec[1], s, grid))
    records = [MonitorRecord(st.time, mass, energy, rate, bd, (pressure, second, quart), low,
                             low ** (-BETA), (hs_psi, hs_u), (w_psi, w_u))
               for st, (mass, energy, rate, bd, pressure, second, quart, low, hs_psi, hs_u),
               w_psi, w_u in zip(states, zip(*(c.tolist() for c in cols)), w2inf_psi, w2inf_u)]
    return records[0] if one else records


@dataclass(frozen=True)
class VacuumSummary:
    """Ensemble vacuum statistics in the sense of the no-vacuum proposition."""

    min_rho: float
    max_inv_rho_beta: float
    n_paths: int
    global_regularity_regime: bool


def vacuum_statistics(path_minima: Sequence[float],
                      global_regularity_regime: bool = True) -> VacuumSummary:
    """The ensemble's vacuum block from each recorded path's minimum over time
    of min_rho: the least of the minima, and the greatest 1/rho^BETA norm,
    taken per path as its minimum to the power -BETA."""
    if not path_minima:
        raise DomainError("vacuum statistics need at least one path minimum")
    return VacuumSummary(min_rho=float(min(path_minima)),
                         max_inv_rho_beta=float(max(low ** (-BETA) for low in path_minima)),
                         n_paths=len(path_minima),
                         global_regularity_regime=global_regularity_regime)
