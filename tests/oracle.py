"""Independent brute-force references for tests and acceptance criteria.

Everything here is intentionally simple and slow: direct O(m^2) convolution
sums, trapezoid quadrature, naive trigonometric summation, explicit time
stepping. None of it shares a code path with the production kernels;
independence is the point. The RK4 reference steps its own FFT-free
right-hand side (``_TrigRhs``): fields are evaluated by dense trigonometric
sums and projected back onto the modes by quadrature inner products, with
both matrices built once per grid. From the model it takes only the
definition of the system: ``ModelParams``, the cut-off ``cutoff_phi`` and
W2INF_OVERSAMPLE, the sampling of the W^{2,inf} norm the cut-off acts on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from qns1d.model import W2INF_OVERSAMPLE, ModelParams, State, cutoff_phi
from qns1d.spectral import RealField, TorusGrid


class CflError(ValueError):
    """Requested step exceeds the explicit-scheme stability bound."""


@dataclass(frozen=True)
class OracleReport:
    quantity: str
    primary_value: float
    oracle_value: float
    abs_discrepancy: float
    rel_discrepancy: float
    resolution: dict

    @classmethod
    def compare(cls, quantity: str, primary: float, oracle: float,
                resolution: dict | None = None) -> "OracleReport":
        denom = max(abs(primary), abs(oracle), 1e-300)
        return cls(quantity=quantity, primary_value=float(primary),
                   oracle_value=float(oracle),
                   abs_discrepancy=abs(primary - oracle),
                   rel_discrepancy=abs(primary - oracle) / denom,
                   resolution=resolution or {})

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def dense_quadrature(integrand: Callable[..., np.ndarray],
                     fields: Sequence[RealField], grid: TorusGrid,
                     oversample: int = 8) -> float:
    """Trapezoid quadrature of integrand(x, *interpolated fields) on [0, 1).

    Fields are interpolated spectrally by direct summation of their Fourier
    series on the oversampled grid (no FFT involved). On a periodic uniform
    grid the trapezoid rule reduces to the plain average.
    """
    if oversample < 4:
        raise ValueError("oversample factor must be at least 4")
    n_fine = oversample * grid.n_collocation
    x = np.arange(n_fine) / n_fine
    values = [trig_eval(f, grid, x) for f in fields]
    return float(np.mean(integrand(x, *values)))


def _synthesis(n: int, n_modes: int, x: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    """Matrix from the coefficients of modes 0..n_modes-1 on an n-point grid to
    samples at x of the derivatives of the given orders.

    One block of rows per order, stacked in the order given; the samples
    are the real parts of the matrix-vector product.
    """
    j = np.arange(n_modes)
    weight = np.where((j == 0) | (j == n // 2), 1.0, 2.0)
    waves = weight * np.exp(2j * np.pi * np.outer(x, j))
    return np.concatenate([waves * (2j * np.pi * j) ** order for order in orders])


def trig_eval(field: RealField, grid: TorusGrid, x: np.ndarray,
              order: int = 0) -> np.ndarray:
    """Direct summation of the (differentiated) Fourier series at points x."""
    synthesis = _synthesis(grid.n_collocation, grid.n_half, x, (order,))
    return (synthesis @ field.spectral).real


def convolution_product(a: RealField, b: RealField, grid: TorusGrid,
                        keep: int) -> np.ndarray:
    """Mode coefficients of a*b for |j| <= keep by the direct convolution sum.

    Operates on the full signed spectra reconstructed from the half spectra;
    O(m^2) and exact up to rounding (no grids, no FFTs).
    """
    def signed(f: RealField) -> dict[int, complex]:
        coeffs = {}
        for j in range(grid.n_half):
            coeffs[j] = complex(f.spectral[j])
            if j > 0:
                coeffs[-j] = complex(np.conj(f.spectral[j]))
        return coeffs

    ca, cb = signed(a), signed(b)
    m = grid.n_collocation // 2
    out = np.zeros(keep + 1, dtype=complex)
    for j in range(keep + 1):
        total = 0.0 + 0.0j
        for p in range(-m, m + 1):
            q = j - p
            if -m <= q <= m and p in ca and q in cb:
                total += ca[p] * cb[q]
        out[j] = total
    return out


def oracle_mode_coefficients(values_fine: np.ndarray, n_modes: int) -> np.ndarray:
    """Half-spectrum coefficients by direct quadrature sums, c_j = <f, e^{2 pi i j x}>."""
    n = values_fine.shape[0]
    x = np.arange(n) / n
    out = np.zeros(n_modes + 1, dtype=complex)
    for j in range(n_modes + 1):
        out[j] = np.mean(values_fine * np.exp(-2j * np.pi * j * x))
    return out


def fd_derivative(values: np.ndarray, order: int, h: float) -> np.ndarray:
    """6th-order centered finite differences with periodic wrap."""
    if order == 1:
        weights = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60.0 * h)
    elif order == 2:
        weights = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / (180.0 * h**2)
    else:
        raise ValueError("finite-difference oracle supports orders 1 and 2")
    out = np.zeros_like(values)
    for offset, w in zip(range(-3, 4), weights):
        out += w * np.roll(values, -offset)
    return out


def linear_propagator(k: float, gamma: float, visc: float, t: float) -> np.ndarray:
    """Exact 2x2 solution operator of the constant-coefficient linearization.

    Around (psi, u) = (0, 0): d psi = -ik u dt, d u = (-(i/2)k^3 - i*gamma*k) psi dt
    - visc k^2 u dt. Evaluated with the matrix exponential.
    """
    a = np.array([[0.0, -1j * k],
                  [-0.5j * k**3 - 1j * gamma * k, -visc * k**2]], dtype=complex)
    return expm(a * t)


def rk4_stability_limit(grid: TorusGrid, params: ModelParams,
                        nu_max: float = 1.5) -> float:
    """Explicit step bound: the skew pair rotates at k^2/sqrt(2), viscosity damps at nu k^2.

    The documented guard dt <= 1/m^3 is enforced alongside (conservative for
    small m, where the constant matters less).
    """
    k_max = 2.0 * np.pi * grid.m_modes
    omega = k_max**2 / np.sqrt(2.0) + nu_max * k_max**2
    return min(2.5 / omega, 1.0 / grid.m_modes**3)


def _analysis(n_points: int, keep: int) -> np.ndarray:
    """Matrix from samples at n_points equispaced points to the coefficients
    of modes 0..keep, by trapezoid quadrature of <f, exp(2 pi i j x)>."""
    x = np.arange(n_points) / n_points
    return np.exp(-2j * np.pi * np.outer(np.arange(keep + 1), x)) / n_points


class _TrigRhs:
    """Deterministic right-hand side of the cut-off Galerkin system, FFT-free.

    Works on the coefficients of modes 0..m. Non-polynomial terms are sampled
    on the collocation grid and projected by quadrature there: that is the
    semi-discrete system the production scheme solves. Quadratic products
    are sampled on 3(m+1) points, so no alias of a product of two band-m
    fields (modes up to 2m) reaches a retained mode, and are then cut at the
    grid's dealias_cut.
    """

    def __init__(self, grid: TorusGrid, params: ModelParams):
        m, n = grid.m_modes, grid.n_collocation
        self.params = params
        self.cut = grid.dealias_cut
        self.ik = 2j * np.pi * np.arange(m + 1)
        n_quad = 3 * (m + 1)
        n_sup = W2INF_OVERSAMPLE * n
        self.colloc = _synthesis(n, m + 1, grid.x, (0, 1, 2))
        self.quad = _synthesis(n, m + 1, np.arange(n_quad) / n_quad, (0, 1, 2))
        self.sup = _synthesis(n, m + 1, np.arange(n_sup) / n_sup, (0, 1, 2))
        self.colloc_proj = _analysis(n, m)
        self.quad_proj = _analysis(n_quad, self.cut)

    def phi(self, coeffs: np.ndarray) -> float:
        """Cut-off factor of the W^{2,inf} norm, the sup over the fine samples."""
        if not self.params.enable_cutoff:
            return 1.0
        norm = float(np.max(np.abs((self.sup @ coeffs).real)))
        return cutoff_phi(norm, self.params.cutoff_radius)

    def __call__(self, psi: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gamma, alpha = self.params.gamma, self.params.alpha
        phi_psi, phi_u = self.phi(psi), self.phi(u)
        psi0, dpsi, _ = (self.colloc @ psi).real.reshape(3, -1)
        _, du, d2u = (self.colloc @ u).real.reshape(3, -1)
        _, q_dpsi, q_d2psi = (self.quad @ psi).real.reshape(3, -1)
        q_u, q_du, _ = (self.quad @ u).real.reshape(3, -1)
        visc = np.exp((alpha - 1.0) * psi0)

        dpsi_dt = -self.ik * u
        dpsi_dt[: self.cut + 1] -= phi_u * (self.quad_proj @ (q_u * q_dpsi))

        pointwise = phi_psi * (-gamma * np.exp((gamma - 1.0) * psi0) * dpsi
                               + visc * d2u + alpha * visc * dpsi * du)
        du_dt = self.colloc_proj @ pointwise + 0.5 * self.ik**3 * psi
        quadratic = -phi_u * q_u * q_du + 0.5 * phi_psi * q_dpsi * q_d2psi
        du_dt[: self.cut + 1] += self.quad_proj @ quadratic
        return dpsi_dt, du_dt


def reference_trajectory(initial: State, params: ModelParams, grid: TorusGrid,
                         t_end: float, dt_fine: float) -> State:
    """Explicit RK4 solution of the deterministic system at dt_fine.

    Steps the FFT-free ``_TrigRhs`` from the Galerkin projection of the
    initial state. dt_fine is snapped so t_end is an exact number of steps.
    """
    limit = rk4_stability_limit(grid, params)
    if dt_fine > limit:
        raise CflError(
            f"dt_fine={dt_fine:.3e} exceeds the explicit stability bound "
            f"{limit:.3e} for m={grid.m_modes}; use a smaller dt_fine")
    rhs = _TrigRhs(grid, params)
    n_steps = max(1, round(t_end / dt_fine))
    dt = t_end / n_steps
    keep = grid.m_modes + 1
    psi = initial.psi.spectral[:keep]
    u = initial.u.spectral[:keep]
    for _ in range(n_steps):
        k1 = rhs(psi, u)
        k2 = rhs(psi + 0.5 * dt * k1[0], u + 0.5 * dt * k1[1])
        k3 = rhs(psi + 0.5 * dt * k2[0], u + 0.5 * dt * k2[1])
        k4 = rhs(psi + dt * k3[0], u + dt * k3[1])
        psi = psi + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        u = u + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    pad = (0, grid.n_half - keep)
    return State(psi=RealField.from_spectral(np.pad(psi, pad), grid),
                 u=RealField.from_spectral(np.pad(u, pad), grid),
                 time=initial.time + n_steps * dt)
