"""Time advancement of the cut-off Galerkin system.

The stiff linear couple (d psi = -du/dx dt, du = (1/2) d^3 psi/dx^3 dt
+ nu*d^2u/dx^2 dt) is advanced by a per-mode 2x2 Crank-Nicolson solve; every
other deterministic term is explicit; the noise enters Euler-Maruyama style
with left-endpoint coefficients. The continuity equation's transport term
additionally gets one predictor-corrector (trapezoidal) pass: the mass
functional does not depend on u, so this single correction pushes the mass
drift from O(dt) to O(dt^2) without touching the overall first-order
splitting.

The array kernels of ``_Stepper`` are the only implementation of the
right-hand side. ``simulate_path`` runs the one state check (finite values,
|psi| within the clamp) on every state, the last included, before its norms
and monitor record are taken; a failed check ends the path as a blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import functionals
from .model import (
    ModelParams,
    NumericalBlowupError,
    State,
    cutoff_phi,
    w2inf_norm,
)
from .noise import NoiseModel, derive_path_seed, sample_increment
from .spectral import RealField, TorusGrid, l2_norm, to_physical, to_spectral


class IntegratorConfigError(ValueError):
    pass


@dataclass(frozen=True)
class StepConfig:
    """Time-stepping parameters."""

    dt: float
    t_end: float
    implicit_visc_floor: float | None = None  # None: refreshed min of rho^(alpha-1)
    # exponent clamp: exp() overflows silently long before float64 infinities help
    blowup_clamp: float = 50.0

    def __post_init__(self) -> None:
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise IntegratorConfigError("dt and t_end must be positive")
        if self.dt > self.t_end:
            raise IntegratorConfigError("dt must not exceed t_end")
        if self.implicit_visc_floor is not None and self.implicit_visc_floor < 0.0:
            raise IntegratorConfigError("implicit_visc_floor must be nonnegative")

    @property
    def n_steps(self) -> int:
        return max(1, round(self.t_end / self.dt))

    @property
    def dt_effective(self) -> float:
        # snap so the horizon is an exact number of steps
        return self.t_end / self.n_steps


@dataclass(frozen=True)
class StoppingEvent:
    kind: str  # tau_R_hit | numerical_blowup | completed
    time: float
    triggering_norm: float
    which: str  # psi | u | none


@dataclass(frozen=True)
class MonitorSpec:
    """What to record along a path and how often."""

    stride: int = 1
    collect_records: bool = True


@dataclass(frozen=True)
class PathResult:
    """One trajectory: monitor series, per-step norm trace, terminal event.

    The norm trace and the records cover only states that passed the state
    check, so a path that blows up has no row for its diverged state.
    """

    records: list[functionals.MonitorRecord]
    event: StoppingEvent
    final_state: State
    norm_trace: np.ndarray  # columns: time, |psi|_W2inf, |u|_W2inf
    n_steps_taken: int


class _Stepper:
    """Per-run workspace: wavenumber arrays, masks, and the step kernels.

    Spectra are mean-normalized half-spectra (rfft/n). All kernels take and
    return raw arrays; the public functions wrap them in State/RealField.
    """

    def __init__(self, grid: TorusGrid, params: ModelParams, cfg: StepConfig,
                 noise: NoiseModel):
        self.grid = grid
        self.params = params
        self.cfg = cfg
        self.noise = noise
        self.n = grid.n_collocation
        self.k = grid.k_half
        self.k2 = self.k**2
        # dispersion coefficient of the implicit block: the Bohm factor 1/2
        # times k^3, so the dispersion term is -1j * hk3 * psi_spec
        self.hk3 = 0.5 * self.k**3
        self.band = np.arange(grid.n_half) <= grid.m_modes
        self.qmask = grid.dealias_mask
        self.dt = cfg.dt_effective
        # alias-free quadratic products need n >= 2m + cut + 2
        need = 2 * grid.m_modes + grid.dealias_cut + 2
        self.product_n = self.n if self.n >= need else need + (need % 2)
        self.noise_on = noise.base_amplitude > 0.0

    # --- small kernels -------------------------------------------------

    def phys(self, spec: np.ndarray) -> np.ndarray:
        return to_physical(spec, self.n)

    def product(self, a_spec: np.ndarray, b_spec: np.ndarray) -> np.ndarray:
        """Dealiased quadratic product, returned as a masked half-spectrum.

        The product is formed in physical space, on an internally padded
        grid when n_collocation is too small for the retained band to be
        alias-free, then masked by the grid's dealias_mask.
        """
        n = self.product_n
        prod = to_physical(a_spec, n) * to_physical(b_spec, n)
        return np.where(self.qmask, to_spectral(prod)[: self.grid.n_half], 0.0)

    def pointwise_projected(self, values: np.ndarray) -> np.ndarray:
        """Galerkin-band projection of pointwise values on the collocation grid."""
        return np.where(self.band, to_spectral(values), 0.0)

    def phi(self, norm: float) -> float:
        if not self.params.enable_cutoff:
            return 1.0
        return cutoff_phi(norm, self.params.cutoff_radius)

    # --- right-hand sides ----------------------------------------------

    def transport_spec(self, psi_spec: np.ndarray, u_spec: np.ndarray,
                       phi_u: float) -> np.ndarray:
        """-phi(|u|) * u * dpsi/dx as a half-spectrum."""
        dpsi = psi_spec * (1j * self.k)
        return -phi_u * self.product(u_spec, dpsi)

    def u_terms(self, psi_spec: np.ndarray, u_spec: np.ndarray,
                psi_phys: np.ndarray, phi_u: float, phi_psi: float,
                ) -> dict[str, np.ndarray]:
        """The five explicit momentum terms, each with its cut-off factor applied.

        Keys: advection, pressure, viscosity, viscosity_gradient, quantum.
        The sixth term, the dispersion, is linear, carries no cut-off and
        is solved implicitly with coefficient ``hk3``.
        """
        p = self.params
        dpsi_s = psi_spec * (1j * self.k)
        du_s = u_spec * (1j * self.k)
        dpsi = self.phys(dpsi_s)
        du = self.phys(du_s)
        d2u = self.phys(-self.k2 * u_spec)
        d2psi_s = -self.k2 * psi_spec

        exp_g = np.exp((p.gamma - 1.0) * psi_phys)
        exp_a = np.exp((p.alpha - 1.0) * psi_phys)
        return {
            "advection": -phi_u * self.product(u_spec, du_s),
            "pressure": -phi_psi * p.gamma * self.pointwise_projected(exp_g * dpsi),
            "viscosity": phi_psi * self.pointwise_projected(exp_a * d2u),
            "viscosity_gradient":
                phi_psi * p.alpha * self.pointwise_projected(exp_a * dpsi * du),
            # d/dx(sqrt(rho)''/sqrt(rho)) = (psi''' + psi'psi'')/2: the 1/2 is
            # what the energy functional's capillary term dissipates against
            "quantum": 0.5 * phi_psi * self.product(dpsi_s, d2psi_s),
        }

    def explicit_u_spec(self, psi_spec: np.ndarray, u_spec: np.ndarray,
                        psi_phys: np.ndarray, phi_u: float, phi_psi: float,
                        nu_bar: float) -> np.ndarray:
        """All momentum terms outside the implicit 2x2 block."""
        terms = self.u_terms(psi_spec, u_spec, psi_phys, phi_u, phi_psi)
        out = terms["advection"] + terms["pressure"]
        # viscosity minus the share handled implicitly
        out = out + terms["viscosity"] + nu_bar * self.k2 * u_spec
        return out + terms["viscosity_gradient"] + terms["quantum"]

    def forcing_spec(self, dW: np.ndarray, psi_phys: np.ndarray, u_phys: np.ndarray,
                     phi_u: float) -> np.ndarray:
        """phi(|u|) * sum_k F_k(x, rho, u) dW_k, projected onto the Galerkin band."""
        rho = np.exp(psi_phys)
        coeffs = self.noise.coefficient_fields(self.grid.x, rho, u_phys)
        return phi_u * self.pointwise_projected(dW @ coeffs)

    def nu_bar(self, psi_phys: np.ndarray, phi_psi: float) -> float:
        if self.cfg.implicit_visc_floor is not None:
            return self.cfg.implicit_visc_floor
        # never exceed the true cut-off viscous coefficient, or the explicit
        # remainder turns anti-diffusive
        return phi_psi * float(np.exp(np.min((self.params.alpha - 1.0) * psi_phys)))

    def cn_solve(self, psi_spec: np.ndarray, u_spec: np.ndarray,
                 n_psi: np.ndarray, n_u: np.ndarray, s_u: np.ndarray,
                 nu_bar: float) -> tuple[np.ndarray, np.ndarray]:
        """One Crank-Nicolson solve of the per-mode 2x2 skew/viscous block.

        The implicit block is d psi = -ik u dt, d u = -(i/2) k^3 psi dt
        - nu k^2 u dt (the dispersion carries the Bohm factor 1/2).
        """
        hdt = 0.5 * self.dt
        hk3 = self.hk3
        b1 = psi_spec + hdt * (-1j * self.k * u_spec) + self.dt * n_psi
        b2 = (u_spec + hdt * (-1j * hk3 * psi_spec - nu_bar * self.k2 * u_spec)
              + self.dt * n_u + s_u)
        det = 1.0 + hdt * nu_bar * self.k2 + 0.5 * hdt * hdt * self.k2 * self.k2
        psi_new = ((1.0 + hdt * nu_bar * self.k2) * b1 - hdt * 1j * self.k * b2) / det
        u_new = (-hdt * 1j * hk3 * b1 + b2) / det
        return np.where(self.band, psi_new, 0.0), np.where(self.band, u_new, 0.0)

    def check_state(self, psi_phys: np.ndarray, u_phys: np.ndarray, t: float) -> None:
        """Raise NumericalBlowupError on non-finite samples or |psi| beyond the clamp."""
        if not (np.all(np.isfinite(psi_phys)) and np.all(np.isfinite(u_phys))):
            raise NumericalBlowupError("non-finite values in state", t)
        peak = float(np.max(np.abs(psi_phys)))
        if peak > self.cfg.blowup_clamp:
            raise NumericalBlowupError(
                f"|psi| reached {peak:.3g} beyond clamp {self.cfg.blowup_clamp}", t)

    # --- full step -------------------------------------------------------

    def step_imex(self, psi_spec: np.ndarray, u_spec: np.ndarray,
                  psi_phys: np.ndarray, u_phys: np.ndarray,
                  dW: np.ndarray | None, norms: tuple[float, float],
                  ) -> tuple[np.ndarray, np.ndarray]:
        """One IMEX step from a checked state.

        psi_phys and u_phys are the state's collocation samples and norms its
        W^{2,inf} norms (psi, u); dW is the step's increment, or None.
        """
        phi_psi = self.phi(norms[0])
        phi_u = self.phi(norms[1])
        nu_bar = self.nu_bar(psi_phys, phi_psi)

        n_psi = self.transport_spec(psi_spec, u_spec, phi_u)
        n_u = self.explicit_u_spec(psi_spec, u_spec, psi_phys, phi_u, phi_psi, nu_bar)
        s_u = np.zeros_like(u_spec)
        if dW is not None and self.noise_on:
            s_u = self.forcing_spec(dW, psi_phys, u_phys, phi_u)

        psi_pred, u_pred = self.cn_solve(psi_spec, u_spec, n_psi, n_u, s_u, nu_bar)

        # trapezoidal corrector on the transport term only (mass accuracy)
        phi_u_pred = self.phi(w2inf_norm(u_pred, self.grid))
        n_psi_pred = self.transport_spec(psi_pred, u_pred, phi_u_pred)
        n_psi_avg = 0.5 * (n_psi + n_psi_pred)
        return self.cn_solve(psi_spec, u_spec, n_psi_avg, n_u, s_u, nu_bar)


def step(state: State, cfg: StepConfig, params: ModelParams, noise: NoiseModel,
         seed: int, step_index: int, grid: TorusGrid) -> State:
    """Advance one time step; raises NumericalBlowupError if the input state
    fails the state check."""
    stepper = _Stepper(grid, params, cfg, noise)
    psi_spec, u_spec = state.psi.spectral, state.u.spectral
    psi_phys, u_phys = stepper.phys(psi_spec), stepper.phys(u_spec)
    stepper.check_state(psi_phys, u_phys, state.time)
    dW = sample_increment(seed, step_index, stepper.dt, noise) if stepper.noise_on else None
    norms = (w2inf_norm(psi_spec, grid), w2inf_norm(u_spec, grid))
    psi_new, u_new = stepper.step_imex(psi_spec, u_spec, psi_phys, u_phys, dW, norms)
    return State(
        psi=RealField.from_spectral(psi_new, grid),
        u=RealField.from_spectral(u_new, grid),
        time=state.time + stepper.dt,
    )


def simulate_path(initial: State, cfg: StepConfig, params: ModelParams,
                  noise: NoiseModel, path_seed: int, grid: TorusGrid,
                  monitors: MonitorSpec = MonitorSpec(),
                  increments: Sequence[np.ndarray] | None = None) -> PathResult:
    """Advance until t_end, a norm-threshold hit, or numerical blow-up.

    Fully reproducible from (config, path_seed): the noise stream is a pure
    function of (path_seed, step_index). Pre-summed increments may be passed
    for shared-path refinement studies.
    """
    stepper = _Stepper(grid, params, cfg, noise)
    dt = stepper.dt
    n_steps = cfg.n_steps
    radius = params.cutoff_radius if params.enable_cutoff else np.inf

    psi_spec = initial.psi.spectral.copy()
    u_spec = initial.u.spectral.copy()
    t = initial.time

    records: list[functionals.MonitorRecord] = []
    trace = np.zeros((n_steps + 1, 3))
    event: StoppingEvent | None = None
    steps_taken = 0

    def current_state() -> State:
        return State(psi=RealField.from_spectral(psi_spec, grid),
                     u=RealField.from_spectral(u_spec, grid), time=t)

    for i in range(n_steps + 1):
        # the samples the next step needs anyway are the ones checked, so the
        # check costs no transform except on the last state
        psi_phys = stepper.phys(psi_spec)
        u_phys = stepper.phys(u_spec)
        try:
            stepper.check_state(psi_phys, u_phys, t)
        except NumericalBlowupError as exc:
            event = StoppingEvent(kind="numerical_blowup", time=exc.time,
                                  triggering_norm=float("inf"), which="none")
            break
        norm_psi = w2inf_norm(psi_spec, grid)
        norm_u = w2inf_norm(u_spec, grid)
        trace[i] = (t, norm_psi, norm_u)
        if monitors.collect_records and (i % monitors.stride == 0 or i == n_steps):
            records.append(functionals.compute_record(
                current_state(), params, grid, w2inf_psi=norm_psi, w2inf_u=norm_u))
        worst = max(norm_psi, norm_u)
        if worst >= radius:
            event = StoppingEvent(
                kind="tau_R_hit", time=t, triggering_norm=worst,
                which="psi" if norm_psi >= norm_u else "u")
            break
        if i == n_steps:
            event = StoppingEvent(kind="completed", time=t,
                                  triggering_norm=worst, which="none")
            break
        if increments is not None:
            dW = np.asarray(increments[i])
        elif stepper.noise_on:
            dW = sample_increment(path_seed, i, dt, noise)
        else:
            dW = None
        psi_spec, u_spec = stepper.step_imex(psi_spec, u_spec, psi_phys, u_phys,
                                             dW, (norm_psi, norm_u))
        t = initial.time + (i + 1) * dt
        steps_taken = i + 1

    assert event is not None
    checked = steps_taken + (event.kind != "numerical_blowup")
    return PathResult(records=records, event=event, final_state=current_state(),
                      norm_trace=trace[:checked].copy(),
                      n_steps_taken=steps_taken)


def first_hit_times(result: PathResult, radii: Sequence[float]) -> list[float | None]:
    """Threshold-crossing times read off the recorded per-step norm series.

    Valid for any radius at or below the radius the path ran with, because
    trajectories for different cut-off radii coincide until the smaller
    threshold is reached. A path that ended in numerical blow-up counts as
    stopped at the blow-up time for thresholds it never reached.
    """
    worst = np.maximum(result.norm_trace[:, 1], result.norm_trace[:, 2])
    times = result.norm_trace[:, 0]
    out: list[float | None] = []
    for r in radii:
        hits = np.nonzero(worst >= r)[0]
        if hits.size:
            out.append(float(times[hits[0]]))
        elif result.event.kind == "numerical_blowup":
            out.append(float(result.event.time))
        else:
            out.append(None)
    return out


@dataclass(frozen=True)
class ConvergenceResult:
    order: float
    dts: tuple[float, ...]
    errors: tuple[float, ...]
    n_paths_used: int
    n_excluded: int


def strong_convergence_order(initial: State, params: ModelParams, noise: NoiseModel,
                             grid: TorusGrid, dt_levels: Sequence[float],
                             n_paths: int, master_seed: int, t_end: float) -> ConvergenceResult:
    """Pathwise self-convergence: slope of log E||u_fine - u_dt||_L2 vs log dt.

    All levels replay the same Brownian path: coarse increments are sums of
    the finest level's increments. Paths that blow up at any level are
    excluded and counted; more than 20% exclusions is a diagnostic failure.
    """
    dts = sorted(float(d) for d in dt_levels)
    dt_fine = dts[0]
    n_fine = round(t_end / dt_fine)
    ratios = []
    for d in dts[1:]:
        r = d / dt_fine
        if abs(r - round(r)) > 1e-9:
            raise IntegratorConfigError("dt_levels must be integer multiples of the finest")
        ratios.append(round(r))

    errors = np.zeros(len(dts) - 1)
    used = 0
    excluded = 0
    for p in range(n_paths):
        seed = derive_path_seed(master_seed, p)
        fine_incs = np.stack([sample_increment(seed, i, dt_fine, noise)
                              for i in range(n_fine)])
        try:
            cfg = StepConfig(dt=dt_fine, t_end=t_end)
            ref = simulate_path(initial, cfg, params, noise, seed, grid,
                                MonitorSpec(collect_records=False),
                                increments=fine_incs)
            if ref.event.kind != "completed":
                excluded += 1
                continue
            errs_p = []
            for r, d in zip(ratios, dts[1:]):
                coarse = fine_incs[: (n_fine // r) * r].reshape(-1, r, noise.k_modes).sum(axis=1)
                cfg_c = StepConfig(dt=d, t_end=t_end)
                res = simulate_path(initial, cfg_c, params, noise, seed, grid,
                                    MonitorSpec(collect_records=False),
                                    increments=coarse)
                if res.event.kind != "completed":
                    raise NumericalBlowupError("coarse level stopped", res.event.time)
                diff = RealField.from_spectral(
                    res.final_state.u.spectral - ref.final_state.u.spectral, grid)
                errs_p.append(l2_norm(diff, grid))
        except NumericalBlowupError:
            excluded += 1
            continue
        errors += np.asarray(errs_p)
        used += 1

    if used == 0 or excluded > 0.2 * n_paths:
        raise IntegratorConfigError(
            f"too many excluded paths in convergence study: {excluded}/{n_paths}")
    errors /= used
    slope = float(np.polyfit(np.log(dts[1:]), np.log(errors), 1)[0])
    return ConvergenceResult(order=slope, dts=tuple(dts[1:]), errors=tuple(errors),
                             n_paths_used=used, n_excluded=excluded)
