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
|psi| within the clamp, finite W^{2,inf} norms) on every state, the last
included, before its norm trace row and monitor record are written; a failed
check ends the path as a blow-up.

Transforms run over stacked rows, a few calls per step rather than one per
field. A state costs one: an inverse of [psi, u, psi', u', u'', psi''] on
the collocation grid, whose first two rows the state check reads and whose
samples the monitor record and the step reuse. A state whose exact norms are
read adds one oversampled inverse of derivative orders 0..2 of psi and u for
both W^{2,inf} norms. A step costs three: one forward transform of the seven
explicit-term rows (three dealiased products, four band projections), and
one inverse and one forward for the corrector's transport. A grid too coarse
for alias-free products adds one inverse for the product factors and one
forward. numpy transforms each row of a stack exactly as it transforms that
row alone, so stacking changes no bit of the result.

The corrector's cut-off factor phi(|u_pred|) skips its sup-norm when it
cannot matter. cutoff_phi is exactly 1 on [0, R], and the Wiener-algebra
bound max_o sum_j mult_j |c_j| k_j^o dominates the W^{2,inf} norm, so a
bound at or below R (less a relative slack of ``_BOUND_SLACK`` for rounding)
fixes phi = 1 with no transform; otherwise the norm is taken as before.
The state check certifies the same way, since below R the exact norm moves
neither phi nor the stopping test: its exact norms are read only on recorded
states, the last state, and where a bound could reach the resolve radius.
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
    W2INF_OVERSAMPLE,
    cutoff_phi,
    w2inf_norm,
)
from .noise import NoiseModel, derive_path_seed, sample_increment
from .spectral import RealField, TorusGrid, _frozen, hs_norm, to_physical, to_spectral

# relative margin below a radius for the Wiener bounds of the predictor and
# the state check, covering rounding in the bound's sum and in the sup-norm's
# transform
_BOUND_SLACK = 1e-9


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
    # a norm trace row is exact wherever either norm could reach this radius;
    # None: the path's own cut-off radius
    resolve_radius: float | None = None


@dataclass(frozen=True)
class PathResult:
    """One trajectory: monitor series, per-step norm trace, terminal event.

    The norm trace and the records cover only states that passed the state
    check, so a path that blows up has no row for its diverged state. Below
    the monitors' resolve radius, a row of a state without a record may hold
    the norms' Wiener bounds, which are at least the norms.
    """

    records: list[functionals.MonitorRecord]
    event: StoppingEvent
    final_state: State
    norm_trace: np.ndarray  # columns: time, |psi|_W2inf, |u|_W2inf (or bounds)
    n_steps_taken: int


class _Stepper:
    """Per-run workspace: wavenumber arrays, masks, and the step kernels.

    Spectra are mean-normalized half-spectra (rfft/n). All kernels take and
    return raw arrays; the public functions wrap them in State/RealField. A
    state enters the kernels as the rows of ``sample``.
    """

    def __init__(self, grid: TorusGrid, params: ModelParams, cfg: StepConfig,
                 noise: NoiseModel):
        self.grid = grid
        self.params = params
        self.cfg = cfg
        self.noise = noise
        self.n = grid.n_collocation
        self.k = grid.k_half
        self.ik = 1j * self.k
        self.k2 = self.k**2
        # dispersion coefficient of the implicit block: the Bohm factor 1/2
        # times k^3, so the dispersion term is -1j * hk3 * psi_spec
        self.hk3 = 0.5 * self.k**3
        self.band = np.arange(grid.n_half) <= grid.m_modes
        self.qmask = grid.dealias_mask
        # rows of the explicit-term stack: three dealiased products, then
        # four Galerkin-band projections, the forcing last
        self.term_masks = np.stack([self.qmask] * 3 + [self.band] * 4)
        self.dt = cfg.dt_effective
        # alias-free quadratic products need n >= 2m + cut + 2
        need = 2 * grid.m_modes + grid.dealias_cut + 2
        self.product_n = self.n if self.n >= need else need + (need % 2)
        self.noise_on = noise.base_amplitude > 0.0
        # a_k sin(2 pi k x) on the grid, the state-free factor of the forcing
        self.noise_waves = noise.waves(grid.x) if self.noise_on else None
        # Wiener-algebra bound of the W^{2,inf} norm, sup|d^o f/dx^o| <=
        # sum_j mult_j |c_j| k_j^o: on the oversampled grid every mode but
        # j = 0 is interior to the real transform and so counts twice
        mult = np.full(grid.n_half, 2.0)
        mult[0] = 1.0
        self.wiener = np.stack([mult, mult * self.k, mult * self.k2])
        self.radius = params.cutoff_radius if params.enable_cutoff else np.inf
        self.certified_radius = self.radius / (1.0 + _BOUND_SLACK)
        # the exact norm's transform scales the spectra by its 8n points, so
        # bounds above this could hide an overflow that the check must see
        self.finite_floor = np.finfo(float).max / (W2INF_OVERSAMPLE * self.n)

    # --- small kernels -------------------------------------------------

    def sample(self, psi_spec: np.ndarray, u_spec: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
        """Spectra and collocation samples of the rows [psi, u, psi', u', u'', psi''].

        One stacked inverse transform. The state check reads the first two
        rows, the explicit terms all six.
        """
        spec = np.stack((psi_spec, u_spec, psi_spec * self.ik, u_spec * self.ik,
                         -self.k2 * u_spec, -self.k2 * psi_spec))
        return spec, to_physical(spec, self.n)

    def project_rows(self, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Masked half-spectra of stacked samples on n or product_n points."""
        return np.where(masks, to_spectral(values)[..., : self.grid.n_half], 0.0)

    def product(self, a_spec: np.ndarray, b_spec: np.ndarray) -> np.ndarray:
        """Dealiased quadratic product, returned as a masked half-spectrum.

        Both factors go to physical space in one stacked transform, on an
        internally padded grid when n_collocation is too small for the
        retained band to be alias-free; the product is masked by the grid's
        dealias_mask.
        """
        a, b = to_physical(np.stack((a_spec, b_spec)), self.product_n)
        return self.project_rows(a * b, self.qmask)

    def phi(self, norm: float) -> float:
        if not self.params.enable_cutoff:
            return 1.0
        return cutoff_phi(norm, self.params.cutoff_radius)

    def predictor_phi(self, u_spec: np.ndarray) -> float:
        """phi(|u|) of the predictor, taking its sup-norm only where it can matter.

        cutoff_phi is exactly 1 at and below the radius, and the Wiener bound
        dominates the norm, so a bound that stays below the radius (by a
        relative slack for rounding) gives phi = 1 without the transform.
        """
        bound = float(np.max(self.wiener @ np.abs(u_spec)))
        if bound <= self.certified_radius:
            return self.phi(bound)
        return self.phi(w2inf_norm(u_spec, self.grid))

    # --- right-hand sides ----------------------------------------------

    def transport_spec(self, psi_spec: np.ndarray, u_spec: np.ndarray,
                       phi_u: float) -> np.ndarray:
        """-phi(|u|) * u * dpsi/dx as a half-spectrum, from the spectra alone."""
        return -phi_u * self.product(u_spec, psi_spec * self.ik)

    def explicit_terms(self, spec: np.ndarray, samples: np.ndarray, phi_u: float,
                       phi_psi: float, dW: np.ndarray | None = None,
                       ) -> dict[str, np.ndarray]:
        """The explicit terms of a sampled state, each with its cut-off factor applied.

        Keys: transport (continuity equation); advection, pressure, viscosity,
        viscosity_gradient and quantum (momentum equation); and forcing,
        phi(|u|) * sum_k F_k dW_k, when dW is given and the noise is on. The
        momentum equation's sixth term, the dispersion, is linear, carries no
        cut-off and is solved implicitly with coefficient ``hk3``.

        All terms share one forward transform. On a padded product grid the
        product factors take one more inverse transform, and the products
        and the projections take one forward transform each.
        """
        p = self.params
        psi, u, dpsi, du, d2u, d2psi = samples
        if self.product_n == self.n:
            f_u, f_dpsi, f_du, f_d2psi = u, dpsi, du, d2psi
        else:
            f_u, f_dpsi, f_du, f_d2psi = to_physical(spec[[1, 2, 3, 5]], self.product_n)
        exp_g = np.exp((p.gamma - 1.0) * psi)
        exp_a = np.exp((p.alpha - 1.0) * psi)
        products = [f_u * f_dpsi, f_u * f_du, f_dpsi * f_d2psi]
        pointwise = [exp_g * dpsi, exp_a * d2u, exp_a * dpsi * du]
        if dW is not None and self.noise_on:
            coeffs = self.noise.coefficient_fields(self.noise_waves, np.exp(psi), u)
            pointwise.append(dW @ coeffs)
        if self.product_n == self.n:
            rows = products + pointwise
            s = self.project_rows(np.stack(rows), self.term_masks[: len(rows)])
        else:
            s = np.concatenate((self.project_rows(np.stack(products), self.qmask),
                                self.project_rows(np.stack(pointwise), self.band)))
        terms = {
            "transport": -phi_u * s[0],
            "advection": -phi_u * s[1],
            # d/dx(sqrt(rho)''/sqrt(rho)) = (psi''' + psi'psi'')/2: the 1/2 is
            # what the energy functional's capillary term dissipates against
            "quantum": 0.5 * phi_psi * s[2],
            "pressure": -phi_psi * p.gamma * s[3],
            "viscosity": phi_psi * s[4],
            "viscosity_gradient": phi_psi * p.alpha * s[5],
        }
        if len(s) == 7:
            terms["forcing"] = phi_u * s[6]
        return terms

    def explicit_u_spec(self, terms: dict[str, np.ndarray], u_spec: np.ndarray,
                        nu_bar: float) -> np.ndarray:
        """All momentum terms outside the implicit 2x2 block."""
        out = terms["advection"] + terms["pressure"]
        # viscosity minus the share handled implicitly
        out = out + terms["viscosity"] + nu_bar * self.k2 * u_spec
        return out + terms["viscosity_gradient"] + terms["quantum"]

    def nu_bar(self, psi_phys: np.ndarray, phi_psi: float) -> float:
        if self.cfg.implicit_visc_floor is not None:
            return self.cfg.implicit_visc_floor
        # never exceed the true cut-off viscous coefficient, or the explicit
        # remainder turns anti-diffusive
        return phi_psi * float(np.exp(np.min((self.params.alpha - 1.0) * psi_phys)))

    def cn_solve(self, b1: np.ndarray, b2: np.ndarray, diag: np.ndarray,
                 kb2: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One Crank-Nicolson solve of the per-mode 2x2 skew/viscous block.

        The implicit block is d psi = -ik u dt, d u = -(i/2) k^3 psi dt
        - nu k^2 u dt (the dispersion carries the Bohm factor 1/2). b1 and b2
        are the right-hand sides of the psi and u rows; diag = 1 + (dt/2) nu k^2,
        kb2 = (dt/2) i k b2 and det, the block's determinant, depend only on
        the step, so ``step_imex`` builds them once for both of its solves.
        """
        hdt = 0.5 * self.dt
        psi_new = (diag * b1 - kb2) / det
        u_new = (-hdt * 1j * self.hk3 * b1 + b2) / det
        return np.where(self.band, psi_new, 0.0), np.where(self.band, u_new, 0.0)

    def check_state(self, spec: np.ndarray, samples: np.ndarray, t: float,
                    resolve: float | None = None) -> list[float]:
        """The W^{2,inf} norms (psi, u) of a state given as ``sample`` rows.

        Wiener bounds that both stay below ``resolve`` (by the relative slack)
        come back in place of the norms, with no transform. Raises
        NumericalBlowupError on non-finite samples, |psi| beyond the clamp,
        or a non-finite norm.
        """
        psi_phys, u_phys = samples[0], samples[1]
        if not (np.all(np.isfinite(psi_phys)) and np.all(np.isfinite(u_phys))):
            raise NumericalBlowupError("non-finite values in state", t)
        peak = float(np.max(np.abs(psi_phys)))
        if peak > self.cfg.blowup_clamp:
            raise NumericalBlowupError(
                f"|psi| reached {peak:.3g} beyond clamp {self.cfg.blowup_clamp}", t)
        if resolve is not None:
            floor = min(resolve / (1.0 + _BOUND_SLACK), self.finite_floor)
            b_psi, b_u = np.max(self.wiener @ np.abs(spec[:2]).T, axis=0).tolist()
            if b_psi <= floor and b_u <= floor:
                return [b_psi, b_u]
        norms = w2inf_norm(spec[:2], self.grid)
        if not np.all(np.isfinite(norms)):
            raise NumericalBlowupError("non-finite W^{2,inf} norm", t)
        return norms

    # --- full step -------------------------------------------------------

    def step_imex(self, spec: np.ndarray, samples: np.ndarray,
                  norms: Sequence[float], dW: np.ndarray | None,
                  ) -> tuple[np.ndarray, np.ndarray]:
        """One IMEX step from a checked state.

        spec and samples are the state's ``sample`` rows and norms its
        W^{2,inf} norms (psi, u); dW is the step's increment, or None.
        """
        psi_spec, u_spec = spec[0], spec[1]
        phi_psi = self.phi(norms[0])
        phi_u = self.phi(norms[1])
        nu_bar = self.nu_bar(samples[0], phi_psi)

        terms = self.explicit_terms(spec, samples, phi_u, phi_psi, dW)
        n_psi = terms["transport"]
        n_u = self.explicit_u_spec(terms, u_spec, nu_bar)
        s_u = terms.get("forcing", np.zeros_like(u_spec))

        # predictor and corrector differ only in the transport term of b1
        hdt = 0.5 * self.dt
        b1_linear = psi_spec + hdt * (-1j * self.k * u_spec)
        b2 = (u_spec + hdt * (-1j * self.hk3 * psi_spec - nu_bar * self.k2 * u_spec)
              + self.dt * n_u + s_u)
        diag = 1.0 + hdt * nu_bar * self.k2
        det = diag + 0.5 * hdt * hdt * self.k2 * self.k2
        kb2 = hdt * 1j * self.k * b2

        psi_pred, u_pred = self.cn_solve(b1_linear + self.dt * n_psi, b2, diag, kb2, det)

        # trapezoidal corrector on the transport term only (mass accuracy)
        n_psi_pred = self.transport_spec(psi_pred, u_pred, self.predictor_phi(u_pred))
        n_psi_avg = 0.5 * (n_psi + n_psi_pred)
        return self.cn_solve(b1_linear + self.dt * n_psi_avg, b2, diag, kb2, det)


def _sampled_state(spec: np.ndarray, samples: np.ndarray, t: float) -> State:
    """The State of ``sample`` rows; its fields equal RealField.from_spectral's."""
    psi, u = (RealField(_frozen(samples[i].copy()), _frozen(spec[i].copy()))
              for i in (0, 1))
    return State(psi=psi, u=u, time=t)


def step(state: State, cfg: StepConfig, params: ModelParams, noise: NoiseModel,
         seed: int, step_index: int, grid: TorusGrid) -> State:
    """Advance one time step; raises NumericalBlowupError if the input state
    fails the state check."""
    stepper = _Stepper(grid, params, cfg, noise)
    spec, samples = stepper.sample(state.psi.spectral, state.u.spectral)
    norms = stepper.check_state(spec, samples, state.time, stepper.radius)
    dW = sample_increment(seed, step_index, stepper.dt, noise) if stepper.noise_on else None
    psi_new, u_new = stepper.step_imex(spec, samples, norms, dW)
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
    radius = stepper.radius
    resolve = radius if monitors.resolve_radius is None else min(radius, monitors.resolve_radius)

    psi_spec = initial.psi.spectral
    u_spec = initial.u.spectral
    t = initial.time

    records: list[functionals.MonitorRecord] = []
    trace = np.zeros((n_steps + 1, 3))
    event: StoppingEvent | None = None
    steps_taken = 0

    for i in range(n_steps + 1):
        # the checked samples are the ones the next step, the monitor record
        # and the final state use
        spec, samples = stepper.sample(psi_spec, u_spec)
        record = monitors.collect_records and (i % monitors.stride == 0 or i == n_steps)
        try:
            norm_psi, norm_u = stepper.check_state(
                spec, samples, t, None if record or i == n_steps else resolve)
        except NumericalBlowupError as exc:
            event = StoppingEvent(kind="numerical_blowup", time=exc.time,
                                  triggering_norm=float("inf"), which="none")
            break
        trace[i] = (t, norm_psi, norm_u)
        if record:
            records.append(functionals.compute_record(
                _sampled_state(spec, samples, t), params, grid,
                w2inf_psi=norm_psi, w2inf_u=norm_u))
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
        psi_spec, u_spec = stepper.step_imex(spec, samples, (norm_psi, norm_u), dW)
        t = initial.time + (i + 1) * dt
        steps_taken = i + 1

    assert event is not None
    checked = steps_taken + (event.kind != "numerical_blowup")
    return PathResult(records=records, event=event,
                      final_state=_sampled_state(spec, samples, t),
                      norm_trace=trace[:checked].copy(),
                      n_steps_taken=steps_taken)


def first_hit_times(result: PathResult, radii: Sequence[float]) -> list[float | None]:
    """Threshold-crossing times read off the recorded per-step norm series.

    Valid for radii from the path's resolve radius up to the radius it ran
    with: trajectories for different cut-off radii coincide until the smaller
    threshold is reached, and rows below the resolve radius may hold bounds.
    A path that ended in numerical blow-up counts as stopped at the blow-up
    time for thresholds it never reached.
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
                errs_p.append(hs_norm(diff, 0, grid))
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
