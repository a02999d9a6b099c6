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

The cut-off phi_R acts only through the corrector's transport factor
phi(|u_pred|). ``simulate_path`` stops at the first checked state whose
W^{2,inf} norm reaches R, as the paper's solutions run up to the stopping
time tau_R, and cutoff_phi is exactly 1 on [0, R]: every stepped state is
below R, so its own factors phi(|psi|) and phi(|u|) would be 1 and the
explicit terms carry none. Only the predicted state of the step into the
hit can leave [0, R].

The corrector's factor skips its sup-norm when it cannot matter. The
Wiener-algebra bound max_o sum_j mult_j |c_j| k_j^o dominates the W^{2,inf}
norm, so a bound at or below R (less a relative slack of ``_BOUND_SLACK``
for rounding) fixes phi = 1 with no transform; otherwise the norm is taken.
The state check certifies the same way, since below R the exact norm moves
neither phi nor the stopping test: its exact norms are read only on recorded
states, the last state, and where a bound could reach the resolve radius.

The step's small kernels fill preallocated rows through ``out=`` and reuse
the (k, dt)-only factors built once per run. Each factor keeps the operand
order of the expression it stands for, since regrouping changes rounding.
"""

from __future__ import annotations

import math
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
from .spectral import (
    RealField,
    TorusGrid,
    UsageError,
    _frozen,
    hs_norm,
    to_physical,
    to_spectral,
)

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
    ``resolve_radius``, a row of a state without a record may hold the norms'
    Wiener bounds, which are at least the norms.
    """

    records: list[functionals.MonitorRecord]
    event: StoppingEvent
    final_state: State
    norm_trace: np.ndarray  # columns: time, |psi|_W2inf, |u|_W2inf (or bounds)
    n_steps_taken: int
    resolve_radius: float  # min(R, MonitorSpec.resolve_radius)


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
        self.n_half = grid.n_half
        self.k = grid.k_half
        self.ik = 1j * self.k
        self.k2 = self.k**2
        self.neg_k2 = -self.k2
        # dispersion coefficient of the implicit block: the Bohm factor 1/2
        # times k^3, so the dispersion term is -1j * hk3 * psi_spec
        self.hk3 = 0.5 * self.k**3
        # first dropped mode of a dealiased product and of the Galerkin band
        self.product_end = grid.dealias_cut + 1
        self.band_end = grid.m_modes + 1
        # each row's coefficient: transport, advection, quantum, pressure,
        # viscosity, viscosity gradient, forcing. The 1s stay: a complex
        # product with 1 can flip the sign of a zero, so dropping one would
        # change the step's bits.
        self.term_scale = np.array([-1.0, -1.0, 0.5, -params.gamma, 1.0, params.alpha, 1.0],
                                   dtype=complex)[:, None]
        # psi's exponents in rho^(gamma-1), rho^(alpha-1) and rho
        self.psi_rates = np.array([params.gamma - 1.0, params.alpha - 1.0, 1.0])[:, None]
        self.dt = cfg.dt_effective
        # the step's (k, dt)-only factors, each in its expression's operand order
        self.hdt = hdt = 0.5 * self.dt
        self.neg_ik = -1j * self.k
        self.neg_ihk3 = -1j * self.hk3
        self.half_hdt2_k4 = 0.5 * hdt * hdt * self.k2 * self.k2
        self.neg_hdt_ihk3 = -hdt * 1j * self.hk3
        self.hdt_ik = hdt * 1j * self.k
        self.zero_half = _frozen(np.zeros(grid.n_half, dtype=complex))
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
        spec = np.empty((6, self.n_half), dtype=complex)
        spec[0] = psi_spec
        spec[1] = u_spec
        np.multiply(spec[:2], self.ik, out=spec[2:4])
        np.multiply(self.neg_k2, spec[1::-1], out=spec[4:])
        return spec, to_physical(spec, self.n)

    def project_rows(self, values: np.ndarray, end: int) -> np.ndarray:
        """Half-spectra of stacked samples on n or product_n points, zero from mode end on."""
        spec = to_spectral(values)[..., : self.n_half]
        spec[..., end:] = 0.0
        return spec

    def product(self, a_spec: np.ndarray, b_spec: np.ndarray) -> np.ndarray:
        """Dealiased quadratic product, returned as a masked half-spectrum.

        Both factors go to physical space in one stacked transform, on an
        internally padded grid when n_collocation is too small for the
        retained band to be alias-free; the product keeps the modes of the
        grid's dealias_mask.
        """
        factors = np.empty((2, self.n_half), dtype=complex)
        factors[0] = a_spec
        factors[1] = b_spec
        a, b = to_physical(factors, self.product_n)
        return self.project_rows(a * b, self.product_end)

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
        bound = float((self.wiener @ np.abs(u_spec)).max())
        if bound <= self.certified_radius:
            return self.phi(bound)
        return self.phi(w2inf_norm(u_spec, self.grid))

    # --- right-hand sides ----------------------------------------------

    def transport_spec(self, psi_spec: np.ndarray, u_spec: np.ndarray,
                       phi_u: float) -> np.ndarray:
        """-phi(|u|) * u * dpsi/dx as a half-spectrum, from the spectra alone."""
        return -phi_u * self.product(u_spec, psi_spec * self.ik)

    def explicit_terms(self, spec: np.ndarray, samples: np.ndarray,
                       dW: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """The explicit terms of a sampled state below the cut-off radius.

        Keys: transport (continuity equation); advection, pressure, viscosity,
        viscosity_gradient and quantum (momentum equation); and forcing,
        sum_k F_k dW_k, when dW is given and the noise is on. No term carries
        a cut-off factor: every state ``simulate_path`` steps is below R,
        where phi_R is 1. The momentum equation's sixth term, the dispersion,
        is linear and is solved implicitly with coefficient ``hk3``.

        All terms share one forward transform. On a padded product grid the
        product factors take one more inverse transform, and the products
        and the projections take one forward transform each.
        """
        psi, u, dpsi, du, d2u, d2psi = samples
        forcing = dW is not None and self.noise_on
        n_rows = 7 if forcing else 6
        if self.product_n == self.n:
            f_u, f_dpsi, f_du, f_d2psi = u, dpsi, du, d2psi
            rows = np.empty((n_rows, self.n))
            products, pointwise = rows[:3], rows[3:]
        else:
            f_u, f_dpsi, f_du, f_d2psi = to_physical(spec[[1, 2, 3, 5]], self.product_n)
            products = np.empty((3, self.product_n))
            pointwise = np.empty((n_rows - 3, self.n))
        # rho^(gamma-1), rho^(alpha-1), and rho for the forcing
        exp_g, exp_a, *rho = np.exp(self.psi_rates[: 3 if forcing else 2] * psi)
        np.multiply(f_u, f_dpsi, out=products[0])
        np.multiply(f_u, f_du, out=products[1])
        np.multiply(f_dpsi, f_d2psi, out=products[2])
        np.multiply(exp_g, dpsi, out=pointwise[0])
        np.multiply(exp_a, d2u, out=pointwise[1])
        np.multiply(exp_a, dpsi, out=pointwise[2])
        np.multiply(pointwise[2], du, out=pointwise[2])
        if forcing:
            pointwise[3] = dW @ self.noise.coefficient_fields(self.noise_waves, rho[0], u)
        if self.product_n == self.n:
            s = to_spectral(rows)
            s[:3, self.product_end:] = 0.0
            s[3:, self.band_end:] = 0.0
        else:
            s = np.concatenate((self.project_rows(products, self.product_end),
                                self.project_rows(pointwise, self.band_end)))
        # d/dx(sqrt(rho)''/sqrt(rho)) = (psi''' + psi'psi'')/2: the quantum
        # row's 1/2 is what the energy functional's capillary term
        # dissipates against
        s = self.term_scale[:n_rows] * s
        terms = {"transport": s[0], "advection": s[1], "quantum": s[2], "pressure": s[3],
                 "viscosity": s[4], "viscosity_gradient": s[5]}
        if forcing:
            terms["forcing"] = s[6]
        return terms

    def explicit_u_spec(self, terms: dict[str, np.ndarray], u_spec: np.ndarray,
                        nu_bar: float) -> np.ndarray:
        """All momentum terms outside the implicit 2x2 block."""
        out = terms["advection"] + terms["pressure"]
        # viscosity minus the share handled implicitly
        out += terms["viscosity"]
        out += nu_bar * self.k2 * u_spec
        out += terms["viscosity_gradient"]
        out += terms["quantum"]
        return out

    def nu_bar(self, psi_phys: np.ndarray) -> float:
        if self.cfg.implicit_visc_floor is not None:
            return self.cfg.implicit_visc_floor
        # Crank-Nicolson damps the stiff modes of the explicit remainder
        # (rho^(alpha-1) - nu_bar) u'' only if nu_bar >= max rho^(alpha-1);
        # this min falls short wherever rho^(alpha-1) varies. ROADMAP.md's
        # open item on the implicit viscosity at that maximum changes it.
        return float(np.exp(((self.params.alpha - 1.0) * psi_phys).min()))

    def cn_solve(self, b1: np.ndarray, b2: np.ndarray, diag: np.ndarray,
                 kb2: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One Crank-Nicolson solve of the per-mode 2x2 skew/viscous block.

        The implicit block is d psi = -ik u dt, d u = -(i/2) k^3 psi dt
        - nu k^2 u dt (the dispersion carries the Bohm factor 1/2). b1 and b2
        are the right-hand sides of the psi and u rows; diag = 1 + (dt/2) nu k^2,
        kb2 = (dt/2) i k b2 and det, the block's determinant, depend only on
        the step, so ``step_imex`` builds them once for both of its solves.
        """
        new = np.empty((2, self.n_half), dtype=complex)
        np.multiply(diag, b1, out=new[0])
        np.subtract(new[0], kb2, out=new[0])
        np.multiply(self.neg_hdt_ihk3, b1, out=new[1])
        np.add(new[1], b2, out=new[1])
        np.divide(new, det, out=new)
        new[:, self.band_end:] = 0.0
        return new[0], new[1]

    def check_state(self, spec: np.ndarray, samples: np.ndarray, t: float,
                    resolve: float | None = None) -> list[float]:
        """The W^{2,inf} norms (psi, u) of a state given as ``sample`` rows.

        Wiener bounds that both stay below ``resolve`` (by the relative slack)
        come back in place of the norms, with no transform. Raises
        NumericalBlowupError on non-finite samples, |psi| beyond the clamp,
        or a non-finite norm.
        """
        # the sup of |.| is NaN or inf exactly when a sample is not finite
        peak_psi, peak_u = np.abs(samples[:2]).max(axis=1).tolist()
        if not (math.isfinite(peak_psi) and math.isfinite(peak_u)):
            raise NumericalBlowupError("non-finite values in state", t)
        if peak_psi > self.cfg.blowup_clamp:
            raise NumericalBlowupError(
                f"|psi| reached {peak_psi:.3g} beyond clamp {self.cfg.blowup_clamp}", t)
        if resolve is not None:
            floor = min(resolve / (1.0 + _BOUND_SLACK), self.finite_floor)
            b_psi, b_u = (self.wiener @ np.abs(spec[:2]).T).max(axis=0).tolist()
            if b_psi <= floor and b_u <= floor:
                return [b_psi, b_u]
        norms = w2inf_norm(spec[:2], self.grid)
        if not (math.isfinite(norms[0]) and math.isfinite(norms[1])):
            raise NumericalBlowupError("non-finite W^{2,inf} norm", t)
        return norms

    # --- full step -------------------------------------------------------

    def step_imex(self, spec: np.ndarray, samples: np.ndarray, dW: np.ndarray | None,
                  ) -> tuple[np.ndarray, np.ndarray]:
        """One IMEX step from a checked state below the cut-off radius.

        spec and samples are the state's ``sample`` rows; dW is the step's
        increment, or None.
        """
        psi_spec, u_spec = spec[0], spec[1]
        nu_bar = self.nu_bar(samples[0])

        terms = self.explicit_terms(spec, samples, dW)
        n_psi = terms["transport"]
        n_u = self.explicit_u_spec(terms, u_spec, nu_bar)
        s_u = terms.get("forcing", self.zero_half)

        # predictor and corrector differ only in the transport term of b1
        hdt = self.hdt
        b1_linear = psi_spec + hdt * (self.neg_ik * u_spec)
        b2 = (u_spec + hdt * (self.neg_ihk3 * psi_spec - nu_bar * self.k2 * u_spec)
              + self.dt * n_u + s_u)
        diag = 1.0 + hdt * nu_bar * self.k2
        det = diag + self.half_hdt2_k4
        kb2 = self.hdt_ik * b2

        psi_pred, u_pred = self.cn_solve(b1_linear + self.dt * n_psi, b2, diag, kb2, det)

        # trapezoidal corrector on the transport term only (mass accuracy);
        # the one place phi_R acts
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
    """Advance one time step from a state below the cut-off radius.

    Raises NumericalBlowupError if the state fails the state check, and
    UsageError if its W^{2,inf} norm is at or beyond the cut-off radius:
    ``simulate_path`` stops there, so the step's terms carry no cut-off.
    """
    stepper = _Stepper(grid, params, cfg, noise)
    spec, samples = stepper.sample(state.psi.spectral, state.u.spectral)
    worst = max(stepper.check_state(spec, samples, state.time, stepper.radius))
    if worst >= stepper.radius:
        raise UsageError(f"W^(2,inf) norm {worst:.6g} at or beyond the cut-off radius "
                         f"{stepper.radius:g}, where simulate_path stops")
    dW = sample_increment(seed, step_index, stepper.dt, noise) if stepper.noise_on else None
    psi_new, u_new = stepper.step_imex(spec, samples, dW)
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
        # a bound seldom certifies right after an exact norm at or beyond
        # the resolve radius, so such a state takes the norm directly
        exact = record or i == n_steps or (i > 0 and worst >= resolve)
        try:
            norm_psi, norm_u = stepper.check_state(spec, samples, t,
                                                   None if exact else resolve)
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
        psi_spec, u_spec = stepper.step_imex(spec, samples, dW)
        t = initial.time + (i + 1) * dt
        steps_taken = i + 1

    assert event is not None
    checked = steps_taken + (event.kind != "numerical_blowup")
    return PathResult(records=records, event=event,
                      final_state=_sampled_state(spec, samples, t),
                      norm_trace=trace[:checked].copy(),
                      n_steps_taken=steps_taken, resolve_radius=resolve)


def first_hit_times(result: PathResult, radii: Sequence[float]) -> list[float | None]:
    """Threshold-crossing times read off the recorded per-step norm series.

    Valid for radii from the path's resolve radius up to the radius it ran
    with: trajectories for different cut-off radii coincide until the smaller
    threshold is reached, and rows below the resolve radius may hold bounds,
    so a radius below it raises ValueError. A path that ended in numerical
    blow-up counts as stopped at the blow-up time for thresholds it never
    reached.
    """
    worst = np.maximum(result.norm_trace[:, 1], result.norm_trace[:, 2])
    times = result.norm_trace[:, 0]
    out: list[float | None] = []
    for r in radii:
        if r < result.resolve_radius:
            raise ValueError(f"radius {r:g} is below the path's resolve radius "
                             f"{result.resolve_radius:g}, where its norm rows may be bounds")
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
    # a noise-free path ignores its increments, so it draws none
    noise_on = noise.base_amplitude > 0.0
    for p in range(n_paths):
        seed = derive_path_seed(master_seed, p)
        fine_incs = (np.stack([sample_increment(seed, i, dt_fine, noise)
                               for i in range(n_fine)]) if noise_on else None)
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
                coarse = (fine_incs[: (n_fine // r) * r].reshape(-1, r, noise.k_modes)
                          .sum(axis=1) if noise_on else None)
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
