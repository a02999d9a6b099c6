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
samples the monitor record and the step reuse. The states whose exact norms
are read add one oversampled inverse of derivative orders 0..2 of psi and u
for all their W^{2,inf} norms. A step costs three: one forward transform of
the seven explicit-term rows (three dealiased products, four band
projections), and one inverse and one forward for the corrector's transport.
A grid too coarse for alias-free products adds one inverse for the product
factors and one forward. numpy transforms each row of a stack exactly as it
transforms that row alone, so stacking changes no bit of the result.

The cut-off phi_R acts only through the corrector's transport factor
phi(|u_pred|). ``simulate_path`` stops at the first checked state whose
W^{2,inf} norm reaches R, as the paper's solutions run up to the stopping
time tau_R, and cutoff_phi is exactly 1 on [0, R]: every stepped state is
below R, so its own factors phi(|psi|) and phi(|u|) would be 1 and the
explicit terms carry none. Only the predicted state of the step into the
hit can leave [0, R].

One rule, ``_Stepper.certified_norms``, reads the Wiener bounds and the
sup-norm. The Wiener-algebra bound max_o sum_j mult_j |c_j| k_j^o dominates
the W^{2,inf} norm, so a bound at or below a threshold (less a relative slack
``_BOUND_SLACK`` for rounding) stands in for the norm with no transform. The
corrector's threshold is R, where phi is exactly 1. The state check's is the
resolve radius, below which the norm moves neither phi nor the stopping
test; it is -inf, the exact norm, on recorded states, on the last state, and
after a norm at or beyond the resolve radius.

The step's small kernels fill preallocated rows through ``out=`` and reuse
the (k, dt)-only factors, which are rebuilt only when the stepped rows
change. Each factor keeps the operand order of the expression it stands for,
since regrouping changes rounding.

Paths run in batches. The kernels take an optional leading path axis, and
``simulate_path`` steps a batch of paths in lockstep from one workspace, so
each numpy call and each transform of a step serves every path of the batch:
a step makes the same transform calls for P paths as for one (Lord, Powell &
Shardlow, An Introduction to Computational Stochastic PDEs, 2014; the
leading batch axis of SDE libraries such as torchsde). A single path runs as
a batch of one. The batch changes no bit of any path: elementwise operations
and row-wise transforms do not mix paths; the forcing and the Wiener bounds
are stacks of the products one path would form, which numpy hands to the
same BLAS routine path by path (one matrix product over all paths would
round differently); reductions run per path; nu_bar, the predictor's phi,
the state check and the increments are taken per path, while a step's exact
norms take one stacked transform and its records one ``compute_record``
pass. A path that stops leaves the stepped rows, and the others go on.

The paths of a batch may differ in dt and in their number of steps, so every
dt level of a refinement study steps in one batch. Where the stepped rows'
dt differ, the (k, dt)-only factors are per-row: (P, 1) columns and
(P, n_half) rows, each row with the bits of its own dt's scalar factor, and
an elementwise product with a row gives the bits of the product with that
scalar. Where they agree, and for a lone path, the factors stay scalars. A
path leaves the stepped rows at its own last step.
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
    # exponent clamp: exp() overflows silently long before float64 infinities help
    blowup_clamp: float = 50.0

    def __post_init__(self) -> None:
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise IntegratorConfigError("dt and t_end must be positive")
        if self.dt > self.t_end:
            raise IntegratorConfigError("dt must not exceed t_end")
        if not self.blowup_clamp > 0.0:
            # |psi| >= 0 would pass any clamp <= 0 at t = 0
            raise IntegratorConfigError("blowup_clamp must be positive")

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
    state enters the kernels as the rows of ``sample``. The kernels also take
    a leading path axis: spectra of shape (P, n_half) stand for P paths, and
    a stack of rows then has shape (rows, P, .), so that ``rows[j]`` is row j
    of every path, as it is of one path's stack.
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
        self.psi_rates = np.array([params.gamma - 1.0, params.alpha - 1.0, 1.0])
        self.neg_ik = -1j * self.k
        self.neg_ihk3 = -1j * self.hk3
        self.use_dts([cfg.dt_effective])
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
        # the exact norm's transform scales the spectra by its 8n points, so
        # bounds above this could hide an overflow that the check must see
        self.finite_floor = np.finfo(float).max / (W2INF_OVERSAMPLE * self.n)

    def use_dts(self, dts: Sequence[float]) -> None:
        """Build the step's (k, dt)-only factors for rows stepping by ``dts``.

        Equal dts give scalars and vectors over k; dts that differ give (P, 1)
        columns and (P, n_half) rows, which the kernels broadcast against a
        stack of P paths. Each factor keeps its expression's operand order,
        and a row's factor has the bits of its own dt's scalar one, so every
        path steps as it would alone.
        """
        self.dt = dt = dts[0] if all(d == dts[0] for d in dts) else np.array(dts)[:, None]
        self.hdt = hdt = 0.5 * dt
        self.half_hdt2_k4 = 0.5 * hdt * hdt * self.k2 * self.k2
        self.neg_hdt_ihk3 = -hdt * 1j * self.hk3
        self.hdt_ik = hdt * 1j * self.k

    # --- small kernels -------------------------------------------------

    def sample(self, psi_spec: np.ndarray, u_spec: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
        """Spectra and collocation samples of the rows [psi, u, psi', u', u'', psi''].

        One stacked inverse transform, also for a stack of paths: spectra of
        shape (P, n_half) give rows of shape (6, P, .). The state check reads
        the first two rows, the explicit terms all six.
        """
        spec = np.empty((6,) + np.shape(psi_spec), dtype=complex)
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
        factors = np.empty((2,) + np.shape(a_spec), dtype=complex)
        factors[0] = a_spec
        factors[1] = b_spec
        a, b = to_physical(factors, self.product_n)
        return self.project_rows(a * b, self.product_end)

    def phi(self, norm: float) -> float:
        return cutoff_phi(norm, self.radius)

    def certified_norms(self, rows: np.ndarray, below: Sequence[float]) -> list[list[float]]:
        """The W^{2,inf} norms of P states' fields, or their Wiener bounds.

        ``rows`` are the F fields of each state, spectra of shape (F, P, n_half),
        and ``below`` has one threshold per state. A state whose bounds all
        stay at or below its threshold, less the relative slack
        ``_BOUND_SLACK`` and never above ``finite_floor``, gets its bounds;
        the other states, and always those at -inf, get their exact norms,
        all from one oversampled transform. Returns each state's F values in
        order.
        """
        # a stack of matrix products: each state's bounds have the bits of
        # wiener @ |rows[:, p]|.T alone
        bounds = np.matmul(self.wiener, np.abs(rows).transpose(1, 2, 0)).max(axis=-2)
        norms = bounds.tolist()
        floors = [min(limit / (1.0 + _BOUND_SLACK), self.finite_floor) for limit in below]
        exact = [p for p, floor in enumerate(floors) if not all(b <= floor for b in norms[p])]
        if exact:
            for p, pair in zip(exact, w2inf_norm(rows[:, exact].swapaxes(0, 1), self.grid)):
                norms[p] = pair
        return norms

    def predictor_phi(self, u_spec: np.ndarray) -> float | np.ndarray:
        """phi(|u|) of the predictor from its ``certified_norms`` below R, where
        phi is exactly 1: a float for one spectrum, and a (P, 1) column of
        per-path factors for a stack of shape (P, n_half)."""
        if u_spec.ndim == 1:
            return self.phi(self.certified_norms(u_spec[None, None], [self.radius])[0][0])
        norms = self.certified_norms(u_spec[None], [self.radius] * len(u_spec))
        return np.array([self.phi(norm) for norm, in norms])[:, None]

    # --- right-hand sides ----------------------------------------------

    def transport_spec(self, psi_spec: np.ndarray, u_spec: np.ndarray,
                       phi_u: float | np.ndarray) -> np.ndarray:
        """-phi(|u|) * u * dpsi/dx as a half-spectrum, from the spectra alone.

        For a stack of paths, phi_u is a (P, 1) column of per-path factors.
        """
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
        and the projections take one forward transform each. Stacked
        ``sample`` rows of P paths, with dW of shape (P, k_modes), give terms
        of shape (P, n_half) from the same transforms.
        """
        psi, u, dpsi, du, d2u, d2psi = samples
        lead = samples.shape[1:-1]
        forcing = dW is not None and self.noise_on
        n_rows = 7 if forcing else 6
        if self.product_n == self.n:
            f_u, f_dpsi, f_du, f_d2psi = u, dpsi, du, d2psi
            rows = np.empty((n_rows,) + lead + (self.n,))
            products, pointwise = rows[:3], rows[3:]
        else:
            f_u, f_dpsi, f_du, f_d2psi = to_physical(spec[[1, 2, 3, 5]], self.product_n)
            products = np.empty((3,) + lead + (self.product_n,))
            pointwise = np.empty((n_rows - 3,) + lead + (self.n,))
        # rho^(gamma-1), rho^(alpha-1), and rho for the forcing
        exp_g, exp_a, *rho = np.exp(np.multiply.outer(self.psi_rates[: 3 if forcing else 2],
                                                      psi))
        np.multiply(f_u, f_dpsi, out=products[0])
        np.multiply(f_u, f_du, out=products[1])
        np.multiply(f_dpsi, f_d2psi, out=products[2])
        np.multiply(exp_g, dpsi, out=pointwise[0])
        np.multiply(exp_a, d2u, out=pointwise[1])
        np.multiply(exp_a, dpsi, out=pointwise[2])
        np.multiply(pointwise[2], du, out=pointwise[2])
        if forcing:
            # a stack of vector-matrix products: each path's forcing has the
            # bits of dW @ fields alone, which one matrix product would not
            fields = self.noise.coefficient_fields(self.noise_waves, rho[0], u)
            pointwise[3] = np.matmul(dW[..., None, :], fields)[..., 0, :]
        if self.product_n == self.n:
            s = to_spectral(rows)
            s[:3, ..., self.product_end:] = 0.0
            s[3:, ..., self.band_end:] = 0.0
        else:
            s = np.concatenate((self.project_rows(products, self.product_end),
                                self.project_rows(pointwise, self.band_end)))
        # d/dx(sqrt(rho)''/sqrt(rho)) = (psi''' + psi'psi'')/2: the quantum
        # row's 1/2 is what the energy functional's capillary term
        # dissipates against
        np.multiply(self.term_scale[:n_rows] if s.ndim == 2 else self.term_scale[:n_rows, None],
                    s, out=s)
        names = ("transport", "advection", "quantum", "pressure", "viscosity",
                 "viscosity_gradient", "forcing")
        return dict(zip(names, s))

    def explicit_u_spec(self, terms: dict[str, np.ndarray],
                        implicit_share: np.ndarray) -> np.ndarray:
        """All momentum terms outside the implicit 2x2 block.

        ``implicit_share`` is nu_bar * k^2 * u_spec, the viscosity that the
        Crank-Nicolson block takes; ``step_imex`` forms it once for both of
        its uses.
        """
        out = terms["advection"] + terms["pressure"]
        # viscosity minus the share handled implicitly
        out += terms["viscosity"]
        out += implicit_share
        out += terms["viscosity_gradient"]
        out += terms["quantum"]
        return out

    def nu_bar(self, psi_phys: np.ndarray) -> float | np.ndarray:
        """The implicit viscosity: a scalar for one path's samples of psi, or
        a (P, 1) column for a stack of P paths."""
        # Crank-Nicolson damps the stiff modes of the explicit remainder
        # (rho^(alpha-1) - nu_bar) u'' only if nu_bar >= max rho^(alpha-1);
        # this min falls short wherever rho^(alpha-1) varies. ROADMAP.md's
        # open item on the implicit viscosity at that maximum changes it.
        return np.exp(((self.params.alpha - 1.0) * psi_phys).min(axis=-1,
                                                                 keepdims=psi_phys.ndim > 1))

    def cn_solve(self, b1: np.ndarray, b2: np.ndarray, diag: np.ndarray,
                 kb2: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One Crank-Nicolson solve of the per-mode 2x2 skew/viscous block.

        The implicit block is d psi = -ik u dt, d u = -(i/2) k^3 psi dt
        - nu k^2 u dt (the dispersion carries the Bohm factor 1/2). b1 and b2
        are the right-hand sides of the psi and u rows; diag = 1 + (dt/2) nu k^2,
        kb2 = (dt/2) i k b2 and det, the block's determinant, depend only on
        the step, so ``step_imex`` builds them once for both of its solves.
        """
        new = np.empty((2,) + np.shape(b2), dtype=complex)
        np.multiply(diag, b1, out=new[0])
        np.subtract(new[0], kb2, out=new[0])
        np.multiply(self.neg_hdt_ihk3, b1, out=new[1])
        np.add(new[1], b2, out=new[1])
        np.divide(new, det, out=new)
        new[..., self.band_end:] = 0.0
        return new[0], new[1]

    def check_states(self, spec: np.ndarray, samples: np.ndarray, below: Sequence[float],
                     ) -> tuple[list[list[float] | None], list[str | None]]:
        """The state check of P states given as stacked ``sample`` rows (6, P, .).

        Returns each state's W^{2,inf} norms [psi, u], or None where the
        state fails the check, and why it fails: non-finite samples, |psi|
        beyond the clamp, or a non-finite norm. The norms of the states that
        pass come from one ``certified_norms`` call, each state with its
        threshold in ``below``, where -inf takes the exact norms.
        """
        # the sup of |.| is NaN or inf exactly when a sample is not finite
        peaks = np.abs(samples[:2]).max(axis=-1).T.tolist()
        clamp = self.cfg.blowup_clamp
        norms: list[list[float] | None] = [None] * len(peaks)
        failures: list[str | None] = [None] * len(peaks)
        for p, (peak_psi, peak_u) in enumerate(peaks):
            if not (math.isfinite(peak_psi) and math.isfinite(peak_u)):
                failures[p] = "non-finite values in state"
            elif peak_psi > clamp:
                failures[p] = f"|psi| reached {peak_psi:.3g} beyond clamp {clamp}"
        passed = [p for p, failure in enumerate(failures) if failure is None]
        if passed:
            rows = spec[:2] if len(passed) == len(peaks) else spec[:2, passed]
            checked = self.certified_norms(rows, [below[p] for p in passed])
            for p, pair in zip(passed, checked):
                if math.isfinite(pair[0]) and math.isfinite(pair[1]):
                    norms[p] = pair
                else:
                    failures[p] = "non-finite W^{2,inf} norm"
        return norms, failures

    def check_state(self, spec: np.ndarray, samples: np.ndarray, t: float,
                    below: float = -math.inf) -> list[float]:
        """``check_states`` of one state at time t, by default with its exact
        norms, raising NumericalBlowupError where it fails."""
        norms, failures = self.check_states(spec[:, None], samples[:, None], [below])
        if failures[0] is not None:
            raise NumericalBlowupError(failures[0], t)
        return norms[0]

    # --- full step -------------------------------------------------------

    def step_imex(self, spec: np.ndarray, samples: np.ndarray, dW: np.ndarray | None,
                  ) -> tuple[np.ndarray, np.ndarray]:
        """One IMEX step from a checked state below the cut-off radius.

        spec and samples are the state's ``sample`` rows; dW is the step's
        increment, or None. Stacked rows of P paths, with dW of shape
        (P, k_modes), step every path at once: nu_bar and the predictor's phi
        are taken per path, and each path's new spectra have the bits of its
        step alone.
        """
        psi_spec, u_spec = spec[0], spec[1]
        nu_bar = self.nu_bar(samples[0])
        implicit_share = nu_bar * self.k2 * u_spec

        terms = self.explicit_terms(spec, samples, dW)
        n_psi = terms["transport"]
        n_u = self.explicit_u_spec(terms, implicit_share)
        s_u = terms.get("forcing", self.zero_half)

        # predictor and corrector differ only in the transport term of b1
        hdt = self.hdt
        b1_linear = psi_spec + hdt * (self.neg_ik * u_spec)
        b2 = (u_spec + hdt * (self.neg_ihk3 * psi_spec - implicit_share)
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


# collocation points stepped in lockstep at most (paths times n): a larger
# batch runs in consecutive groups of at least one path. This bounds the
# step's stacked arrays, and so the peak memory, while per-call overhead is
# already spread over many paths.
_LOCKSTEP_POINTS = 2048


class PathBatch(tuple):
    """The PathResults of one batched ``simulate_path`` call, in input order.

    ``n_steps_taken`` is the batch's total: the steps taken by all its paths.
    """

    __slots__ = ()

    @property
    def n_steps_taken(self) -> int:
        return sum(r.n_steps_taken for r in self)


def simulate_path(initial: State | Sequence[State], cfg: StepConfig | Sequence[StepConfig],
                  params: ModelParams, noise: NoiseModel, path_seed: int | Sequence[int],
                  grid: TorusGrid, monitors: MonitorSpec = MonitorSpec(),
                  increments: np.ndarray | Sequence | None = None) -> PathResult | PathBatch:
    """Advance paths until t_end, a norm-threshold hit, or numerical blow-up.

    One State with one path seed gives a PathResult. A sequence of States
    with one seed each gives a PathBatch: the paths step in lockstep from
    one workspace, their spectra stacked along a leading path axis, so each
    numpy call and transform of a step serves every path. A batch takes one
    StepConfig for all its paths or one per path; paths may differ in dt and
    t_end, so a batch can hold every level of a refinement study, but not in
    blowup_clamp. A path that stops, or reaches its own last step, leaves the
    stepped rows; the others go on. Each path's result is bit for bit the
    result of running it alone, which is how a single State runs: as a batch
    of one.

    Fully reproducible from (config, path_seed): the noise stream is a pure
    function of (path_seed, step_index). Pre-summed increments may be passed
    for shared-path refinement studies: of shape (n_steps, k_modes) for one
    path, and for a batch one such array per path, each with its own
    n_steps, or one array of shape (P, n_steps, k_modes).
    """
    if isinstance(initial, State):
        incs = None if increments is None else [np.asarray(increments)]
        return _run_lockstep(_Stepper(grid, params, cfg, noise), [initial], [path_seed],
                             [cfg], monitors, incs)[0]
    initials, seeds = list(initial), list(path_seed)
    cfgs = [cfg] * len(initials) if isinstance(cfg, StepConfig) else list(cfg)
    incs = None if increments is None else [np.asarray(inc) for inc in increments]
    if not (len(seeds) == len(cfgs) == len(initials)
            and (incs is None or len(incs) == len(initials))):
        raise ValueError("a batch needs one path seed and one step config, and one increment "
                         "series if any, per initial state")
    if incs is not None and any(len(inc) < c.n_steps for inc, c in zip(incs, cfgs)):
        raise ValueError("a path's increment series is shorter than its steps")
    if len({c.blowup_clamp for c in cfgs}) > 1:
        raise ValueError("the paths of a batch must share blowup_clamp")
    if not initials:
        return PathBatch()
    stepper = _Stepper(grid, params, cfgs[0], noise)
    results: list[PathResult] = []
    size = max(1, _LOCKSTEP_POINTS // grid.n_collocation)
    for start in range(0, len(initials), size):
        group = slice(start, start + size)
        results += _run_lockstep(stepper, initials[group], seeds[group], cfgs[group],
                                 monitors, None if incs is None else incs[group])
    return PathBatch(results)


def _run_lockstep(stepper: _Stepper, initials: Sequence[State], seeds: Sequence[int],
                  cfgs: Sequence[StepConfig], monitors: MonitorSpec,
                  increments: Sequence[np.ndarray] | None) -> list[PathResult]:
    """The paths of ``simulate_path``, stepped in lockstep, in input order.

    Row r of the stepped arrays is path ``active[r]``. Each row gets its own
    dt, state check, record, stopping test, increment and predictor phi, and
    its own last state at its own step count: paths of different dt and
    t_end leave the stepped rows at their own last steps. A checked state's
    recorded rows take one ``functionals.compute_record`` call. ``increments``
    has one (n_steps, k_modes) array per path, or is None. The stepper's
    (k, dt)-only factors are rebuilt whenever the stepped rows change.
    """
    radius = stepper.radius
    resolve = radius if monitors.resolve_radius is None else min(radius, monitors.resolve_radius)
    dts = [c.dt_effective for c in cfgs]
    ends = [c.n_steps for c in cfgs]
    results: list[PathResult] = [None] * len(initials)  # type: ignore[list-item]
    records: list[list[functionals.MonitorRecord]] = [[] for _ in initials]
    # each path's checked norms, row i for state i; the trace's times follow
    # from t0, i and dt
    norm_rows = [np.empty((end + 1, 2)) for end in ends]
    t0 = [s.time for s in initials]
    active = list(range(len(initials)))
    stepper.use_dts(dts)
    # each active path's last checked norm
    worst = [0.0] * len(initials)
    psi_spec = np.stack([s.psi.spectral for s in initials])
    u_spec = np.stack([s.u.spectral for s in initials])

    for i in range(max(ends) + 1):
        # the checked samples are the ones the next step, the monitor record
        # and the final state use
        spec, samples = stepper.sample(psi_spec, u_spec)
        strided = monitors.collect_records and i % monitors.stride == 0
        lasts = [i == ends[p] for p in active]
        # recorded and last states take the exact norms; a bound seldom
        # certifies right after a norm at or beyond the resolve radius, so
        # such a state takes the norm directly too
        below = [-math.inf if strided or last or w >= resolve else resolve
                 for w, last in zip(worst, lasts)]
        norms, failures = stepper.check_states(spec, samples, below)
        times = [t0[p] + i * dts[p] if i else t0[p] for p in active]
        rec_rows = ([row for row, last in enumerate(lasts)
                     if norms[row] is not None and (strided or last)]
                    if monitors.collect_records else [])
        if rec_rows:
            # one stacked pass through the module attribute, which a tracer may wrap
            new = functionals.compute_record(
                [_sampled_state(spec[:, r], samples[:, r], times[r]) for r in rec_rows],
                stepper.params, stepper.grid, w2inf_psi=[norms[r][0] for r in rec_rows],
                w2inf_u=[norms[r][1] for r in rec_rows])
            for row, record in zip(rec_rows, new):
                records[active[row]].append(record)
        going, worst = [], []
        for row, (p, last, t) in enumerate(zip(active, lasts, times)):
            pair = norms[row]
            if pair is not None:
                norm_rows[p][i] = pair
                top = max(pair)
                if top < radius and not last:
                    going.append(row)
                    worst.append(top)
                    continue
            results[p] = PathResult(
                records=records[p], event=_stopping_event(failures[row], pair, t, radius),
                final_state=_sampled_state(spec[:, row], samples[:, row], t),
                norm_trace=_norm_trace(t0[p], dts[p], norm_rows[p][: i + (pair is not None)]),
                n_steps_taken=i, resolve_radius=resolve)
        if not going:
            break
        if len(going) < len(active):
            active = [active[row] for row in going]
            spec, samples = spec[:, going], samples[:, going]
            stepper.use_dts([dts[p] for p in active])
        if increments is not None:
            dW = np.array([increments[p][i] for p in active])
        elif stepper.noise_on:
            dW = np.array([sample_increment(seeds[p], i, dts[p], stepper.noise)
                           for p in active])
        else:
            dW = None
        if len(active) == 1:
            # a lone path steps without the path axis, with its own scalar
            # factors: broadcasting them against a stack costs more than it saves
            one = stepper.step_imex(spec[:, 0], samples[:, 0], None if dW is None else dW[0])
            psi_spec, u_spec = one[0][None], one[1][None]
        else:
            psi_spec, u_spec = stepper.step_imex(spec, samples, dW)

    return results


def _norm_trace(t0: float, dt: float, norms: np.ndarray) -> np.ndarray:
    """Rows (time, |psi|, |u|) of a path's checked states 0, 1, ..., from
    their norms' rows; state i > 0 is at t0 + i * dt, as the stepping loop
    counts it."""
    trace = np.empty((len(norms), 3))
    trace[:, 0] = t0 + np.arange(len(norms)) * dt
    trace[:1, 0] = t0
    trace[:, 1:] = norms
    return trace


def _stopping_event(failure: str | None, norms: list[float] | None, t: float,
                    radius: float) -> StoppingEvent:
    """How a path stops at a checked state: its check failed, its norm
    reached the radius, or it is the last state."""
    if failure is not None:
        return StoppingEvent(kind="numerical_blowup", time=t,
                             triggering_norm=float("inf"), which="none")
    norm_psi, norm_u = norms
    top = max(norm_psi, norm_u)
    if top >= radius:
        return StoppingEvent(kind="tau_R_hit", time=t, triggering_norm=top,
                             which="psi" if norm_psi >= norm_u else "u")
    return StoppingEvent(kind="completed", time=t, triggering_norm=top, which="none")


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
    the finest level's increments. Every path of every level, the reference
    included, steps in one ``simulate_path`` batch of mixed dt. Exclusions
    are applied to the results afterwards, level by level from the finest:
    a path that blows up at any level is excluded and counted, and its
    errors at the levels it completed are dropped. More than 20% exclusions
    is a diagnostic failure.
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

    seeds = [derive_path_seed(master_seed, p) for p in range(n_paths)]
    # a noise-free path ignores its increments, so it draws none
    noise_on = noise.base_amplitude > 0.0
    fine_incs = (np.stack([np.stack([sample_increment(seed, i, dt_fine, noise)
                                     for i in range(n_fine)]) for seed in seeds])
                 if noise_on else None)
    # rows level by level, the reference first: row level * n_paths + p is
    # path p. The lockstep groups of a large study then hold rows of like
    # length together.
    cfgs = [StepConfig(dt=d, t_end=t_end) for d in dts for _ in range(n_paths)]
    incs = None
    if noise_on:
        incs = list(fine_incs)
        for r in ratios:
            incs += [fine_incs[p, : (n_fine // r) * r].reshape(-1, r, noise.k_modes).sum(axis=1)
                     for p in range(n_paths)]
    runs = simulate_path([initial] * len(cfgs), cfgs, params, noise, seeds * len(dts), grid,
                         MonitorSpec(collect_records=False), increments=incs)
    refs = runs[:n_paths]
    # the paths still in the study, and their errors level by level
    kept = [p for p in range(n_paths) if refs[p].event.kind == "completed"]
    errs: dict[int, list[float]] = {p: [] for p in kept}
    for level in range(1, len(dts)):
        results = runs[level * n_paths: (level + 1) * n_paths]
        for p in kept:
            if results[p].event.kind == "completed":
                errs[p].append(hs_norm(results[p].final_state.u.spectral
                                       - refs[p].final_state.u.spectral, 0, grid))
        kept = [p for p in kept if results[p].event.kind == "completed"]

    used = len(kept)
    excluded = n_paths - used
    if used == 0 or excluded > 0.2 * n_paths:
        raise IntegratorConfigError(
            f"too many excluded paths in convergence study: {excluded}/{n_paths}")
    errors = np.zeros(len(dts) - 1)
    for p in kept:  # in path order, as the sum's rounding depends on it
        errors += np.asarray(errs[p])
    errors /= used
    slope = float(np.polyfit(np.log(dts[1:]), np.log(errors), 1)[0])
    return ConvergenceResult(order=slope, dts=tuple(dts[1:]), errors=tuple(errors),
                             n_paths_used=used, n_excluded=excluded)
