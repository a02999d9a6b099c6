"""Time advancement of the cut-off Galerkin system.

The stiff linear couple (d psi = -du/dx dt, du = (1/2) d^3 psi/dx^3 dt
+ nu*d^2u/dx^2 dt) is advanced by a per-mode 2x2 Crank-Nicolson solve; every
other deterministic term is explicit; the noise enters Euler-Maruyama style
with left-endpoint coefficients. The continuity equation's transport term
additionally gets one predictor-corrector (trapezoidal) pass: the mass
functional does not depend on u, so this single correction pushes the mass
drift from O(dt) to O(dt^2) without touching the overall first-order
splitting.

The forcing sum_k F_k dW_k is formed from one wave sum per path. Every
coefficient F_k = a_k sin(2 pi k x) g(rho, u) shares the state factor g, so
the forcing is g h with h = sum_k dW_k a_k sin(2 pi k x): one vector-matrix
product of the increments with the model's waves, of n points per path,
which ``NoiseModel.coefficient_fields`` then multiplies by g. No
(P, k_modes, n) tensor of coefficient fields is built. For the additive
family g = 1, and the forcing is h itself.

The array kernels of ``_Stepper`` are the only implementation of the
right-hand side. ``simulate_path`` runs the one state check (finite values,
|psi| within the clamp, finite W^{2,inf} norms) on every state, the last
included, before its norm trace row and monitor record are written; a failed
check ends the path as a blow-up.

Transforms run over stacked rows, a few calls per step rather than one per
field. A state costs one: an inverse of [psi, u, psi', u', u'', psi''] on
the collocation grid, whose first two rows the state check reads and whose
samples the monitor record and the step reuse. The states whose exact norms
are read add one oversampled inverse for all their W^{2,inf} norms, of the
derivative orders of psi and u that can hold the max (``w2inf_norm``). A
step costs three: one forward transform of the seven explicit-term rows
(three dealiased products, four band projections), and one inverse and one
forward for the corrector's transport.
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
sup-norm, in three rungs. The Wiener-algebra bound max_o sum_j mult_j |c_j|
k_j^o (``model.wiener_weights``) dominates the W^{2,inf} norm, so a bound at
or below a threshold (less a relative slack ``BOUND_SLACK`` for rounding)
stands in for the norm with no transform. Where it does not, a checked
state's previous value plus the Wiener bound of the step's change dominates
the norm too, by the triangle inequality on the oversampled grid, and stands
in for it likewise. Only a state that neither bound certifies takes the
exact norm. The corrector's threshold is R, where phi is exactly 1. The
state check's is the smallest of the monitored radii and R that the path has
not yet crossed, below which the norm moves neither phi, nor the stopping
test, nor a hit time; it is -inf, the exact norm, on recorded states and on
the last state. A norm that reaches a radius below R moves the path's
threshold to the next radius, so the following states are certified against
a radius that their norm has not reached.

The step's small kernels fill preallocated rows through ``out=`` and reuse
the (k, dt)-only factors, which are rebuilt only when the stepped rows
change. Each factor keeps the operand order of the expression it stands for,
since regrouping changes rounding. A real factor that only ever multiplies
or divides complex rows is stored complex: numpy would cast it to (x, 0.0)
on every call, so the bits are the same.

Most steps are quiet: no record, no last state, no failed check and no
crossed radius. The per-path bookkeeping of ``simulate_path`` lives in
arrays (each path's last step, threshold, floor, next radius and norm-trace
rows), so a quiet step makes a fixed number of numpy calls whatever the
number of paths: every Wiener bound certifies, ``certified_norms`` returns at
its first comparison and says so, and the state check and the crossing test
end there; the norms go into the trace in one write. Only the other steps
read rows one by one, build records and results, or recompute thresholds.

Paths run in batches. The kernels take only stacked spectra of shape
(P, n_half), with a leading path axis, and ``simulate_path`` steps a batch
of paths in lockstep from one workspace, so each numpy call and each
transform of a step serves every path of the batch: a step makes the same
transform calls for P paths as for one (Lord, Powell & Shardlow, An
Introduction to Computational Stochastic PDEs, 2014; the leading batch axis
of SDE libraries such as torchsde). A single path runs as a stack of one,
and so does the public ``step()``, a one-step ``simulate_path`` run. The
batch changes no bit of any path: elementwise operations and row-wise
transforms do not mix paths; the wave sums and the Wiener bounds are stacks
of the products one path would form, which numpy hands to the same BLAS
routine path by path (one matrix product over all paths would round
differently); reductions run per path; nu_bar, the predictor's phi and the
state check are taken per path, while a step's increments take one
``sample_increment`` draw, each row with the bits of its path's own draw,
its exact norms one stacked transform and its records one
``compute_record`` pass. A path that stops leaves the stepped rows, and the
others go on.

The paths of a batch may differ in dt and in their number of steps, so every
dt level of a refinement study steps in one batch. The (k, dt)-only factors
are per-row: (P, 1) columns and (P, n_half) rows, each row with the bits of
its own dt's scalar factor, and an elementwise product with a row gives the
bits of the product with that scalar. A path leaves the stepped rows at its
own last step.

The paths of a batch may also differ in noise model, so the three noise
modes of a strong-order suite step in one batch too. ``simulate_path``
orders the stepped rows by model, the models compared by value, so that
each model's rows are consecutive, and forces each group on views of the
stacked arrays: one stack of one-path wave sums, which its model's
``coefficient_fields`` turns into the forcing; a noise-free row's forcing
is exactly zero, the zero_half that it adds when it steps alone. One
increment array serves every row, so the models of a batch must share
k_modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import functionals
from .model import (BOUND_SLACK, ModelParams, State, cutoff_phi, w2inf_floor, w2inf_norm,
                    wiener_weights)
from .noise import NoiseModel, derive_path_seed, sample_increment
from .spectral import RealField, TorusGrid, _frozen, hs_norm, to_physical, to_spectral

# the rows of _Stepper.explicit_terms, in order
TERMS = ("transport", "advection", "quantum", "pressure", "viscosity", "viscosity_gradient",
         "forcing")


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
        # written so that NaN fails; an infinite t_end would overflow n_steps
        if not (0.0 < self.dt < math.inf and 0.0 < self.t_end < math.inf):
            raise IntegratorConfigError("dt and t_end must be positive and finite")
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
    # the radii whose first hit times the norm trace must place, as a radius
    # sweep reads them; the path's own cut-off radius R always counts, and
    # radii at or beyond R add nothing
    radii: tuple[float, ...] = ()


@dataclass(frozen=True)
class PathResult:
    """One trajectory: monitor series, per-step norm trace, terminal event.

    The norm trace and the records cover only states that passed the state
    check, so a path that blows up has no row for its diverged state. A row
    of a state without a record may hold an upper bound of its norms, below
    the smallest radius of ``resolved_radii`` that the path had not yet
    crossed; so the first row at or beyond each resolved radius is exact,
    while a row between two crossed radii may reach past a radius in between.
    """

    records: list[functionals.MonitorRecord]
    event: StoppingEvent
    final_state: State
    norm_trace: np.ndarray  # columns: time, |psi|_W2inf, |u|_W2inf (or bounds)
    n_steps_taken: int
    # the monitored radii below R, ascending, then R
    resolved_radii: tuple[float, ...]


class _Stepper:
    """Per-run workspace: wavenumber arrays, masks, and the step kernels.

    Spectra are mean-normalized half-spectra (rfft/n). All kernels take and
    return raw arrays; the public functions wrap them in State/RealField. The
    kernels take P paths at once: spectra of shape (P, n_half), whose states
    enter as the rows of ``sample``, of shape (rows, P, .), so that
    ``rows[j]`` is row j of every path.
    """

    def __init__(self, grid: TorusGrid, params: ModelParams, blowup_clamp: float):
        self.grid = grid
        self.params = params
        self.blowup_clamp = blowup_clamp
        self.n = grid.n_collocation
        self.n_half = grid.n_half
        self.k = grid.k_half
        self.ik = 1j * self.k
        self.k2 = self.k**2
        # complex copies of real factors that the step only ever multiplies
        # or divides complex rows by: (x, 0.0) is the cast numpy would
        # otherwise make on every call
        self.complex_k2 = self.k2.astype(complex)
        self.neg_k2 = (-self.k2).astype(complex)
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
                                   dtype=complex)[:, None, None]
        # psi's exponents in rho^(gamma-1), rho^(alpha-1) and rho
        self.psi_rates = np.array([params.gamma - 1.0, params.alpha - 1.0, 1.0])
        # the factors of u and psi in the linear parts of b1 and b2
        self.neg_ik_ihk3 = np.stack([-1j * self.k, -1j * self.hk3])[:, None, :]
        self.zero_half = _frozen(np.zeros(grid.n_half, dtype=complex))
        # alias-free quadratic products need n >= 2m + cut + 2
        need = 2 * grid.m_modes + grid.dealias_cut + 2
        self.product_n = self.n if self.n >= need else need + (need % 2)
        # a_k sin(2 pi k x) on the grid, the state-free factor of the forcing,
        # for each distinct noisy model the stepper has met
        self.waves: dict[NoiseModel, np.ndarray] = {}
        # Wiener-algebra bound of the W^{2,inf} norm, sup|d^o f/dx^o| <=
        # sum_j wiener[o, j] |c_j|
        self.wiener = wiener_weights(grid)
        self.radius = params.cutoff_radius if params.enable_cutoff else np.inf
        # bounds above this could hide an overflow that the check must see
        self.finite_floor = w2inf_floor(grid)
        self.radius_floor = self.floors(self.radius)

    def use_rows(self, dts: Sequence[float], models: Sequence[NoiseModel]) -> None:
        """Set up the stepped rows: row r steps by ``dts[r]``, forced by ``models[r]``.

        The step's (k, dt)-only factors are (P, 1) columns and (P, n_half)
        rows, which the kernels broadcast against a stack of P paths. Each
        factor keeps its expression's operand order, and a row's factor has
        the bits of its own dt's scalar one, so every path steps as it would
        alone. The real factors ``dt``, ``hdt`` and ``half_hdt2_k4`` are
        stored complex, as the step only multiplies complex rows by them or
        adds them to such.

        Each noisy model's rows, compared by value, and the rows of the
        noise-free models must be consecutive, as ``simulate_path`` orders
        them, so that every group steps on views of the stacked arrays.
        ``noise_groups`` lists each noisy model's rows as a slice, with the
        model and its waves; ``quiet_rows`` is the slice of noise-free rows,
        whose forcing is exactly zero, as when they step alone, or None; and
        ``noise_on`` tells whether any row is noisy. Each distinct model's
        waves are built once per stepper. The models share k_modes, so one
        increment array serves every row.
        """
        dt = np.array(dts)[:, None]
        hdt = 0.5 * dt
        self.dt, self.hdt = dt.astype(complex), hdt.astype(complex)
        self.half_hdt2_k4 = (0.5 * hdt * hdt * self.k2 * self.k2).astype(complex)
        self.neg_hdt_ihk3 = -hdt * 1j * self.hk3
        self.hdt_ik = hdt * 1j * self.k
        rows: dict[NoiseModel | None, list[int]] = {}
        for row, m in enumerate(models):
            on = m.base_amplitude > 0.0
            if on and m not in self.waves:
                self.waves[m] = m.waves(self.grid.x)
            rows.setdefault(m if on else None, []).append(row)
        if any(group[-1] - group[0] != len(group) - 1 for group in rows.values()):
            raise ValueError("each noise model's rows must be consecutive")
        quiet = rows.pop(None, None)
        self.quiet_rows = None if quiet is None else slice(quiet[0], quiet[-1] + 1)
        self.noise_groups = [(slice(group[0], group[-1] + 1), m, self.waves[m])
                             for m, group in rows.items()]
        self.noise_on = bool(self.noise_groups)

    # --- small kernels -------------------------------------------------

    def sample(self, psi_spec: np.ndarray, u_spec: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
        """Spectra and collocation samples of the rows [psi, u, psi', u', u'', psi''].

        One stacked inverse transform: spectra of shape (P, n_half) give rows
        of shape (6, P, .). The state check reads the first two rows, the
        explicit terms all six.
        """
        spec = np.empty((6,) + psi_spec.shape, dtype=complex)
        spec[0] = psi_spec
        spec[1] = u_spec
        return self.sample_rows(spec)

    def sample_rows(self, spec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``sample`` of spectra (6, P, n_half) whose rows 0 and 1 hold psi and
        u, as ``step_imex`` returns them: rows 2 to 5 are filled in place."""
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
        retained band to be alias-free; the product keeps the modes up to the
        grid's dealias_cut.
        """
        factors = np.empty((2,) + a_spec.shape, dtype=complex)
        factors[0] = a_spec
        factors[1] = b_spec
        a, b = to_physical(factors, self.product_n)
        return self.project_rows(a * b, self.product_end)

    def floors(self, below: np.ndarray | float) -> np.ndarray:
        """The values that certify at thresholds ``below``: each threshold less
        the relative slack ``BOUND_SLACK``, and never above ``finite_floor``."""
        return np.minimum(below / (1.0 + BOUND_SLACK), self.finite_floor)

    def certified_norms(self, rows: np.ndarray, below: np.ndarray | float,
                        previous: tuple[np.ndarray, np.ndarray] | None = None,
                        floors: np.ndarray | float | None = None,
                        ) -> tuple[np.ndarray, bool]:
        """The W^{2,inf} norms of P states' fields, or upper bounds of them.

        ``rows`` are the F fields of each state, spectra of shape (F, P, n_half),
        and ``below`` has one threshold per state, or one for all; ``floors``
        are their ``floors``, computed here if not given. A value certifies
        where it stays at or below its state's floor. A state whose Wiener
        bounds all certify gets them, and when every state's do, that is the
        whole work. ``previous`` holds the spectra and the (P, F) values of
        each state's previous checked state, in the layout of ``rows`` and of
        the return value; with it, a state at a finite threshold whose Wiener
        bounds fail gets, per field, the smaller of its Wiener bound and its
        previous value plus the Wiener bound of the change, where these all
        certify. The other states, and always those at -inf, get their exact
        norms, all from one oversampled transform. Returns the (P, F) values,
        and whether every value is a Wiener bound at or below its floor.
        """
        if floors is None:
            floors = self.floors(below)
        # a stack of matrix products: each state's bounds have the bits of
        # wiener @ |rows[:, p]|.T alone
        wiener = self.wiener
        norms = np.matmul(wiener, np.abs(rows).transpose(1, 2, 0)).max(axis=-2)
        # a NaN bound certifies nothing, as a NaN never compares true
        within = norms.T <= floors
        if within.all():
            return norms, True
        certified = within.all(axis=0)
        below = np.broadcast_to(below, certified.shape)
        floors = np.broadcast_to(floors, certified.shape)
        exact = np.flatnonzero(~certified)
        retry = exact[np.isfinite(below[exact])] if previous is not None else exact[:0]
        if retry.size:
            spectra, values = previous
            change = np.abs(rows[:, retry] - spectra[:, retry]).transpose(1, 2, 0)
            # fmin keeps the Wiener bound where the sum is NaN, as min() does
            bound = np.fmin(norms[retry], values[retry] + np.matmul(wiener, change).max(axis=-2))
            passed = (bound.T <= floors[retry]).all(axis=0)
            norms[retry[passed]] = bound[passed]
            certified[retry[passed]] = True
            exact = np.flatnonzero(~certified)
        if exact.size:
            norms[exact] = w2inf_norm(rows[:, exact].swapaxes(0, 1), self.grid)
        return norms, False

    def predictor_phi(self, u_spec: np.ndarray) -> float | np.ndarray:
        """phi(|u|) of the predicted spectra (P, n_half) from their
        ``certified_norms`` below R: the scalar 1.0, where phi is exactly 1,
        when every value is at most R, and otherwise a (P, 1) column of
        per-path factors. A scalar 1.0 scales the transport with the bits of
        a column of 1.0s."""
        norms, certified = self.certified_norms(u_spec[None], self.radius,
                                                floors=self.radius_floor)
        if certified or norms.max() <= self.radius:
            return 1.0
        return np.array([cutoff_phi(norm, self.radius) for norm, in norms.tolist()])[:, None]

    # --- right-hand sides ----------------------------------------------

    def transport_spec(self, psi_spec: np.ndarray, u_spec: np.ndarray,
                       phi_u: float | np.ndarray) -> np.ndarray:
        """-phi(|u|) * u * dpsi/dx as half-spectra, from the spectra alone;
        phi_u is a (P, 1) column of per-path factors, or a scalar for all."""
        return -phi_u * self.product(u_spec, psi_spec * self.ik)

    def explicit_terms(self, spec: np.ndarray, samples: np.ndarray,
                       dW: np.ndarray | None = None) -> np.ndarray:
        """The explicit terms of a sampled state below the cut-off radius.

        Rows, in the order of ``TERMS``: transport (continuity equation);
        advection, quantum, pressure, viscosity and viscosity_gradient
        (momentum equation); and forcing, sum_k F_k dW_k, when dW, of shape
        (P, k_modes), is given and some row's noise is on, with the models of
        ``use_rows``: each path's wave sum dW @ waves, of shape (1, n), passed
        through its model's ``coefficient_fields``; a noise-free row's is
        zero. No term carries a cut-off factor: every state ``simulate_path``
        steps is below R, where phi_R is 1. The momentum equation's sixth
        term, the dispersion, is linear and is solved implicitly with
        coefficient ``hk3``.

        All terms share one forward transform. On a padded product grid the
        product factors take one more inverse transform, and the products
        and the projections take one forward transform each. The ``sample``
        rows of P paths give terms of shape (6 or 7, P, n_half).
        """
        psi, u, dpsi, du, d2u, d2psi = samples
        lead = samples.shape[1:-1]
        forcing = dW is not None and self.noise_on
        n_rows = 7 if forcing else 6
        # the product factors u, [psi', u'] and psi''
        if self.product_n == self.n:
            f_u, f_dpsi_du, f_d2psi = u, samples[2:4], d2psi
            rows = np.empty((n_rows,) + lead + (self.n,))
            products, pointwise = rows[:3], rows[3:]
        else:
            factors = to_physical(spec[[1, 2, 3, 5]], self.product_n)
            f_u, f_dpsi_du, f_d2psi = factors[0], factors[1:3], factors[3]
            products = np.empty((3,) + lead + (self.product_n,))
            pointwise = np.empty((n_rows - 3,) + lead + (self.n,))
        # rho^(gamma-1), rho^(alpha-1), and rho for the forcing
        rates = np.exp(np.multiply.outer(self.psi_rates[: 3 if forcing else 2], psi))
        np.multiply(f_u, f_dpsi_du, out=products[:2])
        np.multiply(f_dpsi_du[0], f_d2psi, out=products[2])
        # pointwise rows 0 and 2 take rho^(gamma-1) psi' and rho^(alpha-1) psi'
        np.multiply(rates[:2], dpsi, out=pointwise[0::2])
        np.multiply(rates[1], d2u, out=pointwise[1])
        np.multiply(pointwise[2], du, out=pointwise[2])
        if forcing:
            # per model, each path's wave sum h = sum_k dW_k a_k sin(2 pi k x)
            # as a stack of vector-matrix products, so that it has the bits
            # of dW @ waves alone, which one matrix product would not; the
            # model turns h into the forcing g(rho, u) h in place
            for group, model, waves in self.noise_groups:
                # the reshaped rows have the strides of matmul's own output
                out = pointwise[3, group]
                h = np.matmul(dW[group, None, :], waves, out=out.reshape(len(out), 1, -1))
                h[...] = model.coefficient_fields(h, rates[2][group], u[group])
            if self.quiet_rows is not None:
                pointwise[3, self.quiet_rows] = 0.0
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
        np.multiply(self.term_scale[:n_rows], s, out=s)
        if forcing and self.quiet_rows is not None:
            # a noise-free row adds zero_half to b2, as it does alone; the
            # transform of its zero samples may hold negative zeros
            s[6, self.quiet_rows] = 0.0
        return s

    def explicit_u_spec(self, terms: np.ndarray, implicit_share: np.ndarray) -> np.ndarray:
        """All momentum terms outside the implicit 2x2 block, summed in place
        into row 1 of ``terms``, the rows of ``explicit_terms``, and returned.

        ``implicit_share`` is nu_bar * k^2 * u_spec, the viscosity that the
        Crank-Nicolson block takes; ``step_imex`` forms it once for both of
        its uses.
        """
        _, advection, quantum, pressure, viscosity, viscosity_gradient = terms[:6]
        out = advection
        out += pressure
        # viscosity minus the share handled implicitly
        out += viscosity
        out += implicit_share
        out += viscosity_gradient
        out += quantum
        return out

    def nu_bar(self, psi_phys: np.ndarray) -> np.ndarray:
        """The implicit viscosity of P paths' samples of psi, a (P, 1) column."""
        # Crank-Nicolson damps the stiff modes of the explicit remainder
        # (rho^(alpha-1) - nu_bar) u'' only if nu_bar >= max rho^(alpha-1);
        # this min falls short wherever rho^(alpha-1) varies. ROADMAP.md's
        # open item on the implicit viscosity at that maximum changes it.
        return np.exp(((self.params.alpha - 1.0) * psi_phys).min(axis=-1, keepdims=True))

    def cn_solve(self, b1: np.ndarray, b2: np.ndarray, diag: np.ndarray,
                 kb2: np.ndarray, det: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One Crank-Nicolson solve of the per-mode 2x2 skew/viscous block.

        The implicit block is d psi = -ik u dt, d u = -(i/2) k^3 psi dt
        - nu k^2 u dt (the dispersion carries the Bohm factor 1/2). b1 and b2
        are the right-hand sides of the psi and u rows; diag = 1 + (dt/2) nu k^2,
        kb2 = (dt/2) i k b2 and det, the block's determinant, depend only on
        the step, so ``step_imex`` builds them once for both of its solves.
        The new spectra of psi and u fill the rows of ``out``, (2, P, n_half),
        which is returned.
        """
        np.multiply(diag, b1, out=out[0])
        np.subtract(out[0], kb2, out=out[0])
        np.multiply(self.neg_hdt_ihk3, b1, out=out[1])
        np.add(out[1], b2, out=out[1])
        np.divide(out, det, out=out)
        out[..., self.band_end:] = 0.0
        return out

    def check_states(self, spec: np.ndarray, samples: np.ndarray, below: np.ndarray,
                     previous: tuple[np.ndarray, np.ndarray] | None = None,
                     floors: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, dict[int, str], bool]:
        """The state check of P states given as stacked ``sample`` rows (6, P, .).

        Returns the states' (P, 2) W^{2,inf} norms [psi, u]; why each state
        that fails the check fails, by row: non-finite samples, |psi| beyond
        the clamp, or a non-finite norm, with NaN norms in the rows that fail
        on their samples; and whether every state passed on Wiener bounds at
        or below its floor, which ends the check with no further test. Every
        state's norms come from one ``certified_norms`` call, as each state's
        would alone, with its threshold in ``below`` and its floor in
        ``floors``, if given, where -inf takes the exact norms, and with
        ``previous``, the spectra (2, P, n_half) and (P, 2) values of each
        state's previous checked state, if given. A failure outranks a
        certified bound, which a state beyond the clamp can have below R.
        """
        clamp = self.blowup_clamp
        failures: dict[int, str] = {}
        # the sup of |.| is NaN or inf exactly when a sample is not finite
        peak_psi, peak_u = np.abs(samples[:2]).max(axis=(1, 2))
        if not (peak_psi <= clamp and peak_u < math.inf):
            peaks = np.abs(samples[:2]).max(axis=-1).T.tolist()
            for p, (peak_psi, peak_u) in enumerate(peaks):
                if not (math.isfinite(peak_psi) and math.isfinite(peak_u)):
                    failures[p] = "non-finite values in state"
                elif peak_psi > clamp:
                    failures[p] = f"|psi| reached {peak_psi:.3g} beyond clamp {clamp}"
        norms, certified = self.certified_norms(spec[:2], below, previous, floors)
        if certified and not failures:
            return norms, failures, True
        norms[list(failures)] = np.nan
        if not norms.max() < math.inf:
            for p in np.flatnonzero(~np.isfinite(norms).all(axis=1)).tolist():
                failures.setdefault(p, "non-finite W^{2,inf} norm")
        return norms, failures, False

    # --- full step -------------------------------------------------------

    def step_imex(self, spec: np.ndarray, samples: np.ndarray, dW: np.ndarray | None,
                  ) -> np.ndarray:
        """One IMEX step from a checked state below the cut-off radius.

        spec and samples are the ``sample`` rows of P paths; dW is the step's
        increments, of shape (P, k_modes), or None. Every path steps at once:
        nu_bar and the predictor's phi are taken per path, and each path's new
        spectra have the bits of its step alone. Returns spectra (6, P, n_half)
        whose rows 0 and 1 hold the new psi and u, for ``sample_rows``.

        The step's rows are formed in place and in pairs, each element with
        the operands of its expression in their order.
        """
        nu_bar = self.nu_bar(samples[0])
        implicit_share = nu_bar * self.complex_k2 * spec[1]

        terms = self.explicit_terms(spec, samples, dW)
        n_psi = terms[0]
        # row 1 of terms becomes n_u, beside n_psi in row 0
        self.explicit_u_spec(terms, implicit_share)

        # [psi + hdt * (-ik u), u + hdt * (-i hk3 psi - implicit_share)]
        linear = np.multiply(self.neg_ik_ihk3, spec[1::-1])
        np.subtract(linear[1], implicit_share, out=linear[1])
        np.multiply(self.hdt, linear, out=linear)
        np.add(spec[:2], linear, out=linear)
        # predictor and corrector differ only in the transport term of b1
        b = self.dt * terms[:2]
        np.add(linear, b, out=b)
        b2 = b[1]
        b2 += terms[6] if len(terms) == 7 else self.zero_half
        diag = 1.0 + self.hdt * nu_bar * self.complex_k2
        det = diag + self.half_hdt2_k4
        kb2 = self.hdt_ik * b2

        psi_pred, u_pred = self.cn_solve(b[0], b2, diag, kb2, det, np.empty_like(b))

        # trapezoidal corrector on the transport term only (mass accuracy);
        # the one place phi_R acts: b1 = b1_linear + dt * (0.5 * (n_psi + n_psi_pred))
        b1 = self.transport_spec(psi_pred, u_pred, self.predictor_phi(u_pred))
        np.add(n_psi, b1, out=b1)
        np.multiply(0.5, b1, out=b1)
        np.multiply(self.dt, b1, out=b1)
        np.add(linear[0], b1, out=b1)
        new = np.empty((6,) + b2.shape, dtype=complex)
        self.cn_solve(b1, b2, diag, kb2, det, new[:2])
        return new


def _sampled_state(spec: np.ndarray, samples: np.ndarray, t: float) -> State:
    """The State of one path's ``sample`` rows, whose fields view them; they
    equal RealField.from_spectral's."""
    return State(psi=RealField(samples[0], spec[0]), u=RealField(samples[1], spec[1]), time=t)


def step(state: State, cfg: StepConfig, params: ModelParams, noise: NoiseModel,
         seed: int, step_index: int, grid: TorusGrid) -> PathResult:
    """One step of ``cfg.dt_effective`` on the increment of ``step_index``: a
    one-step ``simulate_path`` run with no records, so a state at R, or one
    that fails the state check, ends there with no step taken. perfbench's
    grid sweep is the only caller; ROADMAP.md item 4 moves it and deletes this.
    """
    dt = cfg.dt_effective
    return simulate_path(state, StepConfig(dt, t_end=dt, blowup_clamp=cfg.blowup_clamp), params,
                         noise, seed, grid, MonitorSpec(collect_records=False),
                         increments=[sample_increment(seed, step_index, dt, noise)])


# collocation points stepped in lockstep at most (paths times n): a larger
# batch runs in consecutive groups of at least one path. This bounds the
# step's stacked arrays, and so the peak memory. Measured over groups of
# 8-128 paths at n = 64 and 256: up to 8192 points each doubling cut the run
# time by 5-23%, and beyond it a doubling gained 3-10% for 13-27% more peak
# memory.
_LOCKSTEP_POINTS = 8192


class PathBatch(tuple):
    """The PathResults of one batched ``simulate_path`` call, in input order.

    ``n_steps_taken`` is the batch's total: the steps taken by all its paths.
    """

    __slots__ = ()

    @property
    def n_steps_taken(self) -> int:
        return sum(r.n_steps_taken for r in self)


def simulate_path(initial: State | Sequence[State], cfg: StepConfig | Sequence[StepConfig],
                  params: ModelParams, noise: NoiseModel | Sequence[NoiseModel],
                  path_seed: int | Sequence[int], grid: TorusGrid,
                  monitors: MonitorSpec = MonitorSpec(),
                  increments: np.ndarray | Sequence | None = None) -> PathResult | PathBatch:
    """Advance paths until t_end, a norm-threshold hit, or numerical blow-up.

    A sequence of States with one seed each gives a PathBatch: the paths
    step in lockstep from one workspace, their spectra stacked along a
    leading path axis, so each numpy call and transform of a step serves
    every path. A batch takes one StepConfig for all its paths or one per
    path, and likewise one NoiseModel or one per path. Paths may differ in
    dt, t_end and noise model, so a batch can hold every level of a
    refinement study in several noise modes, but not in blowup_clamp or in
    the models' k_modes. A path that stops, or reaches its own last step,
    leaves the stepped rows; the others go on. Each path's result is bit for
    bit the result of running it alone. One State, with its one seed and
    its increments if any, runs as a batch of one, through the same
    validation and stepping, and gives that batch's PathResult.

    Fully reproducible from (config, path_seed): the noise stream is a pure
    function of (path_seed, step_index). Pre-summed increments may be passed
    for shared-path refinement studies: of shape (n_steps, k_modes) for one
    path, and for a batch one such array per path, each with its own
    n_steps, or one array of shape (P, n_steps, k_modes). A noise-free path
    ignores its increments.
    """
    if lone := isinstance(initial, State):
        initial, path_seed = [initial], [path_seed]
        increments = None if increments is None else [increments]
    initials, seeds = list(initial), list(path_seed)
    cfgs = [cfg] * len(initials) if isinstance(cfg, StepConfig) else list(cfg)
    models = [noise] * len(initials) if isinstance(noise, NoiseModel) else list(noise)
    incs = None if increments is None else [np.asarray(inc) for inc in increments]
    if not (len(seeds) == len(cfgs) == len(models) == len(initials)
            and (incs is None or len(incs) == len(initials))):
        raise ValueError("a batch needs one path seed, step config and noise model, and one "
                         "increment series if any, per initial state")
    if incs is not None and any(len(inc) < c.n_steps for inc, c in zip(incs, cfgs)):
        raise ValueError("a path's increment series is shorter than its steps")
    if len({c.blowup_clamp for c in cfgs}) > 1:
        raise ValueError("the paths of a batch must share blowup_clamp")
    if len({m.k_modes for m in models}) > 1:
        raise ValueError("the noise models of a batch must share k_modes")
    if not initials:
        return PathBatch()
    stepper = _Stepper(grid, params, cfgs[0].blowup_clamp)
    results: list[PathResult] = []
    size = max(1, _LOCKSTEP_POINTS // grid.n_collocation)
    for start in range(0, len(initials), size):
        group = slice(start, start + size)
        results += _run_lockstep(stepper, initials[group], seeds[group], cfgs[group],
                                 models[group], monitors, None if incs is None else incs[group])
    return results[0] if lone else PathBatch(results)


def _run_lockstep(stepper: _Stepper, initials: Sequence[State], seeds: Sequence[int],
                  cfgs: Sequence[StepConfig], models: Sequence[NoiseModel],
                  monitors: MonitorSpec,
                  increments: Sequence[np.ndarray] | None) -> list[PathResult]:
    """The paths of ``simulate_path``, stepped in lockstep, in input order.

    Row r of the stepped arrays is path ``active[r]``. Each row gets its own
    dt, noise model, state check, record, stopping test, increment and
    predictor phi, and its own last state at its own step count: paths of
    different dt and t_end leave the stepped rows at their own last steps. A
    checked state's recorded rows take one ``functionals.compute_record``
    call, as States that view the stepped rows. Each row's state check runs
    at the smallest resolved radius that its path has not crossed, and from
    the second state on with its previous checked state's spectra and
    values. ``increments`` has one (n_steps, k_modes) array per path, or is
    None, and then the noisy rows draw each step in one ``sample_increment``
    call; a noise-free path draws none. The stepper's (k, dt)-only factors
    and its noise waves are rebuilt whenever the stepped rows change, and so
    are the rows' thresholds and floors whenever a path crosses a radius.
    """
    radius = stepper.radius
    resolved = tuple(sorted({float(r) for r in monitors.radii if r < radius})) + (radius,)
    radii = np.array(resolved)
    dts = [c.dt_effective for c in cfgs]
    ends = np.array([c.n_steps for c in cfgs])
    results: list[PathResult] = [None] * len(initials)  # type: ignore[list-item]
    records: list[list[functionals.MonitorRecord]] = [[] for _ in initials]
    # the checked norms of path p's state i at row starts[p] + i, and the
    # active rows' starts; the trace's times follow from t0, i and dt
    starts = np.cumsum(ends + 1) - (ends + 1)
    trace = np.empty((starts[-1] + ends[-1] + 1, 2))
    t0 = [s.time for s in initials]
    # the rows grouped by noise model, compared by value, the noise-free
    # first and otherwise in input order, so that each model's rows stay
    # consecutive as paths leave
    ranks: dict[NoiseModel, int] = {}
    rank = [ranks.setdefault(m, len(ranks)) if m.base_amplitude > 0.0 else -1 for m in models]
    paths = sorted(range(len(initials)), key=rank.__getitem__)
    active = np.array(paths)
    at = starts[active]
    next_end = ends.min()
    stepper.use_rows([dts[p] for p in paths], [models[p] for p in paths])
    # each active path's index in resolved of the smallest radius that it has
    # not crossed; that radius is the path's threshold
    nexts = np.zeros(len(initials), dtype=np.intp)
    thresholds = radii[nexts]
    floors = stepper.floors(thresholds)
    # the active paths' last checked spectra and values
    previous = None
    # the checked samples are the ones the next step, the monitor record and
    # the final state use
    spec, samples = stepper.sample(np.stack([initials[p].psi.spectral for p in paths]),
                                   np.stack([initials[p].u.spectral for p in paths]))

    for i in range(ends.max() + 1):
        strided = monitors.collect_records and i % monitors.stride == 0
        # None on an unrecorded step before every row's last state
        lasts = ends[active] == i if strided or i == next_end else None
        # recorded and last states take the exact norms
        below, below_floors = ((thresholds, floors) if lasts is None
                               else (np.where(lasts | strided, -math.inf, thresholds), None))
        norms, failures, certified = stepper.check_states(spec, samples, below, previous,
                                                          below_floors)
        # a quiet step: unrecorded, and every row passes below its threshold,
        # which only an exact norm can reach
        quiet = lasts is None and (certified or not (failures or (norms.T >= thresholds).any()))
        if quiet:
            trace[at + i] = norms
        else:
            top = norms.max(axis=1)
            passed = np.ones(len(paths), dtype=bool)
            passed[list(failures)] = False
            trace[at[passed] + i] = norms[passed]
            stops = ~passed | (top >= radius)
            if lasts is not None:
                stops |= lasts
            times = [t0[p] + i * dts[p] if i else t0[p] for p in paths]
            rec_rows = (np.flatnonzero(passed & (lasts | strided)).tolist()
                        if monitors.collect_records and lasts is not None else [])
            if rec_rows:
                # one stacked pass through the module attribute, which a tracer may wrap
                new = functionals.compute_record(
                    [_sampled_state(spec[:, r], samples[:, r], times[r]) for r in rec_rows],
                    stepper.params, stepper.grid, w2inf_psi=norms[rec_rows, 0].tolist(),
                    w2inf_u=norms[rec_rows, 1].tolist())
                for row, record in zip(rec_rows, new):
                    records[paths[row]].append(record)
            for row in np.flatnonzero(stops).tolist():
                p, t, failure = paths[row], times[row], failures.get(row)
                pair = None if failure is not None else norms[row].tolist()
                results[p] = PathResult(
                    records=records[p], event=_stopping_event(failure, pair, t, radius),
                    final_state=_sampled_state(_frozen(spec[:2, row].copy()),
                                               _frozen(samples[:2, row].copy()), t),
                    norm_trace=_norm_trace(t0[p], dts[p],
                                           trace[starts[p]: starts[p] + i + (pair is not None)]),
                    n_steps_taken=i, resolved_radii=resolved)
            going = ~stops
            if not going.any():
                break
            if not going.all():
                active, nexts, top = active[going], nexts[going], top[going]
                spec, samples, norms = spec[:, going], samples[:, going], norms[going]
                paths = active.tolist()
                at = starts[active]
                next_end = ends[active].min()
                stepper.use_rows([dts[p] for p in paths], [models[p] for p in paths])
            # only an exact norm can cross: a bound stays below its threshold
            nexts = _crossed(radii, nexts, top)
            thresholds = radii[nexts]
            floors = stepper.floors(thresholds)
        previous = (spec[:2], norms)
        if not stepper.noise_on:
            dW = None
        elif increments is not None:
            dW = np.array([increments[p][i] for p in paths])
        else:
            # one draw for the noisy rows; the noise-free rows come first, and
            # their forcing reads no increment
            quiet = 0 if stepper.quiet_rows is None else stepper.quiet_rows.stop
            drawn = paths[quiet:]
            dW = np.zeros((len(paths), models[0].k_modes))
            dW[quiet:] = sample_increment([seeds[p] for p in drawn], i,
                                          [dts[p] for p in drawn], models[drawn[0]])
        spec, samples = stepper.sample_rows(stepper.step_imex(spec, samples, dW))

    return results


def _crossed(radii: np.ndarray, nexts: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Each row's index in the ascending ``radii`` of the smallest radius that
    it has not crossed, after a state of norm ``top`` below the last radius:
    the first radius above ``top``, and never one below ``nexts``, the row's
    index before that state."""
    return np.maximum(nexts, np.searchsorted(radii, top, side="right"))


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

    Valid for the path's resolved radii, the monitored radii below the
    radius it ran with and that radius: trajectories for different cut-off
    radii coincide until the smaller threshold is reached, and the first row
    at or beyond each resolved radius is exact. A row between two crossed
    radii may hold a bound that reaches past a radius in between, so any
    other radius raises ValueError. A path that ended in numerical blow-up
    counts as stopped at the blow-up time for thresholds it never reached.
    """
    worst = np.maximum(result.norm_trace[:, 1], result.norm_trace[:, 2])
    times = result.norm_trace[:, 0]
    out: list[float | None] = []
    for r in radii:
        if r not in result.resolved_radii:
            raise ValueError(f"radius {r:g} is not among the path's resolved radii "
                             f"{result.resolved_radii}, so its norm rows may be bounds "
                             "that reach it early")
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


def strong_convergence_order(initial: State, params: ModelParams,
                             noises: Sequence[NoiseModel], grid: TorusGrid,
                             dt_levels: Sequence[float], n_paths: Sequence[int],
                             master_seed: int, t_end: float) -> list[ConvergenceResult]:
    """Pathwise self-convergence: slope of log E||u_fine - u_dt||_L2 vs log dt.

    One study per noise model in ``noises``, with ``n_paths[s]`` paths for
    study s; path p of every study runs on the seed of path p. All levels
    replay the same Brownian path: coarse increments are sums of the finest
    level's increments. Every path of every level of every study, the
    references included, steps in one ``simulate_path`` batch of mixed dt
    and noise model, whose rows run level by level, the references first,
    so that its lockstep groups hold rows of like length. The models of a
    batch share k_modes, so each seed's increments are drawn and summed once
    for all the noisy studies. Returns the studies' results in model order.

    Exclusions are applied to each study's results afterwards, level by
    level from the finest: a path that blows up at any level is excluded and
    counted, and its errors at the levels it completed are dropped. More
    than 20% exclusions is a diagnostic failure, raised for the first such
    study in study order.
    """
    models, counts = list(noises), list(n_paths)
    if len(counts) != len(models):
        raise ValueError("a convergence study needs one path count per noise model")
    dts = sorted(float(d) for d in dt_levels)
    dt_fine = dts[0]
    n_fine = round(t_end / dt_fine)
    ratios = []
    for d in dts[1:]:
        r = d / dt_fine
        if abs(r - round(r)) > 1e-9:
            raise IntegratorConfigError("dt_levels must be integer multiples of the finest")
        ratios.append(round(r))

    seeds = [derive_path_seed(master_seed, p) for p in range(max(counts, default=0))]
    # each seed's increments at every level, finest first, drawn and summed
    # once for all the noisy studies
    drawn: dict[int, list[np.ndarray]] = {}
    for model, count in zip(models, counts):
        if not model.base_amplitude > 0.0:
            continue  # a noise-free path ignores its increments, so it draws none
        for seed in seeds[:count]:
            if seed not in drawn:
                fine = sample_increment([seed] * n_fine, range(n_fine), dt_fine, model)
                drawn[seed] = [fine] + [fine[: (n_fine // r) * r].reshape(-1, r, model.k_modes)
                                        .sum(axis=1) for r in ratios]

    def level_increments(level: int, model: NoiseModel, p: int) -> np.ndarray:
        if model.base_amplitude > 0.0:
            return drawn[seeds[p]][level]
        return np.broadcast_to(np.zeros(model.k_modes), (n_fine, model.k_modes))

    # rows level by level, the references first, and within a level study
    # by study, so that the lockstep groups hold rows of like length
    rows = [(level, s, p) for level in range(len(dts))
            for s, count in enumerate(counts) for p in range(count)]
    level_cfgs = [StepConfig(dt=d, t_end=t_end) for d in dts]
    runs = simulate_path([initial] * len(rows), [level_cfgs[level] for level, _, _ in rows],
                         params, [models[s] for _, s, _ in rows],
                         [seeds[p] for _, _, p in rows], grid,
                         MonitorSpec(collect_records=False),
                         increments=[level_increments(level, models[s], p)
                                     for level, s, p in rows])
    # each study's results level by level, in path order
    studies: list[list[list[PathResult]]] = [[[] for _ in dts] for _ in models]
    for (level, s, _), run in zip(rows, runs):
        studies[s][level].append(run)
    return [_study_result(levels, dts, grid) for levels in studies]


def _study_result(levels: list[list[PathResult]], dts: list[float],
                  grid: TorusGrid) -> ConvergenceResult:
    """One study's order from its paths' results, level by level from the
    reference, with its exclusions applied; raises on more than 20%."""
    refs = levels[0]
    n_paths = len(refs)
    # a path stays in the study if it completes at every level
    kept = [p for p in range(n_paths)
            if all(results[p].event.kind == "completed" for results in levels)]
    used = len(kept)
    excluded = n_paths - used
    if used == 0 or excluded > 0.2 * n_paths:
        raise IntegratorConfigError(
            f"too many excluded paths in convergence study: {excluded}/{n_paths}")
    errors = np.zeros(len(dts) - 1)
    for p in kept:  # in path order, as the sum's rounding depends on it
        errors += np.asarray([hs_norm(results[p].final_state.u.spectral
                                      - refs[p].final_state.u.spectral, 0, grid)
                              for results in levels[1:]])
    errors /= used
    slope = float(np.polyfit(np.log(dts[1:]), np.log(errors), 1)[0])
    return ConvergenceResult(order=slope, dts=tuple(dts[1:]), errors=tuple(errors),
                             n_paths_used=used, n_excluded=excluded)
