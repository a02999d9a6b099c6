"""Truncated cylindrical Wiener forcing with a concrete coefficient family.

The default multiplicative family is

    F_k(x, rho, u) = a_k * sin(2*pi*k*x) * tanh(u) * rho / (1 + rho),
    a_k = base_amplitude * k**(-amplitude_decay),

which vanishes at (rho, u) = (0, 0), is bounded with bounded derivatives,
and satisfies sum_k |F_k| <= (sum_k a_k) * (1 + |u|). The additive variant
("off": coupling to the state switched off) uses F_k(x) = a_k * sin(2*pi*k*x).

Increments are a pure function of (path_seed, step_index): each step keys a
counter-based Philox stream, so any step of any path replays independently
of call order, and one call can draw a step of every path of a batch, each
row with the bits of its own one-path draw.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

SHAPES = ("trig_density_weighted", "off")

# counter-domain tags so independent draws never share a Philox block
_DOMAIN_INCREMENT = 0
_DOMAIN_INITIAL = 1


class NoiseConfigError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseModel:
    """Coefficient family {F_k, k=1..k_modes} with summable amplitude bounds."""

    k_modes: int = 16
    amplitude_decay: float = 6.0
    base_amplitude: float = 0.0
    shape: str = "trig_density_weighted"
    # derived from the four fields above, so equality and the hash follow
    # those alone: models equal by value share their waves in a batch
    amplitudes: np.ndarray = field(init=False, repr=False, compare=False)
    derivative_bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k_modes < 1:
            raise NoiseConfigError("k_modes must be positive")
        # written so that NaN fails: a NaN model would run as noise-free
        # while its amplitudes are NaN
        if not self.amplitude_decay > 1.0:
            raise NoiseConfigError("amplitude_decay must exceed 1 for summability")
        if not 0.0 <= self.base_amplitude < math.inf:
            raise NoiseConfigError("base_amplitude must be finite and nonnegative")
        if self.shape not in SHAPES:
            raise NoiseConfigError(f"shape must be one of {SHAPES}")
        ks = np.arange(1, self.k_modes + 1, dtype=float)
        amps = self.base_amplitude * ks ** (-self.amplitude_decay)
        # x-derivatives of sin(2*pi*k*x) bring powers of 2*pi*k; u-derivatives
        # of tanh are bounded by 2; these are the constructed per-k constants
        bounds = 2.0 * amps * np.maximum(1.0, (2.0 * np.pi * ks) ** 3)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "derivative_bounds", bounds)

    def tail_bound(self) -> float:
        """Discarded amplitude mass sum_{k>K} a_k, bounded by the integral test."""
        d = self.amplitude_decay
        return self.base_amplitude * self.k_modes ** (1.0 - d) / (d - 1.0)

    def amplitude_sum(self) -> float:
        return float(np.sum(self.amplitudes))

    def waves(self, x: np.ndarray) -> np.ndarray:
        """a_k * sin(2*pi*k*x) for all k, shape (k_modes, len(x)); built once per grid."""
        ks = np.arange(1, self.k_modes + 1, dtype=float)
        return self.amplitudes[:, None] * np.sin(2.0 * np.pi * np.outer(ks, x))

    def coefficient_fields(self, waves: np.ndarray, rho: np.ndarray,
                           u: np.ndarray) -> np.ndarray:
        """The coefficient fields of ``waves`` at the states (rho(x), u(x)):
        waves * g(rho, u), with g = tanh(u) rho / (1 + rho), and ``waves``
        itself for the additive family.

        The model's own ``waves`` of the points x, shape (k_modes, len(x)),
        give F_k(x, rho(x), u(x)) for all k. Every F_k is linear in its wave,
        so a combination of the waves gives the same combination of the F_k:
        a path's wave sum h = sum_k dW_k a_k sin(2 pi k x), shape (1, len(x)),
        gives its forcing sum_k F_k dW_k, which is how the integrator forces
        a step. Stacked rho and u of P paths, shape (P, len(x)), broadcast
        against waves of shape (P, rows, len(x)) or (rows, len(x)), and give
        shape (P, rows, len(x)).
        """
        if self.shape == "off":
            return waves
        return waves * (np.tanh(u) * rho / (1.0 + rho))[..., None, :]

    def verify_bounds(self) -> dict:
        """Sampled check of the structural hypotheses on a random (x, rho, u) lattice
        of 10000 points.

        Checks |F_k| <= a_k, first three partials of (x, rho, u) within the
        constructed constants, F_k(.,0,0) = 0, and the linear growth bound
        sum_k |F_k| <= (sum a_k)(1 + |u|). Returns the measured margins;
        raises NoiseConfigError on violation.
        """
        rng = np.random.default_rng(0)
        n_samples = 10000
        h = 1e-4
        x = rng.uniform(0.0, 1.0, n_samples)
        rho = rng.uniform(4.0 * h, 10.0, n_samples)  # keep FD stencils inside rho >= 0
        u = rng.uniform(-10.0, 10.0, n_samples)

        waves = self.waves(x)
        f = self.coefficient_fields(waves, rho, u)
        amp_ok = np.max(np.abs(f), axis=1) <= self.amplitudes + 1e-15
        vanish = float(np.max(np.abs(self.coefficient_fields(waves, np.zeros(1), np.zeros(1)))))
        growth_lhs = float(np.max(np.sum(np.abs(f), axis=0) / (1.0 + np.abs(u))))
        growth_c = self.amplitude_sum()

        stencils = {1: [(-1, -0.5), (1, 0.5)],
                    2: [(-1, 1.0), (0, -2.0), (1, 1.0)],
                    3: [(-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)]}
        worst_partial = np.zeros(self.k_modes)
        for axis in range(3):
            args = (x, rho, u)
            for order, offsets in stencils.items():
                acc = np.zeros((self.k_modes, n_samples))
                for step_mult, weight in offsets:
                    shifted = [a.copy() for a in args]
                    shifted[axis] = shifted[axis] + step_mult * h
                    acc += weight * self.coefficient_fields(self.waves(shifted[0]),
                                                            *shifted[1:])
                deriv = acc / h**order
                worst_partial = np.maximum(worst_partial, np.max(np.abs(deriv), axis=1))
        partial_ok = worst_partial <= self.derivative_bounds * (1.0 + 1e-3) + 1e-9

        report = {
            "amplitude_bound_ok": bool(np.all(amp_ok)),
            "vanishes_at_rest": vanish,
            "growth_constant": growth_c,
            "growth_measured": growth_lhs,
            "growth_ok": growth_lhs <= growth_c + 1e-12,
            "partials_ok": bool(np.all(partial_ok)),
            "worst_partial_over_bound": float(np.max(worst_partial / self.derivative_bounds)),
            "tail_bound": self.tail_bound(),
        }
        if not (report["amplitude_bound_ok"] and report["growth_ok"] and report["partials_ok"]):
            raise NoiseConfigError(f"coefficient family violates its bounds: {report}")
        if vanish > 1e-14:
            raise NoiseConfigError("coefficient family does not vanish at (rho,u)=(0,0)")
        return report


def derive_path_seed(master_seed: int, path_index: int) -> int:
    """Stable per-path seed from the master seed (recorded in manifests)."""
    ss = np.random.SeedSequence([int(master_seed), int(path_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _philox(path_seed: int, domain: int, step_index: int) -> np.random.Generator:
    bg = np.random.Philox(counter=[0, domain, step_index, 0],
                          key=[np.uint64(path_seed), np.uint64(0x9E3779B97F4A7C15)])
    return np.random.Generator(bg)


# one increment generator per thread, and a fresh stream's state in plain
# Python values, which the state setter reads fastest
_increments = threading.local()


def sample_increment(path_seed: int | Sequence[int], step_index: int | Sequence[int],
                     dt: float | Sequence[float], model: NoiseModel) -> np.ndarray:
    """Gaussian increments dW_k ~ N(0, dt), k = 1..k_modes; pure in
    (path_seed, step_index).

    One seed gives one step's increments, shape (k_modes,). A sequence of
    seeds gives one row per seed, shape (len(path_seed), k_modes), with one
    step index and one dt for every row, or one of each per row; each row
    has the bits of its one-seed draw, so the paths of a batch stepped in
    lockstep draw a step in one call.

    Before each row's draw the thread's generator is set to the state of a
    fresh stream: key [path_seed, 0x9E3779B97F4A7C15] and counter
    [0, _DOMAIN_INCREMENT, step_index, 0]. Only key and counter depend on the
    draw, so a change of seed costs no more than a change of step. The rows
    are drawn unit-variance into one array, which is then scaled by the
    column of sqrt(dt). A dt that is not positive and finite, NaN included,
    raises NoiseConfigError.
    """
    one = isinstance(path_seed, (int, np.integer))
    seeds = [path_seed] if one else path_seed
    steps = ([step_index] * len(seeds) if isinstance(step_index, (int, np.integer))
             else step_index)
    dts = np.asarray(dt, dtype=float)
    # written so that NaN fails
    bad = [d for d in dts.reshape(-1).tolist() if not 0.0 < d < math.inf]
    if bad:
        raise NoiseConfigError(f"dt must be positive and finite, got {bad}")
    if len(steps) != len(seeds) or dts.size not in (1, len(seeds)):
        raise ValueError("a batch takes one step index and one dt for all rows, or one per row")
    local = _increments
    if not hasattr(local, "gen"):
        local.gen = _philox(0, _DOMAIN_INCREMENT, 0)
        fresh = local.gen.bit_generator.state
        local.state = dict(fresh, buffer=fresh["buffer"].tolist(),
                           state={k: v.tolist() for k, v in fresh["state"].items()})
    gen, state = local.gen, local.state
    key, counter = state["state"]["key"], state["state"]["counter"]
    out = np.empty((len(seeds), model.k_modes))
    for seed, step, row in zip(seeds, steps, out):
        key[0] = int(seed)
        counter[2] = int(step)
        gen.bit_generator.state = state
        gen.standard_normal(out=row)
    out *= np.sqrt(dts).reshape(-1, 1)
    return out[0] if one else out


def initial_data_generator(path_seed: int) -> np.random.Generator:
    """Per-path stream for random initial-data perturbations."""
    return _philox(path_seed, _DOMAIN_INITIAL, 0)
