import numpy as np
import pytest

from qns1d.integrator import MonitorSpec, StepConfig, _Stepper, simulate_path
from qns1d.model import ModelParams
from qns1d.noise import NoiseModel
from qns1d.spectral import RealField, TorusGrid


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid64():
    return TorusGrid(64, 21)


@pytest.fixture
def grid256():
    return TorusGrid(256, 85)


def band_limited(grid: TorusGrid, rng: np.random.Generator, amplitude: float = 1.0,
                 max_mode: int | None = None) -> RealField:
    """Random real field supported on modes 1..max_mode with 1/j^2 decay."""
    top = max_mode if max_mode is not None else grid.m_modes
    spec = np.zeros(grid.n_half, dtype=complex)
    for j in range(1, top + 1):
        spec[j] = amplitude / j**2 * (rng.standard_normal() + 1j * rng.standard_normal())
    return RealField.from_spectral(spec, grid)


def sample_one(stepper: _Stepper, state):
    """The stepper's ``sample`` rows of one state, as a stack of one path:
    the kernels take every state with a leading path axis."""
    return stepper.sample(state.psi.spectral[None], state.u.spectral[None])


def make_stepper(grid: TorusGrid, params=None, noise=None):
    """The production step kernels for one grid; the step size is irrelevant to them."""
    if params is None:
        params = ModelParams(gamma=1.5, alpha=0.5)
    if noise is None:
        noise = NoiseModel(base_amplitude=0.0)
    stepper = _Stepper(grid, params, StepConfig.blowup_clamp)
    stepper.use_rows([1e-3], [noise])
    return stepper


def one_step(state, dt: float, params, noise, grid: TorusGrid, seed: int = 0):
    """A ``simulate_path`` run of one step of dt with no records. A state at
    R, or one that fails the state check, ends there with no step taken."""
    return simulate_path(state, StepConfig(dt=dt, t_end=dt), params, noise, seed, grid,
                         MonitorSpec(collect_records=False))
