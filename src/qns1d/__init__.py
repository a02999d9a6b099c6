"""Pseudo-spectral Galerkin simulator for the 1D stochastic quantum
Navier-Stokes system in log-density variables, with a Monte Carlo harness
and a verification suite for its conserved/dissipated functionals.

Import the submodules directly (``qns1d.cli``, ``qns1d.integrator``, ...);
the package itself loads none of them.
"""

__version__ = "0.1.0"
