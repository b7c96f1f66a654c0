"""Particle solvers for mean-field forward-backward systems, with
stochastic-maximum-principle control and two-player games on top.

Modules
-------
core             grids, ensembles, Brownian drivers, shared errors
forward_mv       mean-field forward SDE simulation
mf_bsde          mean-field BSDE solver (least-squares conditional expectations)
fbsde_solver     coupled solvers: linear seed, Picard, homotopy continuation
hypothesis_check sampling certificates for the standing conditions (H4)-(H6)
smp_control      adjoints, Hamiltonian gradients, projected descent
games            two-player non-zero-sum games via damped best response
lq_examples      linear-quadratic reference fixtures and verification pipelines
"""

from mfcontrol.core import (
    ConfigError,
    DivergenceError,
    NonConvergenceError,
    RegressionError,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DivergenceError",
    "NonConvergenceError",
    "RegressionError",
    "__version__",
]
