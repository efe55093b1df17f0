"""Large-deviation toolkit for spin-flip trajectories.

Modules:
  duality        one-dimensional convex conjugation and gap checks
  poisson_walk   rate-calibration walk with exact combinatorial oracles
  magnetization  analytic Hamiltonian/Lagrangian pair for independent flips
  finite_jump    finite-dimensional flux Lagrangian, three evaluation routes
  trajectory     action integrals, minimizers, Euler-Lagrange residuals
  rate_functions static initial rate functions (bernoulli, double well)
  badness        non-unique optimal histories and nature/nurture labels
  lattice        exact torus dynamics, operator algebra, replica moment series
  kernels        the exact lattice event kernel (composition-rejection)
  cli            JSON-configured experiment commands
"""

__version__ = "0.1.0"
