"""DPG solver with optimal test functions for the clamped bi-Laplacian.

Two ultraweak formulations of Delta^2 u = f with u = du/dn = 0 are
discretized on triangular meshes: piecewise-polynomial field variables,
reduced Hsieh-Clough-Tocher skeleton traces, per-element optimal test
functions, a built-in residual error estimator, and adaptive
newest-vertex-bisection refinement.  A companion "trace lab" replays the
skeleton trace-space experiments (Dirac approximation, unbounded point
values, duality/extension norm sandwich) numerically.
"""
