"""Calibration kernel for workload passes (see ``calibrate.py``): fixed work
shaped like an nkshoot family solve, built only on numpy and scipy. A scipy
DOP853 integration with a Python right-hand side on a 7-vector, a truncated
power-series recurrence and a few 7x7 solves.
"""
import numpy as np
from scipy.integrate import solve_ivp

# duration of kernel() at reference speed, about its median on an idle core
# of the 2-vCPU host the benchmark was written on
REF_S = 1.2e-3

_Y0 = np.array([1.0, 0.0, 0.5, 0.1, 0.2, 0.3, 0.4])
_COEFFS = np.linspace(1.0, 2.0, 21)
_MATRIX = np.eye(7) * 3.0 + 0.1


def _rhs(t, y):
    a, b, c, d, e, f, g = y
    return np.array([b, -a, 0.5 * d, -0.5 * c, f, 0.1 * g - e, -0.1 * f])


def kernel() -> None:
    solve_ivp(_rhs, (0.0, 1.5), _Y0, method="DOP853", rtol=1e-12, atol=1e-12)
    q = np.zeros(len(_COEFFS))
    q[0] = 1.0
    for k in range(1, len(_COEFFS)):
        q[k] = (_COEFFS[k] - np.dot(q[:k], _COEFFS[k:0:-1])) / _COEFFS[0]
        np.convolve(_COEFFS[:k + 1], q[:k + 1])
    for h in range(5):
        np.linalg.solve(_MATRIX + h * np.eye(7), _Y0)
