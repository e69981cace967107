"""Models the benchmark builds: the N-inertia chain and seeded dense models.

The chain generalises ``resilest.plant.three_inertia_model``: N inertias
coupled by N-1 torsional springs, a torque input on the first inertia, and
p = 2N-1 sensors (the N absolute angles, then the N-1 adjacent angle
differences).  N = 3 reproduces the built-in plant bit for bit.
"""

from __future__ import annotations

import numpy as np

from resilest.analysis import SystemModel
from resilest.plant import ContinuousModel, zoh_discretize

def chain_model(N: int) -> ContinuousModel:
    """Continuous N-inertia chain; state is [angle1, rate1, ..., angleN, rateN].

    Inertia J, damping b and spring constant k are those of the built-in
    three-inertia plant.
    """
    J, b, k = 0.01, 0.007, 1.37
    if N < 2:
        raise ValueError(f"a chain needs at least two inertias, got N={N}")
    n = 2 * N
    A_c = np.zeros((n, n))
    for i in range(N):
        A_c[2 * i, 2 * i + 1] = 1.0
        k_left = k if i > 0 else 0.0
        k_right = k if i < N - 1 else 0.0
        if i > 0:
            A_c[2 * i + 1, 2 * i - 2] = k_left / J
        A_c[2 * i + 1, 2 * i] = -(k_left + k_right) / J
        A_c[2 * i + 1, 2 * i + 1] = -b / J
        if i < N - 1:
            A_c[2 * i + 1, 2 * i + 2] = k_right / J
    B_c = np.zeros((n, 1))
    B_c[1, 0] = 1.0 / J
    C_c = np.zeros((2 * N - 1, n))
    for i in range(N):
        C_c[i, 2 * i] = 1.0
    for i in range(N - 1):
        C_c[N + i, 2 * i] = 1.0
        C_c[N + i, 2 * i + 2] = -1.0
    return ContinuousModel(A_c=A_c, B_c=B_c, C_c=C_c, params={"N": N, "J": J, "b": b, "k": k})


def discrete_chain(N: int, T_s: float) -> SystemModel:
    return zoh_discretize(chain_model(N), T_s, d_max=0.001, n_max=0.001)


def dense_model(rng: np.random.Generator, n: int, p: int) -> SystemModel:
    """Gaussian (A, B, C) with A scaled to spectral radius 0.9."""
    A = rng.standard_normal((n, n))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    return SystemModel(A=A, B=rng.standard_normal((n, 1)), C=rng.standard_normal((p, n)),
                       d_max=0.001, n_max=0.001)
