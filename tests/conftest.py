import numpy as np
import pytest

from resilest.analysis import SystemModel
from resilest.plant import ContinuousModel, three_inertia_model, zoh_discretize


@pytest.fixture(scope="session")
def three_inertia():
    """Discretized benchmark plant at the canonical 1 ms sampling period."""
    return zoh_discretize(three_inertia_model(), 0.001, d_max=0.001, n_max=0.001)


@pytest.fixture(scope="session")
def inertia_chain():
    """``chain(N, T_s)``: N inertias coupled by N - 1 torsional springs.

    J, b and k are the three-inertia plant's; the torque acts on the first
    inertia, and the p = 2N - 1 sensors read the N angles, then the N - 1
    adjacent angle differences.  N = 3 is the three-inertia plant.
    """
    J, b, k = 0.01, 0.007, 1.37

    def chain(N, T_s):
        springs = k * (np.diag(np.r_[1.0, np.full(N - 2, 2.0), 1.0])
                       - np.eye(N, k=1) - np.eye(N, k=-1))
        A_c = np.zeros((2 * N, 2 * N))
        A_c[0::2, 1::2] = np.eye(N)
        A_c[1::2, 0::2] = -springs / J
        A_c[1::2, 1::2] = -b / J * np.eye(N)
        B_c = np.zeros((2 * N, 1))
        B_c[1, 0] = 1.0 / J
        angles = np.eye(2 * N)[0::2]
        C_c = np.vstack([angles, angles[:-1] - angles[1:]])
        return zoh_discretize(ContinuousModel(A_c, B_c, C_c), T_s, d_max=0.001, n_max=0.001)

    return chain


@pytest.fixture(scope="session")
def demo_run(tmp_path_factory):
    """One full demo invocation (scenario + trace + plots), shared across tests."""
    from resilest.cli import main
    from resilest.files import load_scenario
    from resilest.plant import simulate

    outdir = tmp_path_factory.mktemp("demo")
    rc = main(["demo", "--out", str(outdir)])
    assert rc == 0
    scenario = load_scenario(outdir / "scenario.json")
    trace = simulate(scenario)
    return {"dir": outdir, "scenario": scenario, "trace": trace}


@pytest.fixture(scope="session")
def scalar_triple():
    """Scalar plant measured by three identical sensors."""
    return SystemModel(
        A=[[0.95]], B=[[1.0]], C=[[1.0], [1.0], [1.0]], d_max=0.001, n_max=0.001
    )


def random_detectable_coding(rng, n, p):
    """Gaussian coding matrix, regenerated until it has full column rank."""
    from resilest.stacked import CodingMatrix

    while True:
        entries = rng.normal(size=(n * p, n))
        if np.linalg.matrix_rank(entries) == n:
            return CodingMatrix(entries, n, p)
