"""One SHA-256 over the closed loop of the paper suite.

Runs the 12 runs of ``sim.paper_suite()`` as ``trailer-mpc run --preset
paper`` does (default parameters and configuration, each run stopped on
convergence) and prints one SHA-256 over the columns ``u_cmd``,
``states``, ``kkt_max``, ``qp_iterations``, ``qp_obj``, ``qp_status`` and
``solver_path`` of every run, in suite order.  Two trees whose closed loops
agree bit for bit print the same digest, so a change that claims the same
paper runs can be checked by running this at both:

    PYTHONPATH=src python tests/paper_digest.py

Not a test module: pytest does not collect it.
"""

import hashlib

import numpy as np

from trailer_mpc import MpcConfig, VehicleParams
from trailer_mpc.sim import paper_suite, run

COLUMNS = ("u_cmd", "states", "kkt_max", "qp_iterations", "qp_obj",
           "qp_status", "solver_path")


def paper_digest() -> str:
    """The hex SHA-256 of the paper suite's columns ``COLUMNS``."""
    params, cfg = VehicleParams(), MpcConfig()
    digest = hashlib.sha256()
    for spec in paper_suite():
        log = run(spec, params, cfg, stop_on_converged=True)
        digest.update(f"{spec.name}_{spec.controller}\n".encode())
        for name in COLUMNS:
            values = getattr(log, name)
            if isinstance(values, list):
                data = "\n".join(values).encode()
            else:
                data = np.ascontiguousarray(values).tobytes()
                name += f" {values.dtype.str} {values.shape}"
            digest.update(f"{name} {len(data)}\n".encode())
            digest.update(data)
    return digest.hexdigest()


if __name__ == "__main__":
    print(paper_digest())
