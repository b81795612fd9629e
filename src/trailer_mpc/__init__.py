"""Path-following control for a general 2-trailer with a car-like tractor.

Kinematic model, Frenet-frame error dynamics, a condensed-QP model predictive
controller with an in-repo dense QP solver, a saturated-LQ baseline, a
closed-loop simulator, and joint-angle stability/sensing region analysis.
"""

__version__ = "0.1.0"

from .error_model import (LinearizedModel, PathError, analytic_straight_model,
                          compute_error, error_dynamics_s, linearize)
from .exceptions import (EmptyRegion, InfeasiblePath, InvalidState,
                         NominalOutsidePolytope, OutOfDomain, PathExhausted,
                         ProjectionLost, RiccatiDiverged, SingularConfiguration,
                         TrailerMpcError, ValidityViolated)
from .model import (ControlInput, VehicleState, derivatives, integrate_step,
                    speed_ratio)
from .mpc import (ControllerState, CostMatrices, JointAnglePolytope,
                  LqController, MpcConfig, MpcController, actuator_limits,
                  build_output_matrix, default_joint_polytope, design_cost)
from .params import VehicleParams
from .paths import (NominalPath, PathSample, eq_residuals, generate_figure_eight,
                    generate_straight, interpolate, project, reverse_path)
from .qp import (QpSolution, QpStatus, soft_ipm_solve, soft_kkt_residuals,
                 soft_qp_solve)
from .regions import (RegionGrid, fit_inner_polytope, make_axes, merge,
                      sensing_region, stability_sweep)
from .sim import ExperimentSpec, RunLog, initial_state, paper_suite, run, run_suite
