"""Shuttling protocols for a harmonic trap that are robust against oscillatory perturbations.

The package covers the full pipeline: perturbative excitation theory (second
order, with static/dynamical decomposition and Fourier forms), an exact
monodromy oracle for the auxiliary width and trajectory equations,
closed-form envelope analysis, robust trajectory designers, and two
optimizers (genetic corridor search, optimal-control extremal).
"""

__version__ = "0.1.0"

from .analysis import (CommensurateClass, ConditionKind, PoleError,
                       classify_commensurate, corridor_check, crossing_time,
                       envelope_dynamical, envelope_static, fourier_projection,
                       static_closed_form)
from .design import (AnsatzSystem, DesignConstraints, DesignError, design_aux,
                     design_fourier, mode_overlap_integral, target_integral)
from .dynamics import (AuxiliarySolution, IntegrationError, exact_energy,
                       exact_transport, shifted_trap,
                       solve_auxiliary, trap_from_classical)
from .model import (EnergyQuanta, FourierSineProtocol, Perturbation,
                    PerturbationKind, PhysicalParams, Polynomial5,
                    PolynomialTrajectory, Protocol,
                    TabulatedProtocol, ValidationReport, eval_perturbation,
                    validate)
from .optimize import (GaConfig, GaResult, OctExtremalProtocol, OctSolution,
                       SingularSystemError, avg_dynamical_potential,
                       corridor_cost, ga_minimize, nullspace_parametrize,
                       oct_solve)
from .perturbation import (ExcitationReport, FirstOrderSolution, accel_ft,
                           eta_ratio, fourier_dynamical,
                           fourier_static_freq, fourier_static_pos,
                           second_order_energy_freq, second_order_energy_pos)
from .quadrature import QuadratureError, adaptive_quad
