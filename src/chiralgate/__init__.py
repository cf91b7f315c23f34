"""Two-qubit compilation and simulation of chirality-discriminating
STIRAP/STAP microwave protocols.

The driven three-level system lives on basis states |00> (ground), |11>
(intermediate), |10> (target); |01> is a leakage state no ideal drive ever
touches.  Qubit 0 is the left bit of every bitstring.
"""

from .circuits import (Circuit, Gate, MeasurementRecord, compile_p_step,
                       compile_protocol, compile_q_step, compile_s_step,
                       circuit_unitary, run_statevector, sample_measurements)
from .errors import (ChiralGateError, ConfigError, DomainError,
                     FrameTrackingError, IntegrityError,
                     SingularScheduleError)
from .hamiltonians import (bright_states, build_h_ps, build_h_q, build_h_stap,
                           dark_state, dressed_states, lambda_pm,
                           predict_r_final, stap_generator, stirap_generator)
from .molecule import (DipoleComponents, RotorConstants, TransitionTable,
                       builtin_propanediol, consistency_check, j1_energies,
                       rabi_frequency)
from .propagate import PopulationTrace, evolve_piecewise_exact, evolve_rk4
from .pulses import (GaussianPulse, Handedness, LEFT, RIGHT, StapSchedule,
                     StirapSchedule, default_stap_schedule,
                     default_stirap_schedule, discretize)
from .scenarios import (DiscriminationReport, export_qasm, ingest_counts,
                        report_discrimination, run_scenario, sweep_trotter)

__version__ = "0.1.0"
