import math

import numpy as np
import pytest
from scipy.integrate import quad

from chiralgate.hamiltonians import (IDX_00, IDX_01, IDX_10, IDX_11,
                                     adiabatic_frame_couplings, bright_states,
                                     build_h_ps, build_h_q, build_h_stap,
                                     dark_state, dressed_states, lambda_pm,
                                     predict_r_final, stap_generator,
                                     stirap_generator)
from chiralgate.propagate import evolve_piecewise_exact
from chiralgate.pulses import (LEFT, RIGHT, StirapSchedule,
                               default_stap_schedule, default_stirap_schedule,
                               eval_ps, mixing_angle_rate, stap_angles,
                               stap_corrected_pulses, stap_dressed_splitting,
                               total_rabi)


def test_h_q_structure_and_hermiticity():
    h = build_h_q(2.0, LEFT)
    assert h[IDX_00, IDX_10] == pytest.approx(1j)  # (omega/2) e^{i pi/2}
    np.testing.assert_allclose(h, h.conj().T)
    # leakage row and column identically zero
    np.testing.assert_array_equal(h[IDX_01, :], 0)
    np.testing.assert_array_equal(h[:, IDX_01], 0)
    with pytest.raises(ValueError):
        build_h_q(-1.0, LEFT)


def test_h_q_handedness_conjugates_coupling():
    hl = build_h_q(1.4, LEFT)
    hr = build_h_q(1.4, RIGHT)
    np.testing.assert_allclose(hl[IDX_00, IDX_10], np.conj(hr[IDX_00, IDX_10]))


def test_h_ps_eigenvalues_are_zero_and_half_rabi():
    h = build_h_ps(3.0, 4.0)
    vals = np.linalg.eigvalsh(h[np.ix_([0, 3, 2], [0, 3, 2])])
    np.testing.assert_allclose(vals, [-2.5, 0.0, 2.5], atol=1e-12)
    np.testing.assert_array_equal(h[IDX_01, :], 0)


def test_h_stap_accepts_negative_amplitudes():
    h = build_h_stap(-2.0, 1.5)
    np.testing.assert_allclose(h, h.conj().T)
    with pytest.raises(ValueError):
        build_h_stap(math.inf, 0.0)


def test_dark_state_is_annihilated():
    for a1 in (0.3, math.pi / 4, 1.2):
        h = build_h_ps(math.sin(a1), math.cos(a1))
        np.testing.assert_allclose(np.linalg.norm(h @ dark_state(a1)), 0.0, atol=1e-14)


def test_bright_states_are_eigenvectors():
    a1 = 0.7
    h = build_h_ps(2.0 * math.sin(a1), 2.0 * math.cos(a1))
    plus, minus = bright_states(a1)
    np.testing.assert_allclose(h @ plus, 1.0 * plus, atol=1e-12)
    np.testing.assert_allclose(h @ minus, -1.0 * minus, atol=1e-12)


def test_dressed_frame_orthonormal_and_limits():
    f = dressed_states(0.9, 0.3)
    for u in (f.phi0, f.phi_plus, f.phi_minus):
        np.testing.assert_allclose(np.linalg.norm(u), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.vdot(f.phi0, f.phi_plus), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.vdot(f.phi_plus, f.phi_minus), 0.0, atol=1e-12)
    # alpha2 = 0 reduces to the adiabatic dark state
    f0 = dressed_states(0.9, 0.0)
    np.testing.assert_allclose(f0.phi0, dark_state(0.9), atol=1e-12)
    # completeness on the 3-level subspace: projector leaves |01> out
    proj = f.completeness()
    np.testing.assert_allclose(proj[IDX_01, IDX_01], 0.0, atol=1e-14)
    np.testing.assert_allclose(np.trace(proj).real, 3.0, atol=1e-12)


def test_lambda_pm_vanishes_with_designed_pulses():
    s = default_stap_schedule()
    ts = np.linspace(s.path.t_i, s.path.t_f, 400)
    peak_amp = max(max(abs(x) for x in stap_corrected_pulses(s.path, t)) for t in ts)
    worst = max(max(abs(l) for l in lambda_pm(s, t)) for t in ts)
    assert worst < 1e-9 * peak_amp


def test_lambda_pm_reduces_to_mixing_rate_without_corrections():
    # with the drives off and alpha2 -> 0, |lambda| approaches the bare
    # nonadiabatic coupling |alpha1_dot|; probe at the window center where
    # alpha2_dot vanishes and alpha2 equals the (tiny) bump height
    s = default_stap_schedule(alpha_m=1e-6)
    t = s.path.center
    lp, lm = lambda_pm(s, t, effective=(0.0, 0.0))
    da1 = stap_angles(s.path, t)[1]
    np.testing.assert_allclose(abs(lp), abs(da1), rtol=1e-6)
    np.testing.assert_allclose(abs(lm), abs(da1), rtol=1e-6)


def test_adiabatic_frame_coupling_is_mixing_rate_over_sqrt2():
    s = default_stirap_schedule()
    for t in np.linspace(s.t1 + 0.4, s.t_f - 0.4, 12):
        gap, coupling = adiabatic_frame_couplings(s, t)
        want = abs(mixing_angle_rate(s, t)) / math.sqrt(2)
        np.testing.assert_allclose(coupling, want, rtol=1e-6)
        np.testing.assert_allclose(gap, total_rabi(*eval_ps(s, t)) / 2, rtol=1e-6)


def test_predict_r_final_matches_propagation_stap():
    s = default_stap_schedule()
    psi0 = np.array([1, 0, 0, 0], dtype=complex)
    tr = evolve_piecewise_exact(stap_generator(s, RIGHT), psi0, 0, s.duration, 2000)
    pred = np.abs(predict_r_final(s)) ** 2
    np.testing.assert_allclose(tr.final(), pred, atol=1e-6)


def test_predict_r_final_frozen_values():
    # dynamic-phase predictions for the shipped default schedules
    pred_stap = np.abs(predict_r_final(default_stap_schedule())) ** 2
    np.testing.assert_allclose(pred_stap[[IDX_00, IDX_11]],
                               [0.04971358, 0.95028642], atol=1e-6)
    pred_stirap = np.abs(predict_r_final(default_stirap_schedule())) ** 2
    np.testing.assert_allclose(pred_stirap[[IDX_00, IDX_11]],
                               [0.98161118, 0.01838882], atol=1e-6)


def test_predict_r_final_matches_quad():
    # rho from the composite Gauss-Legendre rule against adaptive quadrature
    for s in (default_stap_schedule(), default_stap_schedule(alpha1_profile="sin2"),
              default_stirap_schedule()):
        if isinstance(s, StirapSchedule):
            splitting = lambda t: float(total_rabi(*eval_ps(s, t)))
        else:
            splitting = lambda t: float(stap_dressed_splitting(s.path, t))
        area, _ = quad(splitting, s.t_split, s.duration, epsabs=1e-11,
                       epsrel=1e-11, limit=400)
        rho = 0.5 * area
        np.testing.assert_allclose(predict_r_final(s),
                                   [math.cos(rho), 0, 0, math.sin(rho)],
                                   rtol=0, atol=1e-11)


def test_generators_switch_stages():
    s = default_stirap_schedule()
    gen = stirap_generator(s, LEFT)
    h_early = gen(1.0)
    assert abs(h_early[IDX_00, IDX_10]) > 0
    assert h_early[IDX_00, IDX_11] == 0
    h_late = gen(6.0)
    assert h_late[IDX_00, IDX_10] == 0
    assert abs(h_late[IDX_00, IDX_11]) > 0
