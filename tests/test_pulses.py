import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from chiralgate.errors import DomainError
from chiralgate.pulses import (ALPHA1_PROFILES, GaussianPulse, Handedness,
                               LEFT, RIGHT, StapAnglePath, StirapSchedule,
                               adiabaticity_ratio, default_stap_schedule,
                               default_stirap_schedule, discretize, eval_ps,
                               eval_ps_rates, eval_q, mixing_angle,
                               mixing_angle_rate, ps_values, q_stage_pulse,
                               stap_angles, stap_corrected_pulses,
                               stap_dressed_splitting, total_rabi)


def test_gaussian_area_matches_quadrature():
    g = GaussianPulse(2.3, 1.0, 0.4)
    num, _ = quad(g, -0.5, 2.5, epsabs=1e-13)
    np.testing.assert_allclose(g.area(-0.5, 2.5), num, rtol=1e-12)


def test_gaussian_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GaussianPulse(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        GaussianPulse(1.0, 0.0, 0.0)


def test_handedness_labels_and_phases():
    assert LEFT.phi_q == pytest.approx(math.pi / 2)
    assert RIGHT.phi_q == pytest.approx(-math.pi / 2)
    assert Handedness.from_label("l") == LEFT
    assert Handedness.from_label("R") == RIGHT
    with pytest.raises(ValueError):
        Handedness.from_label("X")
    with pytest.raises(ValueError):
        Handedness(0)


def test_q_stage_pulse_hits_requested_area():
    q = q_stage_pulse(math.pi / 2, 2.53)
    np.testing.assert_allclose(q.area(0.0, 2.53), math.pi / 2, rtol=1e-12)


def test_eval_q_zero_after_split_and_domain_error():
    s = default_stirap_schedule()
    assert eval_q(s, s.t1 + 0.5) == 0.0
    with pytest.raises(DomainError):
        eval_q(s, -0.1)
    with pytest.raises(DomainError):
        eval_q(s, s.t_f + 0.1)


def test_eval_ps_before_split_and_past_end():
    s = default_stirap_schedule()
    assert eval_ps(s, 0.5) == (0.0, 0.0)
    with pytest.raises(DomainError):
        eval_ps(s, s.t_f + 1e-9)


def test_stirap_mixing_angle_ramps_quarter_to_half_pi():
    s = default_stirap_schedule()
    a_start = mixing_angle(*eval_ps(s, s.t1))
    a_end = mixing_angle(*eval_ps(s, s.t_f))
    # the delayed pump component has an e^-3 tail at the stage boundaries,
    # so the angle misses the ideal endpoints by ~0.025 rad
    assert abs(a_start - math.pi / 4) < 0.05
    assert abs(a_end - math.pi / 2) < 0.05
    with pytest.raises(ValueError):
        mixing_angle(0.0, 0.0)


def test_mixing_angle_rate_matches_finite_difference():
    s = default_stirap_schedule()
    h = 1e-6
    for t in (4.0, 5.5, 7.0, 8.5):
        fd = (mixing_angle(*eval_ps(s, t + h)) - mixing_angle(*eval_ps(s, t - h))) / (2 * h)
        np.testing.assert_allclose(mixing_angle_rate(s, t), fd, rtol=1e-6)


def test_ps_rates_match_finite_difference():
    s = default_stirap_schedule()
    h = 1e-6
    for t in (4.0, 6.0, 8.0):
        dp, ds = eval_ps_rates(s, t)
        fdp = (eval_ps(s, t + h)[0] - eval_ps(s, t - h)[0]) / (2 * h)
        fds = (eval_ps(s, t + h)[1] - eval_ps(s, t - h)[1]) / (2 * h)
        np.testing.assert_allclose([dp, ds], [fdp, fds], rtol=1e-6, atol=1e-9)


def test_adiabaticity_ratio_small_on_default_schedule():
    s = default_stirap_schedule()
    ratios = [adiabaticity_ratio(s, t) for t in np.linspace(s.t1 + 0.3, s.t_f - 0.3, 30)]
    assert max(ratios) < 0.5
    assert adiabaticity_ratio(s, 0.1) == math.inf  # no P/S drive yet


def test_adiabaticity_ratio_is_the_analytic_rate_over_omega():
    s = default_stirap_schedule()
    for t in np.linspace(s.t1, s.t_f, 9):
        omega = total_rabi(*eval_ps(s, t))
        want = abs(mixing_angle_rate(s, t)) / omega
        assert abs(adiabaticity_ratio(s, t) - want) <= 1e-12
        h = 1e-5
        if s.t1 + h <= t <= s.t_f - h:
            fd = (mixing_angle(*eval_ps(s, t + h))
                  - mixing_angle(*eval_ps(s, t - h))) / (2 * h)
            np.testing.assert_allclose(adiabaticity_ratio(s, t), abs(fd) / omega,
                                       rtol=1e-6)


def test_schedule_validation():
    g = GaussianPulse(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        StirapSchedule(g, g, g, g, tau=-0.1, t1=1.0, t_f=2.0)
    with pytest.raises(ValueError):
        StirapSchedule(g, g, g, g, tau=0.1, t1=2.0, t_f=2.0)
    with pytest.raises(ValueError):
        StapAnglePath(alpha_m=0.0, t_i=0.0, t_f=1.0)
    with pytest.raises(ValueError):
        StapAnglePath(alpha_m=0.3, t_i=0.0, t_f=1.0, alpha1_profile="nope")


@given(alpha_m=st.floats(0.1, 1.2), t_alpha2=st.floats(0.1, 0.5),
       profile=st.sampled_from(["gauss_match", "sin2"]))
@settings(max_examples=40, deadline=None)
def test_alpha1_boundary_conditions(alpha_m, t_alpha2, profile):
    path = StapAnglePath(alpha_m=alpha_m, t_i=1.24, t_f=2.5,
                         t_alpha2=t_alpha2, alpha1_profile=profile)
    assert stap_angles(path, path.t_i)[0] == pytest.approx(math.pi / 4, abs=1e-12)
    assert stap_angles(path, path.t_f)[0] == pytest.approx(math.pi / 2, abs=1e-12)
    # monotone ramp
    ts = np.linspace(path.t_i, path.t_f, 200)
    vals = [stap_angles(path, t)[0] for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_alpha2_gaussian_bump_shape():
    path = StapAnglePath(alpha_m=0.35, t_i=1.24, t_f=2.5)
    assert stap_angles(path, path.center)[2] == pytest.approx(0.35)
    edge = stap_angles(path, path.t_i)[2]
    assert edge == pytest.approx(0.35 * math.exp(-9), rel=1e-10)


def test_alpha_dots_match_finite_difference():
    h = 1e-7
    for profile, t in itertools.product(ALPHA1_PROFILES, (1.4, 1.87, 2.2)):
        path = StapAnglePath(alpha_m=0.35, t_i=1.24, t_f=2.5, alpha1_profile=profile)
        _, da1, _, da2 = stap_angles(path, t)
        up, down = stap_angles(path, t + h), stap_angles(path, t - h)
        np.testing.assert_allclose(da1, (up[0] - down[0]) / (2 * h), rtol=1e-5)
        np.testing.assert_allclose(da2, (up[2] - down[2]) / (2 * h), rtol=1e-5)


def test_corrected_pulse_identities():
    # Projecting the effective amplitudes back onto the angle rates:
    #   P sin(a1) + S cos(a1) = -2 a1_dot cot(a2)
    #   P cos(a1) - S sin(a1) = -2 a2_dot
    path = StapAnglePath(alpha_m=0.35, t_i=1.24, t_f=2.5)
    for t in np.linspace(1.25, 2.49, 40):
        p, s = stap_corrected_pulses(path, t)
        a1, da1, a2, da2 = stap_angles(path, t)
        lhs1 = p * math.sin(a1) + s * math.cos(a1)
        lhs2 = p * math.cos(a1) - s * math.sin(a1)
        np.testing.assert_allclose(lhs1, -2 * da1 / math.tan(a2), rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lhs2, -2 * da2, rtol=1e-10, atol=1e-12)


def test_gauss_match_profile_keeps_amplitudes_bounded():
    # the sin2 ramp drives alpha1_dot*cot(alpha2) through huge edge spikes;
    # the matched profile keeps the effective amplitudes flat
    ts = np.linspace(1.2401, 2.4999, 800)
    for profile, bound in (("gauss_match", 30.0), ("sin2", 200.0)):
        path = StapAnglePath(alpha_m=0.35, t_i=1.24, t_f=2.5, alpha1_profile=profile)
        peak = max(max(abs(x) for x in stap_corrected_pulses(path, t)) for t in ts)
        if profile == "gauss_match":
            assert peak < bound
        else:
            assert peak > bound


def test_dressed_splitting_closed_form():
    # with the designed pulses the splitting is -2 alpha1_dot / sin(alpha2)
    path = StapAnglePath(alpha_m=0.35, t_i=1.24, t_f=2.5)
    for t in (1.4, 1.87, 2.3):
        _, da1, a2, _ = stap_angles(path, t)
        want = -2.0 * da1 / math.sin(a2)
        np.testing.assert_allclose(stap_dressed_splitting(path, t), want, rtol=1e-10)


def test_discretize_preserves_pulse_areas():
    s = default_stirap_schedule()
    d = discretize(s, 40)
    q_area = np.sum(d.omega_q) * d.delta_t
    # exact over the covered window; the sliver between k*delta_t and
    # t_split carries only a ~1e-5 Gaussian tail
    np.testing.assert_allclose(q_area, s.q.area(0.0, d.k * d.delta_t), rtol=1e-9)
    np.testing.assert_allclose(q_area, math.pi / 2, rtol=1e-4)
    p_area = np.sum(d.omega_p) * d.delta_t
    want_p, _ = quad(lambda t: eval_ps(s, t)[0], s.t1, s.t_f, epsabs=1e-12, limit=200)
    np.testing.assert_allclose(p_area, want_p, rtol=1e-8)


@pytest.mark.parametrize("n", [10, 20, 80, 700])
@pytest.mark.parametrize("schedule", [
    default_stap_schedule(),
    default_stap_schedule(alpha1_profile="sin2"),
    default_stirap_schedule(),
], ids=["stap-gauss_match", "stap-sin2", "stirap"])
def test_discretize_matches_quad_per_slice(schedule, n):
    # the Gauss-Legendre slice areas against adaptive quadrature on the same
    # slice windows
    d = discretize(schedule, n)
    worst = 0.0
    for i in range(d.k, n):
        lo, hi = max(i * d.delta_t, schedule.t_split), (i + 1) * d.delta_t
        for j, got in enumerate((d.omega_p[i], d.omega_s[i])):
            area, _ = quad(lambda t: float(ps_values(schedule, t)[j]), lo, hi,
                           epsabs=1e-12, epsrel=1e-12, limit=200)
            worst = max(worst, abs(got - area / d.delta_t))
    assert worst <= 1e-11


def test_discretize_stage_boundary_and_modes():
    s = default_stap_schedule()
    d = discretize(s, 20)
    assert d.k == round(20 * s.t_split / s.duration)
    assert np.all(d.omega_q[d.k:] == 0.0)
    assert np.all(d.omega_p[:d.k] == 0.0)
    with pytest.raises(ValueError):
        discretize(s, 1)


def test_total_rabi():
    np.testing.assert_allclose(total_rabi(3.0, 4.0), 5.0)
