import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from chiralgate.errors import DomainError, SingularScheduleError
from chiralgate.pulses import (ALPHA1_PROFILES, DiscretizedSchedule, GaussianPulse,
                               Handedness, LEFT, RIGHT, StapSchedule, StirapSchedule,
                               adiabaticity_ratio, default_stap_schedule,
                               default_stirap_schedule, discretize,
                               discretize_all, eval_ps_rates, mixing_angle,
                               mixing_angle_rate, q_stage_pulse,
                               stap_angles, total_rabi, _erf)


def test_gaussian_area_matches_quadrature():
    g = GaussianPulse(2.3, 1.0, 0.4)
    num, _ = quad(g, -0.5, 2.5, epsabs=1e-13)
    np.testing.assert_allclose(g.area(-0.5, 2.5), num, rtol=1e-12)


def test_gaussian_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GaussianPulse(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        GaussianPulse(1.0, 0.0, 0.0)
    # a NaN or infinite width and a NaN center would give NaN amplitudes
    for center, width in ((0.0, math.nan), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="width" if center == 0.0 else "center"):
            GaussianPulse(1.0, center, width)


def test_handedness_labels_and_phases():
    assert LEFT.phi_q == pytest.approx(math.pi / 2)
    assert RIGHT.phi_q == pytest.approx(-math.pi / 2)
    assert Handedness.from_label("l") == LEFT
    assert Handedness.from_label("R") == RIGHT
    for label in ("X", None, 1, b"L"):
        with pytest.raises(ValueError, match="handedness must be 'L' or 'R'"):
            Handedness.from_label(label)
    with pytest.raises(ValueError):
        Handedness(0)


def test_q_stage_pulse_hits_requested_area():
    q = q_stage_pulse(2.53)
    np.testing.assert_allclose(q.area(0.0, 2.53), math.pi / 2, rtol=1e-12)


def test_drives_q_zero_after_split_and_domain_error():
    s = default_stirap_schedule()
    assert s.drives(s.t1 + 0.5)[0] == 0.0
    assert s.drives(0.5) == (s.q(0.5), 0.0, 0.0)
    for t in (-0.1, s.t_f + 0.1, math.nan):
        with pytest.raises(DomainError):
            s.drives(t)


@pytest.mark.parametrize("schedule", [default_stap_schedule(), default_stirap_schedule()],
                         ids=["stap", "stirap"])
def test_one_stage_rule_for_every_answer(schedule):
    # t_split opens the P/S stage: the Q drive is already off there
    omega_q, omega_p, omega_s = schedule.drives(schedule.t_split)
    assert omega_q == 0.0 and omega_p != 0.0 and omega_s != 0.0
    assert (omega_p, omega_s) == schedule.ps(schedule.t_split)
    # each answer is zero on the other stage and the same array or per time
    t = np.append(np.linspace(0.0, schedule.t_f, 51), schedule.t_split)
    q_stage = t < schedule.t_split
    drives = np.array(schedule.drives(t))
    assert drives.shape == (3,) + t.shape
    assert np.all(drives[0, ~q_stage] == 0.0) and np.all(drives[0, q_stage] > 0.0)
    assert np.all(drives[1:, q_stage] == 0.0) and np.all(drives[1:, ~q_stage] != 0.0)
    np.testing.assert_array_equal(drives[1:], schedule.ps(t))
    np.testing.assert_array_equal(schedule.splitting(t)[q_stage], 0.0)
    for i, ti in enumerate(t.tolist()):
        assert np.array_equal(schedule.drives(ti), drives[:, i])
        assert np.ndim(schedule.splitting(ti)) == 0
    # and nothing is answered outside [0, t_f], alone or in an array
    for answer in (schedule.drives, schedule.ps, schedule.splitting):
        for bad in (-0.1, schedule.t_f + 1e-9, math.nan):
            for t in (bad, np.array([schedule.t_split, bad])):
                with pytest.raises(DomainError):
                    answer(t)


def test_stap_ps_zero_on_q_stage_and_domain_error_past_t_f():
    s = StapSchedule()
    assert s.ps(0.5) == (0.0, 0.0) and s.splitting(0.5) == 0.0
    for t in (2.6, 10.0):   # at 10 us alpha2 underflows to 0
        with pytest.raises(DomainError):
            s.ps(t)


def test_eval_ps_before_split_and_past_end():
    s = default_stirap_schedule()
    assert s.ps(0.5) == (0.0, 0.0)
    with pytest.raises(DomainError):
        s.ps(s.t_f + 1e-9)


def test_stirap_mixing_angle_ramps_quarter_to_half_pi():
    s = default_stirap_schedule()
    a_start = mixing_angle(*s.ps(s.t1))
    a_end = mixing_angle(*s.ps(s.t_f))
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
        fd = (mixing_angle(*s.ps(t + h)) - mixing_angle(*s.ps(t - h))) / (2 * h)
        np.testing.assert_allclose(mixing_angle_rate(s, t), fd, rtol=1e-6)


def test_ps_rates_match_finite_difference():
    s = default_stirap_schedule()
    h = 1e-6
    for t in (4.0, 6.0, 8.0):
        dp, ds = eval_ps_rates(s, t)
        fdp = (s.ps(t + h)[0] - s.ps(t - h)[0]) / (2 * h)
        fds = (s.ps(t + h)[1] - s.ps(t - h)[1]) / (2 * h)
        np.testing.assert_allclose([dp, ds], [fdp, fds], rtol=1e-6, atol=1e-9)


def test_adiabaticity_ratio_small_on_default_schedule():
    s = default_stirap_schedule()
    ratios = [adiabaticity_ratio(s, t) for t in np.linspace(s.t1 + 0.3, s.t_f - 0.3, 30)]
    assert max(ratios) < 0.5
    assert adiabaticity_ratio(s, 0.1) == math.inf  # no P/S drive yet


def _rate_and_ratio_reference(s, t: float) -> tuple[float, float]:
    """The scalar-only mixing_angle_rate and adiabaticity_ratio: an if on Omega."""
    omega_p, omega_s = s.ps(t)
    rate = 0.0
    if not (omega_p == 0.0 and omega_s == 0.0):
        dp, ds = eval_ps_rates(s, t)
        rate = (dp * omega_s - omega_p * ds) / (omega_p**2 + omega_s**2)
    omega = total_rabi(omega_p, omega_s)
    return rate, (math.inf if omega == 0.0 else float(abs(rate) / omega))


@settings(max_examples=60, deadline=None)
@given(t1=st.floats(0.5, 4.0), span=st.floats(0.5, 8.0),
       frac=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_rate_and_ratio_map_arrays_elementwise(t1, span, frac):
    s = StirapSchedule(t1=t1, t_f=t1 + span)
    # before the P/S stage (Omega = 0), on it, and at both of its ends
    t = np.array([0.0, t1, s.t_f] + [x * s.t_f for x in frac])
    rates, ratios = mixing_angle_rate(s, t), adiabaticity_ratio(s, t)
    assert rates.shape == ratios.shape == t.shape
    assert rates[0] == 0.0 and ratios[0] == math.inf
    for i, ti in enumerate(t.tolist()):
        rate, ratio = mixing_angle_rate(s, ti), adiabaticity_ratio(s, ti)
        assert np.ndim(rate) == np.ndim(ratio) == 0
        assert (rate, ratio) == _rate_and_ratio_reference(s, ti)
        assert rates[i].tobytes() == np.float64(rate).tobytes()
        assert ratios[i].tobytes() == np.float64(ratio).tobytes()
    # mixing_angle too, where the P/S drive is on; t = 0 has none and raises
    omega_p, omega_s = s.ps(t)
    on = (omega_p != 0.0) | (omega_s != 0.0)
    angles = mixing_angle(omega_p[on], omega_s[on])
    assert angles.shape == (np.count_nonzero(on),)
    for angle, p, q in zip(angles, omega_p[on].tolist(), omega_s[on].tolist()):
        assert np.ndim(mixing_angle(p, q)) == 0
        assert angle.tobytes() == np.float64(mixing_angle(p, q)).tobytes()
    with pytest.raises(ValueError, match="both amplitudes vanish"):
        mixing_angle(omega_p, omega_s)


def test_adiabaticity_ratio_is_the_analytic_rate_over_omega():
    s = default_stirap_schedule()
    for t in np.linspace(s.t1, s.t_f, 9):
        omega = total_rabi(*s.ps(t))
        want = abs(mixing_angle_rate(s, t)) / omega
        assert abs(adiabaticity_ratio(s, t) - want) <= 1e-12
        h = 1e-5
        if s.t1 + h <= t <= s.t_f - h:
            fd = (mixing_angle(*s.ps(t + h))
                  - mixing_angle(*s.ps(t - h))) / (2 * h)
            np.testing.assert_allclose(adiabaticity_ratio(s, t), abs(fd) / omega,
                                       rtol=1e-6)


def test_schedule_validation():
    with pytest.raises(ValueError, match="tau must be >= 0"):
        StirapSchedule(t1=1.0, t_f=2.0, tau=-0.1)
    with pytest.raises(ValueError, match="t1 < t_f"):
        StirapSchedule(t1=2.0, t_f=2.0)
    with pytest.raises(ValueError, match="alpha_m"):
        StapSchedule(alpha_m=0.0, t_split=0.5, t_f=1.0)
    with pytest.raises(ValueError, match="profile"):
        StapSchedule(alpha_m=0.3, t_split=0.5, t_f=1.0, alpha1_profile="nope")


@given(alpha_m=st.floats(0.1, 1.2), t_alpha2=st.floats(0.1, 0.5),
       profile=st.sampled_from(["gauss_match", "sin2"]))
@settings(max_examples=40, deadline=None)
def test_alpha1_boundary_conditions(alpha_m, t_alpha2, profile):
    s = StapSchedule(alpha_m=alpha_m, t_split=1.24, t_f=2.5,
                     t_alpha2=t_alpha2, alpha1_profile=profile)
    assert stap_angles(s, s.t_split)[0] == pytest.approx(math.pi / 4, abs=1e-12)
    assert stap_angles(s, s.t_f)[0] == pytest.approx(math.pi / 2, abs=1e-12)
    # monotone ramp
    ts = np.linspace(s.t_split, s.t_f, 200)
    vals = [stap_angles(s, t)[0] for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_alpha2_gaussian_bump_shape():
    s = StapSchedule(alpha_m=0.35, t_split=1.24, t_f=2.5)
    assert stap_angles(s, s.center)[2] == pytest.approx(0.35)
    edge = stap_angles(s, s.t_split)[2]
    assert edge == pytest.approx(0.35 * math.exp(-9), rel=1e-10)


def test_alpha_dots_match_finite_difference():
    h = 1e-7
    for profile, t in itertools.product(ALPHA1_PROFILES, (1.4, 1.87, 2.2)):
        s = StapSchedule(alpha_m=0.35, t_split=1.24, t_f=2.5, alpha1_profile=profile)
        _, da1, _, da2 = stap_angles(s, t)
        up, down = stap_angles(s, t + h), stap_angles(s, t - h)
        np.testing.assert_allclose(da1, (up[0] - down[0]) / (2 * h), rtol=1e-5)
        np.testing.assert_allclose(da2, (up[2] - down[2]) / (2 * h), rtol=1e-5)


def test_corrected_pulse_identities():
    # Projecting the effective amplitudes back onto the angle rates:
    #   P sin(a1) + S cos(a1) = -2 a1_dot cot(a2)
    #   P cos(a1) - S sin(a1) = -2 a2_dot
    sched = StapSchedule(alpha_m=0.35, t_split=1.24, t_f=2.5)
    for t in np.linspace(1.25, 2.49, 40):
        p, s = sched.ps(t)
        a1, da1, a2, da2 = stap_angles(sched, t)
        lhs1 = p * math.sin(a1) + s * math.cos(a1)
        lhs2 = p * math.cos(a1) - s * math.sin(a1)
        np.testing.assert_allclose(lhs1, -2 * da1 / math.tan(a2), rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lhs2, -2 * da2, rtol=1e-10, atol=1e-12)


def test_gauss_match_profile_keeps_amplitudes_bounded():
    # the sin2 ramp drives alpha1_dot*cot(alpha2) through huge edge spikes;
    # the matched profile keeps the effective amplitudes flat
    ts = np.linspace(1.2401, 2.4999, 800)
    for profile, bound in (("gauss_match", 30.0), ("sin2", 200.0)):
        s = StapSchedule(alpha_m=0.35, t_split=1.24, t_f=2.5, alpha1_profile=profile)
        peak = max(max(abs(x) for x in s.ps(t)) for t in ts)
        if profile == "gauss_match":
            assert peak < bound
        else:
            assert peak > bound


def test_dressed_splitting_closed_form():
    # with the designed pulses the splitting is -2 alpha1_dot / sin(alpha2)
    s = StapSchedule(alpha_m=0.35, t_split=1.24, t_f=2.5)
    for t in (1.4, 1.87, 2.3):
        _, da1, a2, _ = stap_angles(s, t)
        want = -2.0 * da1 / math.sin(a2)
        np.testing.assert_allclose(s.splitting(t), want, rtol=1e-10)


def test_discretize_preserves_pulse_areas():
    s = default_stirap_schedule()
    d = discretize(s, 40)
    q_area = np.sum(d.omega_q) * d.delta_t
    # exact over the covered window; the sliver between k*delta_t and
    # t_split carries only a ~1e-5 Gaussian tail
    np.testing.assert_allclose(q_area, s.q.area(0.0, d.k * d.delta_t), rtol=1e-9)
    np.testing.assert_allclose(q_area, math.pi / 2, rtol=1e-4)
    p_area = np.sum(d.omega_p) * d.delta_t
    want_p, _ = quad(lambda t: s.ps(t)[0], s.t1, s.t_f, epsabs=1e-12, limit=200)
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
            area, _ = quad(lambda t: float(schedule.ps(t)[j]), lo, hi,
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


def test_discretize_rejects_a_non_integer_n():
    s = default_stap_schedule()
    for n in (2.5, 4.0, np.float64(4.0), True, "4", None):
        with pytest.raises(ValueError, match=re.escape(f"n_steps must be an integer, got {n!r}")):
            discretize(s, n)
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            discretize_all(s, [4, n])
    assert discretize(s, np.int64(4)).m == discretize(s, np.int32(4)).m == 4


@pytest.mark.parametrize("schedule, problem, value", [
    # sin2's alpha1_dot stays finite where alpha2 underflows to 0
    (StapSchedule(t_alpha2=0.02, alpha1_profile="sin2"), "overflows", "inf"),
    # gauss_match's alpha1_dot underflows with alpha2: 0 * cot(0)
    (StapSchedule(t_alpha2=1e-3), "is not finite", "nan"),
], ids=["inf", "nan"])
def test_singular_drive_is_named_by_its_value(schedule, problem, value):
    with pytest.raises(SingularScheduleError) as info:
        discretize(schedule, 40)
    assert str(info.value).startswith(f"corrected pulse amplitude {problem} at t=")
    assert str(info.value).endswith(f"(|value|={value})")
    assert str(SingularScheduleError(1.0, 2e9)) == (
        "corrected pulse amplitude overflows at t=1 us (|value|=2e+09)")


def test_discretized_schedule_validates_its_fields():
    q, p, s = [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 4.0], [0.0, 0.0, 5.0, 6.0]
    d = DiscretizedSchedule(0.1, q, p, s, 2)      # lists become float arrays
    for drive, want in zip(("omega_q", "omega_p", "omega_s"), (q, p, s)):
        got = getattr(d, drive)
        assert isinstance(got, np.ndarray) and got.dtype == float
        np.testing.assert_array_equal(got, want)
    assert d.m == 4
    bad = [
        dict(omega_q=np.zeros((2, 2))),            # not 1-D
        dict(omega_s=[0.0, 0.0, 5.0]),             # unequal lengths
        dict(k=9), dict(k=-1), dict(k=2.5), dict(k=True),   # a bool is an int
        dict(delta_t=0.0), dict(delta_t=-0.1), dict(delta_t=math.nan), dict(delta_t=math.inf),
    ]
    for change in bad:
        fields = {**dict(delta_t=0.1, omega_q=q, omega_p=p, omega_s=s, k=2), **change}
        with pytest.raises(ValueError):
            DiscretizedSchedule(**fields)


@pytest.mark.parametrize("schedule", [
    StapSchedule(t_split=1.0, alpha1_profile="sin2"),
    StirapSchedule(t1=3.0, tau=1.5),
], ids=["stap", "stirap"])
def test_batching_never_changes_a_slice(schedule):
    # the sweep discretizes its whole N list at once; each N's slices must
    # be those of discretize alone, bit for bit, duplicates included
    steps = [2, 3, 17, 320, 549, 1000, 17]
    for n, got in zip(steps, discretize_all(schedule, steps)):
        want = discretize(schedule, n)
        assert (got.delta_t, got.k) == (want.delta_t, want.k)
        for drive in ("omega_q", "omega_p", "omega_s"):
            assert getattr(got, drive).tobytes() == getattr(want, drive).tobytes()


def test_total_rabi():
    np.testing.assert_allclose(total_rabi(3.0, 4.0), 5.0)


def test_erf_matches_a_math_erf_loop_bit_for_bit():
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf,
                       math.nan, 0.3, -6.0, 30.0])
    inputs = [values, values[::3], values[1:].reshape(2, 5), values[1:].reshape(5, 2).T,
              np.float64(-0.0), np.array(math.nan), 5e-324, [[-0.0], [1e-300]]]
    for x in inputs:
        want = np.array([math.erf(float(v)) for v in np.asarray(x, float).flat])
        got = _erf(x)
        assert got.dtype == float and got.shape == np.shape(x)
        assert got.tobytes() == want.tobytes()
