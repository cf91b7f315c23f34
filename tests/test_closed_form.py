"""The batched closed-form oracle: step unitaries against scipy's expm,
batched generators against their one-time outputs, and exact |01>
invariance on the shipped schedules."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from chiralgate.hamiltonians import (IDX_01, build_h_ps, build_h_q,
                                     stap_generator, stirap_generator)
from chiralgate.propagate import closed_form_unitaries, evolve_piecewise_exact
from chiralgate.pulses import (LEFT, RIGHT, Handedness, default_stap_schedule,
                               default_stirap_schedule)

PSI0 = np.array([1, 0, 0, 0], dtype=complex)

amplitudes = st.floats(-30.0, 30.0)
phases = st.floats(-math.pi, math.pi)
lambda_drives = st.tuples(amplitudes, amplitudes, phases, phases)
q_drives = st.tuples(st.floats(0.0, 30.0), st.sampled_from([+1, -1]))


def _phased_h_ps(p, s, phi_p, phi_s):
    """build_h_ps with pump phase phi_p and Stokes phase phi_s: the diagonal
    gauge transform D H D^dag, D = diag(e^{i [0, 0, -phi_p - phi_s, -phi_p]})."""
    d = np.exp(1j * np.array([0.0, 0.0, -phi_p - phi_s, -phi_p]))
    return d[:, None] * build_h_ps(p, s) * d.conj()


def _expm_steps(h, dt):
    return np.array([expm(-1j * dt * m) for m in h])


@given(drives=st.lists(lambda_drives, min_size=1, max_size=6),
       dt=st.floats(1e-4, 1.0))
@example(drives=[(0.0, 0.0, 0.0, 0.0)], dt=0.3)        # zero drive
@example(drives=[(2e-9, 0.0, 0.0, 0.0)], dt=0.3)       # w = 1e-9
@example(drives=[(0.0, -2e-9, 0.0, 1.0)], dt=1.0)      # w = 1e-9
@settings(max_examples=200, deadline=None)
def test_closed_form_matches_expm_on_lambda_generators(drives, dt):
    h = np.array([_phased_h_ps(*d) for d in drives])
    np.testing.assert_allclose(closed_form_unitaries(h, dt), _expm_steps(h, dt),
                               rtol=0, atol=1e-12)


@given(drives=st.lists(q_drives, min_size=1, max_size=6),
       dt=st.floats(1e-4, 1.0))
@example(drives=[(0.0, +1)], dt=0.3)                   # zero drive
@example(drives=[(2e-9, -1)], dt=0.3)                  # w = 1e-9
@settings(max_examples=200, deadline=None)
def test_closed_form_matches_expm_on_q_generators(drives, dt):
    h = np.array([build_h_q(omega, Handedness(sign)) for omega, sign in drives])
    np.testing.assert_allclose(closed_form_unitaries(h, dt), _expm_steps(h, dt),
                               rtol=0, atol=1e-12)


def test_closed_form_accepts_a_single_matrix():
    h = _phased_h_ps(1.3, -0.4, 0.2, 1.1)
    np.testing.assert_allclose(closed_form_unitaries(h, 0.7), expm(-0.7j * h),
                               rtol=0, atol=1e-12)


def _cases():
    for schedule, make in ((default_stap_schedule(), stap_generator),
                           (default_stirap_schedule(), stirap_generator)):
        for hand in (LEFT, RIGHT):
            yield schedule, make(schedule, hand)


def test_batched_generators_equal_their_scalar_outputs():
    for schedule, gen in _cases():
        t = (np.arange(2000) + 0.5) * (schedule.duration / 2000)
        batch = gen(t)
        assert batch.shape == (2000, 4, 4)
        single = np.array([gen(float(x)) for x in t])
        assert single.shape == (2000, 4, 4)
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-15)


def test_oracle_leaves_01_exactly_unpopulated():
    for schedule, gen in _cases():
        tr = evolve_piecewise_exact(gen, PSI0, 0.0, schedule.duration, 2000)
        assert np.all(tr.probs[:, IDX_01] == 0.0)
        assert tr.final_state[IDX_01] == 0.0
