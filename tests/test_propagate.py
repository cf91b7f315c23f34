import math
import re

import numpy as np
import pytest

from chiralgate.errors import IntegrityError
from chiralgate.hamiltonians import build_h_q, stap_generator, stirap_generator
from chiralgate.propagate import (PopulationTrace, _D, _layout, _propagate_blocks,
                                  closed_form_unitaries, evolve_piecewise_exact, evolve_rk4,
                                  populations, propagate)
from chiralgate.pulses import (LEFT, RIGHT, default_stap_schedule,
                               default_stirap_schedule)

PSI0 = np.array([1, 0, 0, 0], dtype=complex)


def test_constant_drive_rabi_oscillation():
    # constant H_Q at Omega: P_00(t) = cos^2(Omega t / 2), exactly
    omega = 1.3
    gen = lambda t: build_h_q(omega, LEFT)
    tr = evolve_piecewise_exact(gen, PSI0, 0.0, 4.0, 200)
    np.testing.assert_allclose(tr.probs[:, 0], np.cos(omega * tr.times / 2) ** 2,
                               atol=1e-10)


def test_rk4_agrees_with_piecewise_exact():
    # H(t) jumps at the stage boundary, where RK4 drops to first order, so
    # RK4 integrates each stage on its own grid: the Q stage ends one ulp
    # before t_split, where the generator still returns the Q coupling.  With
    # 602 steps, stage times t0 + i*dt + dt would overshoot t_f on both
    # default P/S stages; STIRAP raises DomainError there.
    for s, make in ((default_stap_schedule(), stap_generator),
                    (default_stirap_schedule(), stirap_generator)):
        for hand in (LEFT, RIGHT):
            gen = make(s, hand)
            a = evolve_piecewise_exact(gen, PSI0, 0.0, s.duration, 16000)
            q = evolve_rk4(gen, PSI0, 0.0, np.nextafter(s.t_split, 0.0), 602)
            b = evolve_rk4(gen, q.final_state, s.t_split, s.duration, 602)
            np.testing.assert_allclose(a.final(), b.final(), atol=1e-8)


def test_non_hermitian_generator_rejected():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 2] = 1.0  # no conjugate partner
    with pytest.raises(IntegrityError):
        evolve_piecewise_exact(lambda t: bad, PSI0, 0.0, 1.0, 10)


def test_unnormalized_initial_state_rejected():
    with pytest.raises(ValueError):
        evolve_piecewise_exact(lambda t: np.zeros((4, 4)), 2 * PSI0, 0.0, 1.0, 10)


@pytest.mark.parametrize("psi0, message", [
    (np.ones(6) / math.sqrt(6), "4 amplitudes on its last axis, got shape (6,)"),
    (np.array(1.0), "4 amplitudes on its last axis, got shape ()"),
    (np.array([math.nan, 0, 0, 0]), "not normalized: norm off by nan"),
    (np.array([PSI0, [0, math.nan, 0, 0]]), "not normalized: norm off by nan")])
def test_initial_state_of_wrong_shape_or_nan_norm_rejected(psi0, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        evolve_piecewise_exact(lambda t: np.zeros((4, 4)), psi0, 0.0, 1.0, 10)


@pytest.mark.parametrize("evolve", [evolve_piecewise_exact, evolve_rk4])
def test_propagators_reject_a_step_count_that_is_not_an_integer(evolve):
    zero = lambda t: np.zeros((4, 4))
    for n in (0, -3, 2.5, True, "10", None):
        with pytest.raises(ValueError,
                           match=re.escape(f"n_steps must be an integer >= 1, got {n!r}")):
            evolve(zero, PSI0, 0.0, 1.0, n)
    np.testing.assert_array_equal(evolve(zero, PSI0, 0.0, 1.0, np.int64(3)).probs,
                                  np.tile([1.0, 0, 0, 0], (4, 1)))


@pytest.mark.parametrize("evolve", [evolve_piecewise_exact, evolve_rk4])
@pytest.mark.parametrize("t0, t1, message", [(0.0, math.nan, "t1 must be finite, got nan"),
                                             (math.inf, 1.0, "t0 must be finite, got inf"),
                                             (0.0, -math.inf, "t1 must be finite, got -inf")])
def test_propagators_reject_a_time_that_is_not_finite(evolve, t0, t1, message):
    # a NaN t1 gave a trace whose times were all NaN, with no error
    with pytest.raises(ValueError, match=re.escape(message)):
        evolve(lambda t: np.zeros((4, 4)), PSI0, t0, t1, 10)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_closed_form_rejects_a_step_width_that_is_not_finite(dt):
    # NaN gave NaN unitaries, and inf a RuntimeWarning
    with pytest.raises(ValueError, match=re.escape(f"dt must be finite, got {dt!r}")):
        closed_form_unitaries(np.zeros((2, 4, 4)), dt)


@pytest.mark.parametrize("call, message", [
    (lambda: propagate(np.zeros((3, 3, 3)), PSI0),
     "steps must have shape (n, 4, 4), got shape (3, 3, 3)"),
    (lambda: propagate(np.eye(4), PSI0), "steps must have shape (n, 4, 4), got shape (4, 4)"),
    (lambda: closed_form_unitaries(np.zeros((3, 3)), 0.1),
     "generators must have shape (n, 4, 4) or (4, 4), got shape (3, 3)"),
    (lambda: closed_form_unitaries(np.zeros((2, 2, 4, 4)), 0.1),
     "generators must have shape (n, 4, 4) or (4, 4), got shape (2, 2, 4, 4)"),
    (lambda: evolve_piecewise_exact(lambda t: np.zeros((3, 3)), PSI0, 0.0, 1.0, 10),
     "generator output must broadcast to (10, 4, 4), got shape (3, 3)"),
    (lambda: evolve_piecewise_exact(lambda t: np.zeros((11, 4, 4)), PSI0, 0.0, 1.0, 10),
     "generator output must broadcast to (10, 4, 4), got shape (11, 4, 4)")])
def test_complex_entry_points_reject_stacks_of_the_wrong_shape(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_norm_preserved_to_tolerance():
    s = default_stap_schedule()
    tr = evolve_piecewise_exact(stap_generator(s, LEFT), PSI0, 0.0, s.duration, 500)
    np.testing.assert_allclose(tr.probs.sum(axis=1), 1.0, atol=1e-10)
    np.testing.assert_allclose(np.linalg.norm(tr.final_state), 1.0, atol=1e-12)


def test_trace_interpolation_and_bounds():
    tr = PopulationTrace(np.array([0.0, 1.0]), np.array([[1, 0, 0, 0],
                                                         [0, 0, 1, 0.0]]))
    np.testing.assert_allclose(tr.at(0.5), [0.5, 0, 0.5, 0])
    t = np.array([[0.0, 0.25], [0.5, 1.0]])
    got = tr.at(t)
    assert got.shape == (2, 2, 4)
    np.testing.assert_array_equal(got[1, 0], tr.at(0.5))
    np.testing.assert_allclose(got[..., 2], t)
    np.testing.assert_allclose(got.sum(axis=-1), 1.0)
    with pytest.raises(ValueError):
        tr.at(1.5)
    with pytest.raises(ValueError):
        tr.at(np.array([0.5, -0.1]))
    for t in (math.nan, [0.5, math.nan]):     # NaN is outside every window
        with pytest.raises(ValueError, match="t=nan outside trace window"):
            tr.at(t)


def test_csv_header_and_shape():
    tr = PopulationTrace(np.array([0.0, 0.5]),
                         np.array([[1, 0, 0, 0], [0.25, 0, 0.75, 0.0]]),
                         handedness="L")
    lines = tr.to_csv().strip().split("\n")
    assert lines[0] == "t_us,p00,p01,p10,p11,handedness"
    assert len(lines) == 3
    assert lines[1].endswith(",L")


def test_populations_helper():
    np.testing.assert_allclose(populations(np.array([1j, 0, 0, 0])), [1, 0, 0, 0])


def sequential(steps, psi0):
    """The reference propagate replaces: one mat-vec per step."""
    states = [np.asarray(psi0, dtype=complex)]
    for u in steps:
        states.append(states[-1] @ u.T)   # row states, so a stack (m, 4) works too
    return np.array(states)


def random_unitaries(n, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return np.linalg.qr(z)[0] if n else np.zeros((0, 4, 4), complex)


STACK = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0.6, 0, 0, 0.8j]])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 16, 97, 100, 2000, 2003])
@pytest.mark.parametrize("psi0", [PSI0, STACK], ids=["state", "stack"])
def test_propagate_matches_sequential_loop(n, psi0):
    steps = random_unitaries(n, seed=n)
    want = sequential(steps, psi0)
    got = propagate(steps.copy(), psi0)
    assert got.shape == (n + 1,) + psi0.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_propagate_leaves_a_read_only_stack_alone():
    steps = random_unitaries(10)
    view = np.broadcast_to(steps, steps.shape)
    np.testing.assert_allclose(propagate(view, PSI0), sequential(steps, PSI0), atol=1e-14)
    np.testing.assert_array_equal(steps, random_unitaries(10))


@pytest.mark.parametrize("n, bad", [(1, 0), (10, 4), (50, 49)])
def test_propagate_rejects_a_nan_step(n, bad):
    steps = random_unitaries(n)
    steps[bad, 2, 0] = np.nan
    with pytest.raises(IntegrityError):
        propagate(steps, PSI0)


def test_propagate_rejects_an_unnormalized_stack_row():
    with pytest.raises(ValueError):
        propagate(random_unitaries(3), np.array([PSI0, 2 * PSI0]))


def one_product_reference(u, psi0):
    """The one-product kernel as it was before products were batched: runs of
    floor(sqrt(n)) blocks, prefix products in place, then one matmul per run."""
    n, b = len(u), max(1, math.isqrt(len(u)))
    for j in range(1, b):
        cur = u[j::b]
        np.matmul(cur, u[j - 1::b][:len(cur)], out=cur)
    psi = np.asarray(psi0, dtype=complex)
    states = np.empty((n + 1, 4) + psi.shape[:-1], dtype=complex)
    states[0] = (psi * _D.conj()).T
    for lo in range(0, n, b):
        np.matmul(u[lo:lo + b].reshape(-1, 4), states[lo],
                  out=states[lo + 1:lo + b + 1].reshape((-1,) + psi.shape[:-1]))
    return np.moveaxis(states, 1, -1)


@pytest.mark.parametrize("lengths", [[0], [1], [13], [97], [0, 1, 7, 0, 20, 13], [5, 0],
                                     [1, 1, 1], [40, 3, 61]])
@pytest.mark.parametrize("psi0", [PSI0, np.eye(4)], ids=["state", "eye"])
def test_segmented_kernel_matches_each_product_alone(lengths, psi0):
    """Products laid end to end, each padded with identity blocks to whole
    runs of the shared run length (the last may end in a partial run), give
    each product's states as if it ran alone."""
    b, starts = _layout(lengths)
    assert starts[-1] - starts[-2] == lengths[-1]       # the last product is not padded
    assert all((hi - lo) % b == 0 for lo, hi in zip(starts[:-2], starts[1:-1]))
    # complex frame blocks D^dag U D
    parts = [_D.conj()[:, None] * random_unitaries(n, seed=j) * _D
             for j, n in enumerate(lengths)]
    u = np.broadcast_to(np.eye(4, dtype=complex), (starts[-1], 4, 4)).copy()
    for start, part in zip(starts, parts):
        u[start:start + len(part)] = part
    got = _propagate_blocks(u, lengths, psi0)
    assert len(got) == len(lengths)
    for x, part in zip(got, parts):
        alone = _propagate_blocks(part.copy(), [len(part)], psi0)[0]
        assert x.shape == alone.shape == (len(part) + 1,) + psi0.shape
        if len(lengths) == 1:
            np.testing.assert_array_equal(x, alone)
        np.testing.assert_allclose(x, alone, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(alone, one_product_reference(part.copy(), psi0))


def test_segmented_kernel_checks_every_product_norm():
    lengths = [4, 6]
    b, starts = _layout(lengths)
    u = np.broadcast_to(np.eye(4), (starts[-1], 4, 4)).copy()
    u[0] *= 1.1     # the first product's norm drifts, the last one's does not
    with pytest.raises(IntegrityError):
        _propagate_blocks(u, lengths, PSI0)
