"""The one product kernel: closed_form_unitaries, propagate and the gate
matrices work on the 4x4 frame blocks D^dag U D in the frame
D = diag(1, i, 1, i) and the frame amplitudes D^dag psi, and convert at the
public boundary.  The protocol's P/S generator and circuits run as real
rotations there; every other generator or circuit as complex blocks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from chiralgate import circuits, propagate as propagate_module
from chiralgate.circuits import compile_protocol, gate_matrices, run_statevectors
from chiralgate.config import validate_config
from chiralgate.errors import IntegrityError
from chiralgate.hamiltonians import DRIVES, coupling, stirap_generator
from chiralgate.propagate import (_closed_form_blocks, _layout, _propagate_blocks,
                                  closed_form_unitaries, propagate)
from chiralgate.pulses import LEFT, RIGHT, DiscretizedSchedule, discretize_all
from chiralgate.scenarios import _oracle, run_scenario, sweep_trotter

D = np.array([1, 1j, 1, 1j])

PSI0 = np.array([1, 0, 0, 0], dtype=complex)
STACK = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0.6, 0, 0, 0.8j]])


def spectrum_0_w(kind: str, w: float, seed: int) -> np.ndarray:
    """A random Hermitian 4x4 with spectrum {+w, -w, 0, 0}: complex, purely
    real (w (u v^T + v u^T)) or purely imaginary (i w (u v^T - v u^T)), u
    and v orthonormal."""
    rng = np.random.default_rng(seed)
    if kind == "complex":
        q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        h = (q * [w, -w, 0.0, 0.0]) @ q.conj().T
        return 0.5 * (h + h.conj().T)
    u, v = np.linalg.qr(rng.normal(size=(4, 2)))[0].T
    pair = np.outer(u, v)
    return w * (pair + pair.T) if kind == "real" else 1j * w * (pair - pair.T)


@given(kinds=st.lists(st.sampled_from(["complex", "real", "imaginary"]), min_size=1,
                      max_size=6),
       w=st.one_of(st.just(0.0), st.just(1e-9), st.floats(1e-6, 30.0)),
       dt=st.floats(1e-4, 1.0), seed=st.integers(0, 2**32 - 1))
@example(kinds=["real", "imaginary", "complex"], w=0.0, dt=0.3, seed=0)
@example(kinds=["imaginary"], w=1e-9, dt=1.0, seed=1)
@example(kinds=["real"], w=1e-9, dt=0.5, seed=2)
@settings(max_examples=200, deadline=None)
def test_closed_form_matches_expm_on_real_imaginary_and_complex_generators(kinds, w, dt, seed):
    h = np.array([spectrum_0_w(kind, w, seed + j) for j, kind in enumerate(kinds)])
    if all(kind == "real" for kind in kinds):
        h = h.real      # a real dtype too, not only a zero imaginary part
    want = np.array([expm(-1j * dt * m) for m in h])
    np.testing.assert_allclose(closed_form_unitaries(h, dt), want, rtol=0, atol=1e-12)


# A row drives at most two of the three DRIVES couplings: the three together
# close a loop, whose spectrum is {0, +-w} only for special phases.
drive_rows = st.lists(
    st.lists(st.sampled_from(sorted(DRIVES)), max_size=2, unique=True).flatmap(
        lambda names: st.tuples(*[st.tuples(st.just(name), st.floats(-30.0, 30.0),
                                            st.floats(-np.pi, np.pi)) for name in names])),
    min_size=1, max_size=8)


@given(rows=drive_rows, dt=st.floats(1e-4, 1.0))
@example(rows=[(("Q", 3.0, 0.4),), (), (("P", -2.0, 1.1), ("S", 5.0, -2.0))], dt=0.3)
@example(rows=[(("P", 1.0, 0.0),), (("S", 2.0, 0.0),), ()], dt=0.7)
@example(rows=[(), (("Q", 1e-9, np.pi / 2),)], dt=1.0)
@settings(max_examples=200, deadline=None)
def test_closed_form_on_rows_with_mixed_supports(rows, dt):
    """Rows with different couplings (and all-zero rows) read over the union
    of their supports: each block is still exp(-i h dt), and every level
    outside the union keeps an exact identity row and column."""
    h = np.array([sum((0.5 * omega * coupling(DRIVES[name], phase)
                       for name, omega, phase in row), np.zeros((4, 4), complex))
                  for row in rows])
    u = closed_form_unitaries(h, dt)
    np.testing.assert_allclose(u, [expm(-1j * dt * m) for m in h], rtol=0, atol=1e-12)
    outside = ~(np.any(h, axis=(0, 1)) | np.any(h, axis=(0, 2)))
    eye = np.broadcast_to(np.eye(4), u.shape)
    np.testing.assert_array_equal(u[:, outside], eye[:, outside])
    np.testing.assert_array_equal(u[:, :, outside], eye[:, :, outside])


def test_closed_form_over_several_row_blocks():
    """A dense stack has 153 table rows, so 120 steps take three products."""
    h = np.array([spectrum_0_w("complex", 2.0 + j / 40, j) for j in range(120)])
    np.testing.assert_allclose(closed_form_unitaries(h, 0.3),
                               [expm(-0.3j * m) for m in h], rtol=0, atol=1e-12)


def test_hermiticity_defect_is_the_dense_number():
    h = np.zeros((3, 4, 4), dtype=complex)
    h[1, 0, 1] = 1e-3        # no partner in any row
    with pytest.raises(IntegrityError, match=r"\(defect 0\.001\)"):
        closed_form_unitaries(h, 0.1)
    h[1, 1, 0] = 1e-3 + 5e-13
    closed_form_unitaries(h, 0.1)
    for where, bad in [((2, 3, 3), np.nan), ((2, 3, 3), np.inf), ((0, 2, 0), np.inf),
                       ((0, 1, 0), 1j * np.nan)]:
        g = h.copy()
        g[where] = bad
        with pytest.raises(IntegrityError, match="non-Hermitian"):
            closed_form_unitaries(g, 0.1)
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = np.where(rng.random((4, 4, 4)) < 0.3,
                     rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4)), 0.0)
        dense = np.max(np.abs(g - np.swapaxes(g, -1, -2).conj()))
        with pytest.raises(IntegrityError, match=rf"\(defect {dense:.3g}\)"):
            closed_form_unitaries(g, 0.1)


def test_complex_frame_blocks_are_the_matrices_in_the_frame():
    rng = np.random.default_rng(3)
    h = np.array([spectrum_0_w("complex", 1.5 + j, j) for j in range(5)])
    u = np.array([expm(-0.4j * m) for m in h])
    f = _closed_form_blocks(h, 0.4)
    assert f.shape == (5, 4, 4) and f.dtype == complex
    np.testing.assert_allclose(f, D.conj()[:, None] * u * D, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(D[:, None] * f * D.conj(), closed_form_unitaries(h, 0.4))
    # the frame change and its inverse are exact: factors +-1 and +-i
    np.testing.assert_array_equal(D[:, None] * (D.conj()[:, None] * u * D) * D.conj(), u)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    np.testing.assert_allclose(f[2] @ (D.conj() * psi), D.conj() * (u[2] @ psi),
                               rtol=0, atol=1e-14)


def random_unitaries(n, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return np.linalg.qr(z)[0]


@pytest.mark.parametrize("n", [1, 5, 64, 1001])
@pytest.mark.parametrize("psi0", [PSI0, STACK], ids=["state", "stack"])
def test_propagate_same_for_writeable_and_read_only_steps(n, psi0):
    steps = random_unitaries(n, seed=n)
    kept = steps.copy()
    from_writeable = propagate(steps, psi0)
    from_read_only = propagate(np.broadcast_to(kept, kept.shape), psi0)
    np.testing.assert_array_equal(from_writeable, from_read_only)
    assert steps.tobytes() == kept.tobytes()    # neither stack is modified
    assert from_writeable.shape == (n + 1,) + psi0.shape
    assert from_writeable.dtype == complex


# -- the real frame D = diag(1, i, 1, i) -------------------------------------

@given(protocol=st.sampled_from(["stap", "stirap"]), hand=st.sampled_from([LEFT, RIGHT]),
       ps_order=st.sampled_from(["ps", "sp"]), erratum=st.booleans(),
       omegas=st.lists(st.tuples(st.floats(0.0, 30.0), st.floats(-30.0, 30.0),
                                 st.floats(-30.0, 30.0)), min_size=2, max_size=40),
       k=st.integers(0, 40), dt=st.floats(1e-3, 1.0))
@settings(max_examples=200, deadline=None)
def test_every_protocol_gate_has_its_frame_block(protocol, hand, ps_order, erratum, omegas,
                                                 k, dt):
    """Each gate compile_protocol emits is a real rotation in the frame: its
    4x4 block is D^dag gate_matrix D, whose imaginary part (cos(phi_Q) for
    Q) the block drops, to 1e-15."""
    q, p, s = np.array(omegas).T
    disc = DiscretizedSchedule(dt, q, p, s, min(k, len(q)))
    c = compile_protocol(disc, hand, protocol, ps_order=ps_order, erratum_s_gate=erratum)
    blocks = circuits._gate_blocks([c])
    assert blocks.shape == (len(c), 4, 4) and blocks.dtype == np.float64
    want = D.conj()[:, None] * gate_matrices(c) * D
    np.testing.assert_allclose(blocks, want, rtol=0, atol=1e-15)


def random_rotations(n, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.normal(size=(n, 4, 4)))[0] if n else np.zeros((0, 4, 4))


def random_frame_blocks(n, seed):
    """D^dag U D of n random unitaries: complex blocks."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return D.conj()[:, None] * np.linalg.qr(z)[0] * D if n else np.zeros((0, 4, 4), complex)


FRAME_STATES = {"state": np.array([0.6, 0, 0.8, 0]),        # D^dag psi real
                "stack": np.array([[1, 0, 0, 0], [0, 1j, 0, 0], [0, 0.6j, 0.8, 0]]),
                "complex": np.array([[0, 0, 1j, 0], [0.6, 0, 0, 0.8]])}


def check_sequential(blocks, lengths, psi0):
    """The states of _propagate_blocks over random blocks(n, seed) against a
    sequential product of the frame amplitudes: real where those of psi0
    and the blocks are, complex otherwise."""
    b, starts = _layout(lengths)
    parts = [blocks(n, seed=j) for j, n in enumerate(lengths)]
    u = np.broadcast_to(np.eye(4), (starts[-1], 4, 4)).astype(parts[0].dtype)
    for start, part in zip(starts, parts):
        u[start:start + len(part)] = part
    got = _propagate_blocks(u, lengths, psi0)
    x0 = psi0 * D.conj()
    for x, part in zip(got, parts):
        want = [x0]
        for r in part:
            want.append(want[-1] @ r.T)
        assert x.shape == (len(part) + 1,) + psi0.shape
        assert np.iscomplexobj(x) == (bool(x0.imag.any()) or np.iscomplexobj(part))
        np.testing.assert_allclose(x, np.array(want), rtol=0, atol=1e-14)


@pytest.mark.parametrize("lengths", [[0], [1], [13], [40, 3, 61]])
@pytest.mark.parametrize("psi0", FRAME_STATES.values(), ids=FRAME_STATES)
def test_frame_kernel_matches_a_sequential_product(lengths, psi0):
    """4x4 blocks carry the frame amplitudes D^dag psi; b = 3 for 13 blocks
    leaves a partial last run."""
    check_sequential(random_rotations, lengths, psi0)


@pytest.mark.parametrize("lengths", [[0], [1], [13], [40, 3, 61]])
@pytest.mark.parametrize("psi0", FRAME_STATES.values(), ids=FRAME_STATES)
def test_complex_frame_kernel_matches_a_sequential_product(lengths, psi0):
    """Complex blocks, whatever psi0, carry complex frame amplitudes."""
    check_sequential(random_frame_blocks, lengths, psi0)


@pytest.fixture
def generic_only(monkeypatch):
    """Every closed form and circuit takes the complex route."""
    table = propagate_module._table
    monkeypatch.setattr(propagate_module, "_table",
                        lambda terms: (*table(terms)[:2], table(terms)[2].astype(complex)))
    monkeypatch.setattr(circuits, "_FRAME_PHI", np.full(len(circuits._CONFIGS), np.nan))


@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_frame_oracle_matches_the_generic_route(protocol, request):
    cfg = validate_config({"protocol": protocol})
    schedule = cfg.build_schedule()
    t = np.linspace(schedule.t_split, schedule.duration, 50)
    h = stirap_generator(schedule, LEFT)(t)
    assert _closed_form_blocks(h, 0.01).dtype == np.float64      # the P/S generator is real there
    frame = _oracle(cfg, schedule, [LEFT, RIGHT])
    request.getfixturevalue("generic_only")
    assert _closed_form_blocks(h, 0.01).dtype == complex
    generic = _oracle(cfg, schedule, [LEFT, RIGHT])
    for label in "LR":
        np.testing.assert_allclose(frame[label].probs, generic[label].probs, rtol=0, atol=1e-14)
        np.testing.assert_allclose(frame[label].final_state, generic[label].final_state,
                                   rtol=0, atol=1e-14)
        assert np.all(frame[label].probs[:, 1] == 0.0) and frame[label].final_state[1] == 0.0


@pytest.mark.parametrize("protocol", ["stap", "stirap"])
@pytest.mark.parametrize("ps_order", ["ps", "sp"])
@pytest.mark.parametrize("erratum", [False, True])
def test_frame_circuits_match_the_generic_route(protocol, ps_order, erratum, request):
    cfg = validate_config({"protocol": protocol})
    discs = discretize_all(cfg.build_schedule(), [2, 17, 100])
    cs = [compile_protocol(d, hand, protocol, ps_order=ps_order, erratum_s_gate=erratum)
          for d in discs for hand in (LEFT, RIGHT)]
    assert circuits._gate_blocks(cs).dtype == np.float64
    frame = run_statevectors(cs, np.array([1.0, 0, 0, 0]))
    request.getfixturevalue("generic_only")
    assert circuits._gate_blocks(cs).dtype == complex
    generic = run_statevectors(cs, np.array([1.0, 0, 0, 0]))
    for f, g in zip(frame, generic):
        np.testing.assert_allclose(f.probs, g.probs, rtol=0, atol=1e-14)
        np.testing.assert_allclose(f.final_state, g.final_state, rtol=0, atol=1e-14)
        if not erratum:
            assert np.all(f.probs[:, 1] == 0.0) and f.final_state[1] == 0.0


@pytest.mark.parametrize("protocol", ["stap", "stirap"])
@pytest.mark.parametrize("ps_order", ["ps", "sp"])
@pytest.mark.parametrize("erratum", [False, True])
def test_run_and_sweep_multiply_only_real_frame_blocks(protocol, ps_order, erratum,
                                                       monkeypatch):
    """A protocol gate or generator that fell out of the frame would take the
    complex route, about 4x slower per product, without failing anything else."""
    kernel, seen = propagate_module._propagate_blocks, []

    def spy(u, lengths, psi0):
        seen.append((u.dtype, u.shape))
        return kernel(u, lengths, psi0)

    for module in (propagate_module, circuits):
        monkeypatch.setattr(module, "_propagate_blocks", spy)
    cfg = validate_config({"protocol": protocol, "ps_order": ps_order, "erratum_s_gate": erratum,
                           "n_steps": 10, "oracle_steps": 300})
    run_scenario(cfg)
    sweep_trotter(cfg, [10, 20])
    assert len(seen) >= 4            # an oracle and the circuits, for each command
    assert all(dtype == np.float64 and shape[1:] == (4, 4) for dtype, shape in seen), seen
