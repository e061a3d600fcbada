"""Property-based differential tests: the local-operator kernel, which
contracts only the target axes, against the embedded-operator oracle.

Every example is drawn from a fixed derandomized stream, so the suite is
reproducible and writes no example database.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mddsim.analysis import _haar_batch
from mddsim.circuits import Gate, ScheduledCircuit, Slice
from mddsim.noise import JumpOperator, KrausChannel, _apply_local_raw, lindblad_derivative
from mddsim.states import _apply_left, apply_matrix, haar_random_state

from helpers import apply_left_moveaxis, circuit_unitary, embed_operator, random_channel

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)


def complex_gaussian(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@st.composite
def local_ops(draw, max_qubits=7, max_targets=3):
    """(op, targets, num_qubits, rng): a non-unitary operator on 1-3 distinct
    targets in any order."""
    n = draw(st.integers(1, max_qubits))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, min(max_targets, n)))
    rng = np.random.default_rng(draw(seeds))
    op = complex_gaussian(rng, (2**k, 2**k), scale=2.0**-k)
    return op, list(order[:k]), n, rng


@PROPERTY
@given(case=local_ops())
@example(case=(np.arange(16).reshape(4, 4) / 16.0, [1, 0], 2, np.random.default_rng(0)))
@example(case=(np.arange(16).reshape(4, 4) / 16.0, [2, 0], 3, np.random.default_rng(1)))
def test_left_product_matches_embedding(case):
    op, targets, n, rng = case
    mat = complex_gaussian(rng, (2**n, 2**n))
    expected = embed_operator(op, targets, n) @ mat
    np.testing.assert_allclose(_apply_left(op, mat, targets, n), expected, rtol=0, atol=1e-12)


@PROPERTY
@given(case=local_ops(), columns=st.sampled_from([1, None]))
@example(case=(np.arange(16).reshape(4, 4) / 16.0, [1, 0], 2, np.random.default_rng(3)), columns=None)
def test_left_product_is_bitwise_the_moveaxis_kernel(case, columns):
    op, targets, n, rng = case
    mat = complex_gaussian(rng, (2**n, columns or 2**n))
    assert np.array_equal(_apply_left(op, mat, targets, n), apply_left_moveaxis(op, mat, targets, n))


@PROPERTY
@given(n=st.integers(1, 6), seed=seeds, num_kraus=st.integers(1, 4), data=st.data())
def test_local_channel_axes_are_bitwise_the_moveaxis_kernel(n, seed, num_kraus, data):
    """The local channel's [q, N + q] on the 2N axes of vec(rho), and those
    targets swapped."""
    rng = np.random.default_rng(seed)
    superop = random_channel(rng, num_kraus).superop
    q = data.draw(st.integers(0, n - 1))
    targets = data.draw(st.sampled_from([[q, n + q], [n + q, q]]))
    vec = complex_gaussian(rng, (4**n, 1))
    assert np.array_equal(_apply_left(superop, vec, targets, 2 * n),
                          apply_left_moveaxis(superop, vec, targets, 2 * n))


@PROPERTY
@given(case=local_ops())
@example(case=(np.arange(16).reshape(4, 4) / 16.0, [1, 0], 2, np.random.default_rng(2)))
def test_conjugation_matches_embedding_on_non_hermitian_input(case):
    op, targets, n, rng = case
    rho = complex_gaussian(rng, (2**n, 2**n))
    full = embed_operator(op, targets, n)
    expected = full @ rho @ full.conj().T
    np.testing.assert_allclose(apply_matrix(op, rho, targets, n), expected, rtol=0, atol=1e-12)


@PROPERTY
@given(n=st.integers(1, 5), seed=seeds, num_gates=st.integers(1, 8))
def test_circuit_unitary_matches_embedded_product(n, seed, num_gates):
    rng = np.random.default_rng(seed)
    slices, expected = [], np.eye(2**n, dtype=complex)
    for _ in range(num_gates):
        qubits = [int(q) for q in rng.permutation(n)[:int(rng.integers(1, min(2, n) + 1))]]
        gate = Gate(qubits, _haar_batch(1, rng, 2 ** len(qubits))[0])
        slices.append(Slice(1.0, (gate,)))
        expected = embed_operator(gate.matrix, gate.qubits, n) @ expected
    got = circuit_unitary(ScheduledCircuit(n, tuple(slices)))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@PROPERTY
@given(case=local_ops(max_qubits=6, max_targets=2), rate=st.floats(0.0, 5.0),
       with_hamiltonian=st.booleans())
def test_lindblad_derivative_matches_embedded_formula(case, rate, with_hamiltonian):
    op, targets, n, rng = case
    rho = complex_gaussian(rng, (2**n, 2**n))
    h = None
    if with_hamiltonian:
        h = complex_gaussian(rng, (2**n, 2**n))
        h = h + h.conj().T
    full = embed_operator(op, targets, n)
    ll = full.conj().T @ full
    expected = rate * (full @ rho @ full.conj().T - 0.5 * (ll @ rho + rho @ ll))
    if h is not None:
        expected = expected - 1j * (h @ rho - rho @ h)
    got = lindblad_derivative(rho, h, [JumpOperator(op, rate, tuple(targets))])
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@PROPERTY
@given(seed=seeds, num_kraus=st.integers(1, 4))
def test_kraus_channel_apply_matches_kraus_sum(seed, num_kraus):
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, num_kraus)
    rho = complex_gaussian(rng, (2, 2))
    expected = sum(m @ rho @ m.conj().T for m in channel.operators)
    np.testing.assert_allclose(_apply_local_raw(channel, rho, 0, 1), expected, rtol=0, atol=1e-12)


@PROPERTY
@given(n=st.integers(1, 6), seed=seeds, num_kraus=st.integers(1, 4), data=st.data())
def test_local_channel_output_is_a_density_matrix(n, seed, num_kraus, data):
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, num_kraus)
    qubit = data.draw(st.integers(0, n - 1))
    mix = [haar_random_state(n, seed=rng.integers(1 << 31)).amplitudes for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    rho = sum(w * np.outer(a, a.conj()) for w, a in zip(weights, mix))
    out = _apply_local_raw(channel, rho, qubit, n)
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(out)) >= -1e-12


@PROPERTY
@given(n=st.integers(1, 6), seed=seeds, num_kraus=st.integers(1, 4))
def test_local_channel_matches_embedded_kraus_sum(n, seed, num_kraus):
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, num_kraus)
    rho = complex_gaussian(rng, (2**n, 2**n))
    for qubit in range(n):
        embedded = [embed_operator(m, [qubit], n) for m in channel.operators]
        expected = sum(e @ rho @ e.conj().T for e in embedded)
        np.testing.assert_allclose(_apply_local_raw(channel, rho, qubit, n), expected, rtol=0, atol=1e-12)


BAD_TARGETS = {
    "above-range": (np.eye(2), [2], 2, "out of range"),
    "negative": (np.eye(2), [-1], 2, "out of range"),
    "duplicate": (np.eye(4), [0, 0], 2, "distinct"),
    "mis-shaped": (np.eye(4), [0], 2, "does not match"),
}


@pytest.mark.parametrize(("op", "targets", "n", "message"), BAD_TARGETS.values(), ids=BAD_TARGETS.keys())
def test_bad_targets_raise(op, targets, n, message):
    rho = np.eye(2**n, dtype=complex) / 2**n
    for call, args in ((_apply_left, (op, rho, targets, n)), (apply_matrix, (op, rho, targets, n)),
                       (embed_operator, (op, targets, n))):
        with pytest.raises(ValueError, match=message):
            call(*args)


CHANNEL = random_channel(np.random.default_rng(0), 2)
BAD_CHANNEL_INPUTS = {
    "no-operators": (KrausChannel, ((),), "one or more 2x2"),
    "mixed-shapes": (KrausChannel, ((np.eye(2), np.eye(4)),), "one or more 2x2"),
    "two-qubit-operator": (KrausChannel, ((np.eye(4),),), "one or more 2x2"),
    "qubit-above-range": (_apply_local_raw, (CHANNEL, np.eye(4) / 4, 2, 2), "^qubit 2 out of range for 2 qubits$"),
    "non-square-matrix": (_apply_local_raw, (CHANNEL, np.ones((2, 8)) / 8, 0, 2), "rows and columns"),
}


@pytest.mark.parametrize(("call", "args", "message"), BAD_CHANNEL_INPUTS.values(), ids=BAD_CHANNEL_INPUTS.keys())
def test_bad_channel_input_raises(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)


def test_local_channel_rejects_bad_qubit_and_size():
    channel = random_channel(np.random.default_rng(0), 2)
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError, match="out of range"):
        _apply_local_raw(channel, rho, 2, 2)
    with pytest.raises(ValueError, match="rows"):
        _apply_local_raw(channel, rho, 0, 1)
