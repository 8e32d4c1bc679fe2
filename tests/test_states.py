"""State containers and the structural linear algebra primitives."""

import json

import numpy as np
import pytest

from scren import (
    Bipartition,
    DensityMatrix,
    PureState,
    bell_state,
    dump_state,
    haar_random_state,
    load_state,
    partial_trace,
    partial_transpose,
    reduced_density,
    to_density,
    w_state,
)
from scren.monogamy import CKW_COUNTEREXAMPLE_322
from scren.states import density_from_dict, state_from_dict, state_to_dict
from scren.wclass import WClassSpec, build_state, random_spec

from util import basis_state, marginal_focus_matrix, random_mixed_state, tensor


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        PureState((2,), np.array([1.0, 1.0]))


def test_pure_state_rejects_wrong_length():
    with pytest.raises(ValueError, match="length"):
        PureState((2, 2), np.array([1.0, 0.0]))


def test_pure_state_rejects_trivial_dims():
    with pytest.raises(ValueError, match=">= 2"):
        PureState((2, 1), np.array([1.0, 0.0]))


def test_density_matrix_rejects_non_hermitian():
    mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix((2,), mat)


def test_density_matrix_rejects_negative_eigenvalue():
    mat = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="PSD"):
        DensityMatrix((2,), mat)


@pytest.mark.parametrize("dims, matrix, message", [
    pytest.param((1, 2), np.eye(2) / 2, "dimensions must all be >= 2", id="trivial-dims"),
    pytest.param((2,), np.eye(4) / 4, r"shape \(4, 4\), expected \(2, 2\)", id="wrong-shape"),
    pytest.param((2,), np.eye(2), "trace must be 1", id="trace-2"),
])
def test_density_matrix_rejects_malformed_input(dims, matrix, message):
    with pytest.raises(ValueError, match=message):
        DensityMatrix(dims, matrix)


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition((), 3)
    with pytest.raises(ValueError):
        Bipartition((0, 1, 2), 3)
    with pytest.raises(ValueError):
        Bipartition((5,), 3)
    part = Bipartition((2, 0), 4)
    assert part.side_a == (0, 2)
    assert part.side_b == (1, 3)


def test_pure_state_rejects_nan():
    with pytest.raises(ValueError, match="normalized"):
        PureState((2, 2), [np.nan, 0, 0, 1])


def test_density_matrix_rejects_nan():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix((2,), [[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix((2,), [[0.5, np.nan], [np.nan, 0.5]])


# ---------------------------------------------------------------------------
# tensor / to_density
# ---------------------------------------------------------------------------

def test_tensor_basis_product():
    zero = basis_state((2,), (0,))
    out = tensor([zero, zero])
    assert out.dims == (2, 2)
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])


def test_tensor_is_linear():
    plus = PureState((2,), np.array([1, 1]) / np.sqrt(2))
    one = basis_state((2,), (1,))
    out = tensor([plus, one])
    np.testing.assert_allclose(out.amplitudes, np.array([0, 1, 0, 1]) / np.sqrt(2))


def test_tensor_three_qutrits_shape():
    qutrit = basis_state((3,), (1,))
    out = tensor([qutrit] * 3)
    assert out.dims == (3, 3, 3)
    assert out.amplitudes.shape == (27,)


def test_tensor_empty_rejected():
    with pytest.raises(ValueError):
        tensor([])


def test_to_density_basis():
    rho = to_density(basis_state((2,), (0,)))
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_to_density_bell_entries():
    rho = to_density(bell_state())
    expected = np.zeros((4, 4))
    expected[np.ix_([0, 3], [0, 3])] = 0.5
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)


def test_to_density_purity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        rho = to_density(haar_random_state((2, 3), rng))
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert abs(purity - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_bell_is_maximally_mixed():
    rho = partial_trace(to_density(bell_state()), [0])
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_counterexample_marginal():
    # direct contraction of the four amplitudes gives 1/3 per qutrit level
    rho = partial_trace(to_density(CKW_COUNTEREXAMPLE_322), [0])
    np.testing.assert_allclose(rho.matrix, np.eye(3) / 3, atol=1e-12)


def test_partial_trace_wclass_marginal_elementwise():
    rng = np.random.default_rng(5)
    for _ in range(5):
        spec = random_spec(rng, 4, 3)
        numeric = partial_trace(to_density(build_state(spec)), [0]).matrix
        assert np.abs(numeric - marginal_focus_matrix(spec)).max() <= 1e-12


def test_partial_trace_out_of_range():
    rho = to_density(bell_state())
    with pytest.raises(ValueError):
        partial_trace(rho, [2])
    with pytest.raises(ValueError):
        partial_trace(rho, [])


def test_partial_trace_preserves_trace_and_psd():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho = random_mixed_state(rng, (2, 3, 2), rank=3)
        keep = [0, 2]
        red = partial_trace(rho, keep)
        assert red.dims == (2, 2)
        assert abs(np.trace(red.matrix).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(red.matrix)[0] >= -1e-10
        assert np.abs(red.matrix - red.matrix.conj().T).max() <= 1e-12


def test_reduced_density_matches_partial_trace():
    rng = np.random.default_rng(2)
    psi = haar_random_state((2, 3, 2), rng)
    a = reduced_density(psi, [1, 2]).matrix
    b = partial_trace(to_density(psi), [1, 2]).matrix
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_marginal_spectra_agree_across_cut():
    # nonzero eigenvalues of the two marginals coincide (Schmidt symmetry)
    rng = np.random.default_rng(3)
    for _ in range(25):
        psi = haar_random_state((3, 2, 2), rng)
        part = Bipartition((0,), 3)
        ev_a = np.linalg.eigvalsh(reduced_density(psi, part.side_a).matrix)
        ev_b = np.linalg.eigvalsh(reduced_density(psi, part.side_b).matrix)
        ev_a = np.sort(ev_a[ev_a > 1e-10])[::-1]
        ev_b = np.sort(ev_b[ev_b > 1e-10])[::-1]
        assert len(ev_a) == len(ev_b)
        np.testing.assert_allclose(ev_a, ev_b, atol=1e-8)


# ---------------------------------------------------------------------------
# support: thin SVD of the split matrix against eigh of the matrix
# ---------------------------------------------------------------------------

def _factored_cases():
    rng = np.random.default_rng(23)
    psi = haar_random_state((2, 3, 2), rng)
    for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        yield reduced_density(psi, keep)
    yield reduced_density(haar_random_state((3, 3, 3), rng), [0, 1])
    yield reduced_density(build_state(random_spec(rng, 5, 3)), (0, 1, 2, 3))
    yield to_density(haar_random_state((2, 3), rng))


def test_factored_support_matches_eigh_support():
    ranks = []
    for rho in _factored_cases():
        lam, rows = rho.support
        plain_lam, plain_rows = DensityMatrix(rho.dims, rho.matrix, validate=False).support
        ranks.append(len(lam))
        np.testing.assert_allclose(lam, plain_lam, rtol=0, atol=1e-12)
        units, plain_units = rows / np.sqrt(lam)[:, None], plain_rows / np.sqrt(plain_lam)[:, None]
        projector = units.T @ units.conj()
        assert np.abs(projector - plain_units.T @ plain_units.conj()).max() <= 1e-12
        assert np.abs(rows.T @ rows.conj() - rho.matrix).max() <= 1e-12
        assert np.abs(plain_rows.T @ plain_rows.conj() - rho.matrix).max() <= 1e-12
    assert ranks == [2, 3, 2, 2, 3, 2, 3, 2, 1]


def test_support_is_cached_and_read_only():
    rng = np.random.default_rng(24)
    psi = haar_random_state((2, 3, 2), rng)
    for rho in (reduced_density(psi, [0, 1]), random_mixed_state(rng, (2, 2), rank=3)):
        assert rho.support is rho.support
        lam, rows = rho.support
        assert not lam.flags.writeable and not rows.flags.writeable


# ---------------------------------------------------------------------------
# partial transpose
# ---------------------------------------------------------------------------

def test_partial_transpose_product_state_stays_psd():
    rng = np.random.default_rng(4)
    rho = to_density(tensor([haar_random_state((2,), rng), haar_random_state((3,), rng)]))
    pt = partial_transpose(rho, Bipartition((0,), 2))
    assert np.linalg.eigvalsh(pt)[0] >= -1e-12


def test_partial_transpose_bell_eigenvalues():
    pt = partial_transpose(to_density(bell_state()), Bipartition((0,), 2))
    np.testing.assert_allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_negative_eigenvalues_are_schmidt_products():
    # the negative spectrum of a pure state's partial transpose is
    # exactly { -sqrt(lam_i lam_j) for i < j }
    rng = np.random.default_rng(6)
    psi = haar_random_state((3, 3), rng)
    part = Bipartition((0,), 2)
    lam = np.linalg.svd(psi.amplitudes.reshape(3, 3), compute_uv=False) ** 2
    expected = sorted(
        -np.sqrt(lam[i] * lam[j]) for i in range(3) for j in range(i + 1, 3)
    )
    mu = np.linalg.eigvalsh(partial_transpose(to_density(psi), part))
    negative = sorted(mu[mu < -1e-12])
    np.testing.assert_allclose(negative, expected, atol=1e-9)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(7)
    rho = random_mixed_state(rng, (2, 3), rank=4)
    part = Bipartition((0,), 2)
    once = partial_transpose(rho, part)
    twice = partial_transpose(DensityMatrix(rho.dims, once, validate=False), part)
    assert np.array_equal(twice, rho.matrix)


def test_partial_transpose_preserves_trace():
    rng = np.random.default_rng(8)
    rho = random_mixed_state(rng, (2, 2, 2), rank=3)
    pt = partial_transpose(rho, Bipartition((0, 2), 3))
    assert abs(np.trace(pt) - np.trace(rho.matrix)) <= 1e-12


def test_permute_roundtrip():
    rng = np.random.default_rng(10)
    psi = haar_random_state((2, 3, 4), rng)
    out = psi.permute([2, 0, 1])
    assert out.dims == (4, 2, 3)
    back = out.permute([1, 2, 0])
    np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-15)


def test_permute_rejects_a_repeated_index():
    with pytest.raises(ValueError, match="not a permutation"):
        bell_state().permute([0, 0])


@pytest.mark.parametrize("order", [[2, 0, 1], [0, 1, 2], [1, 0, 2]])
def test_permute_builds_the_validated_state_unchecked(order):
    # a permutation of a valid state is valid, so permute skips the checks:
    # its amplitudes are frozen and byte-equal to the validated construction
    psi = haar_random_state((2, 3, 4), np.random.default_rng(12))
    out = psi.permute(order)
    checked = PureState(out.dims, psi.as_tensor().transpose(order).reshape(-1))
    assert out.dims == checked.dims and all(type(d) is int for d in out.dims)
    assert not out.amplitudes.flags.writeable
    assert out.amplitudes.dtype == np.complex128 and out.amplitudes.flags.c_contiguous
    assert out.amplitudes.tobytes() == checked.amplitudes.tobytes()
    with pytest.raises(ValueError):
        out.amplitudes[0] = 0.0


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def test_state_json_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    psi = haar_random_state((3, 2, 2), rng)
    path = tmp_path / "state.json"
    dump_state(psi, path)
    loaded = load_state(path)
    assert isinstance(loaded, PureState)
    assert loaded.dims == psi.dims
    np.testing.assert_allclose(loaded.amplitudes, psi.amplitudes, atol=1e-12)


def test_density_json_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    rho = random_mixed_state(rng, (2, 2), rank=2)
    path = tmp_path / "rho.json"
    dump_state(rho, path)
    loaded = load_state(path)
    assert isinstance(loaded, DensityMatrix)
    np.testing.assert_allclose(loaded.matrix, rho.matrix, atol=1e-12)


def test_loader_normalizes_small_deviation():
    data = state_to_dict(bell_state())
    scaled = [[re * (1 + 5e-7), im * (1 + 5e-7)] for re, im in data["amplitudes"]]
    psi = state_from_dict({"dims": data["dims"], "amplitudes": scaled})
    assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) <= 1e-12


def test_loader_rejects_large_deviation():
    data = state_to_dict(bell_state())
    scaled = [[re * 1.01, im * 1.01] for re, im in data["amplitudes"]]
    with pytest.raises(ValueError, match="deviates"):
        state_from_dict({"dims": data["dims"], "amplitudes": scaled})


def test_density_loader_rejects_bad_trace():
    rho = to_density(bell_state())
    bad = {"dims": [2, 2], "matrix": [[[2 * v.real, 2 * v.imag] for v in row] for row in rho.matrix]}
    with pytest.raises(ValueError, match="trace"):
        density_from_dict(bad)


def test_loaders_reject_nan():
    amps = [[np.nan, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ValueError, match="deviates"):
        state_from_dict({"dims": [2, 2], "amplitudes": amps})
    with pytest.raises(ValueError, match="deviates"):
        density_from_dict({"dims": [2], "matrix": [[[np.nan, 0], [0, 0]], [[0, 0], [1, 0]]]})
    with pytest.raises(ValueError, match="Hermitian"):
        density_from_dict({"dims": [2], "matrix": [[[0.5, 0], [np.nan, 0]], [[np.nan, 0], [0.5, 0]]]})


def test_loaders_reject_a_last_axis_that_is_not_re_im():
    with pytest.raises(ValueError, match="amplitudes must be nested"):
        state_from_dict({"dims": [2], "amplitudes": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]})
    # a flat list of pairs is a vector, not a matrix
    with pytest.raises(ValueError, match="matrix must be a nested list"):
        density_from_dict({"dims": [2], "matrix": [[1.0, 0.0], [0.0, 0.0]]})


def test_load_state_requires_known_keys(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"dims": [2]}))
    with pytest.raises(ValueError, match="amplitudes"):
        load_state(path)


def test_w_state_is_wclass_special_case():
    a = np.full((3, 1), 1 / np.sqrt(3), dtype=complex)
    spec = WClassSpec(3, 2, a, 1.0)
    np.testing.assert_allclose(build_state(spec).amplitudes, w_state(3).amplitudes, atol=1e-15)
