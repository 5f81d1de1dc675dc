import numpy as np
import pytest

from oedipus import (
    SupportSet,
    TransformSpec,
    extract_support,
    forward_transform,
    inverse_transform,
)
from oedipus.sparsity import support_atoms

from conftest import dense_transform_matrix
from reference import restricted_row, restricted_rows


def haar_level_oracle(img):
    """Direct 2x2 block butterflies for one Haar level (independent oracle)."""
    n1, n2 = img.shape
    s = 1.0 / np.sqrt(2.0)
    a = s * (img[:, 0::2] + img[:, 1::2])
    d = s * (img[:, 0::2] - img[:, 1::2])
    out = np.zeros_like(img, dtype=complex)
    out[0 : n1 // 2, 0 : n2 // 2] = s * (a[0::2] + a[1::2])
    out[n1 // 2 :, 0 : n2 // 2] = s * (a[0::2] - a[1::2])
    out[0 : n1 // 2, n2 // 2 :] = s * (d[0::2] + d[1::2])
    out[n1 // 2 :, n2 // 2 :] = s * (d[0::2] - d[1::2])
    return out


def synthesis_upsample_oracle(coeffs, spec):
    """Inverse via explicit periodic convolution loops (independent oracle)."""
    from oedipus.sparsity import _FILTERS

    h = _FILTERS[spec.family]
    taps = len(h)
    g = np.array([(-1.0) ** k * h[taps - 1 - k] for k in range(taps)])

    def up1d(a, d):
        n = 2 * len(a)
        y = np.zeros(n, dtype=complex)
        for i in range(len(a)):
            for k in range(taps):
                y[(2 * i + k) % n] += h[k] * a[i] + g[k] * d[i]
        return y

    out = np.array(coeffs, dtype=complex)
    dims = out.shape
    n1 = dims[0] >> spec.levels
    n2 = dims[1] >> spec.levels
    for _ in range(spec.levels):
        sub = out[: 2 * n1, : 2 * n2].copy()
        cols = np.zeros_like(sub)
        for j in range(2 * n2):
            cols[:, j] = up1d(sub[:n1, j], sub[n1 : 2 * n1, j])
        rows = np.zeros_like(sub)
        for i in range(2 * n1):
            rows[i, :] = up1d(cols[i, :n2], cols[i, n2 : 2 * n2])
        out[: 2 * n1, : 2 * n2] = rows
        n1 *= 2
        n2 *= 2
    return out


def test_spec_validation():
    with pytest.raises(ValueError):
        TransformSpec("bspline", 1)
    with pytest.raises(ValueError):
        TransformSpec("daub4", 0)
    TransformSpec("identity", 0)  # levels ignored for identity


def test_constant_image_detail_free():
    for levels in (1, 2, 3):
        spec = TransformSpec("daub4", levels)
        coeffs = forward_transform(3.5 * np.ones((16, 16)), spec)
        n1 = 16 >> levels
        approx = coeffs[:n1, :n1]
        assert np.allclose(approx, 3.5 * 2.0**levels)
        detail = coeffs.copy()
        detail[:n1, :n1] = 0
        assert np.abs(detail).max() < 1e-12


def test_parseval_random_images(rng):
    for family, levels in [("daub4", 3), ("haar", 2)]:
        spec = TransformSpec(family, levels)
        for _ in range(25):
            img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            coeffs = forward_transform(img, spec)
            assert abs(np.linalg.norm(coeffs) - np.linalg.norm(img)) <= 1e-12 * np.linalg.norm(img)


def test_roundtrip_many_random_images(rng):
    spec = TransformSpec("daub4", 2)
    for _ in range(1000):
        img = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        back = inverse_transform(forward_transform(img, spec), spec)
        assert np.linalg.norm(back - img) <= 1e-12 * np.linalg.norm(img)
    for family in ("haar", "daub4"):
        spec = TransformSpec(family, 3)
        for dims in ((8, 16), (32, 16)):
            for _ in range(50):
                img = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
                back = inverse_transform(forward_transform(img, spec), spec)
                assert np.linalg.norm(back - img) <= 1e-12 * np.linalg.norm(img)
            # a (2, 3, N1, N2) stack transforms image by image
            stack = rng.standard_normal((2, 3, *dims)) + 1j * rng.standard_normal((2, 3, *dims))
            for transform in (forward_transform, inverse_transform):
                batched = transform(stack, spec)
                assert batched.shape == stack.shape
                for i in range(2):
                    for j in range(3):
                        single = transform(stack[i, j], spec)
                        assert np.allclose(batched[i, j], single, rtol=0, atol=1e-13)


def test_zero_coefficients_zero_image():
    assert np.allclose(
        inverse_transform(np.zeros((8, 8)), TransformSpec("haar", 1)), 0.0
    )


def test_indivisible_dims_rejected():
    with pytest.raises(ValueError):
        forward_transform(np.ones((6, 8)), TransformSpec("daub4", 2))
    with pytest.raises(ValueError):
        inverse_transform(np.ones((6, 8)), TransformSpec("daub4", 2))


def test_haar_butterfly_oracle(rng):
    img = np.zeros((8, 8), dtype=complex)
    img[3, 5] = 1.0  # impulse
    spec = TransformSpec("haar", 1)
    assert np.allclose(forward_transform(img, spec), haar_level_oracle(img), atol=1e-13)
    img = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert np.allclose(forward_transform(img, spec), haar_level_oracle(img), atol=1e-12)


def test_single_approx_coefficient_synthesis_oracle(rng):
    for family in ("haar", "daub4"):
        spec = TransformSpec(family, 2)
        coeffs = np.zeros((8, 8), dtype=complex)
        coeffs[0, 0] = 1.0
        img = inverse_transform(coeffs, spec)
        oracle = synthesis_upsample_oracle(coeffs, spec)
        assert np.allclose(img, oracle, atol=1e-12)
        if family == "haar":
            # Haar scaling image is constant-sign
            assert np.all(img.real[np.abs(img) > 1e-14] > 0)
        # non-square grids, random coefficients
        for dims in ((8, 16), (32, 16)):
            coeffs = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
            oracle = synthesis_upsample_oracle(coeffs, spec)
            assert np.allclose(inverse_transform(coeffs, spec), oracle, rtol=0, atol=1e-12)
            assert np.allclose(forward_transform(oracle, spec), coeffs, rtol=0, atol=1e-12)


def test_extract_support_basic(rng):
    spec = TransformSpec("identity", 0)
    img = np.array([[4.0, 3.0], [2.0, 1.0]])
    sup = extract_support(img, spec, 0.5)
    assert list(sup.indices) == [0, 1]
    sup_all = extract_support(img, spec, 1.0)
    assert list(sup_all.indices) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        extract_support(img, spec, 0.0)


def test_extract_support_count_64x64(rng):
    img = rng.standard_normal((64, 64))
    sup = extract_support(img, TransformSpec("daub4", 3), 0.15)
    assert sup.S == 615  # ceil(0.15 * 4096)


def test_extract_support_tie_breaking():
    spec = TransformSpec("identity", 0)
    img = np.array([[1.0, 2.0], [2.0, 0.5]])
    sup = extract_support(img, spec, 0.5)
    # |2.0| tie between indices 1 and 2 resolves to the lower index
    assert list(sup.indices) == [1, 2]


def test_extract_support_phase_invariant(rng):
    spec = TransformSpec("daub4", 1)
    img = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = extract_support(img, spec, 0.2)
    b = extract_support(img * np.exp(1j * 1.234), spec, 0.2)
    assert np.array_equal(a.indices, b.indices)


def test_support_validation():
    with pytest.raises(ValueError):
        SupportSet(indices=np.array([0, 0, 1]), q=4)
    with pytest.raises(ValueError):
        SupportSet(indices=np.array([4]), q=4)
    with pytest.raises(ValueError):
        SupportSet(indices=np.array([], dtype=int), q=4)


def test_support_indices_are_sorted_ints():
    support = SupportSet(indices=np.array([3.0, 0.0, 2.0]), q=4)
    assert support.indices.dtype == int and support.indices.tolist() == [0, 2, 3]
    assert support.S == 3


@pytest.mark.parametrize("dims", [(48, 48), (32, 16), (16, 32)])
@pytest.mark.parametrize("family", ["haar", "daub4", "identity"])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_support_atoms_are_unit_image_syntheses(rng, dims, family, levels):
    spec = TransformSpec(family, levels)
    q = dims[0] * dims[1]
    # the coarsest 4 x 4 corner holds every depth; the rest are random
    corner = np.ravel_multi_index(np.mgrid[:4, :4].reshape(2, -1), dims)
    sup = SupportSet(np.union1d(corner, rng.choice(q, 100, replace=False)), q)
    units = np.zeros((sup.S, q))
    units[np.arange(sup.S), sup.indices] = 1.0
    expected = inverse_transform(units.reshape(-1, *dims), spec)
    a1, a2 = support_atoms(sup, spec, dims)
    assert a1.shape == (sup.S, dims[0]) and a2.shape == (sup.S, dims[1])
    np.testing.assert_allclose(a1[:, :, None] * a2[:, None, :], expected, rtol=0, atol=1e-15)


def test_support_atoms_validation():
    sup = SupportSet(np.arange(10), 64)
    with pytest.raises(ValueError, match="support length"):
        support_atoms(sup, TransformSpec("haar", 1), (8, 16))
    with pytest.raises(ValueError, match="not divisible"):
        support_atoms(SupportSet(np.arange(10), 96), TransformSpec("daub4", 3), (8, 12))


def test_restricted_row_identities(rng):
    dims = (8, 8)
    spec = TransformSpec("daub4", 2)
    q = 64
    full = SupportSet(indices=np.arange(q), q=q)
    psi = dense_transform_matrix(dims, spec)
    # row = j-th transform row -> canonical basis vector
    j = 19
    row = psi[j]
    out = restricted_row(row, full, spec, dims)
    expected = np.zeros(q)
    expected[j] = 1.0
    assert np.allclose(out, expected, atol=1e-12)
    assert np.allclose(restricted_row(np.zeros(q), full, spec, dims), 0.0)


def test_restricted_row_dense_oracle(rng):
    dims = (8, 8)
    for family, levels in [("daub4", 2), ("haar", 3), ("identity", 0)]:
        spec = TransformSpec(family, levels)
        psi = dense_transform_matrix(dims, spec)
        sup = SupportSet(indices=rng.choice(64, size=10, replace=False), q=64)
        for _ in range(5):
            row = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            expected = (row @ psi.conj().T)[sup.indices]
            got = restricted_row(row, sup, spec, dims)
            assert np.allclose(got, expected, atol=1e-12)


def test_restricted_rows_batched(rng):
    dims = (8, 8)
    spec = TransformSpec("daub4", 1)
    sup = SupportSet(indices=rng.choice(64, size=7, replace=False), q=64)
    rows = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
    batched = restricted_rows(rows, sup, spec, dims)
    for i in range(5):
        assert np.allclose(batched[i], restricted_row(rows[i], sup, spec, dims))


def test_dense_transform_matrix_unitary():
    for family, levels in [("daub4", 2), ("haar", 1)]:
        psi = dense_transform_matrix((8, 8), TransformSpec(family, levels))
        assert np.allclose(psi @ psi.conj().T, np.eye(64), atol=1e-12)
        assert np.allclose(psi.conj().T @ psi, np.eye(64), atol=1e-12)
