import numpy as np
import pytest

from oedipus import (
    EncodingModel,
    InfeasibleDesignError,
    SupportSet,
    TransformSpec,
    build_full_crb,
    image_domain_crb_trace,
    oracle_lsq_estimate,
)
from oedipus import crb, design
from oedipus.crb import CrbState, smw_removal

from conftest import (
    dense_candidate_matrix, dense_transform_matrix, make_model, noise_map_model, random_support,
)
from reference import eigenvalue_traces, group_rows, restricted_rows, row_indices


def dense_crb_oracle(model, support, spec, t=0, groups=None):
    """Full dense construction: stack rows, multiply by the explicit
    transform matrix, gather the support and invert directly."""
    cand = model.candidates
    groups = range(cand.L) if groups is None else groups
    rows = dense_candidate_matrix(model, t)
    keep = row_indices(cand, groups).ravel()
    psi = dense_transform_matrix(model.grid.dims, spec)
    restricted = (rows[keep] @ psi.conj().T)[:, support.indices]
    return np.linalg.inv(restricted.conj().T @ restricted)


def test_full_dft_identity_support():
    grid_model = make_model((1, 4))
    # make_model builds 2D-undersampled candidates; dims (1,4) gives 4 rows
    spec = TransformSpec("identity", 0)
    support = SupportSet(indices=np.arange(4), q=4)
    state = build_full_crb(grid_model, support, spec, t=0)
    assert np.allclose(state.inv_gram, np.eye(4) / 4.0, atol=1e-12)
    assert state.trace == pytest.approx(1.0)


def test_support_larger_than_rows_infeasible():
    model = make_model((1, 4))
    spec = TransformSpec("identity", 0)
    support = SupportSet(indices=np.arange(4), q=4)
    with pytest.raises(InfeasibleDesignError):
        build_full_crb(model, support, spec, t=0, groups=[0, 1])


def test_full_crb_matches_dense_oracle(rng):
    spec = TransformSpec("daub4", 2)
    for n_coils in (1, 2):
        model = make_model((8, 8), n_coils=n_coils, seed=9)
        support = random_support(rng, 64, 10)
        state = build_full_crb(model, support, spec, t=0)
        oracle = dense_crb_oracle(model, support, spec)
        rel = np.linalg.norm(state.inv_gram - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-8
        assert np.allclose(state.inv_gram, state.inv_gram.conj().T, atol=1e-10)
        assert state.trace >= 0


def test_smw_zero_block_is_bookkeeping_only():
    model = make_model((1, 4))
    spec = TransformSpec("identity", 0)
    support = SupportSet(indices=np.arange(4), q=4)
    state = build_full_crb(model, support, spec, t=0)
    zero = np.zeros((1, 4), dtype=complex)
    after = smw_removal(state, zero[None], 0)[0]
    assert np.allclose(after.inv_gram, state.inv_gram)
    assert after.trace == pytest.approx(state.trace)
    assert crb.downdate_traces(state, zero[None])[0] == pytest.approx(state.trace)


def test_rank_one_downdate_sherman_morrison_oracle(rng):
    # hand-checkable 3x3 case: C=1 block against the scalar formula
    rows = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    gram = rows.conj().T @ rows
    inv = np.linalg.inv(gram)
    state = CrbState(inv_gram=inv, trace=float(np.trace(inv).real))
    v = rows[4:5]  # row being removed
    after = smw_removal(state, v[None], 0)[0]
    # Sherman-Morrison for a rank-one removal
    u = inv @ v.conj().T
    denom = 1.0 - (v @ u)[0, 0]
    oracle = inv + (u @ u.conj().T) / denom
    assert np.allclose(after.inv_gram, oracle, atol=1e-10)
    direct = np.linalg.inv(gram - v.conj().T @ v)
    assert np.allclose(after.inv_gram, direct, atol=1e-8)
    assert crb.downdate_traces(state, v[None])[0] == pytest.approx(after.trace, rel=1e-10)


def test_group_downdate_matches_rebuild(rng):
    spec = TransformSpec("haar", 1)
    model = make_model((8, 8), n_coils=2, seed=4)
    support = random_support(rng, 64, 12)
    state = build_full_crb(model, support, spec, t=0)
    g = 17
    block = crb.restricted_matrix(model, support, spec, 0, [g])[0]
    assert block.shape == (model.candidates.C, support.S)
    after = smw_removal(state, block[None], 0)[0]
    rebuilt = build_full_crb(
        model, support, spec, 0, groups=[x for x in range(model.candidates.L) if x != g]
    )
    rel = np.linalg.norm(after.inv_gram - rebuilt.inv_gram) / np.linalg.norm(
        rebuilt.inv_gram
    )
    assert rel < 1e-8
    assert crb.downdate_traces(state, block[None])[0] == pytest.approx(after.trace, rel=1e-10)


def test_chained_downdates_match_rebuild(rng):
    spec = TransformSpec("daub4", 1)
    model = make_model((8, 8), n_coils=1)
    support = random_support(rng, 64, 16)
    state = build_full_crb(model, support, spec, t=0)
    removed = []
    order = rng.permutation(model.candidates.L)[:20]
    for g, block in zip(order, crb.restricted_matrix(model, support, spec, 0, order)):
        tr_pred = crb.downdate_traces(state, block[None])[0]
        new_state = smw_removal(state, block[None], 0)[0]
        assert tr_pred == pytest.approx(new_state.trace, rel=1e-10)
        # monotonicity: information only shrinks
        assert new_state.trace >= state.trace - 1e-10
        state = new_state
        removed.append(int(g))
    rebuilt = build_full_crb(
        model,
        support,
        spec,
        0,
        groups=[x for x in range(model.candidates.L) if x not in removed],
    )
    rel = np.linalg.norm(state.inv_gram - rebuilt.inv_gram) / np.linalg.norm(
        rebuilt.inv_gram
    )
    assert rel < 1e-7


def test_mandatory_group_gives_infinite_trace():
    # two groups, support of size 2: dropping either kills identifiability
    model = make_model((1, 4))
    spec = TransformSpec("identity", 0)
    support = SupportSet(indices=np.array([0, 1, 2]), q=4)
    state = build_full_crb(model, support, spec, t=0, groups=[0, 1, 2])
    block = crb.restricted_matrix(model, support, spec, 0, [0])
    # removing one of three rows leaves 2 rows < S=3
    assert crb.downdate_traces(state, block)[0] == np.inf
    with pytest.raises(InfeasibleDesignError):
        smw_removal(state, block, 0)


def test_sliced_downdate_traces_match_per_group(monkeypatch):
    # 8 lines of a 4x8 grid; voxel pairs 4 apart alias on every even line,
    # so of the even lines plus one odd line, the odd line is mandatory
    model = make_model((4, 8), undersample_axes=(1,))
    spec = TransformSpec("identity", 0)
    voxels = [(0, 0), (0, 4), (1, 1), (1, 5), (2, 2), (3, 3)]
    support = SupportSet(indices=np.array([8 * r0 + r1 for r0, r1 in voxels]), q=32)
    cand = model.candidates
    parity = [cand.kidx[cand.group_locs[g][0], 1] % 2 for g in range(cand.L)]
    groups = [g for g in range(cand.L) if parity[g] == 0] + [parity.index(1)]
    rows = crb.restricted_matrix(model, support, spec, 0, groups)
    state = crb.state_from_gram(crb.restricted_gram(rows))
    want = [crb.downdate_traces(state, b[None])[0] for b in rows]
    assert np.isinf(want).tolist() == [False] * 4 + [True]
    c, s = rows.shape[1:]
    monkeypatch.setattr(crb, "SLICE_BYTES", 2 * 16 * c * s)  # slices of 2, 2 and 1 groups
    got = crb.downdate_traces(state, rows)
    np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
    np.testing.assert_allclose(got[:4], want[:4], rtol=1e-12)


def test_removal_traces_only_rise_after_a_commit(rng):
    # removing rows can only raise a CRB trace: A - B^H B <= A, so each
    # group's removal trace after a commit bounds it from below before; a
    # mandatory (+inf) group stays mandatory
    model = make_model((8, 8), n_coils=2, undersample_axes=(0,), seed=4)
    support = random_support(rng, 64, 12)
    rows = crb.compressed_rows(model, support, TransformSpec("daub4", 1), 0, range(8))
    state = crb.state_from_gram(crb.restricted_gram(rows))
    alive = list(range(8))
    for c in (3, 0, 6, 1):
        before = np.delete(crb.downdate_traces(state, rows[alive]), alive.index(c))
        state = smw_removal(state, rows, c)[0]
        alive.remove(c)
        after = crb.downdate_traces(state, rows[alive])
        assert np.all(after >= before * (1 - 1e-12))
        assert np.all(np.isinf(after)[np.isinf(before)])


def test_gram_trace_matches_gram_inverse(rng):
    # gram_trace and the inverse state call the same Grams singular: rank
    # deficient, or of condition number above COND_LIMIT
    a = rng.standard_normal((3, 8, 6)) + 1j * rng.standard_normal((3, 8, 6))
    grams = np.swapaxes(a.conj(), 1, 2) @ a
    grams[1] = grams[1] - np.linalg.eigvalsh(grams[1])[0] * np.eye(6)  # rank 5
    w, v = np.linalg.eigh(grams[2])
    grams[2] = (v * np.r_[w[-1] / 1e13, w[1:]]) @ v.conj().T  # cond 1e13
    got = [crb.gram_trace(g) for g in grams]
    assert np.isinf(got).tolist() == [False, True, True]
    assert got[0] == pytest.approx(crb.state_from_gram(grams[0]).trace, rel=1e-12)
    for gram in grams[1:]:
        with pytest.raises(InfeasibleDesignError):
            crb.state_from_gram(gram)


def gram_of_spectrum(rng, w):
    """A complex Hermitian Gram with eigenvalues w and random eigenvectors."""
    s = len(w)
    q = np.linalg.qr(rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)))[0]
    return (q * w) @ q.conj().T


@pytest.mark.parametrize("s", [1, 20, 100, 346])
def test_gram_inverse_matches_inv_and_eigenvalues(rng, monkeypatch, s):
    assert crb._DENSE_MAX < 100  # so the triangular inverse recurses at 100 and 346
    a = rng.standard_normal((2 * s, s)) + 1j * rng.standard_normal((2 * s, s))
    grams = [a.conj().T @ a, gram_of_spectrum(rng, np.logspace(-4, 0, s))]  # cond ~30, 1e4
    want = [np.linalg.inv(g) for g in grams]

    def refused(*args, **kwargs):
        raise AssertionError("a regular Gram took the eigenvalue path")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    got = [(crb.gram_trace(g), crb.state_from_gram(g)) for g in grams]
    monkeypatch.undo()
    for gram, inv, (trace, state) in zip(grams, want, got):
        for value in (trace, state.trace):
            assert value == pytest.approx(np.trace(inv).real, rel=1e-12)
            assert value == pytest.approx((1.0 / np.linalg.eigvalsh(gram)).sum(), rel=1e-12)
        assert np.linalg.norm(state.inv_gram - inv) <= 1e-12 * np.linalg.norm(inv)
        np.testing.assert_array_equal(state.inv_gram, state.inv_gram.conj().T)


def test_a_gram_is_singular_below_its_trace_over_the_limit(rng):
    # condition number 1e11, below COND_LIMIT, but tr G / lambda_min = 5.9e12:
    # singular by the trace rule, regular by the eigenvalue ratio
    s = 60
    gram = gram_of_spectrum(rng, np.r_[1e-11, np.ones(s - 1)])
    assert np.isfinite(eigenvalue_traces(gram))
    assert crb.gram_trace(gram) == np.inf
    with pytest.raises(InfeasibleDesignError):
        crb.state_from_gram(gram)
    # rank deficient: singular by both rules
    a = rng.standard_normal((s - 3, s)) + 1j * rng.standard_normal((s - 3, s))
    assert crb.gram_trace(a.conj().T @ a) == np.inf == eigenvalue_traces(a.conj().T @ a)


def test_smw_removal_equals_the_out_of_place_update(rng):
    model = make_model((4, 8), n_coils=2, undersample_axes=(1,), seed=1)
    support = random_support(rng, 32, 6)
    rows = crb.restricted_matrix(model, support, TransformSpec("haar", 1), 0, range(8))
    state = crb.state_from_gram(crb.restricted_gram(rows))
    new, drift = crb.smw_removal(state, rows, 5)
    u = state.inv_gram @ rows[5].conj().T
    mid = np.eye(len(rows[5])) - rows[5] @ u
    k = np.linalg.inv(0.5 * (mid + mid.conj().T))
    k = 0.5 * (k + k.conj().T)
    inv = state.inv_gram + (u @ k) @ u.conj().T
    np.testing.assert_array_equal(new.inv_gram, 0.5 * (inv + inv.conj().T))
    assert drift == 0.0  # no forms are kept


def test_compressed_rows_keep_grams_and_traces():
    # 2-coil lines of an 8x8 grid; the support fills 2 columns, so a line's
    # 16 rows have rank 2 x 2 coils.  Voxel rows 0, 2, 4, 6 alias 4-fold on
    # the lines k = -4 and 0 (groups 0 and 4), so of groups 0, 4 and 2 the
    # last is mandatory
    model = make_model((8, 8), n_coils=2, undersample_axes=(0,), seed=5)
    spec = TransformSpec("identity", 0)
    voxels = [8 * r0 + r1 for r0 in (0, 2, 4, 6) for r1 in (0, 3)]
    support = SupportSet(indices=np.array(voxels), q=64)
    for groups, inf in ((range(8), [False] * 8), ([0, 4, 2], [False, False, True])):
        rows = crb.restricted_matrix(model, support, spec, 0, groups)
        small = crb.compressed_rows(model, support, spec, 0, groups)
        assert rows.shape == (len(inf), 16, 8) and small.shape == (len(inf), 4, 8)
        want, got = (np.swapaxes(b.conj(), 1, 2) @ b for b in (rows, small))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        state = crb.state_from_gram(crb.restricted_gram(rows))
        want, got = crb.downdate_traces(state, rows), crb.downdate_traces(state, small)
        assert np.isinf(want).tolist() == np.isinf(got).tolist() == inf
        np.testing.assert_allclose(got[~np.isinf(got)], want[~np.isinf(want)], rtol=1e-12)
    empty = crb.compressed_rows(model, support, spec, 0, [])
    assert empty.shape == (0, 16, 8) and crb.downdate_traces(state, empty).shape == (0,)


ROW_CASES = pytest.mark.parametrize(
    "dims,n_coils,axes,oversampling,basis,family,levels",
    [
        ((8, 8), 1, (0, 1), 1.0, "dirac", "haar", 2),
        ((8, 8), 3, (0,), 1.5, "rect", "daub4", 2),
        ((8, 16), 3, (1,), 2.0, "dirac", "identity", 0),
        ((8, 8), 1, (0, 1), 2.0, "rect", "daub4", 1),
        ((16, 8), 3, (0, 1), 1.5, "dirac", "haar", 3),
        ((8, 8), 1, (1,), 1.0, "rect", "identity", 0),
        ((8, 16), 2, (0,), 2.0, "rect", "daub4", 1),
        ((8, 8), 2, (0, 1), 1.0, "dirac", "identity", 0),
    ],
)


def row_case(rng, dims, n_coils, axes, oversampling, basis):
    """Model with a second, random full-rank map set (every SVD term of every
    coil counts), a support of 11 and an unsorted subset of its groups."""
    model = make_model(dims, n_coils, axes, seed=5, oversampling=oversampling, basis=basis)
    support = random_support(rng, model.N, 11)
    cand = model.candidates
    groups = rng.permutation(cand.L)[: cand.L // 2 + 1].tolist()
    shape = (n_coils, model.N)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert (np.linalg.matrix_rank(noise.reshape(n_coils, *dims)) == min(dims)).all()
    both = EncodingModel(model.grid, cand, (model.coil_maps[0], noise), model.basis)
    return both, support, groups


@ROW_CASES
def test_restricted_matrix_matches_dense_rows(
    rng, dims, n_coils, axes, oversampling, basis, family, levels
):
    model, support, groups = row_case(rng, dims, n_coils, axes, oversampling, basis)
    cand, spec = model.candidates, TransformSpec(family, levels)
    for t in (0, 1):
        got = crb.restricted_matrix(model, support, spec, t, groups)
        want = np.stack(
            [restricted_rows(group_rows(model, g, t), support, spec, dims) for g in groups]
        )
        assert got.shape == (len(groups), cand.C, support.S)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert crb.restricted_matrix(model, support, spec, 0, []).shape == (0, cand.C, 11)
    for t, bad in ((0, [0, cand.L]), (0, [-1]), (2, [0])):
        with pytest.raises(ValueError):
            crb.restricted_matrix(model, support, spec, t, bad)


@ROW_CASES
def test_compressed_rows_keep_the_grams_of_the_raw_rows(
    rng, dims, n_coils, axes, oversampling, basis, family, levels
):
    # a line compresses to r <= C rows of the same Gram and the same removal
    # traces; a group of one location keeps its C rows
    model, support, groups = row_case(rng, dims, n_coils, axes, oversampling, basis)
    cand, spec = model.candidates, TransformSpec(family, levels)
    for t in (0, 1):
        rows = crb.restricted_matrix(model, support, spec, t, groups)
        small = crb.compressed_rows(model, support, spec, t, groups)
        assert small.shape[0] == len(groups) and small.shape[1] <= cand.C
        if axes == (0, 1):
            np.testing.assert_array_equal(small, rows)
        want, got = (np.swapaxes(b.conj(), 1, 2) @ b for b in (rows, small))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        state = crb.state_from_gram(crb.restricted_gram(rows))
        want, got = crb.downdate_traces(state, rows), crb.downdate_traces(state, small)
        assert np.isinf(want).tolist() == np.isinf(got).tolist()
        np.testing.assert_allclose(got[~np.isinf(got)], want[~np.isinf(want)], rtol=1e-12)


@pytest.mark.parametrize("dims,n_coils,axes,s", [((8, 12), 3, (0,), 11), ((8, 8), 4, (0, 1), 3)])
def test_compressed_rows_keep_at_most_s_rows_per_group(rng, dims, n_coils, axes, s):
    # random full-rank coil maps give a line more compressed rows than the
    # 11 support columns, and 4 coils a location 4 rows of 3 columns: each
    # group keeps S rows of the same Gram
    model = noise_map_model(rng, dims, n_coils, axes)
    support, spec, groups = random_support(rng, model.N, s), TransformSpec("identity", 0), [5, 1]
    rows = crb.restricted_matrix(model, support, spec, 0, groups)
    small = crb.compressed_rows(model, support, spec, 0, groups)
    assert small.shape == (2, s, s)
    want, got = crb.restricted_gram(rows), crb.restricted_gram(small)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
    want, got = (np.swapaxes(b.conj(), 1, 2) @ b for b in (rows, small))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("scale", [1.0, 1e3], ids=["middle", "gram"])
def test_singularity_rule_flags_eigenvalues_up_to_the_shift(rng, monkeypatch, scale):
    # middle matrices with eigenvalues in [lam, 1] against 1/COND_LIMIT, and
    # Grams with eigenvalues in [lam, 1e3] against tr G / COND_LIMIT
    others = scale * np.linspace(0.5, 1.0, 5)
    shift = (1.0 if scale == 1.0 else others.sum()) / crb.COND_LIMIT
    mats = np.stack([gram_of_spectrum(rng, np.r_[f * shift, others]) for f in (0.5, 2, 1e9)])
    mats = 0.5 * (mats + np.swapaxes(mats.conj(), 1, 2))
    assert crb._singular(mats, shift).tolist() == [True, False, False]
    assert [bool(crb._singular(m[None], shift)[0]) for m in mats] == [True, False, False]
    if scale != 1.0:
        assert [np.isinf(crb.gram_trace(m)) for m in mats] == [True, False, False]

    def no_fallback(_):
        raise AssertionError("a regular batch took the eigenvalue test")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_fallback)
    assert crb._singular(mats[1:], shift).tolist() == [False, False]
    assert crb._singular(mats[1:2], shift).tolist() == [False]
    ones = np.array([0.5, 2.0, 1e9])[:, None, None] * shift  # 1 x 1: elementwise
    assert crb._singular(ones, shift).tolist() == [True, False, False]


def test_mandatory_one_row_group_is_priced_without_lapack(monkeypatch):
    # one line of 16 locations; voxels 0 and 8 alias on every even location,
    # so of the even locations plus one odd location, the odd one is mandatory
    model = make_model((1, 16))
    spec = TransformSpec("identity", 0)
    support = SupportSet(indices=np.array([0, 1, 8]), q=16)
    cand = model.candidates
    odd = [g for g in range(cand.L) if cand.kidx[g, 1] % 2]
    groups = [g for g in range(cand.L) if cand.kidx[g, 1] % 2 == 0] + odd[:1]
    rows = crb.restricted_matrix(model, support, spec, 0, groups)
    state = crb.state_from_gram(crb.restricted_gram(rows))
    forms = crb.downdate_forms(state.inv_gram, rows)
    calls = []
    for name in ("eigvalsh", "cholesky", "inv", "solve"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, n=name, f=fn: calls.append(n) or f(*a))
    got = crb.downdate_traces(state, rows)
    assert np.isinf(got).tolist() == [False] * 8 + [True]
    for block, trace in zip(rows[:-1], got):
        assert trace == pytest.approx(crb.downdate_traces(state, block[None])[0], rel=1e-12)
    after, drift = smw_removal(state, rows, 3, forms)  # a regular group is committed
    assert after.trace == pytest.approx(got[3], rel=1e-12) and drift < design._DRIFT_LIMIT
    with pytest.raises(InfeasibleDesignError):
        smw_removal(state, rows, len(rows) - 1, forms)
    assert calls == []  # one-row groups are decided, committed and updated elementwise


def commit_chain(rng, n_coils):
    """Six commits with kept forms on an 8 x 8 model of ``n_coils``-row groups;
    after each, the state and the updated forms of the groups left equal
    those of the reduced Gram, built afresh.  Returns the final state, rows,
    forms and groups left."""
    model = make_model((8, 8), n_coils=n_coils)
    support = random_support(rng, 64, 12)
    rows = crb.compressed_rows(model, support, TransformSpec("daub4", 1), 0, range(64))
    assert rows.shape == (64, n_coils, 12)
    state = crb.state_from_gram(crb.restricted_gram(rows))
    forms = crb.downdate_forms(state.inv_gram, rows)
    alive = list(range(64))
    for c in (5, 40, 17, 63, 2, 31):
        state, drift = smw_removal(state, rows, c, forms)
        alive.remove(c)
        rebuilt = crb.state_from_gram(crb.restricted_gram(rows[alive]))
        err = np.abs(state.inv_gram - rebuilt.inv_gram).max()
        assert err <= 1e-10 * np.abs(rebuilt.inv_gram).max()
        assert state.trace == pytest.approx(rebuilt.trace, rel=1e-10)
        assert drift < design._DRIFT_LIMIT
        for got, want in zip(forms, crb.downdate_forms(state.inv_gram, rows[alive])):
            assert np.abs(got[alive] - want).max() <= 1e-10 * np.abs(want).max()
    return state, rows, forms, alive


def test_one_row_commits_match_a_rebuild(rng):
    state, rows, forms, alive = commit_chain(rng, 1)
    forms[0][alive[0]] *= 1 + 1e-6  # the drift reads the committed group's stored forms
    assert smw_removal(state, rows, alive[0], forms)[1] == pytest.approx(1e-6)


def test_two_row_commits_match_a_rebuild(rng):
    state, rows, forms, alive = commit_chain(rng, 2)
    forms[1][alive[0]] *= 1 + 1e-6
    assert smw_removal(state, rows, alive[0], forms)[1] == pytest.approx(1e-6)


@pytest.mark.parametrize("n_coils", [1, 2])
def test_a_commit_without_forms_has_no_drift_and_the_same_state(rng, n_coils):
    model = make_model((8, 8), n_coils=n_coils, seed=3)
    support = random_support(rng, 64, 10)
    rows = crb.compressed_rows(model, support, TransformSpec("haar", 1), 0, range(64))
    state = crb.state_from_gram(crb.restricted_gram(rows))
    forms = crb.downdate_forms(state.inv_gram, rows)
    kept, drift = smw_removal(state, rows, 9, forms)
    bare, none = smw_removal(state, rows, 9)
    assert none == 0.0 and 0.0 <= drift < design._DRIFT_LIMIT
    np.testing.assert_array_equal(bare.inv_gram, kept.inv_gram)
    assert bare.trace == kept.trace


@pytest.mark.parametrize("oversampling,subset", [(1.0, False), (2.0, False), (1.0, True)])
def test_separable_products_match_the_row_products(rng, oversampling, subset):
    # the grid product gathers B u and B A^-1 u of every group: a reshape on a
    # full candidate grid, a real gather on a subset of its groups
    model = make_model((12, 8), oversampling=oversampling, seed=2)
    support = random_support(rng, 96, 20)
    spec = TransformSpec("daub4", 1)
    rows = crb.candidate_rows(model, support, spec, 0)
    assert isinstance(rows, crb.SeparableRows) and rows.shape == (model.candidates.L, 1, 20)
    groups = np.arange(model.candidates.L)
    if subset:
        groups = np.sort(rng.choice(groups, size=40, replace=False))
        rows = crb.SeparableRows(rows.j1[groups], rows.j2[groups], rows.p1, rows.p2)
    assert (rows.flat is None) == (not subset)
    dense = rows[:]
    np.testing.assert_array_equal(dense, crb.restricted_matrix(model, support, spec, 0, groups))
    w = rng.standard_normal((2, 20)) + 1j * rng.standard_normal((2, 20))
    want = w @ dense[:, 0].T
    assert np.abs(rows.products(w) - want).max() <= 1e-13 * np.abs(want).max()


def test_one_row_commits_stay_hermitian(monkeypatch):
    # the commit adds q q^H with no symmetrization pass: after every commit of
    # a 24 x 24 design the inverse is Hermitian to rounding
    model = make_model((24, 24))
    support = random_support(np.random.default_rng(5), 576, 86)
    worst = []

    def commit(*args):
        state, drift = smw_removal(*args)
        inv = state.inv_gram
        worst.append(np.abs(inv - inv.conj().T).max() / np.abs(inv).max())
        return state, drift

    monkeypatch.setattr(design, "smw_removal", commit)
    design.sbs_design(model, [support], design.DesignObjective(), 288, TransformSpec("daub4", 2))
    assert len(worst) == 288 and max(worst) <= 1e-14


def test_candidate_rows_are_factors_only_for_one_row_one_term_groups(rng):
    # a full-rank single-coil map, two coils or line groups keep the row array
    support = random_support(rng, 64, 10)
    spec = TransformSpec("haar", 1)
    for model in (noise_map_model(rng, (8, 8), 1, (0, 1)), make_model((8, 8), n_coils=2),
                  make_model((8, 8), undersample_axes=(0,))):
        rows = crb.candidate_rows(model, support, spec, 0)
        want = crb.compressed_rows(model, support, spec, 0, range(model.candidates.L))
        np.testing.assert_array_equal(rows, want)
    # on the whole grid the Gram is that of the axis factors, elementwise
    rows = crb.candidate_rows(make_model((8, 8)), support, spec, 0)
    gram, want = crb.restricted_gram(rows), crb.restricted_gram(rows[:])
    np.testing.assert_array_equal(gram, gram.conj().T)
    assert np.abs(gram - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("shape", [(0, 1, 7), (1, 1, 7), (6, 3, 7), (9, 7)])
def test_restricted_gram_is_exactly_hermitian(rng, shape):
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gram = crb.restricted_gram(rows)
    b = rows.reshape(-1, 7)
    want = b.conj().T @ b
    assert gram.shape == (7, 7)
    assert np.array_equal(gram, gram.conj().T)
    assert np.all(np.diag(gram).imag == 0)
    assert np.abs(gram - want).max() <= 1e-13 * np.abs(want).max()
    strided = rows[..., ::2]  # a view whose rows are not contiguous
    assert np.array_equal(crb.restricted_gram(strided), crb.restricted_gram(strided.copy()))
    # real rows are taken as complex rows
    np.testing.assert_allclose(crb.restricted_gram(rows.real), b.real.T @ b.real, atol=1e-13)


def test_image_domain_trace_identity():
    model = make_model((1, 4))
    spec = TransformSpec("identity", 0)
    support = SupportSet(indices=np.arange(4), q=4)
    state = build_full_crb(model, support, spec, t=0)
    tr = image_domain_crb_trace(state, support, spec, model.grid.dims)
    assert tr == pytest.approx(state.trace)


@pytest.mark.parametrize("family,levels,s", [("daub4", 2, 6), ("haar", 1, 4)])
def test_image_domain_trace_equality(rng, family, levels, s):
    spec = TransformSpec(family, levels)
    model = make_model((8, 8), n_coils=2, seed=8)
    support = random_support(rng, 64, s)
    state = build_full_crb(model, support, spec, t=0)
    tr = image_domain_crb_trace(state, support, spec, model.grid.dims)
    assert tr == pytest.approx(state.trace, rel=1e-8)


def test_coefficient_domain_embedding_trace(rng):
    # zero-filled Q x Q embedding U C U^H has the same trace as C
    spec = TransformSpec("daub4", 2)
    model = make_model((8, 8))
    support = random_support(rng, 64, 8)
    state = build_full_crb(model, support, spec, t=0)
    embed = np.zeros((64, 64), dtype=complex)
    ix = np.ix_(support.indices, support.indices)
    embed[ix] = state.inv_gram
    assert np.trace(embed).real == pytest.approx(state.trace, rel=1e-12)


def test_oracle_lsq_recovers_supported_truth(rng):
    model = make_model((8, 8))
    spec = TransformSpec("daub4", 1)
    support = random_support(rng, 64, 6)
    groups = range(0, model.candidates.L, 2)
    rows = crb.restricted_matrix(model, support, spec, 0, groups).reshape(-1, support.S)
    truth = np.zeros(64, dtype=complex)
    truth[support.indices] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    data = rows @ truth[support.indices]
    est = oracle_lsq_estimate(data, rows, support)
    assert np.linalg.norm(est - truth) <= 1e-10 * np.linalg.norm(truth)


def test_oracle_lsq_scalar_case(rng):
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    support = SupportSet(indices=np.array([3]), q=10)
    d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    est = oracle_lsq_estimate(d, a[:, None], support)
    expected = np.vdot(a, d) / np.vdot(a, a)
    assert est[3] == pytest.approx(expected)
    assert np.count_nonzero(est) == 1


def test_oracle_lsq_rank_deficiency():
    rows = np.ones((4, 2), dtype=complex)
    support = SupportSet(indices=np.array([0, 1]), q=4)
    with pytest.raises(InfeasibleDesignError):
        oracle_lsq_estimate(np.ones(4, dtype=complex), rows, support)


@pytest.mark.parametrize("ratio", [0.9e12, 1.1e12])
def test_oracle_lsq_follows_the_gram_rule(rng, ratio):
    # rows of full rank whose Gram has tr G / lambda_min = ratio: the
    # estimator raises exactly where the inverse state does
    u = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    lam = np.array([1.0, 2.0, 3.0 / (ratio - 1.0)])  # lambda_min = tr G / ratio
    rows = (u * np.sqrt(lam)) @ v.conj().T
    support = SupportSet(indices=np.array([0, 2, 5]), q=6)
    data = np.ones(8, dtype=complex)
    if ratio < crb.COND_LIMIT:
        crb.state_from_gram(crb.restricted_gram(rows[None]))
        assert np.isfinite(oracle_lsq_estimate(data, rows, support)).all()
        return
    with pytest.raises(InfeasibleDesignError):
        crb.state_from_gram(crb.restricted_gram(rows[None]))
    with pytest.raises(InfeasibleDesignError):
        oracle_lsq_estimate(data, rows, support)


def test_oracle_estimator_unbiased_and_efficient(rng):
    # Monte-Carlo: empirical covariance vs inv_gram within 5 SE (reduced draws)
    rows = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    gram = rows.conj().T @ rows
    cov = np.linalg.inv(gram)
    truth = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    n = 20_000
    noise = (rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))) / np.sqrt(2)
    data = rows @ truth[:, None] + noise
    support = SupportSet(indices=np.array([1, 4, 6]), q=8)
    est = oracle_lsq_estimate(data, rows, support)[support.indices]
    for j in (0, n - 1):  # each column is the estimate from that draw alone
        alone = oracle_lsq_estimate(data[:, j], rows, support)[support.indices]
        np.testing.assert_allclose(est[:, j], alone, rtol=1e-12)
    err = est - truth[:, None]
    emp = (err @ err.conj().T) / n
    diag = np.diag(cov).real
    se = np.sqrt(np.outer(diag, diag) / n)
    assert np.max(np.abs(emp - cov) / se) < 5.0
    mean_dev = np.abs(est.mean(axis=1) - truth)
    mean_se = np.sqrt(diag / n)
    assert np.all(mean_dev < 5 * mean_se)
