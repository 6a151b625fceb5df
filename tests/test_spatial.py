import numpy as np
import pytest
from numpy.testing import assert_allclose

from histris.spatial import (
    SymTridiagonal,
    assemble_dual,
    build_mesh,
    dual_norm,
    dual_pair,
    h1_inner,
    h1_norm,
    interpolate,
    l2_norm,
    riesz_apply,
    riesz_solve,
)
from histris.trajectory import quad_forms, row_norms, step_blocks


def test_two_node_matrices_frozen():
    # P1 elements on [0, 1] with a single element: h = 1.
    mesh = build_mesh(2)
    assert_allclose(mesh.mass, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)
    assert_allclose(mesh.stiffness, [[1, -1], [-1, 1]], atol=1e-15)
    assert_allclose(mesh.riesz, mesh.mass + mesh.stiffness, atol=1e-15)


def test_three_node_matrices_frozen():
    # Two elements, h = 1/2.
    mesh = build_mesh(3)
    assert_allclose(
        mesh.mass,
        [[1 / 6, 1 / 12, 0], [1 / 12, 1 / 3, 1 / 12], [0, 1 / 12, 1 / 6]],
        atol=1e-15,
    )
    assert_allclose(
        mesh.stiffness,
        [[2, -2, 0], [-2, 4, -2], [0, -2, 2]],
        atol=1e-15,
    )


def test_mass_row_sums_are_lumped_mass():
    mesh = build_mesh(7, length=2.0)
    assert_allclose(np.asarray(mesh.mass).sum(axis=1), mesh.lumped_mass, atol=1e-14)
    assert_allclose(mesh.lumped_mass.sum(), mesh.length, atol=1e-14)


def test_stiffness_annihilates_constants():
    mesh = build_mesh(9, length=3.0)
    assert_allclose(mesh.stiffness @ np.ones(9), 0.0, atol=1e-14)


def test_h1_norm_of_linear_function():
    # u(x) = x on [0, 1]: |u|_L2^2 = 1/3, |u'|_L2^2 = 1, total 4/3.
    mesh = build_mesh(21)
    u = mesh.nodes.copy()
    assert_allclose(h1_norm(mesh, u) ** 2, 4 / 3, rtol=1e-12)


def test_riesz_round_trip(rng):
    mesh = build_mesh(17)
    for _ in range(20):
        u = rng.standard_normal(17)
        assert_allclose(riesz_solve(mesh, riesz_apply(mesh, u)), u, atol=1e-12)


def test_dual_norm_matches_primal_norm_through_riesz(rng):
    mesh = build_mesh(11)
    for _ in range(20):
        u = rng.standard_normal(11)
        w = riesz_apply(mesh, u)
        assert_allclose(dual_norm(mesh, w), h1_norm(mesh, u), rtol=1e-12)
        assert_allclose(dual_pair(w, u), h1_inner(mesh, u, u), rtol=1e-12)


def test_interpolate_broadcasts_scalars():
    mesh = build_mesh(6)
    assert_allclose(interpolate(mesh, lambda x: 3.0), np.full(6, 3.0))
    assert_allclose(interpolate(mesh, lambda x: x ** 2), mesh.nodes ** 2)


def test_assemble_dual_is_mass_action(rng):
    mesh = build_mesh(8)
    density = rng.standard_normal(8)
    assert_allclose(assemble_dual(mesh, density), mesh.mass @ density)


def test_l2_norm_of_constant():
    mesh = build_mesh(15, length=2.0)
    assert_allclose(l2_norm(mesh, np.full(15, 3.0)), 3.0 * np.sqrt(2.0), rtol=1e-13)


# ---------------------------------------------------------------------------
# the band type against its dense matrix


def _random_band(rng, n):
    # Diagonally dominant, hence positive definite.
    off = rng.uniform(-1.0, 1.0, n - 1)
    return SymTridiagonal(2.5 + rng.uniform(0.0, 2.0, n), off)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 65])
def test_band_products_match_dense(rng, n):
    band = _random_band(rng, n)
    dense = np.asarray(band)
    assert dense.shape == band.shape == (n, n)
    assert_allclose(dense, dense.T, atol=0.0)
    for _ in range(5):
        x = rng.standard_normal(n)
        assert_allclose(band @ x, dense @ x, rtol=1e-14, atol=1e-14)
        s = rng.uniform(-3.0, 3.0)
        for scaled in (s * band, band * s, np.float64(s) * band):
            assert isinstance(scaled, SymTridiagonal)
            assert_allclose(np.asarray(scaled), s * dense, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 65])
def test_band_quad_forms_match_dense(rng, n):
    band = _random_band(rng, n)
    dense = np.asarray(band)
    rows = rng.standard_normal((7, n))
    want = np.einsum("ki,ij,kj->k", rows, dense, rows)
    assert_allclose(quad_forms(band, rows), want, rtol=1e-13, atol=1e-13)
    assert quad_forms(band, rows[:0]).shape == (0,)


def test_band_quad_forms_do_not_cancel_on_a_fine_riesz_band():
    # On a fine mesh the diagonal and off-diagonal sums of r' R r are each
    # O(n^2) times the result for a smooth r; summed apart they cancel to
    # about 3e-10 relative at n = 1025.  Row by row, the band product and
    # a dot product keep it at rounding: exactly the scalar form's bits.
    mesh = build_mesh(1025)
    x = mesh.nodes
    rows = np.array([1.0 + 0.6 * np.cos(3 * np.pi * x), x * x, np.sin(np.pi * x)])
    want = [r @ (mesh.riesz @ r) for r in rows]
    assert_allclose(quad_forms(mesh.riesz, rows), want, rtol=0.0, atol=0.0)


@pytest.mark.parametrize("n", [2, 9, 33, 257, 1025])
def test_scalar_and_batched_norms_agree_bit_for_bit(n):
    # h1_norm, l2_norm and dual_norm of each row have the bits of the
    # batched row of the same field, on a stack longer than one block and
    # on one row; the inverse band's rows are its single solves.
    mesh = build_mesh(n)
    rng = np.random.default_rng(n)
    k = len(step_blocks(10**6, n)[0]) + 3
    stack = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-8, 8, (k, 1))
    stack[1] = 0.0
    stack[2] = -0.0
    stack[3] = 1.0 + 0.6 * np.cos(3 * np.pi * mesh.nodes)
    inverse = mesh.riesz.inverse
    solves = np.array([inverse @ row for row in stack])
    assert inverse.apply_rows(stack).view(np.uint64).tolist() == solves.view(np.uint64).tolist()
    for form, norm in ((mesh.riesz, h1_norm), (mesh.mass, l2_norm), (inverse, dual_norm)):
        want = np.array([norm(mesh, row) for row in stack])
        for rows, expect in ((stack, want), (stack[3:4], want[3:4])):
            assert row_norms(form, rows).view(np.uint64).tolist() == expect.view(np.uint64).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 17, 65])
def test_band_solve_matches_dense(rng, n):
    band = _random_band(rng, n)
    dense = np.asarray(band)
    b = rng.standard_normal(n)
    assert_allclose(band.solve(b), np.linalg.solve(dense, b), rtol=1e-12, atol=1e-14)
    # the cached factor serves a second, matrix right-hand side
    rhs = rng.standard_normal((n, 3))
    assert_allclose(band.solve(rhs), np.linalg.solve(dense, rhs), rtol=1e-12,
                    atol=1e-14)


def _principal_reference(dense, free, rhs):
    idx = np.flatnonzero(free)
    return np.linalg.solve(dense[np.ix_(idx, idx)], rhs)


def test_band_principal_solve_matches_dense_blocks(rng):
    for _ in range(200):
        n = int(rng.integers(2, 30))
        band = _random_band(rng, n)
        dense = np.asarray(band)
        free = rng.random(n) < rng.uniform(0.1, 0.9)
        if not free.any():
            free[rng.integers(n)] = True
        rhs = rng.standard_normal(int(free.sum()))
        assert_allclose(band.solve_principal(np.flatnonzero(free), rhs),
                        _principal_reference(dense, free, rhs),
                        rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("free", [
    [False, True, False, False, False],      # one-node block
    [True, False, True, False, True],        # no two free nodes adjacent
    [True, True, False, True, True],         # two blocks split by a pin
    [True, True, True, True, True],          # everything free
])
def test_band_principal_solve_special_masks(rng, free):
    band = build_mesh(5).riesz * 0.3
    free = np.array(free)
    rhs = rng.standard_normal(int(free.sum()))
    assert_allclose(band.solve_principal(np.flatnonzero(free), rhs),
                    _principal_reference(np.asarray(band), free, rhs),
                    rtol=1e-12, atol=1e-14)


def test_two_node_mesh_band_algebra(rng):
    mesh = build_mesh(2)
    dense = np.asarray(mesh.riesz)
    u = rng.standard_normal(2)
    assert_allclose(riesz_apply(mesh, u), dense @ u, rtol=1e-15)
    assert_allclose(riesz_solve(mesh, u), np.linalg.solve(dense, u), rtol=1e-13)
    for free in ([True, False], [False, True], [True, True]):
        free = np.array(free)
        rhs = rng.standard_normal(int(free.sum()))
        assert_allclose(mesh.riesz.solve_principal(np.flatnonzero(free), rhs),
                        _principal_reference(dense, free, rhs), rtol=1e-13)


def test_riesz_inverse_is_the_dense_inverse(rng):
    # The inverse operator against the dense inverse, including a
    # two-node mesh with h = 3 > sqrt(6), where the Riesz matrix has a
    # positive off-diagonal entry and its inverse a negative one.
    meshes = [build_mesh(n) for n in (2, 3, 4, 5, 9, 17, 33, 65)]
    meshes += [build_mesh(2, length=3.0), build_mesh(9, length=2.0)]
    for mesh in meshes:
        n = mesh.n_nodes
        dense = np.linalg.inv(np.asarray(mesh.riesz))
        inv = mesh.riesz.inverse
        assert inv is mesh.riesz.inverse  # built once per band
        for _ in range(3):
            x = rng.standard_normal(n)
            want = dense @ x
            assert np.abs(inv @ x - want).max() <= 1e-12 * np.abs(want).max()
        rows = rng.standard_normal((5, n))
        want = np.einsum("ki,ij,kj->k", rows, dense, rows)
        assert_allclose(quad_forms(inv, rows), want, rtol=1e-12, atol=0.0)
        assert quad_forms(inv, rows[:0]).shape == (0,)

        masks = [np.ones(n, dtype=bool)]                     # nothing pinned
        masks += [np.arange(n) == k for k in (0, n - 1, n // 2)]  # one free node
        masks += [np.arange(n) != k for k in (0, n - 1, n // 2)]  # one pinned node
        for _ in range(10):
            free = rng.random(n) < rng.uniform(0.1, 0.9)
            free[rng.integers(n)] = True
            masks.append(free)
        for free in masks:
            idx = np.flatnonzero(free)
            rhs = rng.standard_normal(idx.size)
            want = np.linalg.solve(dense[np.ix_(idx, idx)], rhs)
            got = inv.solve_principal(idx, rhs)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("n", [2, 17, 129])
@pytest.mark.parametrize("which", ["mass", "riesz", "2.5 riesz"])
def test_apply_rows_keeps_the_bits_of_each_row(n, which):
    # Every row of apply_rows equals band @ row bit for bit, sign bits
    # included: on finite stacks, on stacks with an inf or a NaN in one
    # row (no 0 * inf reaches its neighbours), on 1-D input, and on calls
    # after a larger and after a smaller row count than the one before,
    # and on empty stacks.
    mesh = build_mesh(n)
    band = 2.5 * mesh.riesz if which == "2.5 riesz" else getattr(mesh, which)
    rng = np.random.default_rng(n)

    def check(rows):
        got = band.apply_rows(rows)
        want = np.array([band @ row for row in rows.reshape(-1, n)]).reshape(rows.shape)
        assert got.shape == rows.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        return got.reshape(-1, n)

    for m in (9, 40, 3, 40, 57, 1):
        rows = rng.uniform(-3.0, 3.0, (m, n))
        rows[0] = -0.0
        rows[-1, [0, -1]] = -0.0
        assert np.isfinite(check(rows)).all()
    for bad in (np.inf, -np.inf, np.nan):
        rows = rng.uniform(-3.0, 3.0, (2, 5, n))
        rows[1, 2, [0, n // 2, -1]] = bad  # both row ends face a neighbour
        got = check(rows)
        assert np.isfinite(np.delete(got, 7, axis=0)).all()
    assert np.isfinite(check(rng.uniform(-3.0, 3.0, n))).all()
    assert np.isfinite(check(rng.uniform(-3.0, 3.0, (1, n)))).all()
    for empty in ((0, n), (2, 0, n)):  # empty stacks
        assert check(np.zeros(empty)).size == 0
    with pytest.raises(ValueError):
        band.apply_rows(np.ones((3, n + 1)))


def test_band_refuses_silent_densification():
    band = build_mesh(4).riesz
    with pytest.raises(TypeError):
        np.ones((4, 4)) @ band
    with pytest.raises(TypeError):
        np.ones(4) * band
    with pytest.raises(ValueError):
        band @ np.ones((4, 2))


@pytest.mark.parametrize("bad", [1, 0, -3, 2.5, True])
def test_build_mesh_rejects_bad_node_counts(bad):
    with pytest.raises((ValueError, TypeError)):
        build_mesh(bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_build_mesh_rejects_bad_lengths(bad):
    with pytest.raises(ValueError):
        build_mesh(5, length=bad)
