"""Piecewise-linear finite element layer on a uniform 1D interval.

The solver state lives in H^1(0, L), discretized with hat functions on a
uniform grid.  Two representations coexist and must not be mixed:

* a *field* is the nodal coefficient vector of an H^1 function,
* a *dual field* is an assembled functional (load vector); pairing a
  dual field with a field is the plain dot product of the two vectors.

The Riesz map between the representations is the H^1 Gram matrix
(mass plus stiffness).  On a uniform P1 grid the mass, stiffness and
Riesz matrices are symmetric tridiagonal, so a mesh stores them as
bands (:class:`SymTridiagonal`): products cost O(n) through banded BLAS
and Riesz solves reuse a cached LAPACK tridiagonal (L D L') factor.
The inverse of a band is an operator too (:class:`InverseBand`), so no
module stores a dense matrix: every Hessian of the box and l1 QPs
answers the two requests of the QP protocol, ``@`` and
``solve_principal(idx, rhs)``, in O(n).  ``SymTridiagonal.stack``
places scaled copies of a band end to end with zero couplings, the
block band on which a stacked QP solves several members at once.
``SymTridiagonal.apply_rows`` (one ``dsbmv``) and ``InverseBand.apply_rows``
(one ``dpttrs``) are the stacked products, each row with the bits of ``@``
on it alone, from which :func:`histris.trajectory.quad_forms` forms every
batched quadratic form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dptsv, dpttrf, dpttrs

__all__ = [
    "SymTridiagonal",
    "Field",
    "DualField",
    "Mesh",
    "build_mesh",
    "h1_inner",
    "h1_norm",
    "l2_norm",
    "riesz_apply",
    "riesz_solve",
    "dual_pair",
    "dual_norm",
    "interpolate",
    "assemble_dual",
]

# Nodal coefficients of an H^1 function.
Field = np.ndarray
# Assembled functional; entry i is the action on hat function i.
DualField = np.ndarray


class SymTridiagonal:
    """Symmetric tridiagonal matrix stored as its diagonal and off-diagonal.

    ``@`` applies it to a vector, a scalar ``*`` scales both bands, and
    ``+`` adds two of them; each returns a band or a vector, never a
    dense matrix.  ``np.asarray`` gives the dense matrix, for tests and
    reference computations.  numpy operators defer to this class, so a
    band is never densified by accident.  Bands are not modified in
    place: ``solve`` caches a factorization of them, ``inverse`` the
    operator built on it, and ``apply_rows`` the copies it stacks.
    """

    __array_ufunc__ = None

    def __init__(self, diag, off):
        diag = np.asarray(diag, dtype=float)
        off = np.asarray(off, dtype=float)
        if diag.ndim != 1 or diag.size == 0 or off.shape != (diag.size - 1,):
            raise ValueError(
                f"bands of shapes {diag.shape} and {off.shape} do not form "
                "a tridiagonal matrix"
            )
        # Upper band storage, the layout dsbmv reads by default: row 0
        # holds the superdiagonal (its first entry is not referenced),
        # row 1 the diagonal.
        self._bands = np.zeros((2, diag.size), order="F")
        self._bands[0, 1:] = off
        self._bands[1] = diag
        self._factor = self._copies = None

    @classmethod
    def _of_bands(cls, bands: np.ndarray) -> "SymTridiagonal":
        band = cls.__new__(cls)
        band._bands, band._factor, band._copies = bands, None, None
        return band

    @property
    def diag(self) -> np.ndarray:
        return self._bands[1]

    @property
    def off(self) -> np.ndarray:
        return self._bands[0, 1:]

    @property
    def shape(self) -> tuple[int, int]:
        n = self._bands.shape[1]
        return (n, n)

    def __array__(self, dtype=None, copy=None):
        dense = np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != self._bands.shape[1:]:
            raise ValueError(f"cannot apply a {self.shape} band to shape {x.shape}")
        return dsbmv(1, 1.0, self._bands, x)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return SymTridiagonal._of_bands(scalar * self._bands)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, SymTridiagonal):
            return NotImplemented
        return SymTridiagonal._of_bands(self._bands + other._bands)

    def stack(self, scales) -> "SymTridiagonal":
        """The block-diagonal band of the blocks ``scales[b] * self``,
        placed end to end with zero couplings between blocks."""
        scales = np.repeat(np.asarray(scales, dtype=float), self.shape[0])
        copies = np.tile(self._bands, scales.size // self.shape[0])
        return SymTridiagonal._of_bands(np.asfortranarray(scales * copies))

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """``A r`` for each row ``r`` (the last axis; a 1-D array is one row),
        with the bits of ``A @ r``: one product on a slice of a cached stack
        of copies of the band with zero couplings, grown to the most rows
        asked so far.  A zero coupling carries ``0 * inf = nan`` into the
        next row, so rows with a non-finite entry take one product a row."""
        rows = np.asarray(rows, dtype=float)
        flat = rows.reshape(-1, rows.shape[-1])
        if len(flat) > 1 and not np.isfinite(flat).all():
            return np.array([self @ row for row in flat]).reshape(rows.shape)
        if flat.shape[1] != self.shape[0]:
            raise ValueError(f"cannot apply a {self.shape} band to rows {rows.shape}")
        if not flat.size:
            return np.zeros(rows.shape)
        if self._copies is None or self._copies.shape[1] < flat.size:
            self._copies = np.asfortranarray(np.tile(self._bands, len(flat)))
        out = dsbmv(1, 1.0, self._copies[:, :flat.size], flat.ravel())
        return out.reshape(rows.shape)

    def section(self, start: int, stop: int) -> "SymTridiagonal":
        """The principal band on the nodes ``start..stop-1``; a block of
        a :meth:`stack`."""
        bands = self._bands[:, start:stop].copy(order="F")
        bands[0, 0] = 0.0
        return SymTridiagonal._of_bands(bands)

    def solve(self, b):
        """Solve ``A x = b`` (``b`` of shape (n,) or (n, k)); A must be
        positive definite.  The factorization is computed once."""
        b = np.asarray(b, dtype=float)
        if self.shape[0] == 1:
            return b / self.diag[0]
        if self._factor is None:
            d, e, info = dpttrf(self.diag, self.off)
            if info != 0:
                raise LinAlgError("band matrix is not positive definite")
            self._factor = (d, e)
        x, info = dpttrs(*self._factor, b)
        if info != 0:
            raise LinAlgError(f"dpttrs failed with info={info}")
        return x

    def solve_principal(self, idx: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve with the principal sub-block on the sorted node indices
        ``idx``; ``rhs`` has one entry per index.

        The sub-block is tridiagonal again: nodes that are not
        neighbours in the full matrix are uncoupled.
        """
        diag = self.diag[idx]
        if idx.size == 1:
            return np.asarray(rhs, dtype=float) / diag
        off = np.where(idx[1:] - idx[:-1] == 1, self.off[idx[:-1]], 0.0)
        *_, x, info = dptsv(diag, off, rhs, overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise LinAlgError("free block is not positive definite")
        return x

    @cached_property
    def inverse(self) -> "InverseBand":
        """The inverse matrix as an operator; built once per band, on a band
        object of its own: a reference back to this one would form a cycle,
        which keeps :meth:`apply_rows`' copies until a garbage collection."""
        return InverseBand(SymTridiagonal._of_bands(self._bands))


class InverseBand:
    """Inverse ``A^-1`` of a positive definite :class:`SymTridiagonal`.

    It stores no dense matrix.  ``@`` and ``apply_rows`` (a stack of
    rows) solve with the band's cached factor.  A principal block of the
    inverse is solved through its Schur complement,
    ``((A^-1)_ff)^-1 = A_ff - A_fp A_pp^-1 A_pf``: two band products and
    one band solve on the complementary nodes p.
    """

    def __init__(self, band: SymTridiagonal):
        self.band = band

    def __matmul__(self, x):
        return self.band.solve(x)

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """``A^-1 r`` for each row ``r`` of a (k, n) array (or one row), with
        the bits of ``self @ r``: one band solve, a right-hand side a row."""
        return self.band.solve(np.asarray(rows, dtype=float).T).T

    def solve_principal(self, idx: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(A^-1)_ff z = rhs`` on the sorted node indices ``idx``."""
        band = self.band
        u = np.zeros(band.shape[0])
        u[idx] = rhs
        v = band @ u  # A_ff rhs on idx, A_pf rhs on the pinned nodes
        pinned = np.ones(u.size, dtype=bool)
        pinned[idx] = False
        if not pinned.any():
            return v[idx]
        pidx = np.flatnonzero(pinned)
        w = np.zeros(u.size)
        w[pidx] = band.solve_principal(pidx, v[pidx])
        return v[idx] - (band @ w)[idx]


@dataclass(eq=False)
class Mesh:
    """Uniform P1 discretization of the interval [0, length]."""

    n_nodes: int
    length: float
    nodes: np.ndarray
    mass: SymTridiagonal
    stiffness: SymTridiagonal
    riesz: SymTridiagonal
    lumped_mass: np.ndarray


def build_mesh(n_nodes: int, length: float = 1.0) -> Mesh:
    """Assemble the mass, stiffness and Riesz bands for a uniform grid.

    Parameters
    ----------
    n_nodes : int
        Number of grid nodes, at least 2.
    length : float
        Length of the interval, positive.
    """
    if not isinstance(n_nodes, (int, np.integer)) or isinstance(n_nodes, bool):
        raise ValueError(f"n_nodes must be an integer, got {n_nodes!r}")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be at least 2, got {n_nodes}")
    if not (np.isfinite(length) and length > 0):
        raise ValueError(f"length must be a positive finite number, got {length!r}")

    n = int(n_nodes)
    length = float(length)
    h = length / (n - 1)
    nodes = np.linspace(0.0, length, n)

    d_mass = np.full(n, 2.0 * h / 3.0)
    d_mass[[0, -1]] = h / 3.0
    o_mass = np.full(n - 1, h / 6.0)
    mass = SymTridiagonal(d_mass, o_mass)

    d_stiff = np.full(n, 2.0 / h)
    d_stiff[[0, -1]] = 1.0 / h
    stiffness = SymTridiagonal(d_stiff, np.full(n - 1, -1.0 / h))

    lumped_mass = d_mass.copy()
    lumped_mass[:-1] += o_mass
    lumped_mass[1:] += o_mass
    return Mesh(
        n_nodes=n,
        length=length,
        nodes=nodes,
        mass=mass,
        stiffness=stiffness,
        riesz=mass + stiffness,
        lumped_mass=lumped_mass,
    )


def h1_inner(mesh: Mesh, u: Field, v: Field) -> float:
    """H^1 inner product of two fields."""
    return float(u @ (mesh.riesz @ v))


def h1_norm(mesh: Mesh, u: Field) -> float:
    return math.sqrt(max(h1_inner(mesh, u, u), 0.0))


def l2_norm(mesh: Mesh, u: Field) -> float:
    """L^2 norm of a field (consistent mass matrix)."""
    return math.sqrt(max(float(u @ (mesh.mass @ u)), 0.0))


def riesz_apply(mesh: Mesh, u: Field) -> DualField:
    """Map a field to the dual field representing its H^1 inner product."""
    return mesh.riesz @ u


def riesz_solve(mesh: Mesh, w: DualField) -> Field:
    """Inverse Riesz map: recover the field representing a dual field."""
    return mesh.riesz.solve(w)


def dual_pair(w: DualField, v: Field) -> float:
    """Duality pairing of an assembled functional with a field."""
    return float(np.dot(w, v))


def dual_norm(mesh: Mesh, w: DualField) -> float:
    """Dual H^1 norm of an assembled functional."""
    return math.sqrt(max(dual_pair(w, riesz_solve(mesh, w)), 0.0))


def interpolate(mesh: Mesh, fn: Callable[[np.ndarray], np.ndarray]) -> Field:
    """Nodal interpolation of a function of the space variable."""
    vals = np.asarray(fn(mesh.nodes), dtype=float)
    return np.broadcast_to(vals, (mesh.n_nodes,)).copy()


def assemble_dual(mesh: Mesh, density: Field) -> DualField:
    """Assemble the load vector of an L^2 density given by nodal values."""
    return mesh.mass @ np.asarray(density, dtype=float)
