"""Closed-form Neumann Laplacian eigenvalues and modes on intervals and rectangles.

Interval (0, L): lambda_m = (m pi / L)^2 with mode index m >= 0 and

    omega_0 = sqrt(1/L),    omega_m = sqrt(2/L) cos(m pi x / L).

Rectangle modes are tensor products of the per-axis modes. The
global ordering is by ascending eigenvalue with lexicographic per-axis
mode indices breaking ties, so bases of different sizes agree on their
common prefix. modes_below lists every mode below a rate in that order:
make_basis takes its first k, and the data functional's far part all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .geometry import DomainSpec, SpatialGrid


def axis_modes(xs: np.ndarray, count: int, L: float) -> np.ndarray:
    """The interval modes omega_0 .. omega_{count-1} of (0, L) at the points
    xs; row m is omega_m, shape (count, *xs.shape)."""
    xs = np.asarray(xs, dtype=float)
    table = np.sqrt(2.0 / L) * np.cos(np.multiply.outer(np.arange(count) * np.pi, xs) / L)
    table[0] = np.sqrt(1.0 / L)
    return table


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """The first K Neumann eigenvalues and modes on a product domain."""

    domain: DomainSpec
    lambdas: np.ndarray = field(repr=False)  # (K,), ascending, lambdas[0] == 0
    modes: np.ndarray = field(repr=False)    # (K, dim) per-axis mode indices

    @property
    def size(self) -> int:
        return len(self.lambdas)

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate all modes at points of shape (..., dim); returns (K, ...)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1 and self.domain.dim == 1:
            pts = pts[:, None]
        out = np.ones((self.size,) + pts.shape[:-1])
        for d, L in enumerate(self.domain.lengths):
            count = int(np.max(self.modes[:, d])) + 1
            out *= axis_modes(pts[..., d], count, L)[self.modes[:, d]]
        return out

    def quadrature_modes(self, grid: SpatialGrid) -> np.ndarray:
        """The modes times the quadrature weights, flattened over the
        grid; (K, grid size). A field flattened the same way, times its
        transpose, gives the projection."""
        return (self.values_at(grid.points) * grid.weights).reshape(self.size, -1)

    def project(self, grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
        """Quadrature inner products (values, omega_k); values may carry
        leading axes, modes are returned on the last axis."""
        v = np.asarray(values, dtype=float)
        lead = v.shape[:v.ndim - grid.weights.ndim]
        return v.reshape(lead + (-1,)) @ self.quadrature_modes(grid).T


def modes_below(domain: DomainSpec, rate: float) -> EigenBasis:
    """Every mode with eigenvalue strictly below rate, in the basis order."""
    lam, idx = np.zeros(1), np.zeros((1, 0), dtype=int)
    for L in domain.lengths:
        m = np.arange(int(L * math.sqrt(rate) / math.pi) + 1)
        lam = (lam[:, None] + (m * np.pi / L) ** 2).ravel()
        idx = np.column_stack([np.repeat(idx, len(m), axis=0), np.tile(m, len(idx))])
        keep = lam < rate
        lam, idx = lam[keep], idx[keep]
    # idx is lexicographic, so a stable sort keeps that order among ties
    order = np.argsort(lam, kind="stable")
    return EigenBasis(domain=domain, lambdas=lam[order], modes=idx[order])


def make_basis(domain: DomainSpec, k: int) -> EigenBasis:
    """The first k eigenvalues and modes in ascending-eigenvalue order:
    the first k of modes_below ((k - 1/2) pi / L)^2, L the longest side,
    below which lie at least k modes (0..k-1 along that side)."""
    if k < 1:
        raise ConfigurationError(f"basis size must be >= 1, got {k}")
    below = modes_below(domain, ((k - 0.5) * math.pi / max(domain.lengths)) ** 2)
    return EigenBasis(domain=domain, lambdas=below.lambdas[:k], modes=below.modes[:k])


def verify_orthonormality(basis: EigenBasis, grid: SpatialGrid) -> float:
    """Max deviation of the quadrature Gram matrix from the identity."""
    samples = basis.values_at(grid.points).reshape(basis.size, -1)
    gram = (samples * grid.weights.ravel()) @ samples.T
    return float(np.max(np.abs(gram - np.eye(basis.size))))
