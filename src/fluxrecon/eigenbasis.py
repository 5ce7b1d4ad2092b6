"""Closed-form Neumann Laplacian eigenvalues and modes on intervals and rectangles.

Interval (0, L): lambda_m = (m pi / L)^2 with mode index m >= 0 and

    omega_0 = sqrt(1/L),    omega_m = sqrt(2/L) cos(m pi x / L).

Rectangle modes are tensor products of the per-axis modes. The
global ordering is by ascending eigenvalue with lexicographic per-axis
mode indices breaking ties, so bases of different sizes agree on their
common prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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

    def sample_on_grid(self, grid: SpatialGrid) -> np.ndarray:
        """Evaluate all modes on the tensor grid; returns (K, *grid.shape)."""
        return self.values_at(grid.points)

    def quadrature_modes(self, grid: SpatialGrid) -> np.ndarray:
        """The modes times the quadrature weights, flattened over the
        grid; (K, grid size). A field flattened the same way, times its
        transpose, gives the projection."""
        return (self.sample_on_grid(grid) * grid.weights).reshape(self.size, -1)

    def project(self, grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
        """Quadrature inner products (values, omega_k); values may carry
        leading axes, modes are returned on the last axis."""
        v = np.asarray(values, dtype=float)
        lead = v.shape[:v.ndim - grid.weights.ndim]
        return v.reshape(lead + (-1,)) @ self.quadrature_modes(grid).T


def _candidate_modes(domain: DomainSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `count` eigenvalues and modes, from the box [0, count - 1]
    of indices per axis: its modes (0..count-1, 0) alone are count, and an
    index >= count on any axis has a larger eigenvalue than all of them."""
    axes = np.meshgrid(*[np.arange(count)] * domain.dim, indexing="ij")
    modes = np.column_stack([m.ravel() for m in axes])
    lams = sum((modes[:, d] * np.pi / L) ** 2 for d, L in enumerate(domain.lengths))
    order = np.lexsort((*modes.T[::-1], lams))
    return lams[order[:count]], modes[order[:count]]


@lru_cache(maxsize=64)
def make_basis(domain: DomainSpec, k: int) -> EigenBasis:
    """The first k eigenvalues and modes in ascending-eigenvalue order."""
    if k < 1:
        raise ConfigurationError(f"basis size must be >= 1, got {k}")
    lams, modes = _candidate_modes(domain, k)
    return EigenBasis(domain=domain, lambdas=np.asarray(lams, dtype=float),
                      modes=np.asarray(modes, dtype=int))


def verify_orthonormality(basis: EigenBasis, grid: SpatialGrid) -> float:
    """Max deviation of the quadrature Gram matrix from the identity."""
    samples = basis.sample_on_grid(grid).reshape(basis.size, -1)
    gram = (samples * grid.weights.ravel()) @ samples.T
    return float(np.max(np.abs(gram - np.eye(basis.size))))
