"""Domains, tensor grids and boundary quadrature nodes.

Supported domains are the interval (0, L) and the axis-aligned rectangle
(0, L1) x (0, L2). Points are ndarrays of shape (..., dim) throughout.
boundary_nodes(grid) is the one rule for the nodes a flux is read at: the
ends of the interval, or n/2 midpoints per side of the rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, InputError
from .numerics import trapezoid_weights

MIN_CELLS = 8


class DomainKind(Enum):
    INTERVAL = "interval"
    RECTANGLE = "rectangle"


@dataclass(frozen=True)
class DomainSpec:
    """A product domain described by its kind and per-axis lengths."""

    kind: DomainKind
    lengths: tuple[float, ...]

    def __post_init__(self):
        expected = 1 if self.kind is DomainKind.INTERVAL else 2
        if len(self.lengths) != expected:
            raise ConfigurationError(
                f"{self.kind.value} domain needs {expected} length(s), "
                f"got {self.lengths}")
        if any(L <= 0 for L in self.lengths):
            raise ConfigurationError(f"domain lengths must be positive: {self.lengths}")

    @property
    def dim(self) -> int:
        return len(self.lengths)


def interval(length: float = 1.0) -> DomainSpec:
    return DomainSpec(DomainKind.INTERVAL, (float(length),))


def rectangle(lx: float = 1.0, ly: float = 1.0) -> DomainSpec:
    return DomainSpec(DomainKind.RECTANGLE, (float(lx), float(ly)))


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Uniform tensor grid on a domain, boundary nodes included.

    axes[d] holds the n[d] + 1 node coordinates along axis d and weights
    is the tensor-product trapezoid quadrature weight array over the
    full grid (shape == field shape).

    The grid owns the boundary layout: side s of `boundary_nodes` lies on
    axis s // 2, at the first node of that axis for even s and at the
    last for odd s (`face`).
    """

    domain: DomainSpec
    n: tuple[int, ...]
    axes: tuple[np.ndarray, ...] = field(repr=False)
    h: tuple[float, ...]
    weights: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax) for ax in self.axes)

    @property
    def points(self) -> np.ndarray:
        """Node coordinates, shape (*shape, dim)."""
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)

    def face(self, side: int) -> tuple:
        """Index of boundary side `side` in a (time, *shape) array."""
        idx = [slice(None)] * (1 + self.domain.dim)
        idx[1 + side // 2] = -(side % 2)
        return tuple(idx)

    def indices(self, points: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-axis node indices of grid-aligned points (N, dim); InputError
        naming the first coordinate that lies off its axis."""
        out = []
        for axis, coords in zip(self.axes, np.asarray(points, dtype=float).T):
            i = np.rint(np.nan_to_num((coords - axis[0]) / (axis[1] - axis[0])))
            i = np.clip(i, 0, len(axis) - 1).astype(np.intp)
            off = ~(np.abs(axis[i] - coords) <= 1e-9 * np.maximum(1.0, np.abs(coords)))
            if off.any():
                raise InputError(f"boundary node at {coords[np.argmax(off)]:g} "
                                 "is not aligned with the grid")
            out.append(i)
        return tuple(out)


def build_grid(domain: DomainSpec, n) -> SpatialGrid:
    """Uniform tensor grid with at least MIN_CELLS cells per axis and a
    spacing h whose square is finite and nonzero on every axis."""
    ns = (int(n),) * domain.dim if np.isscalar(n) else tuple(int(v) for v in n)
    if len(ns) != domain.dim:
        raise ConfigurationError(f"expected {domain.dim} cell counts, got {ns}")
    if any(v < MIN_CELLS for v in ns):
        raise ConfigurationError(
            f"grid too coarse: need >= {MIN_CELLS} cells per axis, got {ns}")
    hs = tuple(L / v for L, v in zip(domain.lengths, ns))
    for d, h in enumerate(hs):
        if not 0.0 < h * h < np.inf:
            raise ConfigurationError(f"grid spacing {h:g} on axis {d} cannot be "
                                     f"represented squared (h*h = {h * h:g})")
    axes = tuple(np.linspace(0.0, L, v + 1) for L, v in zip(domain.lengths, ns))
    w1 = [trapezoid_weights(v, L) for v, L in zip(ns, domain.lengths)]
    weights = w1[0] if domain.dim == 1 else np.multiply.outer(w1[0], w1[1])
    return SpatialGrid(domain=domain, n=ns, axes=axes, h=hs, weights=weights)


@dataclass(frozen=True, eq=False)
class BoundaryNodeSet:
    """Quadrature nodes on the boundary, each on one side of the domain.

    For the interval these are the two endpoints with unit weight (the
    boundary integral is a two-point sum). For the rectangle each side
    carries m cell-midpoint nodes of weight side_length / m; corners are
    excluded. Side s lies on axis s // 2 (see SpatialGrid) and its
    outward normal points down that axis for even s and up for odd s.
    """

    nodes: np.ndarray = field(repr=False)    # (nb, dim)
    weights: np.ndarray = field(repr=False)  # (nb,)
    side: np.ndarray = field(repr=False)     # (nb,) side index, interval: 0 / 1

    @property
    def count(self) -> int:
        return len(self.weights)


def boundary_nodes(grid: SpatialGrid) -> BoundaryNodeSet:
    """The grid's boundary quadrature nodes; on the rectangle m = n/2 per
    side (>= 4 by MIN_CELLS), which needs n even and equal on both axes."""
    domain = grid.domain
    if domain.kind is DomainKind.INTERVAL:
        L = domain.lengths[0]
        return BoundaryNodeSet(np.array([[0.0], [L]]), np.array([1.0, 1.0]), np.array([0, 1]))
    if grid.n[0] % 2 or grid.n[1] % 2 or grid.n[0] != grid.n[1]:
        raise ConfigurationError(
            f"rectangle traces need an even, equal cell count per axis, got {grid.n}")
    m = grid.n[0] // 2
    if m < MIN_CELLS // 2:
        raise ConfigurationError(
            f"rectangle traces need >= {MIN_CELLS // 2} nodes per side, got {m}")
    lx, ly = domain.lengths
    mids_x = (np.arange(m) + 0.5) * (lx / m)
    mids_y = (np.arange(m) + 0.5) * (ly / m)
    # side order: x=0, x=lx, y=0, y=ly
    chunks = [np.column_stack([np.zeros(m), mids_y]), np.column_stack([np.full(m, lx), mids_y]),
              np.column_stack([mids_x, np.zeros(m)]), np.column_stack([mids_x, np.full(m, ly)])]
    weights = np.repeat([ly / m, ly / m, lx / m, lx / m], m)
    return BoundaryNodeSet(np.vstack(chunks), weights, np.repeat(np.arange(4), m))
