"""Containers for time-dependent fields and boundary traces."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import BoundaryNodeSet, SpatialGrid


@dataclass(frozen=True, eq=False)
class SolutionField:
    """A space-time field sampled on a grid: values[j] is the state at times[j]."""

    grid: SpatialGrid
    times: np.ndarray = field(repr=False)   # (nt+1,)
    values: np.ndarray = field(repr=False)  # (nt+1, *grid.shape)

    def __post_init__(self):
        expected = (len(self.times),) + self.grid.shape
        if self.values.shape != expected:
            raise InputError(
                f"field shape {self.values.shape} does not match {expected}")


@dataclass(frozen=True, eq=False)
class BoundaryTrace:
    """Time series of a scalar quantity at boundary quadrature nodes."""

    nodes: BoundaryNodeSet
    times: np.ndarray = field(repr=False)   # (nt+1,)
    values: np.ndarray = field(repr=False)  # (nt+1, nb)

    def __post_init__(self):
        expected = (len(self.times), self.nodes.count)
        if self.values.shape != expected:
            raise InputError(
                f"trace shape {self.values.shape} does not match {expected}")

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def subsample_time(self, stride: int) -> "BoundaryTrace":
        if (len(self.times) - 1) % stride != 0:
            raise InputError(f"stride {stride} does not divide {len(self.times) - 1} steps")
        return BoundaryTrace(nodes=self.nodes, times=self.times[::stride],
                             values=self.values[::stride])
