"""Containers for time-dependent fields and boundary traces. Both hold
their final time and sample the uniform axis t_j = j * final_time / nt,
j = 0..nt, the one time axis of the package."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import BoundaryNodeSet, SpatialGrid


class _UniformTime:
    """values[j] is the sample at t_j = j * dt, dt = final_time / nt."""

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.final_time, len(self.values))

    @property
    def dt(self) -> float:
        return self.final_time / (len(self.values) - 1)


@dataclass(frozen=True, eq=False)
class SolutionField(_UniformTime):
    """A space-time field sampled on a grid: values[j] is the state at t_j."""

    grid: SpatialGrid
    final_time: float
    values: np.ndarray = field(repr=False)  # (nt+1, *grid.shape)

    def __post_init__(self):
        if self.values.shape[1:] != self.grid.shape:
            raise InputError(f"field shape {self.values.shape} does not fit grid {self.grid.shape}")


@dataclass(frozen=True, eq=False)
class BoundaryTrace(_UniformTime):
    """Time series of a scalar quantity at boundary quadrature nodes."""

    nodes: BoundaryNodeSet
    final_time: float
    values: np.ndarray = field(repr=False)  # (nt+1, nb)

    def __post_init__(self):
        if self.values.shape[1:] != (self.nodes.count,):
            raise InputError(f"trace shape {self.values.shape} does not fit "
                             f"{self.nodes.count} nodes")
