import re
from dataclasses import replace

import numpy as np
import pytest

from fluxrecon.errors import ConfigurationError, InputError
from fluxrecon.geometry import (MIN_CELLS, DomainKind, DomainSpec, boundary_nodes,
                                build_grid, interval, rectangle)


class TestDomainSpec:
    def test_factories(self):
        dom = interval(2.0)
        assert dom.kind is DomainKind.INTERVAL
        assert dom.lengths == (2.0,) and dom.dim == 1
        rect = rectangle(1.0, 3.0)
        assert rect.dim == 2 and rect.lengths == (1.0, 3.0)

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ConfigurationError):
            interval(0.0)
        with pytest.raises(ConfigurationError):
            rectangle(1.0, -2.0)

    def test_rejects_wrong_length_count(self):
        with pytest.raises(ConfigurationError):
            DomainSpec(DomainKind.INTERVAL, (1.0, 2.0))
        with pytest.raises(ConfigurationError):
            DomainSpec(DomainKind.RECTANGLE, (1.0,))


class TestGrids:
    def test_interval_layout(self):
        grid = build_grid(interval(1.0), 8)
        assert np.allclose(grid.axes[0], np.arange(9) / 8)
        assert grid.h == (0.125,) and grid.shape == (9,)
        assert grid.points.shape == (9, 1)
        assert np.array_equal(grid.points[:, 0], grid.axes[0])

    def test_weights_integrate_linear_exactly(self):
        grid = build_grid(interval(2.0), 10)
        assert np.isclose(np.sum(grid.weights * grid.axes[0]), 2.0, rtol=0, atol=1e-14)

    def test_rectangle_layout(self):
        grid = build_grid(rectangle(1.0, 2.0), (8, 16))
        assert grid.shape == (9, 17)
        assert grid.h == (0.125, 0.125)
        X, Y = np.meshgrid(*grid.axes, indexing="ij")
        assert np.array_equal(grid.points, np.stack([X, Y], axis=-1))
        # bilinear fields integrate exactly under tensor trapezoid
        assert np.isclose(np.sum(grid.weights * X * Y), 0.5 * 2.0, rtol=0, atol=1e-13)

    def test_make_grid_minimum(self):
        with pytest.raises(ConfigurationError):
            build_grid(interval(), 1)
        with pytest.raises(ConfigurationError, match="expected 2 cell counts"):
            build_grid(rectangle(), (8,))

    def test_build_grid_enforces_min_cells(self):
        with pytest.raises(ConfigurationError):
            build_grid(interval(), MIN_CELLS - 1)
        grid = build_grid(interval(), MIN_CELLS)
        assert grid.n == (MIN_CELLS,)

    @pytest.mark.parametrize("lengths, axis", [((1e-300,), 0), ((1e300,), 0),
                                               ((1.0, 1e-300), 1), ((1e300, 1.0), 0)])
    def test_build_grid_rejects_spacing_that_cannot_be_squared(self, lengths, axis):
        kind = DomainKind.INTERVAL if len(lengths) == 1 else DomainKind.RECTANGLE
        with pytest.raises(ConfigurationError, match=f"on axis {axis} cannot be represented"):
            build_grid(DomainSpec(kind, lengths), MIN_CELLS)

    @pytest.mark.parametrize("domain, n", [(interval(), 10 ** 9), (rectangle(), (8, 10 ** 9))])
    def test_build_grid_that_does_not_fit_is_a_configuration_error(
            self, linspace_out_of_memory, domain, n):
        cells = (n,) if np.isscalar(n) else n
        with pytest.raises(ConfigurationError, match=re.escape(f"a grid of {cells} cells")):
            build_grid(domain, n)


def _outward_normals(nodes):
    """The unit outward normal of each node from its side: along axis
    side // 2, down for an even side and up for an odd one."""
    normals = np.zeros_like(nodes.nodes)
    normals[np.arange(nodes.count), nodes.side // 2] = 2 * (nodes.side % 2) - 1
    return normals


class TestBoundaryNodes:
    def test_interval_endpoints(self):
        nodes = boundary_nodes(build_grid(interval(2.0), 8))
        assert nodes.count == 2
        assert np.allclose(nodes.nodes, [[0.0], [2.0]])
        assert np.allclose(_outward_normals(nodes), [[-1.0], [1.0]])
        assert np.allclose(nodes.weights, [1.0, 1.0])
        assert nodes.side.tolist() == [0, 1]

    def test_interval_integrate_is_two_point_sum(self):
        nodes = boundary_nodes(build_grid(interval(), 8))
        assert np.isclose(np.array([3.0, 4.0]) @ nodes.weights, 7.0)

    def test_rectangle_midpoints(self):
        nodes = boundary_nodes(build_grid(rectangle(1.0, 2.0), 8))
        assert nodes.count == 16
        # side order x=0, x=lx, y=0, y=ly with cell-midpoint tangential coords
        first = nodes.nodes[nodes.side == 0]
        assert np.allclose(first[:, 0], 0.0)
        assert np.allclose(first[:, 1], [0.25, 0.75, 1.25, 1.75])
        # per-side weights sum to the side length
        for s, length in [(0, 2.0), (1, 2.0), (2, 1.0), (3, 1.0)]:
            assert np.isclose(np.sum(nodes.weights[nodes.side == s]), length)

    def test_rectangle_perimeter(self):
        nodes = boundary_nodes(build_grid(rectangle(1.0, 2.0), 16))
        assert np.isclose(np.sum(nodes.weights), 6.0)

    def test_rectangle_normals_outward(self):
        # a step along the normal of its side leaves the domain, a step
        # against it enters
        dom = rectangle(1.0, 2.0)
        nodes = boundary_nodes(build_grid(dom, 8))
        normals = _outward_normals(nodes)
        assert np.allclose(normals[nodes.side == 1], [1.0, 0.0])
        assert np.allclose(normals[nodes.side == 2], [0.0, -1.0])
        for sign, inside in ((1.0, False), (-1.0, True)):
            pts = nodes.nodes + sign * 0.1 * normals
            assert np.all(np.all((pts > 0.0) & (pts < dom.lengths), axis=1) == inside)

    def test_rectangle_rejects_few_nodes(self):
        # 3 nodes per side: build_grid refuses the 6-cell grid, and
        # boundary_nodes refuses one made without it
        with pytest.raises(ConfigurationError, match="grid too coarse"):
            boundary_nodes(build_grid(rectangle(), 6))
        grid = build_grid(rectangle(), MIN_CELLS)
        coarse = replace(grid, n=(6, 6), axes=tuple(np.linspace(0.0, 1.0, 7) for _ in "xy"))
        with pytest.raises(ConfigurationError, match="nodes per side"):
            boundary_nodes(coarse)


# the boundary layout: (domain, grid cells, nodes per side) with nodes on
# grid lines; the (8, 16) grid reads the nodes of the 8 x 8 one
LAYOUTS = [(interval(0.9), 8, 0), (rectangle(0.9, 1.3), (8, 16), 4),
           (rectangle(0.9, 1.3), 16, 8)]


class TestBoundaryLayout:
    @pytest.mark.parametrize("domain,n,m", LAYOUTS)
    def test_side_nodes_sit_on_their_face(self, domain, n, m):
        grid = build_grid(domain, n)
        nodes = boundary_nodes(build_grid(domain, max(2 * m, 8)))
        # every node id of the grid, laid out as a one-row (time, *shape) array
        ids = np.arange(np.prod(grid.shape)).reshape((1,) + grid.shape)
        at_nodes = ids[(0, *grid.indices(nodes.nodes))]
        for s in range(2 * domain.dim):
            on_side = at_nodes[nodes.side == s]
            assert len(on_side) > 0
            for t in range(2 * domain.dim):
                # midpoint nodes leave out the corners, so only face s holds them
                assert np.isin(on_side, ids[grid.face(t)]).all() == (s == t)
                assert np.isin(on_side, ids[grid.face(t)]).any() == (s == t)

    @pytest.mark.parametrize("domain,n,m", LAYOUTS)
    def test_face_is_the_first_or_last_node_of_its_axis(self, domain, n, m):
        grid = build_grid(domain, n)
        coords = grid.points[None]
        for s in range(2 * domain.dim):
            end = domain.lengths[s // 2] if s % 2 else 0.0
            assert np.all(coords[grid.face(s)][..., s // 2] == end)

    def test_indices_of_aligned_points(self):
        grid = build_grid(rectangle(0.9, 1.3), (8, 16))
        ix, iy = grid.indices(np.array([[0.0, 1.3], [0.45, 0.65], [0.9, 0.08125]]))
        assert ix.tolist() == [0, 4, 8] and iy.tolist() == [16, 8, 1]

    @pytest.mark.parametrize("domain,n,point,coord", [
        (interval(0.9), 8, [0.37], "0.37"),
        (interval(0.9), 8, [1.0125], "1.0125"),
        (rectangle(0.9, 1.3), 8, [0.45, 0.7], "0.7"),
        (rectangle(0.9, 1.3), 8, [0.3, 0.325], "0.3"),
        (rectangle(0.9, 1.3), 8, [0.45, float("nan")], "nan"),
    ])
    def test_off_grid_point_is_an_input_error(self, domain, n, point, coord):
        grid = build_grid(domain, n)
        aligned = np.zeros(domain.dim)
        with pytest.raises(InputError, match=f"at {coord} is not aligned"):
            grid.indices(np.array([aligned, point]))
