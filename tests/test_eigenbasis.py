import itertools
import tracemalloc

import numpy as np
import pytest

from fluxrecon.eigenbasis import axis_modes, make_basis, modes_below, verify_orthonormality
from fluxrecon.errors import ConfigurationError
from fluxrecon.geometry import build_grid, interval, rectangle
from fluxrecon.suites import eigenbasis_suite


class TestIntervalBasis:
    def test_closed_form_eigenvalues(self):
        basis = make_basis(interval(2.0), 5)
        assert np.allclose(basis.lambdas,
                           [(m * np.pi / 2.0) ** 2 for m in range(5)],
                           rtol=0, atol=1e-12)

    def test_constant_mode_normalization(self):
        basis = make_basis(interval(4.0), 1)
        vals = basis.values_at(np.array([[0.0], [1.7], [4.0]]))
        assert np.allclose(vals, np.sqrt(1.0 / 4.0))

    def test_quadrature_normalization(self):
        grid = build_grid(interval(), 512)
        basis = make_basis(interval(), 8)
        samples = basis.values_at(grid.points)
        norms = np.array([np.sum(grid.weights * s * s) for s in samples])
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_projection_of_coordinate(self):
        # (omega_1, x) on (0,1) has the closed form -2 sqrt(2) / pi^2;
        # the n=512 trapezoid value carries ~1e-6 quadrature error
        grid = build_grid(interval(), 512)
        basis = make_basis(interval(), 4)
        proj = basis.project(grid, grid.axes[0])
        assert abs(proj[1] - (-2.0 * np.sqrt(2.0) / np.pi**2)) < 2e-6

    def test_orthonormality(self):
        assert verify_orthonormality(make_basis(interval(), 16),
                                     build_grid(interval(), 512)) < 1e-6

    def test_rejects_empty_basis(self):
        with pytest.raises(ConfigurationError):
            make_basis(interval(), 0)


class TestRectangleBasis:
    def test_ascending_with_prefix_consistency(self):
        rect = rectangle()
        small = make_basis(rect, 4)
        big = make_basis(rect, 12)
        assert np.all(np.diff(big.lambdas) >= -1e-12)
        assert np.allclose(big.lambdas[:4], small.lambdas)
        assert np.array_equal(big.modes[:4], small.modes)

    def test_multiplicity_pair_on_square(self):
        basis = make_basis(rectangle(), 3)
        # modes (0,1) and (1,0) share pi^2 exactly; lexicographic tie-break
        assert abs(basis.lambdas[1] - basis.lambdas[2]) < 1e-12
        assert basis.modes[1].tolist() == [0, 1]
        assert basis.modes[2].tolist() == [1, 0]

    def test_tensor_values(self):
        basis = make_basis(rectangle(1.0, 2.0), 6)
        pts = np.array([[0.3, 0.4], [1.0, 2.0]])
        vals = basis.values_at(pts)
        k = 1  # first nonconstant mode
        mx, my = basis.modes[k]
        wx = (np.sqrt(1.0) if mx == 0 else np.sqrt(2.0) * np.cos(mx * np.pi * pts[:, 0]))
        wy = (np.sqrt(0.5) if my == 0 else np.cos(my * np.pi * pts[:, 1] / 2.0))
        assert np.allclose(vals[k], wx * wy)

    def test_projection_round_trip(self):
        rect = rectangle()
        grid = build_grid(rect, 64)
        basis = make_basis(rect, 6)
        samples = basis.values_at(grid.points)
        gram = basis.project(grid, samples)
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_orthonormality(self):
        assert verify_orthonormality(make_basis(rectangle(), 16),
                                     build_grid(rectangle(), 128)) < 1e-6

    @pytest.mark.parametrize("aspect", [1.0, 3.0, 0.3, 1.0 + 1e-12])
    @pytest.mark.parametrize("k", [1, 2, 7, 16, 40])
    def test_first_modes_match_brute_force(self, aspect, k):
        # the K smallest of a box wider than the basis searches, ordered by
        # eigenvalue and then by mode index
        box = sorted(((mx * np.pi) ** 2 + (my * np.pi / aspect) ** 2, mx, my)
                     for mx in range(k + 5) for my in range(k + 5))[:k]
        basis = make_basis(rectangle(1.0, aspect), k)
        assert basis.modes.tolist() == [[mx, my] for _, mx, my in box]
        assert basis.lambdas.tolist() == [lam for lam, _, _ in box]


@pytest.mark.parametrize("domain", [interval(2.5), rectangle(1.0, 2.0), rectangle(0.9, 1.3)],
                         ids=["interval", "rectangle-1x2", "rectangle-0.9x1.3"])
@pytest.mark.parametrize("rate", [1e-3, 10.0, (3 * np.pi) ** 2, 400.0])
def test_modes_below_matches_brute_force(domain, rate):
    # every mode of a box wider than the rate allows, strictly below it,
    # ordered by eigenvalue and then by mode index
    axes = [range(int(L * np.sqrt(rate) / np.pi) + 3) for L in domain.lengths]
    box = sorted((sum((m * np.pi / L) ** 2 for m, L in zip(ms, domain.lengths)), *ms)
                 for ms in itertools.product(*axes))
    want = [row for row in box if row[0] < rate]
    basis = modes_below(domain, rate)
    assert basis.modes.tolist() == [list(row[1:]) for row in want]
    assert basis.lambdas.tolist() == [row[0] for row in want]


def test_project_with_leading_axes():
    grid = build_grid(interval(), 64)
    basis = make_basis(interval(), 3)
    fields = np.stack([np.ones(grid.shape), grid.axes[0]])
    coeffs = basis.project(grid, fields)
    assert coeffs.shape == (2, 3)
    assert np.isclose(coeffs[0, 0], 1.0, atol=1e-12)


@pytest.mark.parametrize("L,shape", [(1.0, (1025,)), (0.9, (7,)), (1.3, (5, 6))])
def test_axis_modes_built_in_place_is_the_formula(L, shape, rng):
    # the table is built in place, bit-equal to the one expression
    xs = rng.uniform(0.0, L, shape)
    ref = np.sqrt(2.0 / L) * np.cos(np.multiply.outer(np.arange(78) * np.pi, xs) / L)
    ref[0] = np.sqrt(1.0 / L)
    assert np.array_equal(axis_modes(xs, 78, L), ref)


def _one_table_deviation(basis, grid):
    """verify_orthonormality's Gram from the whole (K, grid size) table."""
    samples = basis.values_at(grid.points).reshape(basis.size, -1)
    gram = (samples * grid.weights.ravel()) @ samples.T
    return float(np.max(np.abs(gram - np.eye(basis.size))))


class TestOrthonormalityInBlocks:
    def test_one_block_is_the_one_table_gram(self):
        # 513 points: one block, the same products in the same order
        basis, grid = make_basis(interval(), 16), build_grid(interval(), 512)
        assert verify_orthonormality(basis, grid) == _one_table_deviation(basis, grid)

    # 129^2 = 8 * 2048 + 257 points, so the last block is short
    @pytest.mark.parametrize("rect", [rectangle(), rectangle(0.9, 1.3)], ids=["1x1", "0.9x1.3"])
    def test_blocks_agree_with_the_one_table_gram(self, rect):
        basis, grid = make_basis(rect, 16), build_grid(rect, 128)
        assert abs(verify_orthonormality(basis, grid)
                   - _one_table_deviation(basis, grid)) <= 1e-15

    def test_suite_peak_memory(self):
        # the (16, 129^2) rectangle table and its weighted copy took 5.3 MB
        eigenbasis_suite()
        tracemalloc.start()
        try:
            eigenbasis_suite()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
