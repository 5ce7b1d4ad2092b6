import numpy as np
import pytest

from fluxrecon.errors import ConfigurationError
from fluxrecon.families import make_boundary_data, make_reaction
from fluxrecon.geometry import boundary_nodes, build_grid, interval, rectangle


class TestReactions:
    def test_zero(self):
        f = make_reaction({"family": "zero"})
        assert np.all(f.fn(np.array([0.0, 1.0, 5.0])) == 0.0)
        assert f.label == "zero"

    def test_linear(self):
        f = make_reaction({"family": "linear", "coeff": 2.5})
        u = np.array([0.0, 0.4, 2.0])
        assert np.allclose(f.fn(u), 2.5 * u)

    def test_power(self):
        f = make_reaction({"family": "power", "coeff": 1.0, "exponent": 2.0})
        assert np.allclose(f.fn(np.array([3.0])), 9.0)
        # arguments below zero are treated as zero
        assert f.fn(np.array([-1.0]))[0] == 0.0

    def test_saturating_bounded(self):
        f = make_reaction({"family": "saturating", "coeff": 2.0})
        u = np.linspace(0.0, 100.0, 50)
        assert np.max(f.fn(u)) < 2.0
        assert np.min(np.diff(f.fn(u))) >= 0.0

    def test_label_sorts_keys(self):
        f = make_reaction({"family": "power", "exponent": 3.0, "coeff": 2.0})
        assert f.label == "power,coeff=2.0,exponent=3.0"

    def test_rejections(self):
        with pytest.raises(ConfigurationError):
            make_reaction({"family": "cubic"})
        with pytest.raises(ConfigurationError):
            make_reaction({"family": "linear", "coeff": -1.0})
        with pytest.raises(ConfigurationError):
            make_reaction({"family": "power", "exponent": 0.5})


class TestBoundaryData:
    def test_ramp_const(self):
        phi = make_boundary_data({"family": "ramp", "profile": "const",
                                  "amplitude": 2.0}, interval(), 1.0)
        pts = np.array([[0.0], [1.0]])
        assert np.allclose(phi.fn(pts, 0.5), 1.0)
        assert np.allclose(phi.fn(pts, 0.0), 0.0)
        assert phi.final_time == 1.0

    def test_saturating_ramp(self):
        phi = make_boundary_data({"family": "saturating_ramp", "scale": 0.5},
                                 interval(), 2.0)
        pts = np.array([[0.3]])
        assert np.isclose(phi.fn(pts, 1.0)[0], 1.0 - np.exp(-2.0))

    def test_affine_profile(self):
        phi = make_boundary_data({"family": "ramp", "profile": "affine",
                                  "slope": 0.5}, interval(2.0), 1.0)
        pts = np.array([[0.0], [2.0]])
        assert np.allclose(phi.fn(pts, 1.0), [1.0, 1.5])

    def test_affine_profile_uses_first_axis(self):
        phi = make_boundary_data({"family": "ramp", "profile": "affine",
                                  "slope": 1.0}, rectangle(), 1.0)
        pts = np.array([[0.0, 0.7], [1.0, 0.7]])
        assert np.allclose(phi.fn(pts, 1.0), [1.0, 2.0])

    def test_rejections(self):
        with pytest.raises(ConfigurationError):
            make_boundary_data({"family": "step"}, interval(), 1.0)
        with pytest.raises(ConfigurationError):
            make_boundary_data({"family": "ramp", "profile": "bumps"}, interval(), 1.0)
        with pytest.raises(ConfigurationError):
            make_boundary_data({"family": "ramp", "amplitude": 0.0}, interval(), 1.0)
        with pytest.raises(ConfigurationError):
            make_boundary_data({"family": "ramp", "profile": "affine",
                                "slope": -1.5}, interval(), 1.0)
        with pytest.raises(ConfigurationError):
            make_boundary_data({"family": "saturating_ramp", "scale": 0.0},
                               interval(), 1.0)


class TestBoundaryTable:
    """table evaluates phi once over a column of times; every family and
    profile must give the per-time values bit for bit."""

    # the 1.7 horizon, the 0.37 scale and the 0.9 box side make the times
    # and the values non-dyadic
    @pytest.mark.parametrize("domain", [interval(2.0), rectangle(0.9, 1.3)],
                             ids=["interval", "rectangle"])
    @pytest.mark.parametrize("family", [{"family": "ramp"},
                                        {"family": "saturating_ramp", "scale": 0.37}],
                             ids=["ramp", "saturating_ramp"])
    @pytest.mark.parametrize("profile", [{"profile": "const", "amplitude": 1.3},
                                         {"profile": "affine", "slope": 0.7}],
                             ids=["const", "affine"])
    def test_equals_stacked_calls(self, domain, family, profile):
        phi = make_boundary_data({**family, **profile}, domain, 1.7)
        pts = boundary_nodes(build_grid(domain, 10)).nodes
        times = np.linspace(0.0, 1.7, 49)
        table = phi.table(pts, times)
        assert table.shape == (len(times), len(pts))
        assert np.array_equal(table, np.stack([phi.fn(pts, t) for t in times]))
