"""The one anchor node: antiderivative, build_S and every SurfaceMap read their
integration constant at grid.centre, on odd and even, open and periodic grids."""
import numpy as np
import pytest

from spinsurf import (SpinorField, antiderivative, build_S, constant_field,
                      integrate_surface_r3, integrate_surface_r4, invert_surface,
                      make_grid, smatrix_to_surface)
from test_grid import _ref_antiderivative
from test_streams import _same_bits         # equal bytes: signs of zero too
from test_surface import _enneper_spinor as _enneper

_GRIDS = {f"{nx}x{ny}-{'periodic' if per else 'open'}":
          make_grid((-1.0, 1.3, -0.8, 1.1), (nx, ny), per)
          for nx in (16, 17) for ny in (12, 13) for per in (False, True)}


@pytest.fixture(params=sorted(_GRIDS))
def grid(request):
    return _GRIDS[request.param]


def test_centre_is_the_middle_node(grid):
    assert grid.centre == (grid.nx // 2, grid.ny // 2)


@pytest.mark.parametrize("order", ["x_first", "y_first"])
def test_antiderivative_reads_zero_at_the_centre(grid, order):
    # the integral (x_first), and the y-first integral that its path defect measures
    # against (y_first: the defect is that oracle's largest distance from it, to
    # the bit), read +0 at the centre
    ix, iy = grid.centre
    rng = np.random.default_rng(3)
    shape = (2, grid.ny, grid.nx)
    gx, gy = 1 + 1e-3 * (rng.normal(size=(2,) + shape) + 1j * rng.normal(size=(2,) + shape))
    for fx, fy in ((gx, gy), (gx.real, gy.real)):
        F, defect = antiderivative(grid, fx, fy.copy())
        if order == "y_first":
            G = _ref_antiderivative(grid, fx, fy, grid.centre, order)
            assert defect == np.max(np.abs(F - G))
            F = G
        v = F[:, iy, ix]
        assert _same_bits(np.stack([v.real, np.imag(v)]), np.zeros((2, 2)))


def test_build_S_reads_its_constant_at_the_centre(grid):
    # constant spinors: omega is constant, so closed on any grid
    rng = np.random.default_rng(5)
    Phi, Psi = (SpinorField(constant_field(grid, complex(*rng.normal(size=2))),
                            constant_field(grid, complex(*rng.normal(size=2))))
                for _ in range(2))
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    C = np.array([[a, -np.conj(b)], [b, np.conj(a)]])
    S = build_S(Phi, Psi, constant=C)
    assert np.array_equal(S.values[:, grid.centre[1], grid.centre[0]], C[:, 0])


def test_surface_basepoint_is_the_point_at_the_centre(grid):
    ix, iy = grid.centre
    bp = np.array([0.25, -1.5, 0.75, 2.0])
    maps = {"r3": integrate_surface_r3(_enneper(grid)),
            "r4": integrate_surface_r4(_enneper(grid), _enneper(grid)),
            "r4 through bp": integrate_surface_r4(_enneper(grid), _enneper(grid))}
    maps["r4 through bp"].coords += bp[:, None, None]          # as verify's moutard suite does
    maps["inverted"] = invert_surface(maps["r4 through bp"])
    S = build_S(*(SpinorField(constant_field(grid, 1.0), constant_field(grid, 0.5j))
                  for _ in range(2)), constant=np.array([[1 + 2j, 3 - 1j], [-3 - 1j, 1 - 2j]]))
    maps["S-matrix"] = smatrix_to_surface(S)
    for name, M in maps.items():
        assert _same_bits(M.basepoint, M.coords[:, iy, ix]), name
    assert _same_bits(maps["r3"].basepoint, np.zeros(3))
    assert _same_bits(maps["r4"].basepoint, np.zeros(4))
    assert _same_bits(maps["r4 through bp"].basepoint, bp)
    assert _same_bits(maps["inverted"].basepoint, bp * [-1, -1, -1, 1] / (bp @ bp))
    assert _same_bits(maps["S-matrix"].basepoint, np.array([-3.0, 1.0, 2.0, 1.0]))
