import re
from pathlib import Path

import numpy as np
import pytest

from qns1d.spectral import (
    GridConfigError,
    RealField,
    TorusGrid,
    ddx,
    ddx_rows,
    hs_norm,
    project,
    resample,
    to_physical,
    to_spectral,
)

from conftest import band_limited, make_stepper
from oracle import convolution_product, fd_derivative, oracle_mode_coefficients


def dealias_product(a, b, grid):
    """The stepper's dealiased product of two fields, as a field."""
    return RealField.from_spectral(make_stepper(grid).product(a.spectral, b.spectral), grid)


class TestTorusGrid:
    def test_wavenumber_convention(self):
        g = TorusGrid(16, 5)
        assert g.k_half[0] == 0.0
        assert g.k_half[1] == pytest.approx(2 * np.pi)
        assert g.k_half[-1] == pytest.approx(16 * np.pi)  # j = n/2

    def test_dealias_cut(self):
        g = TorusGrid(256, 85)
        assert g.dealias_cut == (2 * 85) // 3

    def test_cut_without_dealiasing(self):
        g = TorusGrid(64, 20, dealias=False)
        assert g.dealias_cut == 20

    @pytest.mark.parametrize("n,m", [(15, 4), (64, 33), (16, 13), (0, 1), (8, 0)])
    def test_invalid_grids_rejected(self, n, m):
        with pytest.raises(GridConfigError):
            TorusGrid(n, m)


class TestTransforms:
    def test_constant_field_mode_zero(self):
        g = TorusGrid(32, 10)
        f = RealField.from_physical(np.ones(32), g)
        assert f.spectral[0] == pytest.approx(1.0)
        assert np.max(np.abs(f.spectral[1:])) < 1e-15

    def test_single_harmonic(self):
        g = TorusGrid(16, 5)
        f = RealField.from_physical(np.sin(2 * np.pi * g.x), g)
        nonzero = np.nonzero(np.abs(f.spectral) > 1e-12)[0]
        assert list(nonzero) == [1]
        assert f.spectral[1] == pytest.approx(-0.5j)

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, 1024])
    def test_roundtrip_all_sizes(self, n, rng):
        g = TorusGrid(n, n // 3)
        values = rng.standard_normal(n)
        f = RealField.from_physical(values, g)
        back = to_physical(f.spectral, g.n_collocation)
        scale = np.max(np.abs(values))
        assert np.max(np.abs(back - values)) / scale < 1e-12

    def test_length_mismatch_rejected(self):
        g = TorusGrid(32, 10)
        with pytest.raises(GridConfigError):
            RealField.from_physical(np.ones(16), g)

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_parseval(self, n, rng):
        g = TorusGrid(n, n // 3)
        f = band_limited(g, rng)
        quad = float(np.sqrt(np.mean(f.physical**2)))
        assert hs_norm(f, 0, g) == pytest.approx(quad, rel=1e-10)


class TestProjection:
    def test_in_band_unchanged(self, grid64, rng):
        f = band_limited(grid64, rng, max_mode=grid64.m_modes)
        p = project(f, grid64)
        assert np.allclose(p.spectral, f.spectral, atol=0)

    def test_out_of_band_harmonic_zeroed(self, grid64):
        m = grid64.m_modes
        f = RealField.from_physical(np.sin(2 * np.pi * (m + 1) * grid64.x), grid64)
        p = project(f, grid64)
        assert np.max(np.abs(p.physical)) < 1e-12

    def test_idempotent_and_modes_exactly_zero(self, grid64, rng):
        f = RealField.from_physical(rng.standard_normal(64), grid64)
        p = project(f, grid64)
        assert np.all(p.spectral[grid64.m_modes + 1:] == 0.0)
        pp = project(p, grid64)
        assert np.array_equal(pp.spectral, p.spectral)

    def test_norm_nonincreasing(self, grid64, rng):
        f = RealField.from_physical(rng.standard_normal(64), grid64)
        p = project(f, grid64)
        # Parseval check by quadrature on both sides
        norm_f = float(np.sqrt(np.mean(f.physical**2)))
        norm_p = float(np.sqrt(np.mean(p.physical**2)))
        assert norm_p <= norm_f + 1e-14
        assert hs_norm(p, 0, grid64) <= hs_norm(f, 0, grid64) + 1e-14

    def test_orthogonality_of_remainder(self, grid64, rng):
        f = RealField.from_physical(rng.standard_normal(64), grid64)
        p = project(f, grid64)
        for _ in range(5):
            gfield = band_limited(grid64, rng)
            inner = np.mean((f.physical - p.physical) * gfield.physical)
            assert abs(inner) < 1e-13


class TestDerivative:
    def test_first_derivative_harmonic(self, grid64):
        d = ddx(np.sin(2 * np.pi * grid64.x), 1)
        exact = 2 * np.pi * np.cos(2 * np.pi * grid64.x)
        assert np.max(np.abs(d - exact)) < 1e-12

    def test_third_derivative_harmonic(self, grid64):
        d = ddx(np.cos(2 * np.pi * grid64.x), 3)
        exact = (2 * np.pi) ** 3 * np.sin(2 * np.pi * grid64.x)
        # roundoff in the samples is amplified by k_max^3; bound relative to that
        assert np.max(np.abs(d - exact)) < 1e-11 * (2 * np.pi * 21) ** 3

    def test_matches_sixth_order_finite_differences(self, rng):
        # spectral derivative vs the FD oracle: FD error drops ~2^6 per refinement
        errs = []
        for n in (64, 128):
            g = TorusGrid(n, 8)
            f = band_limited(g, rng, max_mode=5)
            d_spec = ddx(f.physical, 1)
            d_fd = fd_derivative(f.physical, 1, 1.0 / n)
            errs.append(np.max(np.abs(d_spec - d_fd)))
        assert errs[1] < errs[0] / 32.0


class TestDealiasProduct:
    def test_product_to_sum_identity(self, grid64):
        s = RealField.from_physical(np.sin(2 * np.pi * grid64.x), grid64)
        prod = dealias_product(s, s, grid64)
        exact = 0.5 - 0.5 * np.cos(4 * np.pi * grid64.x)
        assert np.max(np.abs(prod.physical - exact)) < 1e-13
        live = np.nonzero(np.abs(prod.spectral) > 1e-13)[0]
        assert set(live) <= {0, 2}

    def test_scalar_factor(self, grid64, rng):
        c = RealField.from_physical(np.full(64, 2.0), grid64)
        b = band_limited(grid64, rng, max_mode=grid64.dealias_cut)
        prod = dealias_product(c, b, grid64)
        assert np.max(np.abs(prod.physical - 2.0 * b.physical)) < 1e-12

    def test_matches_direct_convolution(self, rng):
        # retained coefficients equal the O(m^2) convolution sum over modes
        for n, m in ((64, 21), (48, 18)):  # second grid forces internal padding
            g = TorusGrid(n, m)
            a = band_limited(g, rng)
            b = band_limited(g, rng)
            prod = dealias_product(a, b, g)
            oracle = convolution_product(a, b, g, keep=g.dealias_cut)
            assert np.max(np.abs(prod.spectral[: g.dealias_cut + 1] - oracle)) < 1e-14
            assert np.all(prod.spectral[g.dealias_cut + 1:] == 0.0)

    def test_padded_grid_matches_quadrature_oracle(self, rng):
        # m = n/2: products are formed on product_n = 44 points, not on n = 32
        g = TorusGrid(32, 16)
        assert make_stepper(g).product_n == 44
        a = band_limited(g, rng)
        b = band_limited(g, rng)
        prod = dealias_product(a, b, g)
        fine = resample(a, g, 1024) * resample(b, g, 1024)
        oracle = oracle_mode_coefficients(fine, g.dealias_cut)
        assert np.max(np.abs(prod.spectral[: g.dealias_cut + 1] - oracle)) < 1e-14
        assert np.all(prod.spectral[g.dealias_cut + 1:] == 0.0)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedTransforms:
    """A stack of rows transforms bit for bit like its rows one at a time.

    The step kernels transform every field of a step in a few stacked calls
    and stay bit-identical to per-field transforms only while this holds.
    """

    @pytest.mark.parametrize("rows", [1, 2, 3, 6, 7])
    @pytest.mark.parametrize("n", [32, 64, 256, 1024])
    def test_rows_transform_one_at_a_time(self, n, rows, rng):
        values = rng.standard_normal((rows, n))
        spec = to_spectral(values)
        assert all(same_bits(spec[i], to_spectral(values[i])) for i in range(rows))
        for n_out in (n, 8 * n):  # the collocation grid and the zero-padded sup-norm grid
            out = to_physical(spec, n_out)
            assert all(same_bits(out[i], to_physical(spec[i], n_out)) for i in range(rows))

    def test_stacked_derivative(self, rng):
        values = rng.standard_normal((3, 64))
        for order in (1, 2):
            out = ddx(values, order)
            assert all(same_bits(out[i], ddx(values[i], order)) for i in range(3))

    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_derivative_rows(self, n, rng):
        # one forward and one inverse transform give each row the bits of
        # its own derivative, taken alone
        values = rng.standard_normal((7, 5, n))
        orders = [1, 1, 2, 1, 2, 0, 3]
        k = 2.0 * np.pi * np.fft.rfftfreq(n, 1.0 / n)
        out = ddx_rows(values, orders)
        assert out.shape == values.shape
        for got, row, o in zip(out, values, orders):
            assert same_bits(got, np.fft.irfft(np.fft.rfft(row) * (1j * k) ** o, n=n))
            assert same_bits(got, ddx(row, o))


@pytest.mark.parametrize("n", [32, 44, 48, 96, 256])
def test_to_spectral_scales_like_division(n, rng):
    # multiplying by 1/n gives rfft(x) / n in value and in the NaN position
    # of each real and imaginary part: random rows, and rows holding zeros,
    # signed zeros, NaN, +-inf and values near the float limits
    values = rng.standard_normal((8, n)) * 10.0 ** rng.uniform(-300, 300, (8, 1))
    values[1] = 0.0
    values[2, ::2] = -0.0
    values[3, n // 3] = np.nan
    values[4, 1] = np.inf
    values[5, [0, n // 2]] = [np.inf, -np.inf]
    values[6] = np.finfo(float).max * rng.uniform(-1.0, 1.0, n)
    values[7, ::3] = np.finfo(float).tiny
    with np.errstate(over="ignore", invalid="ignore"):
        got = to_spectral(values).view(float)
        want = (np.fft.rfft(values) / n).view(float)
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.isnan(got), np.isnan(want))


def test_numpy_fft_used_only_in_spectral():
    # every transform goes through spectral's wrappers, so a count of
    # numpy.fft calls sees all of them
    src = Path(__file__).resolve().parents[1] / "src" / "qns1d"
    pattern = re.compile(r"\bnp\.fft\b|\bnumpy\.fft\b|\bimport fft\b|\bfft import\b")
    users = sorted(f.name for f in src.glob("*.py") if pattern.search(f.read_text()))
    assert users == ["spectral.py"]
