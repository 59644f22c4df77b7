"""Grid fitting, nearest-level rounding, dequantization."""

import tracemalloc
import warnings

import numpy as np
import pytest

from snrq import GridSpec, InvalidSpec, fit_grid, grid
from snrq.grid import column_grid, dequantize, round_to_grid
from snrq.oracle import fit_grid_reference, levels
from snrq.solvers import rtn_round

from conftest import same_bits


def nearest_level(x, row, col, params):
    """Scalar rounding of one value through the grid's single rounding rule."""
    scale, zero = column_grid(params, [col])
    code, value = round_to_grid(x, scale[row, 0], zero[row, 0], params.spec)
    return int(code), float(value)


def test_symmetric_fit_example():
    # group {-1, 0.5, 1}, 2-bit symmetric: scale = max|w| / (2^1 - 1) = 1
    params = fit_grid(np.array([[-1.0, 0.5, 1.0]]), GridSpec(bits=2, symmetric=True))
    assert params.scales[0, 0] == 1.0
    assert params.zero_points[0, 0] == 0


def test_asymmetric_fit_example():
    # group {0,1,2,3}, 2-bit asymmetric: scale 1, zero 0, grid exactly {0,1,2,3}
    params = fit_grid(np.array([[0.0, 1.0, 2.0, 3.0]]), GridSpec(bits=2, symmetric=False))
    assert params.scales[0, 0] == 1.0
    assert params.zero_points[0, 0] == 0
    assert np.array_equal(levels(0, 0, params), [0.0, 1.0, 2.0, 3.0])


def _round_trip(w, spec):
    """Codes and values of w rounded to nearest on its own fitted grid."""
    params = fit_grid(w, spec)
    scale, zero = column_grid(params, np.arange(w.shape[1]))
    codes = round_to_grid(w, scale, zero, spec)[0]
    return codes, dequantize(codes, params)


@pytest.mark.parametrize("symmetric", [True, False])
def test_constant_group_degenerate_floor(symmetric):
    # only an all-zero cell, whose range has width 0 even after it covers zero,
    # takes the floor scale; a constant nonzero cell keeps its value
    w = np.array([[5.0, 5.0, 0.0, 0.0]])
    spec = GridSpec(bits=3, symmetric=symmetric, group_size=2)
    assert fit_grid(w, spec).scales[0, 1] == 1e-12
    _, values = _round_trip(w, spec)
    np.testing.assert_allclose(values, w, rtol=1e-15, atol=0)


@pytest.mark.parametrize("bits", [2, 3, 4, 8])
@pytest.mark.parametrize("symmetric", [True, False])
def test_constant_and_one_signed_cells_round_trip(bits, symmetric):
    # every cell's range covers zero: a constant cell of either sign is a level
    # of its grid, and so is each end of a one-signed cell, in every group
    w = np.array([[5.0, 5.0, -2.0, -2.0, 0.0, 3.0, -1e-7, -1e-7, 1e300, 1e300]])
    _, values = _round_trip(w, GridSpec(bits=bits, symmetric=symmetric, group_size=2))
    np.testing.assert_allclose(values, w, rtol=1e-15, atol=0)
    # an asymmetric one-signed cell [1, 3] has levels {0, 1, 2, 3}, not [0, 2]
    w = np.array([[1.0, 3.0]])
    codes, values = _round_trip(w, GridSpec(bits=2, symmetric=False))
    assert np.array_equal(values, w) and np.array_equal(codes, [[1, 3]])


@pytest.mark.parametrize("mse_clip", [False, True])
def test_asymmetric_cell_whose_range_overflows_has_a_finite_scale(mse_clip):
    # vmax - vmin overflows for the first row; its scale is vmax/15 - vmin/15,
    # finite, so the row still dequantizes to finite values
    w = np.array([[-1e308, 1e308, 5.0, -3.0], [1e308] * 4])
    spec = GridSpec(bits=4, symmetric=False, mse_clip=mse_clip)
    # the clip search's squared errors overflow as well, to inf, which ranks last without a warning
    with warnings.catch_warnings(), np.errstate(over="raise"):
        warnings.simplefilter("error")
        params = fit_grid(w, spec)
        ref = fit_grid_reference(w, spec)
    assert np.all(np.isfinite(params.scales))
    assert same_bits(params.scales, ref.scales) and same_bits(params.zero_points, ref.zero_points)
    with np.errstate(over="ignore"):  # rtn_round's squared-error score overflows
        codes = rtn_round(w, params).codes
    assert np.all(np.isfinite(dequantize(codes, params)))


_M = np.finfo(np.float64).max


@pytest.mark.parametrize("bits", [2, 3, 4, 8])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("mse_clip", [False, True])
def test_every_level_is_finite_at_the_top_of_the_float_range(bits, symmetric, mse_clip):
    # the solvers can pick any code, so every level scale * (code - zero) of a
    # fitted cell is finite, also where rounding the zero point or the scale
    # puts the farthest level past the largest float
    spec = GridSpec(bits=bits, symmetric=symmetric, mse_clip=mse_clip)
    rows = [(-_M, _M, 0.0, 1.0), (-_M, _M / 2, 0.0, 1.0), (0.0, _M, 1.0, 2.0),
            (-_M, 0.0), (_M, _M), (-_M, -_M)]
    for row in rows:
        w = np.array([row])
        with warnings.catch_warnings(), np.errstate(over="raise"):
            warnings.simplefilter("error")
            params = fit_grid(w, spec)
        ref = fit_grid_reference(w, spec)
        assert same_bits(params.scales, ref.scales) and same_bits(params.zero_points, ref.zero_points)
        for code in range(spec.code_min, spec.code_max + 1):
            values = dequantize(np.full(w.shape, code, dtype=np.int32), params)
            assert np.all(np.isfinite(values)), (row, code)


@pytest.mark.parametrize("spec", [
    GridSpec(bits=3, symmetric=True),
    GridSpec(bits=4, symmetric=False, group_size=4, mse_clip=True),
], ids=["sym3", "asym4_g4_clip"])
def test_codes_invariant_under_power_of_two_scaling(rng, spec):
    # a power of two scales every range, scale and rounding error exactly, so the
    # codes do not depend on the weights' magnitude
    w = rng.normal(size=(6, 16))
    codes, _ = _round_trip(w, spec)
    for k in (-60, -45, -30, 30, 45, 60):
        assert np.array_equal(_round_trip(w * 2.0 ** k, spec)[0], codes), k


def test_group_size_must_divide():
    with pytest.raises(InvalidSpec):
        fit_grid(np.ones((2, 10)), GridSpec(bits=3, group_size=4))


def test_bits_range_validated():
    with pytest.raises(InvalidSpec):
        GridSpec(bits=1)
    with pytest.raises(InvalidSpec):
        GridSpec(bits=9)


def test_asymmetric_zero_points_within_code_range(rng):
    w = rng.normal(size=(8, 16)) + 0.7
    spec = GridSpec(bits=3, symmetric=False, group_size=4)
    params = fit_grid(w, spec)
    assert np.all(params.scales > 0)
    assert np.all(params.zero_points >= 0)
    assert np.all(params.zero_points <= spec.code_max)


def test_symmetric_zero_points_are_zero(rng):
    params = fit_grid(rng.normal(size=(4, 8)), GridSpec(bits=4, symmetric=True))
    assert np.all(params.zero_points == 0)


def test_nearest_level_on_grid_point():
    params = fit_grid(np.array([[0.0, 1.0, 2.0, 3.0]]), GridSpec(bits=2, symmetric=False))
    code, value = nearest_level(2.0, 0, 0, params)
    assert (code, value) == (2, 2.0)


def test_nearest_level_tie_rounds_up():
    # grid {0,1,2,3}: x = 0.5 ties between codes 0 and 1, larger code wins
    params = fit_grid(np.array([[0.0, 1.0, 2.0, 3.0]]), GridSpec(bits=2, symmetric=False))
    code, value = nearest_level(0.5, 0, 0, params)
    assert (code, value) == (1, 1.0)


def test_nearest_level_clamps():
    params = fit_grid(np.array([[0.0, 1.0, 2.0, 3.0]]), GridSpec(bits=2, symmetric=False))
    assert nearest_level(7.2, 0, 0, params) == (3, 3.0)
    assert nearest_level(-9.0, 0, 0, params) == (0, 0.0)


def test_symmetric_levels_include_extra_negative_code():
    # 2-bit symmetric, scale 0.5: codes {-2,-1,0,1} -> values [-1, -0.5, 0, 0.5]
    spec = GridSpec(bits=2, symmetric=True)
    params = fit_grid(np.array([[0.5, -0.25]]), spec)
    assert params.scales[0, 0] == 0.5
    assert np.allclose(levels(0, 0, params), [-1.0, -0.5, 0.0, 0.5])


@pytest.mark.parametrize("bits,symmetric", [(2, True), (3, False), (5, True), (8, False)])
def test_levels_count_is_two_pow_bits(rng, bits, symmetric):
    w = rng.normal(size=(2, 8))
    params = fit_grid(w, GridSpec(bits=bits, symmetric=symmetric))
    lv = levels(1, 3, params)
    assert len(lv) == 2 ** bits
    assert np.all(np.diff(lv) > 0)


@pytest.mark.parametrize("symmetric", [True, False])
def test_roundtrip_error_bounded_in_range(rng, symmetric):
    w = rng.normal(size=(1, 16))
    spec = GridSpec(bits=4, symmetric=symmetric)
    params = fit_grid(w, spec)
    scale = params.scales[0, 0]
    lv = levels(0, 0, params)
    xs = rng.uniform(lv[0], lv[-1], size=1000)
    for x in xs:
        _, v = nearest_level(float(x), 0, 0, params)
        assert abs(v - x) <= scale / 2 + 1e-12


@pytest.mark.parametrize("symmetric", [True, False])
def test_nearest_is_argmin_over_levels(rng, symmetric):
    w = rng.normal(size=(1, 8))
    spec = GridSpec(bits=3, symmetric=symmetric)
    params = fit_grid(w, spec)
    lv = levels(0, 2, params)
    xs = rng.normal(scale=2.0, size=10_000)
    got = np.empty_like(xs)
    for i, x in enumerate(xs):
        _, got[i] = nearest_level(float(x), 0, 2, params)
    best = np.min(np.abs(lv[None, :] - xs[:, None]), axis=1)
    assert np.array_equal(np.abs(got - xs), best)


def test_quantize_column_matches_scalar(rng):
    w = rng.normal(size=(5, 6))
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    x = rng.normal(size=5)
    scale, zero = column_grid(params, [4])
    codes, vals = round_to_grid(x, scale[:, 0], zero[:, 0], params.spec)
    assert codes.dtype == np.int32
    for r in range(5):
        c, v = nearest_level(float(x[r]), r, 4, params)
        assert codes[r] == c and vals[r] == v


def test_group_lookup_by_original_index(rng):
    # scale for a column is tied to its original group, whatever order columns
    # are visited in later
    w = rng.normal(size=(2, 8)) * np.repeat([1.0, 10.0], 4)[None, :]
    spec = GridSpec(bits=3, symmetric=True, group_size=4)
    params = fit_grid(w, spec)
    assert params.scales.shape == (2, 2)
    perm = np.array([7, 2, 5, 0, 1, 3, 6, 4])
    scale_p, zero_p = column_grid(params, perm)
    for t, col in enumerate(perm):
        g = col // 4
        assert np.array_equal(scale_p[:, t], params.scales[:, g])
        assert np.array_equal(zero_p[:, t], params.zero_points[:, g])


@pytest.mark.parametrize("symmetric", [True, False])
def test_column_grid_views_on_per_channel_grids(rng, symmetric):
    # per-channel: read-only views equal, value for value, to the gathers of
    # the one column; grouped: gathered copies of each column's group
    w = rng.normal(size=(5, 12))
    cols = rng.permutation(12)
    params = fit_grid(w, GridSpec(bits=3, symmetric=symmetric))
    scale, zero = column_grid(params, cols)
    first = np.zeros(12, dtype=np.intp)
    assert same_bits(scale, params.scales[:, first])
    assert same_bits(zero, params.zero_points[:, first].astype(np.float64))
    for view in (scale, zero):
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
    params = fit_grid(w, GridSpec(bits=3, symmetric=symmetric, group_size=4))
    scale, zero = column_grid(params, cols)
    assert same_bits(scale, params.scales[:, cols // 4])
    assert same_bits(zero, params.zero_points[:, cols // 4].astype(np.float64))
    assert scale.flags.writeable and zero.flags.writeable
    assert not np.shares_memory(scale, params.scales)


def test_dequantize_matches_levels(rng):
    w = rng.normal(size=(3, 6))
    params = fit_grid(w, GridSpec(bits=2, symmetric=True, group_size=3))
    codes = np.array([[-2, -1, 0, 1, -2, 1]] * 3, dtype=np.int32)
    deq = dequantize(codes, params)
    for r in range(3):
        for c in range(6):
            lv = levels(r, c, params)
            assert deq[r, c] in lv


def test_level_table_consistent(rng):
    # every level is a fixed point of rounding, with codes code_min..code_max
    w = rng.normal(size=(4, 5))
    spec = GridSpec(bits=3, symmetric=False)
    params = fit_grid(w, spec)
    scale, zero = column_grid(params, [2])
    for r in range(4):
        lv = levels(r, 2, params)
        assert lv.shape == (8,)
        codes, vals = round_to_grid(lv, scale[r, 0], zero[r, 0], spec)
        assert np.array_equal(codes, np.arange(spec.code_min, spec.code_max + 1))
        assert np.array_equal(vals, lv)


def test_mse_clip_never_worse(rng):
    w = rng.normal(size=(4, 32))
    w[0, 0] = 25.0  # outlier that plain min/max fitting wastes range on

    def total_err(params):
        scale, zero = column_grid(params, np.arange(w.shape[1]))
        _, vals = round_to_grid(w, scale, zero, params.spec)
        return float(np.sum((vals - w) ** 2))

    base = total_err(fit_grid(w, GridSpec(bits=3, symmetric=True)))
    clip = total_err(fit_grid(w, GridSpec(bits=3, symmetric=True, mse_clip=True)))
    assert clip <= base + 1e-12


def _reference_cases(rng):
    """(w, spec) pairs: random cells, cells whose errors overflow, cells whose best grids tie."""
    for bits in range(2, 9):
        for symmetric in (True, False):
            for mse_clip in (True, False):
                for _ in range(8):
                    m, n_groups = int(rng.integers(1, 5)), int(rng.integers(1, 4))
                    gsize = int(rng.choice([1, 2, 5, 16]))
                    group_size = 0 if n_groups == 1 and rng.random() < 0.5 else gsize
                    mag = 10.0 ** rng.uniform(-6, 3)
                    w = mag * (rng.normal(size=(m, n_groups * gsize)) + rng.choice([0.0, 2.0]))
                    w[0, :gsize] = w[0, 0]      # constant cell
                    w[-1, -gsize:] = 0.0        # all-zero cell
                    yield w, GridSpec(bits=bits, symmetric=symmetric, group_size=group_size,
                                      mse_clip=mse_clip)
    for bits in (3, 8):
        for symmetric in (True, False):
            for group_size in (0, 1, 4):
                for mag in (1e300, 1e307):
                    # every ratio's error overflows to inf; the first row is constant,
                    # so its cells' zero points overflow before the clip
                    w = mag * rng.normal(size=(3, 8))
                    w[0] = mag
                    yield w, GridSpec(bits=bits, symmetric=symmetric, group_size=group_size,
                                      mse_clip=True)
                w = rng.normal(size=(2, 8))
                w[0, :4] = (-1.5e308, 1.5e308, 1.0, -1.0)  # a range that overflows: NaN errors
                yield w, GridSpec(bits=bits, symmetric=symmetric, group_size=group_size,
                                  mse_clip=True)
    for mag in (1e-3, 1.0, 3.0):
        # on the 2-bit symmetric grid a cell {-M, 0, ...} is exact at ratio 0.5 (scale M/2,
        # code -2) and at ratio 1 (scale M, code -1): two grids tie at error 0
        w = np.zeros((2, 8))
        w[0, 0] = w[1, 5] = -mag
        for group_size in (0, 4):
            yield w, GridSpec(bits=2, symmetric=True, group_size=group_size, mse_clip=True)


def test_fit_grid_matches_per_cell_reference(rng, monkeypatch):
    # bit-equal to the per-cell loop: same ranges, same pairwise sums, same first-minimum
    # rule, also when the clip search splits the ratios into chunks of 1 and of 7, so that
    # ties fall both inside a chunk and across chunk boundaries
    default_entries = grid._CLIP_CHUNK_ENTRIES
    cases = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for w, spec in _reference_cases(rng):
            ref = fit_grid_reference(w, spec)
            for entries in (default_entries, w.size, 7 * w.size):
                monkeypatch.setattr(grid, "_CLIP_CHUNK_ENTRIES", entries)
                got = fit_grid(w, spec)
                assert np.array_equal(got.scales, ref.scales), (spec, entries)
                assert np.array_equal(got.zero_points, ref.zero_points), (spec, entries)
                assert got.zero_points.dtype == np.int32
            cases += 1
    assert cases >= 250


@pytest.mark.parametrize("group_size, bound", [(0, 8), (1, 20), (4, 20), (64, 8)],
                         ids=["group0", "group1", "group4", "group64"])
def test_fit_grid_mse_clip_memory_is_linear(rng, group_size, bound):
    # a chunk of clip ratios rounds at most _CLIP_CHUNK_ENTRIES weights at once; all 100
    # ratios at once would need >= 100 * m * n * 8 bytes (502x at group size 1). Small
    # groups pay more, since per-cell scales, zero points and errors grow with the cells
    m, n = 128, 256
    w = rng.normal(size=(m, n))
    spec = GridSpec(bits=4, symmetric=False, group_size=group_size, mse_clip=True)
    fit_grid(w, spec)
    tracemalloc.start()
    try:
        fit_grid(w, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * m * n * 8
