"""Tests for Haar bookkeeping, exact coefficients, and the discrete transform."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cpwave import JumpLaw, derive_stream, discrete_haar_forward, sample_grid, sample_path
from cpwave import schemes as schemes_module
from cpwave.haar import ladder, ladders, layout, nonzero_counts_by_scale, scale_counts, structure
from cpwave.processes import PathBlock
from cpwave.schemes import linear_errors

from reference import (
    SCALING,
    Atom,
    Coefficient,
    atom_from_index,
    atom_index,
    coeff,
    discrete_haar_inverse,
    jump_weight_scaling,
    jump_weight_wavelet,
    jumps_in_support,
    min_spacing,
    select,
    support,
)
from test_processes import make_path

LAW10 = JumpLaw(variance=0.1)


def scale_table(path, j):
    """Reference: the occupied atoms at scale j as (k, value, count) triples
    in shift order, one jump at a time. Each value is the left-to-right sum
    of height * tent weight over the atom's jumps."""
    times = path.jump_times
    heights = path.jump_heights
    scale = 2.0**j
    amp = 2.0 ** (-j / 2.0)
    buckets = {}
    for t, a in zip(times, heights):
        x = t * scale  # exact: multiplying a float by a power of two
        k = int(x)
        u = x - k
        w = -amp * min(u, 1.0 - u)
        value, count = buckets.get(k, (0.0, 0))
        buckets[k] = (value + a * w, count + 1)
    return [(k, value, count) for k, (value, count) in sorted(buckets.items())]


def ladder_at(path, j):
    """The ladder's atoms at scale j as (k, value, count) triples; j must lie
    below the path's resolution, where the ladder holds every occupied atom."""
    lad = ladder(path)
    assert j < lad.resolution
    at = lad.scale == j
    return list(zip(map(int, lad.shift[at]), lad.value[at].tolist(), lad.count[at].tolist()))


# ---------------------------------------------------------------------------
# indexing


def test_atom_index_values():
    assert atom_index(SCALING) == 0
    assert atom_index(Atom.wavelet(0, 0)) == 1
    assert atom_index(Atom.wavelet(3, 5)) == 13


def test_atom_index_exhaustive_roundtrip():
    for index in range(4096):
        assert atom_index(atom_from_index(index)) == index


@given(st.integers(min_value=0, max_value=2**20))
def test_atom_index_bijection_up_to_2_20(index):
    atom = atom_from_index(index)
    assert atom_index(atom) == index
    if atom.kind == "wavelet":
        assert 0 <= atom.k <= 2**atom.j - 1


@given(st.integers(min_value=0, max_value=24), st.data())
def test_atom_roundtrip_from_scale_shift(j, data):
    k = data.draw(st.integers(min_value=0, max_value=2**j - 1))
    atom = Atom.wavelet(j, k)
    assert atom_from_index(atom_index(atom)) == atom


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom.wavelet(2, 4)
    with pytest.raises(ValueError):
        Atom.wavelet(-1, 0)
    with pytest.raises(ValueError):
        Atom(kind="scaling", j=1)


# ---------------------------------------------------------------------------
# jump weights


def test_jump_weight_scaling_values():
    assert jump_weight_scaling(0.25) == pytest.approx(0.75)
    assert jump_weight_scaling(0.0) == 1.0
    assert jump_weight_scaling(1.0) == 0.0
    with pytest.raises(ValueError):
        jump_weight_scaling(1.5)


def test_jump_weight_wavelet_values():
    assert jump_weight_wavelet(0, 0, 0.25) == pytest.approx(-0.25)
    assert jump_weight_wavelet(1, 1, 0.25) == 0.0  # outside the support
    assert jump_weight_wavelet(0, 0, 0.5) == pytest.approx(-0.5)  # the peak
    with pytest.raises(ValueError):
        jump_weight_wavelet(0, 0, -0.1)


@given(st.integers(min_value=0, max_value=16), st.data())
@settings(max_examples=200)
def test_jump_weight_wavelet_support_and_peak(j, data):
    k = data.draw(st.integers(min_value=0, max_value=2**j - 1))
    t = data.draw(st.floats(min_value=0.0, max_value=1.0))
    w = jump_weight_wavelet(j, k, t)
    lo, hi = support(Atom.wavelet(j, k))
    if not (lo <= t < hi):
        assert w == 0.0
    assert abs(w) <= 2.0 ** (-j / 2.0 - 1.0) + 1e-15


def test_jump_weight_wavelet_vanishes_at_support_edges():
    assert jump_weight_wavelet(2, 1, 0.25) == 0.0  # left edge belongs to the atom
    assert jump_weight_wavelet(2, 0, 0.25) == 0.0  # right edge is outside


@given(st.integers(min_value=0, max_value=1023), st.floats(min_value=0.0, max_value=1.0), st.data())
@example(1023, 1.0, None)
@example(1023, 2.0**-1074, None)
@settings(max_examples=300)
def test_jump_weight_wavelet_keeps_its_bits_to_scale_1023(j, t, data):
    # the tent from t 2^j - k, as it was taken below scale 1024
    num, den = t.as_integer_ratio()
    cell = min((num << j) // den, 2**j - 1)
    shifts = [cell, max(cell - 1, 0), min(cell + 1, 2**j - 1), 0, 2**j - 1]
    if data is not None:
        shifts.append(data.draw(st.integers(min_value=0, max_value=2**j - 1)))
    for k in shifts:
        u = np.float64(t) * 2.0**j - k
        old = float(np.where((u >= 0.0) & (u < 1.0), -(2.0 ** (-j / 2.0)) * np.minimum(u, 1.0 - u), 0.0))
        new = jump_weight_wavelet(j, k, t)
        assert new == old
        if k < 2**53:  # a larger k rounds to a float that may be t 2^j, with u = -0.0
            assert new.hex() == old.hex()
    assert jump_weight_wavelet(j, cell, [t, t]).tolist() == [jump_weight_wavelet(j, cell, t)] * 2


@pytest.mark.parametrize("j, t", [(1100, 0.37), (1100, 2.0**-1074), (1050, 3 * 2.0**-1074)])
def test_jump_weight_wavelet_past_scale_1023_is_coeffs_weight(j, t):
    # 2^j overflowed there; the weight is coeff's on a one-jump, unit-height path
    num, den = t.as_integer_ratio()
    k = (num << j) // den
    weight = jump_weight_wavelet(j, k, t)
    assert weight == coeff(make_path([t], [1.0]), Atom.wavelet(j, k)).value
    assert jump_weight_wavelet(j, k + 1, t) == 0.0
    if j == 1050:  # t 2^j = 3 / 2^24 is a place in the cell, not its edge
        assert weight == -(2.0 ** (-j / 2.0)) * 3 * 2.0**-24 != 0.0


def test_jump_weights_refuse_nan():
    # nan fails every comparison, so a range test written as t < 0 or t > 1 lets it through
    for weigh in (jump_weight_scaling, lambda t: jump_weight_wavelet(0, 0, t)):
        for t in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                weigh(t)


# ---------------------------------------------------------------------------
# jump counting


def test_jumps_in_support_examples():
    empty = make_path([], [])
    assert jumps_in_support(empty, Atom.wavelet(3, 2)) == 0
    path = make_path([0.3], [1.0])
    assert jumps_in_support(path, Atom.wavelet(1, 0)) == 1
    assert jumps_in_support(path, Atom.wavelet(1, 1)) == 0
    assert jumps_in_support(path, SCALING) == 1


def test_jumps_in_support_half_open_boundary():
    path = make_path([0.5], [1.0])
    assert jumps_in_support(path, Atom.wavelet(1, 0)) == 0
    assert jumps_in_support(path, Atom.wavelet(1, 1)) == 1


# ---------------------------------------------------------------------------
# exact coefficients


def brute_force_coeff(path, atom):
    """Independent oracle: integrate path * atom exactly, segment by segment.

    Both factors are piecewise constant, so splitting at every breakpoint of
    either gives the exact integral.
    """
    if atom.kind == "scaling":
        pieces = [(0.0, 1.0, 1.0)]
    else:
        lo, hi = support(atom)
        mid = (lo + hi) / 2.0
        amp = 2.0 ** (atom.j / 2.0)
        pieces = [(lo, mid, amp), (mid, hi, -amp)]
    total = 0.0
    for lo, hi, amp in pieces:
        pts = sorted({lo, hi, *[t for t in path.jump_times if lo < t < hi]})
        for a, b in zip(pts, pts[1:]):
            total += amp * path.value_at((a + b) / 2.0) * (b - a)
    return total


def test_coeff_single_jump_examples():
    path = make_path([0.25], [1.0])
    c = coeff(path, Atom.wavelet(0, 0))
    assert c.value == pytest.approx(-0.25)
    assert c.jump_count == 1
    assert coeff(path, SCALING).value == pytest.approx(0.75)
    c11 = coeff(path, Atom.wavelet(1, 1))
    assert c11.value == 0.0 and c11.jump_count == 0


def test_coeff_matches_brute_force_integration():
    for seed in range(6):
        path = sample_path(8.0, JumpLaw(variance=0.125), derive_stream(20, seed))
        for j in range(0, 6):
            for k, value, count in ladder_at(path, j):
                atom = Atom.wavelet(j, k)
                assert value == pytest.approx(brute_force_coeff(path, atom), rel=1e-10, abs=1e-14)
                assert count == jumps_in_support(path, atom)
        c0 = coeff(path, SCALING)
        assert c0.value == pytest.approx(brute_force_coeff(path, SCALING), rel=1e-10)


def test_coeff_zero_iff_no_jump_in_support():
    for seed in range(40):
        path = sample_path(10.0, LAW10, derive_stream(21, seed))
        for j in range(0, 11):
            occupied = {k: (v, c) for k, v, c in ladder_at(path, j)}
            per_scale_total = sum(c for _, c in occupied.values())
            assert per_scale_total == path.num_jumps  # no jump lost or double-counted
            for k, (v, c) in occupied.items():
                assert c >= 1 and v != 0.0
        # spot-check absent atoms through the public single-atom api
        for k in (0, 3, 7):
            c = coeff(path, Atom.wavelet(3, k))
            assert (c.value == 0.0) == (c.jump_count == 0)


def test_coeff_counts_a_jump_past_the_float_grid():
    # membership is the exact cell floor(t 2^j) == k: past the path's
    # resolution, 53, the jump sits at its atom's left edge with weight 0,
    # where (k + 1) 2^-j rounds to the jump time itself
    path = make_path([0.37], [1.3])
    num, den = (0.37).as_integer_ratio()
    for j in range(53, 1024):
        k = (num << j) // den
        c = coeff(path, Atom.wavelet(j, k))
        assert (c.jump_count, c.value) == (1, 0.0)
        assert jumps_in_support(path, Atom.wavelet(j, k)) == 1
        assert coeff(path, Atom.wavelet(j, k + 1)).jump_count == 0


@pytest.mark.parametrize("j", [1024, 1100, 1127, 2000])
def test_coeff_counts_a_jump_past_scale_1023(j):
    # 2.0**j overflows past scale 1023; the tent weight comes from the exact
    # cell remainder, which is 0 past the jump time's last bit
    path = make_path([0.37], [1.3])
    num, den = (0.37).as_integer_ratio()
    k = (num << j) // den
    c = coeff(path, Atom.wavelet(j, k))
    assert (c.jump_count, c.value) == (1, 0.0)
    assert jumps_in_support(path, Atom.wavelet(j, k)) == 1
    assert coeff(path, Atom.wavelet(j, k + 1)).jump_count == 0


def test_coeff_weights_equal_jump_weight_wavelet():
    # below scale 1024 the exact remainder gives jump_weight_wavelet's
    # tent bit for bit; past it, a subnormal jump time still sits inside
    for path in (make_path([0.1, 0.37, 0.9], [1.3, -0.4, 2.0]), make_path([1e-300, 0.5], [1.0, 3.0])):
        for j in (0, 1, 5, 52, 60, 997, 1023):
            cells = [(num << j) // den for num, den in map(float.as_integer_ratio, path.jump_times)]
            for k in set(cells):
                c = coeff(path, Atom.wavelet(j, k))
                weights = jump_weight_wavelet(j, k, path.jump_times)
                assert c.jump_count == cells.count(k)
                assert c.value == math.fsum(path.jump_heights * weights)
    tiny = coeff(make_path([2.0**-1074], [1.3]), Atom.wavelet(1073, 0))
    assert (tiny.jump_count, tiny.value) == (1, 1.3 * (-(2.0 ** (-1073 / 2.0)) * 0.5))


# ---------------------------------------------------------------------------
# the coefficient ladder


@st.composite
def hand_paths(draw):
    """Paths with arbitrary, dyadic (few-bit) or tightly clustered jump times."""
    times = draw(
        st.one_of(
            st.lists(st.floats(min_value=1e-9, max_value=1 - 1e-9), min_size=1, max_size=12),
            st.lists(st.integers(1, 2**12 - 1), min_size=1, max_size=12).map(
                lambda ks: [k / 2**12 for k in ks]
            ),
            st.tuples(st.floats(0.1, 0.9), st.integers(2, 8), st.integers(20, 50)).map(
                lambda c: [c[0] + i * 2.0 ** -c[2] for i in range(c[1])]
            ),
        )
    )
    times = sorted(set(times))
    heights = draw(
        st.lists(
            st.floats(min_value=-4, max_value=4).filter(lambda h: h != 0.0),
            min_size=len(times),
            max_size=len(times),
        )
    )
    return make_path(times, heights)


def structure_paths():
    """Sampled paths at rates 3, 10 and 500, hand_paths' arbitrary, dyadic
    and clustered ones, pairs 2^-40 to 2^-50 apart, and times down to 2^-900."""
    sampled = st.tuples(st.sampled_from([3.0, 10.0, 500.0]), st.integers(0, 2**20)).map(
        lambda r: sample_path(r[0], JumpLaw.for_rate(r[0]), derive_stream(49, r[1]))
    )
    pairs = st.lists(st.tuples(st.floats(0.01, 0.9), st.integers(40, 50)), min_size=1, max_size=5)
    fine = st.lists(st.tuples(st.integers(1, 2**20 - 1), st.integers(1, 880)), min_size=1, max_size=8)
    return st.one_of(
        sampled,
        hand_paths(),
        pairs.map(lambda ps: sorted({t for c, d in ps for t in (c, c + 2.0**-d)})).map(
            lambda ts: make_path(ts, [1.0] * len(ts))
        ),
        fine.map(lambda ps: sorted({math.ldexp(m, -20 - x) for m, x in ps})).map(
            lambda ts: make_path(ts, [1.0] * len(ts))
        ),
    )


@given(structure_paths())
@example(make_path([0.37], [1.3]))
@example(make_path([0.375, 0.5], [1.0, -2.0]))
@example(make_path([2.0**-900, 2.0**-899, 0.5], [1.0, -1.0, 2.0]))
@example(make_path([0.3, 0.3 + 2.0**-50, 0.6, 0.6 + 2.0**-40], [1.0, -1.5, 0.7, 2.0]))
@settings(max_examples=150, deadline=None)
def test_ladder_equals_per_jump_reference(path):
    # the ladder reads its atoms off the structure; the floor-based
    # reference finds them one jump at a time, down to times of 2^-900 and
    # pairs 2^-40 to 2^-50 apart, where the frexp reading is most delicate
    lad = ladder(path)
    e = lad.resolution
    ratios = (float(t).as_integer_ratio()[1] for t in path.jump_times)
    assert e == max((d.bit_length() - 1 for d in ratios), default=0)
    for j in range(e):
        ref = scale_table(path, j)
        at = lad.scale == j
        assert lad.shift[at].tolist() == [float(k) for k, _, _ in ref]
        assert lad.value[at].tobytes() == np.array([v for _, v, _ in ref]).tobytes()
        assert lad.count[at].tolist() == [c for _, _, c in ref]
    assert lad.scale.size == sum(len(scale_table(path, j)) for j in range(e))
    # past the resolution every jump sits alone in its atom, coefficient 0.0
    n = path.num_jumps
    for j in range(e, e + 3):
        ref = scale_table(path, j)
        assert [(v, c) for _, v, c in ref] == [(0.0, 1)] * n
        for k, _, _ in ref:
            assert coeff(path, Atom.wavelet(j, k)).value == 0.0


@given(hand_paths(), st.integers(0, 60))
@example(make_path([], []), 5)
@example(make_path([0.375, 0.5], [1.0, -2.0]), 3)  # hi at the resolution
@example(make_path([0.375, 0.5], [1.0, -2.0]), 0)
@settings(max_examples=150, deadline=None)
def test_ladder_range_equals_rows_of_whole_ladder(path, depth):
    # every build is a prefix of scales from 0: scales [0, hi)
    whole = ladder(path)
    for hi in (depth, None):
        part = ladder(path, hi)
        top = whole.resolution if hi is None else hi
        rows = whole.scale < top
        assert part.resolution == whole.resolution
        for got, full in zip(part[1:], whole[1:]):
            assert got.dtype == full.dtype
            assert got.tobytes() == full[rows].tobytes()


@given(
    st.lists(
        st.tuples(st.one_of(structure_paths(), st.just(make_path([], []))), st.integers(0, 2000)),
        min_size=1,
        max_size=6,
    )
)
@example([(make_path([], []), 0), (make_path([0.375, 0.5], [1.0, -2.0]), 0),
          (make_path([0.375, 0.5], [1.0, -2.0]), 2), (make_path([0.3], [1.0]), 7)])
@settings(max_examples=100, deadline=None)
def test_ladders_of_a_block_are_its_paths_ladders(drawn):
    # one build of a block with empty paths, hi = 0 rows and mixed depths
    # holds each path's ladder values, bit for bit, path after path; and
    # each path's are the per-jump reference's at its scales below hi
    paths = [p for p, _ in drawn]
    block = PathBlock.of(paths)
    split, e = structure(block)
    hi = [d % (r + 1) for (_, d), r in zip(drawn, e)]
    values = ladders(block, hi, split)
    each = [ladder(p, h).value for p, h in zip(paths, hi)]
    assert values.dtype == np.float64
    assert values.tobytes() == np.concatenate(each).tobytes()
    for path, h, got in zip(paths, hi, each):
        ref = [v for j in range(h) for _, v, _ in scale_table(path, j)]
        assert got.tobytes() == np.array(ref, dtype=float).tobytes()


# a sampled time is a multiple of 2^-53; a dyadic one an odd multiple of
# any 2^-e down to 2^-1074, subnormal included
SAMPLED_TIMES = st.integers(1, 2**53 - 1).map(lambda m: m * 2.0**-53)
DYADIC_TIMES = st.tuples(st.integers(0, 2**52 - 1), st.integers(1, 1074)).map(
    lambda me: math.ldexp(2 * me[0] + 1, -me[1])).filter(lambda t: t < 1.0)


@given(st.one_of(SAMPLED_TIMES, DYADIC_TIMES))
@example(0.5)
@example(2.0**-1000)
@example(1.0 - 2.0**-53)
@example(0.5 + 2.0**-53)
@example(0.5 - 2.0**-53)
@example(2.0**-53)
@example(3 * 2.0**-53)
@example((2**53 - 3) * 2.0**-53)
@settings(max_examples=300, deadline=None)
def test_the_tent_is_the_distance_to_the_nearest_integer(t):
    # ladders takes the tent min(u, 1 - u), u = frac(t 2^j), as
    # |t 2^j - rint(t 2^j)|: the same bits at every scale j < 1024, also
    # where t 2^j >= 2^52 is an integer and where u is 1/2, a rint tie
    x = np.ldexp(t, np.arange(1024))
    u = x - np.floor(x)
    tent = np.minimum(u, 1.0 - u)
    assert np.abs(x - np.rint(x)).view(np.int64).tolist() == tent.view(np.int64).tolist()


def test_ladder_empty_path():
    lad = ladder(make_path([], []))
    assert lad.resolution == 0 and lad.value.size == 0
    assert lad.scale.size == lad.shift.size == lad.count.size == 0


def test_ladder_refuses_jumps_finer_than_scale_1023():
    # 2^-1000 alone needs 1000 scales; 2^-1000 + 2^-1050 needs 1050, and
    # t * 2^j overflows at j = 1024
    assert ladder(make_path([2.0**-1000, 0.5], [1.0, -1.0])).resolution == 1000
    with pytest.raises(ValueError, match="1023"):
        ladder(make_path([2.0**-1000 + 2.0**-1050, 0.5], [1.0, -1.0]))


@given(structure_paths())
@example(make_path([2.0**-900, 2.0**-899, 0.5], [1.0, -1.0, 2.0]))
@example(make_path([0.37], [1.3]))
@example(make_path([], []))
@settings(max_examples=100, deadline=None)
def test_structure_counts_the_ladders_atoms(path):
    # the split scales give each scale's atom count and the resolution, and
    # the certificate's c at every depth d: the most jumps of an atom at
    # scale d - 1, all N at depth 0, on a path with jumps; a block's
    # structure is its paths'. The ladder's scales are read off the
    # structure, so the per-jump reference checks them too
    split, (e,) = structure(path.block)
    lad = ladder(path)
    assert e == lad.resolution and type(e) is int
    # the layout's candidate count below every depth: the scaling
    # coefficient, when the path has jumps, and the ladder's atoms
    n = path.num_jumps
    for d in range(e + 1):
        atoms = scale_counts(split, np.array([n]), d)
        sizes, _ = layout(atoms, np.array([n]), np.array([d]), 1)
        assert sizes.tolist() == [(n > 0) + ladder(path, d).value.size]
    tables = [scale_table(path, j) for j in range(e)]
    for j, table in enumerate(tables):
        assert np.count_nonzero(split <= j) == np.count_nonzero(lad.scale == j) == len(table)
    for d in range(e + 1 if n else 0):
        c = schemes_module._most_jumps(split, np.array([n]), np.array([d]))
        most = n if d == 0 else max(count for _, _, count in tables[d - 1])
        assert c.tolist() == [most]
        assert d == 0 or most == lad.count[lad.scale == d - 1].max()
    both, es = structure(PathBlock.of([path, make_path([], []), path]))
    assert both.tolist() == split.tolist() * 2 and es == [e, 0, e]


def test_nonzero_counts_by_scale_reach_any_target():
    # a single jump occupies one atom per scale: 1023 scales to reach 1024
    counts = nonzero_counts_by_scale(make_path([0.37], [1.3]), 1024)
    assert counts == [2] + [1] * 1022
    assert nonzero_counts_by_scale(make_path([], []), 5) == [0]
    assert nonzero_counts_by_scale(make_path([0.37], [1.3]), 0) == []
    for seed in range(30):
        path = sample_path(10.0, LAW10, derive_stream(29, seed))
        if path.num_jumps == 0:
            continue
        counts = nonzero_counts_by_scale(path, 400)
        distinct = [len({int(t * 2.0**j) for t in path.jump_times}) for j in range(len(counts))]
        assert counts == [2] + distinct[1:]
        assert sum(counts[:-1]) < 400 <= sum(counts)


# ---------------------------------------------------------------------------
# expansion up to scale J: the first 2^(J+1) atoms, of which
# select(path, "linear", 2**(J+1)) lists those that hold a jump


def test_expand_zero_path():
    path = make_path([], [])
    assert select(path, "linear", 2**5).kept == ()
    for i in range(2**5):
        atom = atom_from_index(i)
        assert coeff(path, atom).value == 0.0 and jumps_in_support(path, atom) == 0


def test_expand_dense_iterator_indexed_and_complete():
    path = make_path([0.3, 0.6], [1.0, -1.0])
    kept = select(path, "linear", 2**4).kept
    lad = ladder(path)
    counts = {(1 << int(j)) + int(k): int(c) for j, k, c in zip(lad.scale, lad.shift, lad.count)}
    counts[0] = path.num_jumps
    listed = [atom_index(atom) for atom, _ in kept]
    assert listed == sorted(i for i in counts if i < 16)
    for atom, value in kept:
        ref = coeff(path, atom)
        assert value == ref.value and counts[atom_index(atom)] == ref.jump_count > 0
    for i in sorted(set(range(16)) - set(listed)):  # every other atom holds no jump
        assert coeff(path, atom_from_index(i)) == Coefficient(atom_from_index(i), 0.0, 0)


def test_expand_partial_energy_below_norm():
    for seed in range(20):
        path = sample_path(10.0, LAW10, derive_stream(23, seed))
        energy = math.fsum(v * v for _, v in select(path, "linear", 2**11).kept)
        assert energy <= path.l2_norm_sq() + 1e-12


def test_expand_tail_deficit_matches_geometric_sum():
    # expected energy beyond scale J is sigma0^2 * 2^-J / 12 (here sigma0^2 = 1)
    big_j = 12
    deficits = []
    for seed in range(10_000):
        path = sample_path(10.0, LAW10, derive_stream(24, seed))
        deficits.append(linear_errors(path, [2 ** (big_j + 1)])[0])
    assert all(d >= -1e-12 for d in deficits)
    expected = 2.0**-big_j / 12.0
    assert np.mean(deficits) == pytest.approx(expected, rel=0.10)


def test_per_scale_counts_exact_bounds():
    # exact packing bounds: n_j <= N, n_j = N once 2^j * spacing >= 1, and
    # n_j >= N * 2^j * spacing / (1 + 2^j * spacing)
    for seed in range(300):
        path = sample_path(10.0, LAW10, derive_stream(25, seed))
        n = path.num_jumps
        if n == 0:
            continue
        spacing = min_spacing(path)
        for j in range(1, 14):
            n_j = len(ladder_at(path, j))
            assert n_j <= n
            ratio = 2.0**j * spacing
            if ratio >= 1.0:
                assert n_j == n
            assert n_j >= n * ratio / (1.0 + ratio) - 1e-12


def test_per_scale_counts_typical_lower_bound():
    # the stronger display n_j >= N min(1, 2^j spacing) fails only on rare
    # tight-pair configurations; it should hold on the vast majority of paths
    ok = total = 0
    for seed in range(500):
        path = sample_path(10.0, LAW10, derive_stream(26, seed))
        n = path.num_jumps
        if n == 0:
            continue
        total += 1
        spacing = min_spacing(path)
        ok += all(
            len(ladder_at(path, j)) >= n * min(1.0, 2.0**j * spacing) - 1e-12
            for j in range(1, 14)
        )
    assert ok / total > 0.95


# ---------------------------------------------------------------------------
# discrete transform


def haar_filter_matrix(n):
    """Independent oracle: build the orthonormal Haar analysis matrix row by
    row from the definition (scaling row + tent-free square-wave details)."""
    rows = [np.full(n, 1.0 / math.sqrt(n))]
    levels = int(math.log2(n))
    for j in range(levels):
        block = n >> j
        for k in range(2**j):
            row = np.zeros(n)
            start = k * block
            row[start : start + block // 2] = 1.0
            row[start + block // 2 : start + block] = -1.0
            rows.append(row / math.sqrt(block))
    return np.vstack(rows)


def test_discrete_haar_constant_signal():
    out = discrete_haar_forward(np.array([1.0, 1.0, 1.0, 1.0]))
    assert out[0] == pytest.approx(2.0)
    assert np.allclose(out[1:], 0.0, atol=1e-15)


def test_discrete_haar_two_points():
    out = discrete_haar_forward(np.array([1.0, -1.0]))
    assert out == pytest.approx([0.0, math.sqrt(2.0)])


def test_discrete_haar_matches_filter_matrix():
    rng = derive_stream(27, 0)
    for n in (2, 8, 16, 64):
        x = rng.normal(0.0, 1.0, n)
        expected = haar_filter_matrix(n) @ x
        assert np.allclose(discrete_haar_forward(x), expected, atol=1e-12)


@given(st.integers(min_value=0, max_value=8), st.data())
@settings(max_examples=40, deadline=None)
def test_discrete_haar_roundtrip_and_energy(log2n, data):
    n = 2**log2n
    x = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=-100, max_value=100),
                min_size=n,
                max_size=n,
            )
        )
    )
    c = discrete_haar_forward(x)
    back = discrete_haar_inverse(c)
    assert np.max(np.abs(back - x)) < 1e-12 * max(1.0, np.max(np.abs(x)))
    ex, ec = float((x**2).sum()), float((c**2).sum())
    assert abs(ec - ex) <= 1e-10 * max(ex, 1e-300)


@pytest.mark.parametrize("log2n", [1, 3, 6, 10, 12])
def test_discrete_haar_rows_equal_one_row_calls(log2n):
    # rows of magnitudes 10^-200 to 10^200 side by side: each row of the 2-D
    # transform has the bits of its own 1-D transform
    rng = derive_stream(29, log2n)
    rows = rng.normal(0.0, 1.0, (12, 2**log2n)) * 10.0 ** rng.integers(-200, 201, (12, 1))
    block = discrete_haar_forward(rows)
    assert block.shape == rows.shape
    for got, row in zip(block, rows):
        assert got.tobytes() == discrete_haar_forward(row).tobytes()
    stacked = discrete_haar_forward(rows.reshape(3, 4, -1))
    assert stacked.tobytes() == block.tobytes()


def test_discrete_haar_rejects_bad_length():
    with pytest.raises(ValueError):
        discrete_haar_forward(np.arange(3, dtype=float))
    with pytest.raises(ValueError):
        discrete_haar_forward(np.zeros((4, 6)))
    with pytest.raises(ValueError):
        discrete_haar_inverse(np.arange(5, dtype=float))


def test_analytic_coeffs_match_grid_transform():
    # grid route at L=16, rescaled by 2^(-L/2), against the exact values;
    # the discrepancy per atom is discretization-limited, bounded by
    # 2^(-12) of the scale-j envelope for scales <= 3
    for seed in range(5):
        path = sample_path(10.0, LAW10, derive_stream(28, seed))
        grid = sample_grid(path, 16)
        d = discrete_haar_forward(grid) * 2.0**-8.0
        c0 = coeff(path, SCALING).value
        mass = float(np.abs(path.jump_heights).sum())  # envelope: mass * 2^(-j/2 - 1)
        assert abs(d[0] - c0) <= 2.0**-12 * max(abs(c0), mass * 2.0**-1.0)
        for j in range(0, 4):
            env = mass * 2.0 ** (-j / 2.0 - 1.0)
            table = {k: v for k, v, _ in ladder_at(path, j)}
            for k in range(2**j):
                value = table.get(k, 0.0)
                assert abs(d[(1 << j) + k] - value) <= 2.0**-12 * max(abs(value), env)
