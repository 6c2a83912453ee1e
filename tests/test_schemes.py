"""Tests for the linear / greedy / best selection schemes and their errors."""

import itertools
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cpwave import JumpLaw, derive_stream, sample_path
from cpwave import haar as haar_module
from cpwave import schemes as schemes_module
from cpwave.haar import ladder
from cpwave.processes import PathBlock, sample_block
from cpwave.schemes import (
    SCHEMES,
    best_errors,
    errors,
    errors_discrete,
    errors_discrete_rows,
    errors_rows,
    greedy_errors,
    linear_errors,
)

from reference import (
    SCALING,
    Atom,
    atom_from_index,
    atom_index,
    coeff,
    min_spacing,
    nonzero_scale_bounds,
    select,
    select_discrete,
    support,
)
from test_haar import hand_paths, scale_table
from test_processes import make_path
from test_startup import run_fresh

LAW10 = JumpLaw(variance=0.1)


def reconstruction_error_by_integration(path, selection):
    """Independent oracle: integrate (path - reconstruction)^2 exactly.

    Both the path and the kept-atom reconstruction are piecewise constant,
    so splitting [0, 1] at all jumps and all kept dyadic breakpoints makes
    the integrand constant on every piece.
    """
    pts = {0.0, 1.0, *map(float, path.jump_times)}
    for atom, _ in selection.kept:
        if atom.kind == "wavelet":
            lo, hi = support(atom)
            pts.update((lo, (lo + hi) / 2.0, hi))
    pts = sorted(pts)

    def reconstruction(t):
        total = 0.0
        for atom, value in selection.kept:
            if atom.kind == "scaling":
                total += value
            else:
                lo, hi = support(atom)
                if lo <= t < hi:
                    mid = (lo + hi) / 2.0
                    amp = 2.0 ** (atom.j / 2.0)
                    total += value * (amp if t < mid else -amp)
        return total

    return sum(
        (path.value_at((a + b) / 2.0) - reconstruction((a + b) / 2.0)) ** 2 * (b - a)
        for a, b in zip(pts, pts[1:])
        if b > a
    )


# ---------------------------------------------------------------------------
# linear


def test_linear_m0_error_is_full_energy():
    path = make_path([0.25], [1.0])
    sel = select(path, "linear", 0)
    assert sel.kept == ()
    assert sel.error_sq == pytest.approx(path.l2_norm_sq())


def test_linear_single_jump_m2():
    path = make_path([0.25], [1.0])
    sel = select(path, "linear", 2)
    assert [atom_index(a) for a, _ in sel.kept] == [0, 1]
    assert dict((atom_index(a), v) for a, v in sel.kept)[0] == pytest.approx(0.75)
    assert dict((atom_index(a), v) for a, v in sel.kept)[1] == pytest.approx(-0.25)
    assert sel.error_sq == pytest.approx(0.125)
    assert sel.error_sq == pytest.approx(reconstruction_error_by_integration(path, sel), rel=1e-12)


def test_linear_error_vanishes_along_dyadic_m():
    path = sample_path(10.0, LAW10, derive_stream(30, 0))
    errors = [select(path, "linear", 2**j).error_sq for j in range(11)]
    assert all(a >= b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3 * errors[0]


def test_linear_keeps_zero_valued_atoms():
    # linear keeps atoms 0 to 3 and lists the three that hold the jump
    path = make_path([0.9], [1.0])  # only the last atom of each scale is occupied
    sel = select(path, "linear", 4)
    assert [atom_index(a) for a, _ in sel.kept] == [0, 1, 3]
    assert coeff(path, atom_from_index(2)).value == 0.0  # wavelet (1, 0) has no jump in support
    assert sel.error_sq == pytest.approx(reconstruction_error_by_integration(path, sel), rel=1e-12)


# ---------------------------------------------------------------------------
# greedy


def test_greedy_zero_path_empty_and_exact():
    path = make_path([], [])
    for m in (0, 1, 5):
        sel = select(path, "greedy", m)
        assert sel.kept == () and sel.error_sq == 0.0


def test_greedy_single_jump_equals_sparse_linear():
    # with one jump, greedy with M atoms keeps exactly the nonzeros of the
    # linear scheme with 2^(M-1) atoms, and the deepest kept scale is M - 2
    path = make_path([0.37], [1.3])
    for m in (2, 3, 5, 8):
        greedy = select(path, "greedy", m)
        linear = select(path, "linear", 2 ** (m - 1))
        nonzero_linear = [(a, v) for a, v in linear.kept if v != 0.0]
        assert list(greedy.kept) == nonzero_linear
        assert greedy.error_sq == pytest.approx(linear.error_sq, rel=1e-12, abs=1e-15)
        assert greedy.kept[-1][0].j == m - 2


def test_greedy_scale_of_mth_nonzero_within_bounds():
    for seed in range(300):
        path = sample_path(10.0, LAW10, derive_stream(31, seed))
        n = path.num_jumps
        if n == 0:
            continue
        delta = min_spacing(path)
        for m in (2, 5, 16, 64):
            sel = select(path, "greedy", m)
            last_atom = sel.kept[-1][0]
            j_m = 0 if last_atom.kind == "scaling" else last_atom.j
            lo, hi = nonzero_scale_bounds(m, n, delta)
            assert lo <= j_m <= hi


def test_greedy_counts_structural_nonzeros():
    path = make_path([0.9], [1.0])
    sel = select(path, "greedy", 3)
    # scaling, wavelet (0,0), then the single occupied atom of scale 1
    assert [atom_index(a) for a, _ in sel.kept] == [0, 1, 3]


# ---------------------------------------------------------------------------
# best


def test_best_single_jump_m1_keeps_scaling():
    path = make_path([0.25], [1.0])
    sel = select(path, "best", 1)
    assert len(sel.kept) == 1
    assert sel.kept[0][0] == SCALING
    assert sel.kept[0][1] == pytest.approx(0.75)


def test_best_m0():
    path = make_path([0.25], [1.0])
    sel = select(path, "best", 0)
    assert sel.error_sq == pytest.approx(path.l2_norm_sq())


def brute_force_best(path, m, max_scale=25):
    cands = []
    c0 = coeff(path, SCALING)
    if c0.jump_count:
        cands.append((0, c0.value))
    for j in range(max_scale + 1):
        for k, v, _ in scale_table(path, j):
            cands.append(((1 << j) + k, v))
    cands.sort(key=lambda iv: (-abs(iv[1]), iv[0]))
    return sorted(cands[:m])


def test_best_matches_brute_force():
    for seed in range(25):
        path = sample_path(10.0, LAW10, derive_stream(32, seed))
        if path.num_jumps < 2:
            continue
        for m in (1, 4, 16):
            sel = select(path, "best", m)
            got = sorted((atom_index(a), v) for a, v in sel.kept)
            assert got == brute_force_best(path, m)


def test_best_error_by_integration():
    for seed in range(4):
        path = sample_path(6.0, JumpLaw(variance=1 / 6), derive_stream(33, seed))
        for m in (3, 8, 20):
            sel = select(path, "best", m)
            oracle = reconstruction_error_by_integration(path, sel)
            assert sel.error_sq == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_greedy_error_by_integration():
    for seed in range(4):
        path = sample_path(6.0, JumpLaw(variance=1 / 6), derive_stream(34, seed))
        for m in (2, 9, 33, 64):
            sel = select(path, "greedy", m)
            oracle = reconstruction_error_by_integration(path, sel)
            assert sel.error_sq == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_single_jump_greedy_reaches_m_1024():
    # one jump occupies one atom per scale, so M = 1024 reaches scale 1022;
    # past the path's resolution every kept coefficient is exactly 0.0, so
    # a selection lists the scaling atom and one atom per scale below it
    path = make_path([0.37], [1.3])
    e = ladder(path).resolution
    assert greedy_errors(path, [1024]) == best_errors(path, [1024])
    for scheme in ("greedy", "best"):
        sel = select(path, scheme, 1024)
        assert len(sel.kept) == e + 1
        assert sel.kept[-1][0] == Atom.wavelet(e - 1, int(0.37 * 2.0 ** (e - 1)))
        assert sel.error_sq == greedy_errors(path, [1024])[0]
    for j in range(e, 1023):
        assert coeff(path, Atom.wavelet(j, int(0.37 * 2.0**j))).value == 0.0
    # every candidate is kept, and they hold every nonzero coefficient
    assert greedy_errors(path, [1024]) == [0.0]


def test_near_zero_error_clamped_not_negative():
    # a single-jump path is fully captured once every occupied atom down to
    # float resolution is kept; the error is then exactly 0.0, never negative
    path = make_path([0.5], [1.0])
    sel = select(path, "greedy", 80)
    assert 0.0 <= sel.error_sq < 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-150])
def test_errors_refuse_a_path_energy_below_its_kept_energy(monkeypatch, scale):
    # the accounting gate: a path energy 1e-9 relative below the energy
    # greedy keeps is an accounting bug, at unit energy as at 1e-300; the
    # slack for subnormal rounding stays far below it
    path = make_path([0.25, 0.6, 0.75], [scale, -2.0 * scale, 0.5 * scale])
    ((err,),) = errors(path, ("greedy",), [2])
    real = PathBlock.sums

    def forged(block):
        scaling, energy = real(block)
        return scaling, (energy - err) * (1.0 - 1e-9)

    monkeypatch.setattr(PathBlock, "sums", forged)
    with pytest.raises(schemes_module.InvariantViolation, match="kept energy exceeds"):
        errors(path, ("greedy",), [2])


# ---------------------------------------------------------------------------
# ordering, monotonicity, profiles


@given(
    st.lists(st.floats(min_value=1e-3, max_value=0.999), min_size=0, max_size=10, unique=True),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_scheme_ordering_and_monotonicity(times, data):
    times = sorted(times)
    heights = data.draw(
        st.lists(
            st.floats(min_value=-4, max_value=4).filter(lambda h: abs(h) > 1e-6),
            min_size=len(times),
            max_size=len(times),
        )
    )
    path = make_path(times, heights)
    ms = [0, 1, 2, 3, 5, 8, 13, 21]
    lin = linear_errors(path, ms)
    gre = greedy_errors(path, ms)
    bst = best_errors(path, ms)
    for b, g, l in zip(bst, gre, lin):
        assert b <= g <= l
    for errs in (lin, gre, bst):
        assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_profiles_match_single_selections():
    path = sample_path(10.0, LAW10, derive_stream(35, 1))
    ms = [0, 1, 3, 8, 17, 64]
    assert linear_errors(path, ms) == [select(path, "linear", m).error_sq for m in ms]
    assert greedy_errors(path, ms) == [select(path, "greedy", m).error_sq for m in ms]
    assert best_errors(path, ms) == [select(path, "best", m).error_sq for m in ms]


TIE_PRONE_HEIGHTS = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


@st.composite
def tie_prone_paths(draw):
    """Paths with jumps on a dyadic grid and heights from a small set, so many
    coefficients share one magnitude."""
    ticks = sorted(draw(st.lists(st.integers(1, 255), max_size=10, unique=True)))
    heights = draw(st.lists(TIE_PRONE_HEIGHTS, min_size=len(ticks), max_size=len(ticks)))
    return make_path([k / 256 for k in ticks], heights)


@st.composite
def arbitrary_paths(draw):
    times = sorted(draw(st.lists(st.floats(1e-3, 0.999), max_size=10, unique=True)))
    heights = draw(st.lists(st.floats(-4, 4).filter(lambda h: abs(h) > 1e-6),
                            min_size=len(times), max_size=len(times)))
    return make_path(times, heights)


@given(st.one_of(tie_prone_paths(), arbitrary_paths()))
@example(make_path([0.125, 0.375, 0.625, 0.875], [1.0, -1.0, 1.0, -1.0]))  # mirrored heights
@example(make_path([0.25, 0.75], [1.0, -1.0]))
@settings(max_examples=50, deadline=None)
def test_errors_rows_equal_views_and_selections(path):
    ms = [0, 1, 2, 3, 5, 8, 13, 21, 64]
    rows = errors(path, SCHEMES, ms)
    assert rows == [linear_errors(path, ms), greedy_errors(path, ms), best_errors(path, ms)]
    for row, scheme in zip(rows, SCHEMES):
        assert row == [select(path, scheme, m).error_sq for m in ms]


def reference_errors(path, scheme, ms):
    """Errors read from the whole ladder with no depth bound: the scaling
    coefficient and every ladder atom as candidates, best by a full sort,
    linear by comparing each atom index with M, 0.0 once every candidate is
    kept and the Parseval remainder otherwise."""
    lad = ladder(path)
    values = ([coeff(path, SCALING).value] if path.num_jumps else []) + lad.value.tolist()
    sq = (np.array(values) ** 2).tolist()
    index = [0] + [(1 << int(j)) + int(k) for j, k in zip(lad.scale, lad.shift)]
    order = sorted(sq, reverse=True) if scheme == "best" else sq
    total = path.l2_norm_sq()
    out = []
    for m in ms:
        if scheme == "linear":
            count = sum(i < m for i in index[: len(sq)])
        else:
            count = min(m, len(sq))
        out.append(0.0 if count == len(sq) else max(total - math.fsum(order[:count]), 0.0))
    return out


@st.composite
def spiked_paths(draw):
    """A tight cluster of jumps with one height 10^6 times the others, so the
    depth certificate's worst-case bound is far above most squares."""
    centre = draw(st.floats(0.1, 0.9))
    size = draw(st.integers(2, 8))
    gap = draw(st.integers(20, 50))
    heights = draw(st.lists(st.floats(0.5, 2.0), min_size=size, max_size=size))
    heights[draw(st.integers(0, size - 1))] *= 1e6
    return make_path([centre + i * 2.0**-gap for i in range(size)], heights)


LAW500 = JumpLaw.for_rate(500.0)
M_1024 = [4, 8, 16, 32, 64, 128, 256, 512, 1024]


def jumps(paths):
    """Each path's jump times and heights as bytes, which is how a build's
    paths are compared with the paths it was asked to read."""
    return [(p.jump_times.tobytes(), p.jump_heights.tobytes()) for p in paths]


def paths_of(block):
    """The paths of a PathBlock, rebuilt one by one."""
    ends = block.bounds.tolist()
    return [make_path(block.times[a:b], block.heights[a:b]) for a, b in zip(ends, ends[1:])]


def counting_ladders(calls):
    """A stand-in for schemes.ladders that records, per call, its paths and
    the depth each is built to: every build is a prefix of scales from 0,
    and a re-read asks for the path's resolution."""
    real = schemes_module.ladders

    def counted(block, hi, split, *rest):
        calls.append((paths_of(block), hi))
        return real(block, hi, split, *rest)

    return counted


def first_depth(path, k):
    """The depth errors_rows and select first build a path to for M <= k."""
    return min(schemes_module._first_depth(path.num_jumps, k), ladder(path, 0).resolution)


def test_errors_equal_whole_ladder_reference():
    branches = set()

    @given(
        st.one_of(
            hand_paths(),
            tie_prone_paths(),
            spiked_paths(),
            st.integers(0, 2**20).map(lambda s: sample_path(500.0, LAW500, derive_stream(36, s))),
        ),
        st.lists(st.integers(0, 2000), min_size=1, max_size=6),
        st.sampled_from([SCHEMES, ("best",), ("greedy",), ("linear",), ("best", "linear")]),
    )
    @example(sample_path(500.0, LAW500, derive_stream(36, 0)), M_1024 + [4096], SCHEMES)
    # forced to depth 0 the ladder is empty; the certificate must still hold
    @example(sample_path(500.0, LAW500, derive_stream(36, 0)), [1], ("best",))
    @example(make_path([0.3 + i * 2.0**-40 for i in range(4)], [1.0, 1e6, -1.5, 0.7]), [0, 5, 21], SCHEMES)
    @example(make_path([0.3 + i * 2.0**-40 for i in range(4)], [1.0, 1e6, -1.5, 0.7]), [3], ("best",))
    # the coarse atoms of the +-10^6 pair nearly cancel; it separates near
    # scale 44, so best's top 10 lies far below the first depth
    @example(make_path([0.3, 0.3 + 2.0**-45, 0.6], [1e6, -1e6, 1.0]), [1, 10], ("best",))
    # two equal jumps 2^-50 apart near 2^-17 share their atoms well past the
    # first depth, where their summed value beats a one-jump bound
    @example(
        make_path(
            [6.607284542294633e-06, 6.607284542294633e-06 + 2.0**-50, 0.5699306398490204,
             0.8982919661062986],
            [1.0, 1.0, 0.3846932332327875, -0.8087581900334564],
        ),
        [19],
        ("best",),
    )
    @example(make_path([0.25, 0.75], [1.0, -1.0]), [0], SCHEMES)
    @example(make_path([], []), [0, 7], SCHEMES)
    # a sampled path whose certificate fails at its first depth
    @example(sample_path(3.0, JumpLaw.for_rate(3.0), derive_stream(7, 132)), [4, 16, 64], SCHEMES)
    @settings(max_examples=100, deadline=None)
    def check(path, ms, chosen):
        calls = []
        real_ladders = schemes_module.ladders
        schemes_module.ladders = counting_ladders(calls)
        try:
            rows = errors(path, chosen, ms)
        finally:
            schemes_module.ladders = real_ladders
        expected = [reference_errors(path, scheme, ms) for scheme in chosen]
        assert rows == expected
        # one build below the first depth, and at most one more, of the
        # whole ladder from scale 0 to the resolution, when the certificate
        # fails
        e = ladder(path, 0).resolution
        (_, (built,)), *rest = calls
        assert built == first_depth(path, max(ms))
        if rest:
            ((again, whole),) = rest
            assert jumps(again) == jumps([path]) and whole == [e] and built < e
            branches.add("reread")
        elif built < e:
            branches.add("truncated")
        # the certificate, not the first depth, makes the errors exact: any
        # first depth gives the same rows, from the depth linear needs,
        # bit_length(max M), which every first depth reaches
        # (test_first_depth_reaches_every_scale_linear_keeps)
        real_first_depth = schemes_module._first_depth
        lowest = min(max(ms).bit_length() if "linear" in chosen else 0, e)
        try:
            for depth in range(lowest, e + 2):
                schemes_module._first_depth = lambda n, k: depth
                assert errors(path, chosen, ms) == expected
        finally:
            schemes_module._first_depth = real_first_depth

    check()
    assert branches == {"truncated", "reread"}


def test_first_depth_reaches_every_scale_linear_keeps():
    # linear keeps atoms of index below M <= k, at scales below
    # bit_length(k), and the certificate does not test for them: every first
    # depth of a path with jumps reaches that scale, k being at most _MAX_K
    ks = [0, 1, 2, 3] + [2**j + d for j in range(2, 63) for d in (-1, 0, 1)]
    rng = np.random.default_rng(48)
    pairs = [(n, k) for n in range(1, 5000) for k in ks]
    pairs += zip(rng.integers(1, 2**40, 20_000).tolist(), rng.integers(0, schemes_module._MAX_K, 20_000).tolist())
    assert all(schemes_module._first_depth(n, k) >= k.bit_length() for n, k in pairs)


def test_select_rereads_a_rejected_path_whole(monkeypatch):
    # select reads its error through errors_rows: one build below the first
    # depth, or, when the certificate fails, one more build of the whole
    # ladder from scale 0; then it lists its kept candidates from one more
    # build of the path, haar.ladder's, to its resolution
    calls, verdicts = [], []
    real_certified = schemes_module._certified

    def recording_certified(*args):
        held = real_certified(*args)
        verdicts.append(held.tolist())
        return held

    counted = counting_ladders(calls)
    monkeypatch.setattr(schemes_module, "ladders", counted)
    monkeypatch.setattr(haar_module, "ladders", counted)
    monkeypatch.setattr(schemes_module, "_certified", recording_certified)
    paths = [sample_path(lam, JumpLaw.for_rate(lam), derive_stream(39, seed))
             for lam in (3.0, 10.0, 100.0, 500.0) for seed in range(4)]
    # its +-10^6 pair separates near scale 44, far below the first depth
    paths.append(make_path([0.3, 0.3 + 2.0**-45, 0.6], [1e6, -1e6, 1.0]))
    reread = 0
    for path in paths:
        e = ladder(path).resolution
        for scheme, m in itertools.product(SCHEMES, (0, 1, 10, 32, 1024)):
            calls.clear()
            verdicts.clear()
            select(path, scheme, m)
            (_, (built,)), *rest, (listed, (at,)) = calls
            assert jumps(listed) == jumps([path]) and at == e
            assert built == first_depth(path, m) and len(rest) <= 1
            assert bool(rest) == (verdicts == [[False]])
            if rest:
                ((again, whole),) = rest
                assert jumps(again) == jumps([path]) and whole == [e]
                assert built < e
            reread += bool(rest)
    assert reread > 0


def whole_ladder_selection(path, scheme, m):
    """The kept candidates read from the whole ladder, with no depth bound,
    and the error errors gives for that scheme and M."""
    lad = ladder(path)
    values = np.array(([coeff(path, SCALING).value] if path.num_jumps else []) + lad.value.tolist())
    index = [0] + [(1 << int(j)) + int(k) for j, k in zip(lad.scale, lad.shift)]
    count = sum(i < m for i in index[: values.size]) if scheme == "linear" else min(m, values.size)
    if scheme == "best":  # a stable sort sends ties to the smaller index
        picked = np.sort(np.argsort(-np.abs(values), kind="stable")[:count]).tolist()
    else:
        picked = range(count)
    kept = []
    for p in picked:
        atom = Atom.wavelet(int(lad.scale[p - 1]), int(lad.shift[p - 1])) if p else SCALING
        kept.append((atom, float(values[p])))
    return kept, errors(path, (scheme,), [m])[0][0]


@given(
    st.one_of(tie_prone_paths(), arbitrary_paths(), spiked_paths()),
    st.integers(0, 300),
    st.sampled_from(SCHEMES),
)
@example(sample_path(500.0, LAW500, derive_stream(36, 0)), 32, "best")
@example(sample_path(500.0, LAW500, derive_stream(36, 0)), 1024, "greedy")
@example(make_path([0.3, 0.3 + 2.0**-45, 0.6], [1e6, -1e6, 1.0]), 10, "best")
@example(make_path([], []), 5, "greedy")
@settings(max_examples=100, deadline=None)
def test_select_equals_whole_ladder_reference(path, m, scheme):
    sel = select(path, scheme, m)
    kept, error = whole_ladder_selection(path, scheme, m)
    assert [(a, v.hex()) for a, v in sel.kept] == [(a, v.hex()) for a, v in kept]
    assert row_bits([[sel.error_sq]]) == row_bits([[error]])
    if scheme == "linear":  # every atom below M that is not listed holds no jump
        listed = {atom_index(a) for a, _ in sel.kept}
        assert all(coeff(path, atom_from_index(i)).value == 0.0 for i in range(m) if i not in listed)


def test_select_costs_what_the_path_costs():
    # a selection lists only the candidates it keeps, so any M reads the
    # path's whole ladder once: linear at M = 2^J the atoms at scales below
    # J, and greedy and best at 2^70 every candidate, in index order
    path = make_path([0.3, 0.6], [1.0, -1.0])
    lad = ladder(path)
    every = [SCALING] + [Atom.wavelet(int(j), int(k)) for j, k in zip(lad.scale, lad.shift)]
    for scheme, m in (("linear", 2**19), ("linear", 2**40), ("greedy", 2**70), ("best", 2**70)):
        sel = select(path, scheme, m)
        listed = every[: 1 + np.count_nonzero(lad.scale < m.bit_length() - 1)]
        assert [a for a, _ in sel.kept] == listed
        assert [v for _, v in sel.kept] == [coeff(path, a).value for a in listed]
        assert sel.error_sq == errors(path, (scheme,), [m])[0][0]
    assert sel.error_sq == 0.0  # best at 2^70 keeps every candidate


def row_bits(rows):
    """Rows as bit patterns, so that nan and the sign of a zero count."""
    return [np.array(row, dtype=float).view(np.uint64).tolist() for row in rows]


RATES = (3.0, 10.0, 100.0, 500.0)
SCHEME_SUBSETS = [s for r in (1, 2, 3) for s in itertools.combinations(SCHEMES, r)]


@given(
    st.one_of(
        hand_paths(),  # arbitrary, dyadic and clustered jump times
        st.tuples(st.sampled_from(RATES), st.integers(0, 2**20)).map(
            lambda a: sample_path(a[0], JumpLaw.for_rate(a[0]), derive_stream(38, a[1]))
        ),
    ),
    st.lists(st.integers(0, 2000), min_size=1, max_size=8),
    st.booleans(),
    st.sampled_from(SCHEME_SUBSETS),
)
# squares that overflow to inf, and finite squares too large for the exact
# sums, whose kept energies then come from fsum over the squares themselves
@example(make_path([0.3, 0.6], [1e200, -1e200]), [0, 1, 2, 5], True, SCHEMES)
@example(make_path([0.25, 0.5, 0.75], [1.2e154, 1.2e154, -1.3e154]), [1, 3, 8], False, SCHEMES)
@example(make_path([0.25, 0.75], [1e154, -1e154]), [1, 2, 4], True, ("best", "linear"))
@example(sample_path(500.0, LAW500, derive_stream(38, 0)), M_1024, True, SCHEMES)
@example(make_path([], []), [0, 3], True, SCHEMES)
@settings(max_examples=100, deadline=None)
def test_errors_kept_sums_equal_per_m_fsum(path, ms, past_total, chosen):
    # the reference re-sums every kept prefix with fsum: total - fsum(kept[:c]),
    # or 0.0 once every candidate of the whole ladder is kept
    size = ladder(path).value.size + (1 if path.num_jumps else 0)
    ms = sorted(set(ms) | ({size, size + 1} if past_total else set()))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            expected = row_bits([reference_errors(path, scheme, ms) for scheme in chosen])
        except OverflowError:
            with pytest.raises(OverflowError):
                errors(path, chosen, ms)
            return
        assert row_bits(errors(path, chosen, ms)) == expected


BLOCK_RATES = (0.5, 10.0, 100.0, 500.0)


@st.composite
def path_blocks(draw):
    """A block of paths with 0, 1 and many jumps: hand-made (arbitrary,
    dyadic, clustered), sampled at rates 0.5 to 500, and spiked paths whose
    ladders extend past their first depth."""
    one = st.one_of(
        st.just(make_path([], [])),
        st.tuples(st.floats(1e-6, 1 - 1e-6), st.floats(0.1, 4.0)).map(lambda a: make_path([a[0]], [a[1]])),
        hand_paths(),
        spiked_paths(),
        st.tuples(st.sampled_from(BLOCK_RATES), st.integers(0, 2**20)).map(
            lambda a: sample_path(a[0], JumpLaw.for_rate(a[0]), derive_stream(40, a[1]))
        ),
    )
    return draw(st.lists(one, min_size=1, max_size=8))


@given(
    path_blocks(),
    st.lists(st.integers(1, 4), min_size=1, max_size=8),
    st.sampled_from(SCHEME_SUBSETS),
    st.lists(st.integers(0, 3000), min_size=1, max_size=6),
)
@example([make_path([], []), make_path([0.37], [1.3])], [1], SCHEMES, [0, 1, 3, 2000])
# the +-10^6 pair extends past its first depth; the paths beside it do not
@example(
    [sample_path(10.0, LAW10, derive_stream(40, 1)), make_path([0.3, 0.3 + 2.0**-45, 0.6], [1e6, -1e6, 1.0]),
     sample_path(500.0, LAW500, derive_stream(40, 2))],
    [3], ("best",), [1, 10, 1024],
)
@settings(max_examples=60, deadline=None)
def test_errors_rows_any_split_equals_one_path_calls(paths, sizes, chosen, ms):
    # every block, whatever the paths beside it, gives each path the bits
    # of its own one-path call; M runs past the candidate count too
    single = [errors(path, chosen, ms) for path in paths]
    blocks, start = [], 0
    for size in itertools.cycle(sizes):
        if start >= len(paths):
            break
        blocks.append(errors_rows(paths[start : start + size], chosen, ms))
        start += size
    rows = np.concatenate(blocks)
    assert rows.shape == (len(paths), len(chosen), len(ms))
    assert row_bits(rows.reshape(-1, len(ms))) == row_bits(sum(single, []))


def test_errors_rows_match_the_whole_ladder_reference_on_a_mixed_block(monkeypatch):
    spiked = make_path([0.3, 0.3 + 2.0**-45, 0.6], [1e6, -1e6, 1.0])
    paths = [make_path([], []), make_path([0.37], [1.3]), spiked]
    paths += [sample_path(lam, JumpLaw.for_rate(lam), derive_stream(41, s)) for lam in BLOCK_RATES for s in range(3)]
    ms = [0, 1, 4, 64, 1024, 3000]
    calls = []
    monkeypatch.setattr(schemes_module, "ladders", counting_ladders(calls))
    rows = errors_rows(paths, ("best",), [1, 10])
    # one build of the block, and one whole build of the spiked path alone,
    # from scale 0 to its resolution: its +-10^6 pair separates near scale
    # 44, far below its first depth
    (first, built), (again, whole) = calls
    assert jumps(first) == jumps(paths) and built == [first_depth(p, 10) for p in paths]
    assert jumps(again) == jumps([spiked]) and whole == [ladder(spiked).resolution]
    assert built[2] < whole[0]
    for got, path in zip(rows, paths):
        assert row_bits(got) == row_bits([reference_errors(path, "best", [1, 10])])
    rows = errors_rows(paths, SCHEMES, ms)
    for got, path in zip(rows, paths):
        assert row_bits(got) == row_bits([reference_errors(path, s, ms) for s in SCHEMES])


def split_passes(calls, paths):
    """The builds of one errors_rows call on distinct paths, split into its
    first builds, which read every path once and in order, and the re-reads
    each block makes after its first builds."""
    firsts, rereads, done = [], [], 0
    for group, hi in calls:
        first = jumps(group) == jumps(paths[done : done + len(group)])
        (firsts if first else rereads).append((group, hi))
        done += len(group) if first else 0
    assert done == len(paths)
    return firsts, rereads


def assert_within_budget(builds, budget):
    """Each build holds at most budget (scale, jump) cells, every path's
    jumps counted to the build's deepest, or is one path, and takes every
    path that fits; each build's path count and cells."""
    held = []
    for (group, hi), after in zip(builds, builds[1:] + [([], [])]):
        n = sum(p.num_jumps for p in group)
        held.append((len(group), n * max(hi)))
        assert len(group) == 1 or held[-1][1] <= budget
        if after[0]:  # the next build's first path did not fit
            assert (n + after[0][0].num_jumps) * max(hi + after[1][:1]) > budget
    return held


def spiked_sample(lam, seed):
    """A sampled path with a +-10^6 jump pair 2^-45 apart put in at 0.3: the
    pair separates near scale 44, so the certificate fails at small M."""
    path = sample_path(lam, JumpLaw.for_rate(lam), derive_stream(43, seed))
    times = np.concatenate((path.jump_times, [0.3, 0.3 + 2.0**-45]))
    heights = np.concatenate((path.jump_heights, [1e6, -1e6]))
    order = np.argsort(times, kind="stable")
    return make_path(times[order], heights[order])


def test_errors_rows_builds_consecutive_paths_within_the_cell_budget(monkeypatch):
    # errors_rows sizes its own builds: consecutive paths whose first builds
    # hold at most _BUILD_CELLS (scale, jump) cells, every path counted to
    # the build's largest depth, or one path past it;
    # then the rejected paths of the call, to their resolution, within the
    # budget too; each build's arrays are freed before the next is
    # allocated; and each row keeps the bits of the path's one-path call
    calls, alive = [], []
    counted = counting_ladders(calls)
    monkeypatch.setattr(schemes_module, "ladders", counted)
    # the benchmark's traffic, M up to 1024: 16 paths are one build at
    # lambda = 10 and several at lambda = 500, the harness's block there,
    # none a re-read
    for lam, several in ((10.0, False), (500.0, True)):
        block = [sample_path(lam, JumpLaw.for_rate(lam), derive_stream(1, t)) for t in range(16)]
        calls.clear()
        errors_rows(block, SCHEMES, M_1024)
        assert jumps(p for group, _ in calls for p in group) == jumps(block)
        assert (len(calls) > 1) == several
    budget = 2000
    monkeypatch.setattr(schemes_module, "_BUILD_CELLS", budget)
    paths = [sample_path(lam, JumpLaw.for_rate(lam), derive_stream(42, s))
             for s in range(3) for lam in BLOCK_RATES]
    # the +-10^6 pair separates near scale 44, far below its first depth,
    # and the last path's certificate fails at M <= 64 too
    paths[4:4] = [make_path([0.3, 0.3 + 2.0**-45, 0.6], [1e6, -1e6, 1.0]), make_path([], [])]
    paths.append(sample_path(3.0, JumpLaw.for_rate(3.0), derive_stream(7, 132)))
    # re-read several to a build, and alone past the budget
    paths += [spiked_sample(lam, s) for s in range(3) for lam in (3.0, 10.0, 100.0)]
    ms = [1, 10, 64]
    single, rejected = [], []
    for path in paths:
        calls.clear()
        single.append(errors(path, SCHEMES, ms))
        if len(calls) > 1:
            rejected.append(path)
    assert len(rejected) >= 8

    def freeing_ladders(block, hi, split, *rest):
        assert all(ref() is None for ref in alive)  # the last build is gone
        values = counted(block, hi, split, *rest)
        alive.append(weakref.ref(values))
        return values

    monkeypatch.setattr(schemes_module, "ladders", freeing_ladders)
    calls.clear()
    rows = errors_rows(paths, SCHEMES, ms)
    firsts, rereads = split_passes(calls, paths)
    assert jumps(p for group, _ in firsts for p in group) == jumps(paths)
    assert jumps(p for group, _ in rereads for p in group) == jumps(rejected)
    assert all(hi == [ladder(p).resolution for p in group] for group, hi in rereads)
    for held in (assert_within_budget(firsts, budget), assert_within_budget(rereads, budget)):
        assert any(size > 1 for size, _ in held)
        assert any(cells > budget for _, cells in held)
    assert row_bits(rows.reshape(-1, len(ms))) == row_bits(sum(single, []))


def test_a_deep_path_keeps_its_build_within_the_cell_budget(monkeypatch):
    # a time of 2^-1000 needs 1000 scales, and with 2 jumps the path is first
    # built to 522 at M <= 1024, mid-block among lambda = 10 paths. A build
    # is counted as every path's jumps times its largest depth, the shape of
    # its (jump, scale) arrays, so it stays within _BUILD_CELLS, and the
    # block's traced peak stays near that of the block without the path
    paths = [sample_path(10.0, JumpLaw.for_rate(10.0), derive_stream(3, t)) for t in range(64)]
    deep = make_path([2.0**-1000, 0.5], [1.0, -1.0])
    mixed = paths[:32] + [deep] + paths[32:]
    errors_rows(mixed, SCHEMES, M_1024)  # so that no first-call set-up lands in a peak
    peaks = []
    for block in (paths, mixed):
        tracemalloc.start()
        try:
            errors_rows(block, SCHEMES, M_1024)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
    calls = []
    monkeypatch.setattr(schemes_module, "ladders", counting_ladders(calls))
    errors_rows(mixed, SCHEMES, M_1024)
    firsts, _ = split_passes(calls, mixed)
    ((group, hi),) = [(group, hi) for group, hi in firsts if jumps([deep])[0] in jumps(group)]
    assert hi[jumps(group).index(jumps([deep])[0])] == first_depth(deep, 1024) == 522
    assert sum(p.num_jumps for p in group) * max(hi) <= schemes_module._BUILD_CELLS


def test_errors_rows_and_select_do_not_depend_on_the_build_budget(monkeypatch):
    # the builds' partition of a block changes no bit: 2^10 cells build
    # each lambda = 500 path alone, 2^20 the whole block at once; the
    # spiked path, mid-block, is read again to its resolution
    spiked = make_path([0.3, 0.3 + 2.0**-45, 0.6], [1e6, -1e6, 1.0])
    paths = [sample_path(500.0, JumpLaw.for_rate(500.0), derive_stream(45, t)) for t in range(4)]
    paths += [spiked, make_path([], [])]
    paths += [sample_path(3.0, JumpLaw.for_rate(3.0), derive_stream(7, t)) for t in (130, 131, 132)]
    paths += [sample_path(500.0, JumpLaw.for_rate(500.0), derive_stream(45, t)) for t in range(4, 7)]
    ms = [0, 1, 4, 10]  # from M = 16 on, the spiked path is first built whole
    calls = []
    monkeypatch.setattr(schemes_module, "ladders", counting_ladders(calls))
    rows, selections, builds = set(), set(), []
    for budget in (2**10, 2**15, 2**20):
        monkeypatch.setattr(schemes_module, "_BUILD_CELLS", budget)
        calls.clear()
        rows.add(errors_rows(paths, SCHEMES, ms).tobytes())
        firsts, rereads = split_passes(calls, paths)
        assert jumps(p for group, _ in rereads for p in group) == jumps([spiked])
        builds.append(len(firsts))
        selections.add(repr([select(path, scheme, m) for path in paths[3:7]
                             for scheme in SCHEMES for m in (1, 10, 64)]))
    assert builds[0] >= 7 and builds[0] > builds[1] > builds[2] == 1
    assert len(rows) == 1 and len(selections) == 1


def test_errors_rows_reads_a_block_once_and_builds_it_in_parts(monkeypatch):
    # one lambda = 500 block of 16 paths makes its ladders in several builds
    # within the cell budget, but sums its scaling coefficients and
    # energies once and its kept energies in one pass
    block = sample_block(500.0, JumpLaw.for_rate(500.0), 46, range(16))
    calls, sums, passes = [], [], []
    real_sums, real_range_sums = PathBlock.sums, schemes_module._range_sums

    def counting_sums(self):
        sums.append(len(self))
        return real_sums(self)

    def counting_range_sums(*args):
        passes.append(args[1].size)
        return real_range_sums(*args)

    monkeypatch.setattr(schemes_module, "ladders", counting_ladders(calls))
    monkeypatch.setattr(PathBlock, "sums", counting_sums)
    monkeypatch.setattr(schemes_module, "_range_sums", counting_range_sums)
    rows = errors_rows(block, SCHEMES, M_1024)
    assert len(calls) >= 4 and sums == [16] and len(passes) == 1
    assert jumps(p for group, _ in calls for p in group) == jumps(paths_of(block))
    assert row_bits(rows.reshape(-1, len(M_1024))) == row_bits(
        sum((errors(path, SCHEMES, M_1024) for path in paths_of(block)), []))


def test_errors_rows_finds_each_resolution_once(monkeypatch):
    # the structure sizes the builds, ends every ladder and gives linear's
    # counts and the certificate's c: one call finds each path's once, at
    # lambda = 500 as at lambda = 10
    seen = []
    real = schemes_module.structure

    def counting_structure(block):
        seen.extend(paths_of(block))
        return real(block)

    monkeypatch.setattr(schemes_module, "structure", counting_structure)
    for lam in (10.0, 500.0):
        law = JumpLaw.for_rate(lam)
        for start in (0, 16, 32):
            block = [sample_path(lam, law, derive_stream(44, t)) for t in range(start, start + 16)]
            seen.clear()
            errors_rows(block, SCHEMES, M_1024)
            assert jumps(seen) == jumps(block)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KB on Linux")
def test_errors_rows_memory_does_not_grow_with_its_paths():
    # one call on 400 lambda = 500 paths once built them all at once and
    # grew the peak RSS by about 120 MB; builds of 3 paths grow it by 1 MB
    script = """
import resource
from cpwave import JumpLaw, derive_stream, sample_path, schemes
law = JumpLaw.for_rate(500.0)
paths = [sample_path(500.0, law, derive_stream(9, t)) for t in range(400)]
schemes.errors_rows(paths[:2], schemes.SCHEMES, [4, 16, 64])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
schemes.errors_rows(paths, schemes.SCHEMES, [4, 16, 64])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    assert run_fresh(script) < 8 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KB on Linux")
def test_errors_rows_rereads_do_not_grow_memory_with_their_paths():
    # 100 lambda = 500 paths whose certificates fail once were re-read in
    # one build of all their whole ladders, which grew the peak RSS by
    # about 113 MB; their re-reads are now built within the cell budget
    script = """
import resource
import numpy as np
from cpwave import CompoundPoissonPath, JumpLaw, derive_stream, sample_path, schemes
law = JumpLaw.for_rate(500.0)
paths = []
for t in range(100):
    path = sample_path(500.0, law, derive_stream(9, t))
    times = np.concatenate((path.jump_times, [0.3, 0.3 + 2.0**-45]))
    heights = np.concatenate((path.jump_heights, [1e6, -1e6]))
    order = np.argsort(times, kind="stable")
    paths.append(CompoundPoissonPath(times[order], heights[order]))
schemes.errors_rows(paths[:2], schemes.SCHEMES, [1, 10])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
schemes.errors_rows(paths, schemes.SCHEMES, [1, 10])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    assert run_fresh(script) < 8 * 1024


@pytest.mark.parametrize("bad", [-3, 2.5, -1, 1.0, "4"])
def test_errors_refuse_an_m_that_is_not_a_nonnegative_integer(bad):
    # a negative M once returned the full energy, and M = 2.5 gave a linear
    # error below greedy's
    path = sample_path(10.0, LAW10, derive_stream(1, 0))
    with pytest.raises(ValueError, match="M must be a nonnegative integer"):
        errors(path, SCHEMES, [4, bad])
    with pytest.raises(ValueError, match="M must be a nonnegative integer"):
        errors_rows([path, path], ("linear",), [bad])
    with pytest.raises(ValueError, match="M must be a nonnegative integer"):
        errors_discrete_rows(np.ones((2, 8)), ("best",), [bad])


@pytest.mark.parametrize(
    "reader, rows",
    [(errors_rows, [make_path([], []), make_path([0.37], [1.3]), make_path([0.3, 0.6], [1.0, -1.0])]),
     (errors_discrete_rows, np.ones((3, 8)))],
    ids=["errors_rows", "errors_discrete_rows"],
)
def test_readers_with_no_schemes_or_no_m_return_empty_rows(reader, rows):
    assert reader(rows, (), [4, 16]).shape == (3, 0, 2)
    assert reader(rows, SCHEMES, []).shape == (3, 3, 0)


def fsum_runs(x, lo, hi):
    """The sums the exact kernel replaced: one fsum per run."""
    return [math.fsum(x[a:b].tolist()) for a, b in zip(lo, hi)]


def kernel_sums(x, lo, hi):
    """_range_sums of a copy of x, which it overwrites."""
    return schemes_module._range_sums(x.copy(), lo, hi)


@st.composite
def runs_over(draw):
    """A nonnegative array with ties, zeros, subnormals and squares over
    2^+-900, and runs of it, empty, repeated and nested ones included."""
    x = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 0.25, 4.0, 5e-324, 2.0**-1060, 2.0**-1022]),
                  WIDE_COEFFS.map(lambda c: c * c), st.floats(0.0, 100.0)),
        min_size=1, max_size=60))
    n = len(x)
    ends = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), min_size=1, max_size=20))
    lo, hi = zip(*[(min(a, b), max(a, b)) for a, b in ends])
    return np.array(x), np.array(lo), np.array(hi)


@given(runs_over())
@example((np.array([1.0, 1.0, 1.0, 0.0]), np.array([0, 0, 1, 4]), np.array([4, 4, 3, 4])))
@example((np.array([2.0**-1074, 2.0**-1074, 2.0**1000]), np.array([0, 0]), np.array([2, 3])))
# exact half-unit ties: 2^53 + 1 goes to the even 2^53, and a remainder
# below the half unit, 2^-60, breaks it away
@example((np.array([2.0**53, 1.0, 2.0**-60, 3.0, 1.0]), np.array([0, 0, 3, 0]), np.array([2, 3, 5, 5])))
@settings(max_examples=200, deadline=None)
def test_range_sums_equal_fsum_per_run(run):
    x, lo, hi = run
    expected = fsum_runs(x, lo, hi)
    got = kernel_sums(x, lo, hi)
    assert [v.hex() for v in got] == [v.hex() for v in expected]


@given(runs_over(), st.lists(st.booleans(), min_size=60, max_size=60))
@example((np.array([1.0, -1.0, 2.0**-60, -(2.0**-60)]), np.array([0, 0, 1]), np.array([2, 4, 3])), [False] * 60)
@example((np.array([1e300, -1e300, 5e-324]), np.array([0, 0]), np.array([2, 3])), [False] * 60)
# ties of either sign, with a remainder of the other sign or none
@example((np.array([-(2.0**53), -1.0, 2.0**-60, 2.0**53 + 2, 1.0, -(2.0**-70)]),
          np.array([0, 0, 3, 3]), np.array([2, 3, 5, 6])), [False] * 60)
# signed zeros, on which the rounds stop as on 0.0: -0.0 beside other
# terms, a run of -0.0 alone, and a span of zeros only
@example((np.array([-0.0, 1.0, -0.0, 2.0**-60, -0.0]), np.array([0, 0, 2, 4]), np.array([5, 1, 3, 5])),
         [False] * 60)
@example((np.array([-0.0, -0.0, -0.0]), np.array([0, 1]), np.array([3, 2])), [False] * 60)
@example((np.array([0.0, -0.0, 0.0]), np.array([0, 0]), np.array([3, 1])), [False] * 60)
@settings(max_examples=200, deadline=None)
def test_range_sums_of_either_sign_equal_fsum_per_run(run, negative):
    # signed runs, as a path's scaling coefficient sums them
    x, lo, hi = run
    x = np.where(negative[: x.size], -x, x)
    expected = fsum_runs(x, lo, hi)
    assert [v.hex() for v in kernel_sums(x, lo, hi)] == [v.hex() for v in expected]


@pytest.mark.parametrize("x", [
    [1.0, math.inf, 2.0, 3.0],          # inf, and finite runs beside it
    [1.0, math.nan, 2.0, math.inf],     # nan and inf
    [1e308, 1e308, 1.0, 2.0],           # a run whose sum overflows
    [2.0**1020, 1.0, 2.0**-1074],       # finite, too large for the exact rounds
])
def test_range_sums_follow_fsum_past_the_float_range(x):
    x = np.array(x)
    lo, hi = np.array([0, 1, 2, 2, 0]), np.array([1, 3, 4, 2, 4])
    try:
        expected = [v.hex() for v in fsum_runs(x, lo, hi)]
    except OverflowError:
        with pytest.raises(OverflowError):
            kernel_sums(x, lo, hi)
        return
    assert [v.hex() for v in kernel_sums(x, lo, hi)] == expected


def reference_errors_discrete(coeffs, scheme, ms):
    """Sum of the dropped squares, with the keep order written out: index
    order, nonzero entries first, or magnitude with ties to the smaller index."""
    c = [float(v) for v in coeffs]
    order = list(range(len(c)))
    if scheme == "greedy":
        order = [i for i in order if c[i] != 0.0] + [i for i in order if c[i] == 0.0]
    elif scheme == "best":
        order.sort(key=lambda i: (-abs(c[i]), i))
    return [math.fsum(c[i] * c[i] for i in order[m:]) for m in ms]


# magnitudes 2^-560 to 2^451, so squares span 2^+-900 and reach the
# subnormals and underflow to 0.0
WIDE_COEFFS = st.builds(
    lambda f, e, sign: sign * math.ldexp(f, e),
    st.floats(0.5, 1.0, exclude_max=True),
    st.integers(-560, 451),
    st.sampled_from([-1.0, 1.0]),
)
# coefficients whose squares are subnormal, or underflow to 0.0 (5e-324)
SUBNORMAL_SQUARES = [2.0**-520, -(2.0**-530), 2.0**-537, 5e-324]


@given(
    st.lists(
        st.one_of(st.floats(min_value=-10, max_value=10), TIE_PRONE_HEIGHTS, st.just(0.0),
                  WIDE_COEFFS, st.sampled_from(SUBNORMAL_SQUARES)),
        min_size=1, max_size=40),
    st.sets(st.integers(min_value=0, max_value=42), min_size=1),
)
@example([1.0, -1.0, 0.0, 1.0, -1.0, 0.5], {0, 1, 2, 3, 4, 5, 6, 8})  # mirrored entries
@example([2.0**450, -(2.0**-450), 2.0**-520, 0.0, 2.0**450, 5e-324, 3.0, -(2.0**-537)], {1, 3})
@example([1.0, math.inf, 0.0, -2.0, 1e-300], {0, 1, 2, 4})  # fsum's inf, for every scheme
@settings(max_examples=100, deadline=None)
def test_errors_discrete_rows_equal_reference(coeffs, m_set):
    # M = 0, M = n and M > n always; the exact cut sums must be the per-M fsum
    ms = sorted(m_set | {0, len(coeffs), len(coeffs) + 1})
    rows = errors_discrete(np.array(coeffs), SCHEMES, ms)
    assert rows == [reference_errors_discrete(coeffs, scheme, ms) for scheme in SCHEMES]
    # one exact pass over every scheme's tails gives each scheme's own rows
    assert rows == [errors_discrete(coeffs, (scheme,), ms)[0] for scheme in SCHEMES]


def partition_best_errors(coeffs, ms):
    """Best's dropped sums from a multi-kth np.partition of the squares, the
    keep order errors_discrete used before it sorted each row."""
    sq = np.asarray(coeffs, dtype=float) ** 2
    kth = sorted({sq.size - m for m in ms if 0 < m < sq.size})
    low = np.partition(sq, kth) if kth else sq
    return [math.fsum(low[: max(sq.size - m, 0)].tolist()) for m in ms]


def float_bits(rows):
    return [[x.hex() for x in row] for row in rows]


TIES_ZEROS_SUBNORMALS = st.lists(
    st.one_of(TIE_PRONE_HEIGHTS, st.sampled_from([0.0, -0.0]), st.sampled_from(SUBNORMAL_SQUARES),
              WIDE_COEFFS),
    min_size=1, max_size=64)


@given(TIES_ZEROS_SUBNORMALS, st.sets(st.integers(min_value=0, max_value=66), min_size=1))
@example([1.0, -1.0, 1.0, 0.0, -0.0, 2.0**-537, 5e-324, -1.0], {1, 2, 3, 5, 8})
@example([0.0, -0.0, 0.0], {1, 2})
@settings(max_examples=100, deadline=None)
def test_sorted_best_equals_partition_bits(coeffs, m_set):
    # the full sort keeps the same multiset in every dropped tail as the
    # multi-kth partition it replaced, ties, zeros and subnormals included
    ms = sorted(m_set)
    assert float_bits([errors_discrete(coeffs, ("best",), ms)[0]]) == float_bits(
        [partition_best_errors(coeffs, ms)]
    )


@st.composite
def coefficient_blocks(draw):
    """A (rows, n) block whose rows can differ in scale by up to 2^300, so a
    row's sums must not depend on the scale of the rows beside it."""
    n = draw(st.integers(min_value=1, max_value=32))
    rows = draw(st.integers(min_value=1, max_value=6))
    block = []
    for _ in range(rows):
        scale = math.ldexp(1.0, draw(st.integers(min_value=-150, max_value=150)))
        row = draw(st.lists(st.one_of(st.floats(min_value=-10, max_value=10), TIE_PRONE_HEIGHTS,
                                      st.just(0.0), st.sampled_from(SUBNORMAL_SQUARES)),
                            min_size=n, max_size=n))
        block.append([v * scale for v in row])
    return np.array(block)


@given(
    coefficient_blocks(),
    st.sets(st.integers(min_value=0, max_value=34), min_size=1),
    st.sets(st.sampled_from(SCHEMES), min_size=1),
)
@settings(max_examples=100, deadline=None)
def test_errors_discrete_rows_equal_one_row_calls(block, m_set, chosen):
    # one sort and one exact pass over every row give each row's own bits
    ms = sorted(m_set)
    chosen = tuple(s for s in SCHEMES if s in chosen)
    rows = errors_discrete_rows(block, chosen, ms)
    assert len(rows) == block.shape[0]
    for got, coeffs in zip(rows, block):
        assert float_bits(got) == float_bits(errors_discrete(coeffs, chosen, ms))


def test_errors_discrete_rows_wants_a_two_dimensional_array():
    with pytest.raises(ValueError, match="rows, n"):
        errors_discrete_rows([1.0, 2.0], ("best",), [1])


def test_errors_discrete_overflow_raises_like_fsum():
    coeffs = [1e154] * 50 + [1.0]
    for scheme in SCHEMES:
        with pytest.raises(OverflowError):
            reference_errors_discrete(coeffs, scheme, [0])
        with pytest.raises(OverflowError):
            errors_discrete(coeffs, (scheme,), [0, 3])


def test_errors_reject_unknown_scheme():
    path = make_path([0.5], [1.0])
    with pytest.raises(ValueError):
        errors(path, ("linear", "bogus"), [1])
    with pytest.raises(ValueError):
        errors_discrete([1.0, 2.0], ("bogus",), [1])


# ---------------------------------------------------------------------------
# discrete variants


def test_best_discrete_example():
    sel = select_discrete([3.0, -1.0, 2.0, 0.0], "best", 2)
    assert {atom_index(a) for a, _ in sel.kept} == {0, 2}
    assert sel.error_sq == pytest.approx(1.0)


def test_best_discrete_keep_all():
    sel = select_discrete([3.0, -1.0, 2.0, 0.0], "best", 4)
    assert sel.error_sq == 0.0


def test_best_discrete_tie_break_smaller_index():
    sel = select_discrete([2.0, -2.0, 2.0], "best", 2)
    assert [atom_index(a) for a, _ in sel.kept] == [0, 1]


def test_best_discrete_constant_signal_single_term():
    from cpwave import discrete_haar_forward

    coeffs = discrete_haar_forward(np.full(8, 3.0))
    assert select_discrete(coeffs, "best", 1).error_sq == pytest.approx(0.0, abs=1e-25)


def test_greedy_linear_discrete_examples():
    coeffs = [0.0, 5.0, 0.0, 2.0]
    greedy = select_discrete(coeffs, "greedy", 2)
    assert [atom_index(a) for a, _ in greedy.kept] == [1, 3]
    assert greedy.error_sq == 0.0
    linear = select_discrete(coeffs, "linear", 2)
    assert [atom_index(a) for a, _ in linear.kept] == [0, 1]
    assert linear.error_sq == pytest.approx(4.0)


def test_greedy_equals_linear_when_all_nonzero():
    rng = derive_stream(36, 0)
    coeffs = rng.normal(0.0, 1.0, 64)
    for m in (0, 1, 7, 33, 64):
        greedy = select_discrete(coeffs, "greedy", m)
        linear = select_discrete(coeffs, "linear", m)
        assert greedy.kept == linear.kept
        assert greedy.error_sq == linear.error_sq


def test_discrete_m_validation():
    with pytest.raises(ValueError):
        select_discrete([1.0, 2.0], "best", 3)
    with pytest.raises(ValueError):
        select_discrete([1.0], "linear", -1)


@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=40),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_discrete_ordering_and_profiles(coeffs, data):
    arr = np.array(coeffs)
    ms = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=len(coeffs)), min_size=1)))
    lin, gre, bst = errors_discrete(arr, SCHEMES, ms)
    for b, g, l in zip(bst, gre, lin):
        assert b <= g <= l
    for errs in (lin, gre, bst):
        assert all(a >= b for a, b in zip(errs, errs[1:]))
    for m, b, g, l in zip(ms, bst, gre, lin):
        assert l == pytest.approx(select_discrete(arr, "linear", m).error_sq, rel=1e-12, abs=1e-12)
        assert g == pytest.approx(select_discrete(arr, "greedy", m).error_sq, rel=1e-12, abs=1e-12)
        assert b == pytest.approx(select_discrete(arr, "best", m).error_sq, rel=1e-12, abs=1e-12)


def test_errors_rows_of_a_path_block_equal_the_list_and_one_path_calls(monkeypatch):
    # a PathBlock of jump-free paths, one-jump paths and the +-10^6 pair,
    # whose ladder is read again whole, gives the bits of the list call and
    # of each path's own call; and reading a block calls no l2_norm_sq,
    # and the package holds no per-atom coeff to call
    from cpwave.processes import CompoundPoissonPath, PathBlock

    spiked = make_path([0.3, 0.3 + 2.0**-45, 0.6], [1e6, -1e6, 1.0])
    paths = [make_path([], []), make_path([0.37], [1.3]), spiked, make_path([], []), make_path([0.5], [-2.0])]
    paths += [sample_path(lam, JumpLaw.for_rate(lam), derive_stream(45, s)) for lam in (0.5, 10.0, 500.0) for s in range(2)]
    runs = [(SCHEMES, [0, 1, 4, 10]), (("best",), [1, 10]), (SCHEMES, [0, 64, 1024, 3000])]
    single = [[errors(path, chosen, ms) for path in paths] for chosen, ms in runs]
    listed = [errors_rows(paths, chosen, ms) for chosen, ms in runs]

    def refuse(*args):
        raise AssertionError("a block is read without per-path calls")

    monkeypatch.setattr(CompoundPoissonPath, "l2_norm_sq", refuse)
    assert not hasattr(haar_module, "coeff")
    calls = []
    monkeypatch.setattr(schemes_module, "ladders", counting_ladders(calls))
    for (chosen, ms), one, rows in zip(runs, single, listed):
        calls.clear()
        block = errors_rows(PathBlock.of(paths), chosen, ms)
        # at M <= 10 the pair's ladder is read again whole, alone
        assert (jumps(calls[-1][0]) == jumps([spiked])) == (max(ms) <= 10)
        assert row_bits(block.reshape(-1, len(ms))) == row_bits(sum(one, []))
        assert row_bits(rows.reshape(-1, len(ms))) == row_bits(sum(one, []))


def test_one_path_views_read_the_paths_own_block(monkeypatch):
    # a path keeps the one-path block its constructor checked, and no
    # one-path view lays the path out again through PathBlock.of
    from cpwave.processes import sample_grid

    laid = []
    real_of = PathBlock.of.__func__
    monkeypatch.setattr(PathBlock, "of", classmethod(lambda cls, paths: laid.append(cls) or real_of(cls, paths)))
    for path in (sample_path(10.0, LAW10, derive_stream(46, 0)), make_path([], [])):
        assert path.block.times is path.jump_times and path.block.heights is path.jump_heights
        assert not (path.jump_times.flags.writeable or path.jump_heights.flags.writeable)
        path.value_at(0.5)
        path.values_at([0.25, 0.75])
        path.l2_norm_sq()
        coeff(path, SCALING)
        ladder(path)
        haar_module.nonzero_counts_by_scale(path, 16)
        sample_grid(path, 4)
        errors(path, SCHEMES, [4, 16])
        for shim in (linear_errors, greedy_errors, best_errors):
            shim(path, [4, 16])
        for scheme in SCHEMES:
            select(path, scheme, 8)
    assert laid == []
    PathBlock.of([path])
    assert laid == [PathBlock]  # the count sees a call


def test_linear_compares_indices_and_m_exactly():
    # an atom index and M are compared exactly, past 2^53 too: atom (60, 0),
    # index 2^60, is below M = 2^60 + 1, and atom (99, 0) below 2^99 + 1.
    # This path's scale-j atom holds 2^(j - 200) for j < 99, and (99, 0)
    # holds 2^-101, the rest of its energy, 2^-100
    deep = make_path([2.0**-100, 2.0**-99], [1.0, -1.0])
    expected = [2.0**-100 - 2.0**-140, 2.0**-100 - 2.0**-139, 2.0**-101, 0.0]
    assert errors(deep, ("linear",), [2**60, 2**60 + 1, 2**99, 2**99 + 1]) == [expected]


def test_errors_read_any_m_past_the_count_cap():
    # no path has 2^62 candidates, so greedy and best keep at any larger M
    # what they keep at 2^62, and so does linear on a sampled path, whose
    # atom indices lie below 2^53
    path = sample_path(10.0, LAW10, derive_stream(47, 0))
    rows = np.array(errors(path, SCHEMES, [4, 2**62, 2**63, 2**70]))
    assert rows[:, 1].tobytes() == rows[:, 2].tobytes() == rows[:, 3].tobytes()
    # linear keeps the atoms of index below M at any M: this path's energy,
    # 2^-100, lies at scales below its resolution, 100, its scale-j atom
    # holding about 2^(j - 200); every index lies below 2^1023
    deep = make_path([2.0**-100, 2.0**-99], [1.0, -1.0])
    expected = [2.0**-100 - 2.0**-138, 2.0**-100 - 2.0**-130, 0.0, 0.0]
    assert errors(deep, ("linear",), [2**62, 2**70, 2**100, 10**400]) == [expected]
    # two more jumps, of tiny heights, fill every scale with more atoms
    # than those below 2^62 leave room for; past 2^62 all of them are read
    wide = make_path([2.0**-100, 2.0**-99, 0.5, 0.75], [1.0, -1.0, 2.0**-60, -2.0**-60])
    (linear,) = errors(wide, ("linear",), [2**62, 2**70, 2**100])
    assert linear[0] > linear[1] > linear[2] == 0.0
