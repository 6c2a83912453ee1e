"""The rational oracle of tests/reference.py: its own exact Parseval
identity, and the float ladder within its forward error bound of it."""

from fractions import Fraction

import numpy as np
import pytest

import cpwave
from cpwave import CompoundPoissonPath, JumpLaw, derive_stream, sample_path
from cpwave.haar import ladder

from reference import exact_energy, exact_ladder, exact_scaling
from test_processes import make_path

U = Fraction(1, 2**53)  # the unit roundoff


def gamma(n: int) -> Fraction:
    """n u / (1 - n u), the bound on n relative roundings (Higham, 2002)."""
    return n * U / (1 - n * U)


def oracle_paths():
    """Dyadic, clustered, spiked and sampled paths of at most 40 jumps."""
    rng = np.random.default_rng(52)
    times = np.unique(rng.integers(1, 2**10, 30)) / 2**10
    dyadic = [make_path([0.5], [1.0]), make_path([0.25, 0.375, 0.5, 0.8125], [1.0, -2.0, 0.5, 3.0]),
              make_path(times, rng.normal(0.0, 1.0, times.size))]
    clustered = [make_path([0.3 + i * 2.0**-40 for i in range(8)] + [0.6 + i * 2.0**-30 for i in range(12)],
                           rng.normal(0.0, 1.0, 20))]
    spiked = [make_path([0.3, 0.3 + 2.0**-45, 0.6], [1e6, -1e6, 1.0]),
              make_path([0.3 + i * 2.0**-40 for i in range(4)], [1.0, 1e6, -1.5, 0.7])]
    sampled = [sample_path(lam, JumpLaw.for_rate(lam), derive_stream(53, t))
               for lam in (3.0, 10.0, 30.0) for t in range(4)]
    paths = dyadic + clustered + spiked + [p for p in sampled if p.num_jumps <= 40]
    assert all(p.num_jumps <= 40 for p in paths)
    return paths


PATHS = oracle_paths()


@pytest.mark.parametrize("path", PATHS)
def test_oracle_parseval_holds_exactly(path):
    # energy = c0^2 + sum of 2^-j S^2 over the ladder, in rationals: past
    # the resolution every coefficient is exactly 0
    energy, _ = exact_energy(path)
    scaling, _ = exact_scaling(path)
    squares = sum((Fraction(1, 2**j) * s * s for j, _, s, _, _ in exact_ladder(path)), Fraction(0))
    assert scaling * scaling + squares == energy


@pytest.mark.parametrize("path", PATHS)
def test_ladder_squares_lie_within_the_forward_error_bound(path):
    # a ladder value of m jumps is the running float sum of h (w a_j), a_j
    # the rounded amplitude -2^(-j/2) and w exact: each term carries three
    # roundings and the sum m - 1 more, so with B = 2^(-j/2) sum |h w| it is
    # within g B of the coefficient c, g = gamma(m + 2); then |v^2 - c^2| <=
    # g (2 + g) B^2, and the float square rounds once more
    lad = ladder(path)
    atoms = exact_ladder(path)
    assert [(j, k, count) for j, k, _, _, count in atoms] == list(
        zip(lad.scale.tolist(), map(int, lad.shift), lad.count.tolist()))
    for (j, _, s, a, count), v in zip(atoms, lad.value.tolist()):
        c2, b2, g = Fraction(1, 2**j) * s * s, Fraction(1, 2**j) * a * a, gamma(count + 2)
        assert abs(Fraction(v) ** 2 - c2) <= g * (2 + g) * b2
        assert abs(Fraction(v * v) - c2) <= g * (2 + g) * b2 + 2 * U * Fraction(v * v)
    # the scaling coefficient: terms h (1 - t) rounded twice, summed exactly
    # and rounded once
    scaling, absolute = exact_scaling(path)
    v0 = Fraction(float(path.block.sums()[0][0]))
    assert abs(v0 - scaling) <= gamma(2) * absolute * (1 + U) + U * abs(scaling)


# the helpers that moved here from the package, by their old module
MOVED = {
    "haar": ["Atom", "SCALING", "Coefficient", "atom_index", "atom_from_index", "support",
             "_check_unit_interval", "jump_weight_scaling", "jump_weight_wavelet",
             "jumps_in_support", "coeff", "dyadic_row", "discrete_haar_inverse"],
    "schemes": ["Selection", "select", "select_discrete"],
    "dct": ["dct2_inverse"],
    "theory": ["nonzero_scale_bounds", "tail_energy", "poly_weighted_decay", "exp_weighted_decay"],
}


def test_the_references_are_not_in_the_package():
    for module, names in MOVED.items():
        for name in names:
            assert not hasattr(getattr(cpwave, module), name) and not hasattr(cpwave, name)
            assert name not in getattr(cpwave, module).__all__
    assert not hasattr(CompoundPoissonPath, "min_spacing")
