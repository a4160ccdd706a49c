import tracemalloc

import numpy as np
import pytest

from gausslab import build_tower
from gausslab.chars import (MultChar, ring_for, orbit_count, orbit_minima, orbit_reps, regular_exponents,
                            regular_mask, twist_offset)
from gausslab.numth import moebius, divisors
from reference import frobenius_orbit, value_at


def test_regularity_examples(f9, f729):
    assert not MultChar(f9, 0).is_regular()  # trivial factors through norms
    assert MultChar(f9, 1).is_regular()
    c = MultChar(f729, 26)
    assert c.is_regular()
    assert frobenius_orbit(f729, 26) == sorted([26, 78, 234, 702, 650, 494])


def test_orbit_examples(f9, f729):
    mins = orbit_minima(f729.mult_order, f729.q, f729.n)
    assert orbit_minima(f9.mult_order, f9.q, f9.n).tolist() == [0, 1, 2, 1, 4, 5, 2, 5]
    orbit = frobenius_orbit(f729, 130)
    assert set(orbit) == {130, 390, 442, 598, 338, 286}
    assert mins[orbit].tolist() == [130] * 6


def test_regular_iff_full_orbit(f9, f729, f81):
    for T in (f9, f81, f729):
        for e in range(T.mult_order):
            c = MultChar(T, e)
            assert c.is_regular() == (len(frobenius_orbit(T, e)) == T.n)


@pytest.mark.parametrize("p,f,n", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 1, 1), (2, 3, 1), (3, 1, 4)])
def test_regular_mask_matches_is_regular(p, f, n):
    T = build_tower(p, f, n)
    mask = regular_mask(T.mult_order, T.q, T.n)
    assert mask.tolist() == [MultChar(T, e).is_regular() for e in range(T.mult_order)]


def test_moebius_count(f9, f81, f32):
    for T in (f9, f81, f32):
        q, n = T.q, T.n
        expect = sum(moebius(n // d) * (q**d - 1) for d in divisors(n))
        assert len(regular_exponents(T)) == expect


@pytest.mark.parametrize("p,f,n", [(2, 1, 1), (3, 1, 1), (3, 1, 6), (2, 1, 12), (2, 2, 3), (5, 2, 2)])
def test_orbit_count_is_the_number_of_orbit_reps(p, f, n):
    T = build_tower(p, f, n)
    for regular in (True, False):
        assert orbit_count(p**f, n, regular) == len(orbit_reps(T, regular))


def test_twist(f9):
    # twisting by eta_k o Nr adds k-hat = k * (q^n - 1)/(q - 1) to the exponent
    assert twist_offset(f9, 0) == 0
    assert twist_offset(f9, 1) == 4
    N = f9.mult_order
    for k in range(2):
        for kk in range(2):
            twice = (1 + twist_offset(f9, k) + twist_offset(f9, kk)) % N
            assert twice == MultChar(f9, 1 + ((k + kk) % 2) * 4).e
    # the exponent k-hat is eta_k o Nr: x -> zeta_{q-1}^(k * log_h Nr x), here k = 1
    ring, h = ring_for(f9), f9.norm_rel(f9.g, 1)
    for x in range(1, f9.order):
        l = next(l for l in range(2) if f9.pow(h, l) == f9.norm_rel(x, 1))
        assert value_at(f9, twist_offset(f9, 1), x) == ring.zeta_pow(ring.m // 2 * l)


def test_twist_commutes_with_frobenius(f9, f81):
    for T in (f9, f81):
        N, q = T.mult_order, T.q
        for e in range(0, N, 7):
            for k in range(q - 1):
                twisted_then_frob = MultChar(T, (e + twist_offset(T, k)) * q)
                frob_then_twisted = MultChar(T, e * q + twist_offset(T, k))
                assert twisted_then_frob.e == frob_then_twisted.e


def test_restriction(f9):
    assert MultChar(f9, 0).restrict_to_base() == 0
    assert MultChar(f9, 5).restrict_to_base() == 1
    # derived: two characters agree on F_3^x inside F_9 iff e mod (q-1) agree
    for a in range(8):
        for b in range(8):
            same_values = all(
                value_at(f9, a, x) == value_at(f9, b, x)
                for x in (1, 2)
            )
            assert same_values == (
                MultChar(f9, a).restrict_to_base() == MultChar(f9, b).restrict_to_base()
            )


def test_multiplicativity_exhaustive(f9):
    for e in range(8):
        for x in range(1, 9):
            for y in range(1, 9):
                assert value_at(f9, e, f9.mul(x, y)) == value_at(f9, e, x) * value_at(f9, e, y)


def test_character_order(f9):
    assert MultChar(f9, 0).order == 1
    assert MultChar(f9, 1).order == 8
    assert MultChar(f9, 4).order == 2
    assert MultChar(f9, 4).value_at_minus_one() == 1
    assert MultChar(f9, 1).value_at_minus_one() == -1


def test_orbit_reps(f9):
    reps = orbit_reps(f9, regular_only=True)
    assert reps == [1, 2, 5]  # orbits {1,3}, {2,6}, {5,7}
    assert orbit_reps(f9, regular_only=False) == [0, 1, 2, 4, 5]


def test_orbit_minima_match_frobenius_orbit_walk(f729):
    mins = orbit_minima(f729.mult_order, f729.q, f729.n)
    assert mins.tolist() == [frobenius_orbit(f729, e)[0] for e in range(f729.mult_order)]


def test_orbit_minima_hold_two_input_sized_arrays():
    # (2,16): the minima and the current power, each reduced in place, are
    # the only arrays the size of the input that one call holds
    N = 2**16 - 1
    exps = np.arange(N, dtype=np.int64)
    tracemalloc.start()
    try:
        mins = orbit_minima(N, 2, 16, exps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * exps.nbytes, peak / exps.nbytes
    assert mins.tolist() == [min(e * 2**i % N for i in range(16)) for e in range(N)]
