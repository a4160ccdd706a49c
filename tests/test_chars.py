import pytest

from gausslab import build_tower
from gausslab.chars import MultChar, orbit_minima, orbit_reps, regular_exponents, regular_mask, twist_offset
from gausslab.errors import ArgumentError
from gausslab.numth import moebius, divisors


def test_regularity_examples(f9, f729):
    assert not MultChar(f9, 0).is_regular()  # trivial factors through norms
    assert MultChar(f9, 1).is_regular()
    c = MultChar(f729, 26)
    assert c.is_regular()
    assert c.frobenius_orbit() == sorted([26, 78, 234, 702, 650, 494])


def test_orbit_examples(f9, f729):
    assert MultChar(f9, 0).frobenius_orbit() == [0]
    assert MultChar(f9, 5).frobenius_orbit() == [5, 7]
    c = MultChar(f729, 130)
    assert c.orbit_rep() == 130
    assert set(c.frobenius_orbit()) == {130, 390, 442, 598, 338, 286}


def test_regular_iff_full_orbit(f9, f729, f81):
    for T in (f9, f81, f729):
        for e in range(T.mult_order):
            c = MultChar(T, e)
            assert c.is_regular() == (len(c.frobenius_orbit()) == T.n)


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


def test_twist(f9):
    c = MultChar(f9, 1)
    assert c.twist(0).e == 1
    assert c.twist(1).e == 5  # k-hat = 4
    assert twist_offset(f9, 1) == 4
    for k in range(2):
        for kk in range(2):
            assert c.twist(k).twist(kk).e == MultChar(f9, 1 + ((k + kk) % 2) * 4).e
    with pytest.raises(ArgumentError):
        c.twist(2)


def test_twist_commutes_with_frobenius(f9, f81):
    for T in (f9, f81):
        N, q = T.mult_order, T.q
        for e in range(0, N, 7):
            for k in range(q - 1):
                twisted_then_frob = MultChar(T, MultChar(T, e).twist(k).e * q)
                frob_then_twisted = MultChar(T, e * q % N).twist(k)
                assert twisted_then_frob.e == frob_then_twisted.e


def test_restriction(f9):
    assert MultChar(f9, 0).restrict_to_base() == 0
    assert MultChar(f9, 5).restrict_to_base() == 1
    # derived: two characters agree on F_3^x inside F_9 iff e mod (q-1) agree
    for a in range(8):
        for b in range(8):
            same_values = all(
                MultChar(f9, a).value_at(x) == MultChar(f9, b).value_at(x)
                for x in (1, 2)
            )
            assert same_values == (
                MultChar(f9, a).restrict_to_base() == MultChar(f9, b).restrict_to_base()
            )


def test_multiplicativity_exhaustive(f9):
    for e in range(8):
        c = MultChar(f9, e)
        for x in range(1, 9):
            for y in range(1, 9):
                assert c.value_at(f9.mul(x, y)) == c.value_at(x) * c.value_at(y)


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
    assert mins.tolist() == [MultChar(f729, e).orbit_rep() for e in range(f729.mult_order)]
