"""Character arithmetic against brute-force references."""

from __future__ import annotations

import cmath
import copy
import gc
import math
import pickle
import random
import re
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eisenkit.characters as characters_module
from oracles import (_prime_powers, brute_conductor, brute_gauss_sum, character_count, oracle_int_phases,
                     oracle_phases)
from eisenkit.characters import (
    DirichletCharacter,
    build_character,
    character_group,
    character_index,
    conductor,
    conjugate,
    gauss_sum,
    gauss_sum_moduli_squared,
    local_component,
    local_epsilon,
    multiply,
    primitive_part,
    value_table,
)
from eisenkit.eisenstein import EisensteinParams, scattering_constant
from eisenkit.lfunctions import dirichlet_l


def test_group_sizes_match_euler_phi():
    for q in (1, 2, 3, 8, 12, 30, 45, 64, 97):
        assert len(list(character_group(q))) == character_count(q)


def test_enumeration_index_round_trip():
    for q in (1, 4, 12, 40, 45):
        for k, chi in enumerate(character_group(q)):
            assert character_index(chi) == k
            assert build_character(q, k) == chi


def test_factorize_matches_the_oracle_trial_division():
    """_factorize, the package's one trial division, equals the oracle's
    prime powers at every n in [-3, 10^4] (() for n <= 1), at seeded n up
    to 2e9 and at 2^30, 3^19, the product of the twin primes 44651 and
    44657, and 2^64; a second call returns the memoized tuple."""
    rng = random.Random(3501)
    ns = list(range(-3, 10 ** 4 + 1)) + [rng.randrange(10 ** 4, 2 * 10 ** 9) for _ in range(40)]
    for n in ns + [2 ** 30, 3 ** 19, 44651 * 44657, 2 ** 64]:
        got = characters_module._factorize(n)
        assert got == tuple(_prime_powers(n)), n
        assert characters_module._factorize(n) is got


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


@pytest.mark.parametrize("q", list(range(1, 65)) + [81, 125, 128, 243, 256, 360, 499])
def test_values_match_the_generator_oracle(q):
    """int_phase, phase, evaluate and value_table against an independent
    generator walk in integers mod D, bit for bit.

    evaluate is checked on [-q, 2q), so its reduction mod q is covered too.
    phase(n) must be the Fraction m / D, compared by cross-multiplication.
    """
    for index, chi in enumerate(character_group(q)):
        D, phases = oracle_int_phases(q, index)
        ms = [phases.get(n) for n in range(q)]
        expected = [0j if m is None else cmath.exp(2j * math.pi * (m / D)) for m in ms]
        assert chi.phase_denominator == D
        assert [chi.int_phase(n) for n in range(q)] == ms
        for n, m in enumerate(ms):
            ph = chi.phase(n)
            if m is None:
                assert ph is None
            else:
                assert type(ph) is Fraction and ph.numerator * D == m * ph.denominator
        assert np.array_equal(_bits([chi.evaluate(n) for n in range(-q, 2 * q)]),
                              _bits([expected[n % q] for n in range(-q, 2 * q)]))
        assert np.array_equal(_bits(value_table(chi)), _bits(expected))
    with pytest.raises(TypeError):
        chi.evaluate(2.0)


def test_value_table_is_read_only():
    chi = build_character(7, 2)
    table = value_table(chi)
    before = table.copy()
    with pytest.raises(ValueError):
        table[3] = 0
    assert np.array_equal(value_table(chi), before)


def test_evaluation_builds_no_fraction(monkeypatch):
    """phase is the only Fraction view: evaluation, conductors, induction,
    restriction, epsilon factors and the scattering constant build none."""
    chi = build_character(45, 7)
    prim = build_character(13, 5)

    def forbidden(*args):
        raise AssertionError("Fraction built outside DirichletCharacter.phase")

    monkeypatch.setattr(characters_module, "Fraction", forbidden)
    chi.evaluate(2)
    assert chi.parity in (1, -1)
    value_table(build_character(45, 11))
    gauss_sum(prim)
    gauss_sum_moduli_squared(45)
    dirichlet_l(0.5 + 2j, prim)
    conductor(chi)
    multiply(build_character(8, 3), build_character(32, 5))
    primitive_part(build_character(64, 6))
    local_epsilon(chi, 3)
    scattering_constant(EisensteinParams(build_character(3, 1), build_character(4, 1), 1.0))


def test_conductor_against_brute_force():
    """Exact conductor search by testing chi = 1 on every 1 + d Z unit set."""
    for q in (1, 2, 3, 4, 5, 8, 9, 12, 15, 16, 21, 24, 27, 32, 36, 40, 45, 64, 81, 125, 128):
        for chi in character_group(q):
            assert conductor(chi) == brute_conductor(chi)


def test_primitive_part_induces_back():
    for q in (12, 24, 45):
        for chi in character_group(q):
            prim = primitive_part(chi)
            assert prim.modulus == conductor(chi)
            assert conductor(prim) == prim.modulus
            for n in range(1, q + 1):
                if math.gcd(n, q) == 1:
                    assert abs(chi.evaluate(n) - prim.evaluate(n)) < 1e-12


@pytest.mark.parametrize("q1, q2", [(3, 4), (2, 16), (4, 8), (8, 32), (5, 25), (3, 27),
                                    (9, 8), (12, 45), (16, 24)])
def test_multiply_against_oracle_phases(q1, q2):
    """A product's oracle phases are the sums of its factors' at every unit mod the lcm."""
    q = math.lcm(q1, q2)
    units = [u for u in range(q) if math.gcd(u, q) == 1]
    for i1 in range(character_count(q1)):
        ph1 = oracle_phases(q1, i1)
        for i2 in range(character_count(q2)):
            ph2 = oracle_phases(q2, i2)
            prod = multiply(build_character(q1, i1), build_character(q2, i2))
            assert prod.modulus == q
            assert oracle_phases(q, character_index(prod)) == {
                u: (ph1[u % q1] + ph2[u % q2]) % 1 for u in units}


@pytest.mark.parametrize("q", [12, 16, 24, 27, 32, 45, 64, 81, 125, 128, 180])
def test_primitive_part_against_oracle_phases(q):
    """primitive_part agrees with chi at every unit mod q and is primitive, by the oracle."""
    for index, chi in enumerate(character_group(q)):
        prim = primitive_part(chi)
        f = prim.modulus
        prim_phases = oracle_phases(f, character_index(prim))
        assert all(prim_phases[u % f] == ph for u, ph in oracle_phases(q, index).items())
        assert brute_conductor(prim) == f


def test_values_are_roots_of_unity_of_the_order():
    chi = build_character(40, 7)
    k = math.lcm(*(ph.denominator for ph in oracle_phases(40, 7).values()))
    for n in (1, 3, 7, 9, 11, 13):
        val = chi.evaluate(n)
        assert abs(val ** k - 1.0) < 1e-12


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(q=st.integers(2, 48), idx=st.integers(0, 10 ** 6),
       m=st.integers(1, 400), n=st.integers(1, 400))
def test_complete_multiplicativity(q, idx, m, n):
    group = list(character_group(q))
    chi = group[idx % len(group)]
    lhs = chi.evaluate(m) * chi.evaluate(n)
    assert abs(lhs - chi.evaluate(m * n)) < 1e-12


def test_multiply_and_conjugate_algebra():
    chi3 = build_character(3, 1)
    chi4 = build_character(4, 1)
    prod = multiply(chi3, chi4)
    assert prod.modulus == 12
    for n in (1, 5, 7, 11):
        assert abs(prod.evaluate(n) - chi3.evaluate(n) * chi4.evaluate(n)) < 1e-12
    squared = multiply(chi3, conjugate(chi3))
    assert squared.is_principal


def test_parity_matches_value_at_minus_one():
    for q in (3, 4, 5, 8, 12, 40):
        for chi in character_group(q):
            sign = chi.evaluate(q - 1) if q > 2 else 1.0
            assert abs(sign - chi.parity) < 1e-12


def test_gauss_sum_against_direct_sum():
    for q in (1, 3, 4, 5, 7, 8, 9, 12, 16, 21, 25):
        for chi in character_group(q):
            if conductor(chi) == q:
                assert abs(gauss_sum(chi) - brute_gauss_sum(chi)) < 1e-11


def test_gauss_sum_of_an_imprimitive_character_is_refused():
    with pytest.raises(ValueError, match=r"^gauss_sum requires a primitive character \(conductor 3 != modulus 9\)$"):
        gauss_sum(build_character(9, 3))


def test_gauss_sum_batch_agrees_with_scalar():
    for q in (5, 8, 13, 24):
        squares = list(gauss_sum_moduli_squared(q))
        scalar = [abs(gauss_sum(chi)) ** 2
                  for chi in character_group(q) if conductor(chi) == q]
        assert len(squares) == len(scalar)
        for a, b in zip(squares, scalar):
            assert abs(a - b) < 1e-10


@pytest.mark.parametrize("q", [8, 16, 24, 45, 97, 120, 128, 243, 360])
def test_gauss_transform_entries_match_the_direct_sum(q):
    """Every entry of the unit-group transform, imprimitive characters too,
    against the oracle's direct sum: |G|^2 = q cannot see the transform's
    sign convention or its labelling.  One to three grid axes, and both
    generator shapes mod 2^e."""
    sums = characters_module._gauss_sums(q)
    assert len(sums) == character_count(q)
    for index, g in enumerate(sums):
        assert abs(g - brute_gauss_sum(build_character(q, index))) < 1e-11, index


def _own_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while n > 1:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    return out


def _primitive_count(q: int) -> int:
    """sum over d | q of mu(q/d) phi(d), every factor from its own factorization."""
    def mu(n):
        exps = _own_factorization(n).values()
        return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)

    def phi(n):
        return math.prod((p - 1) * p ** (e - 1) for p, e in _own_factorization(n).items())

    return sum(mu(q // d) * phi(d) for d in range(1, q + 1) if q % d == 0)


def test_primitive_counts_match_the_moebius_sum():
    for q in range(1, 501):
        assert len(gauss_sum_moduli_squared(q)) == _primitive_count(q), q


@pytest.mark.parametrize("q", [1, 2, 4, 8, 16, 32, 9, 27, 81, 25, 49, 12, 24, 40, 72, 120])
def test_primitivity_from_exponents_matches_brute_conductor(q):
    """The exponent mask against the brute conductor search, character by character."""
    primitive = characters_module._primitive_mask(q)
    assert list(primitive) == [brute_conductor(chi) == q for chi in character_group(q)]


def test_gauss_batch_builds_no_character(monkeypatch):
    """The batch reads primitivity off exponent vectors, not character objects."""
    def forbidden(*args):
        raise AssertionError("character built or conductor taken in the Gauss batch")

    monkeypatch.setattr(characters_module, "build_character", forbidden)
    monkeypatch.setattr(characters_module, "conductor", forbidden)
    for q in (1, 2, 4, 8, 12, 45, 97, 120, 256, 1031):    # 1031: a 1030-point transform
        squares = gauss_sum_moduli_squared(q)
        assert len(squares) == _primitive_count(q)
        assert np.all(np.abs(squares - q) < 1e-10)


def test_equality_and_hash_follow_the_character():
    """Every route to one character gives the one object for its value, so
    equality and hashing, which go by identity, follow the value."""
    for q, index in ((1, 0), (5, 3), (8, 3), (45, 7), (120, 5)):
        chi = build_character(q, index)
        routes = [build_character(q, index), multiply(chi, build_character(q, 0)),
                  conjugate(conjugate(chi))]
        if brute_conductor(chi) == q:
            routes.append(primitive_part(chi))
        for other in routes:
            assert other is chi
            assert other == chi and chi == other and not other != chi
            assert hash(other) == hash(chi)
        assert len({chi, *routes}) == 1
    chi = build_character(45, 7)
    assert chi != build_character(45, 8)
    assert build_character(3, 1) != build_character(5, 1)      # same component index, other modulus
    assert build_character(5, 1) != build_character(10, 1)
    assert build_character(1, 0) != build_character(2, 0)
    assert (chi == 3) is False and (chi != 3) is True
    assert chi != "chi(45:7)" and chi != None  # noqa: E711


def _construction_routes(chi):
    """chi's value by every construction path: build_character, the group,
    the derived characters, which keep no memo, so that only interning can
    make a route return the object another route built, direct
    construction, pickle at every protocol, copy and deepcopy."""
    q, index = chi.modulus, character_index(chi)
    routes = [build_character(q, index), list(character_group(q))[index],
              multiply(chi, build_character(q, 0)), multiply(build_character(1, 0), chi),
              conjugate(conjugate(chi)), DirichletCharacter(q, tuple(chi.exps)),
              DirichletCharacter(modulus=q, exps=chi.exps), copy.copy(chi), copy.deepcopy(chi),
              copy.deepcopy([chi, {chi: chi}])[1][chi]]
    routes += [pickle.loads(pickle.dumps(chi, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    if conductor(chi) == q:
        routes.append(primitive_part(chi))
    for p in (2, 3, 5, 7):
        if q % p:
            routes.append(characters_module.prime_to_p_part(chi, p))
        elif q == p ** round(math.log(q, p)):
            routes.append(local_component(chi, p))
    return routes


def test_one_object_per_character_value():
    """Every construction path returns the one live object for a value, and
    distinct values are distinct objects."""
    seen = {}
    for q in (1, 2, 4, 5, 8, 9, 12, 45, 49, 120):
        for chi in character_group(q):
            assert all(route is chi for route in _construction_routes(chi)), chi
            seen[id(chi)] = (chi.modulus, chi.exps)
    assert len(set(seen.values())) == len(seen)
    assert build_character(3, 1) is not build_character(5, 1)
    assert DirichletCharacter(1, ()) is not DirichletCharacter(2, ())


def test_interning_keeps_cached_state_repr_and_index():
    """Building a value again hands back the object with its cached weights
    and value list in place, its repr and its enumeration index unchanged."""
    for q, index in ((45, 7), (120, 5), (49, 12)):
        chi = build_character(q, index)
        chi.evaluate(2)
        weights, values = chi._weights, chi._values
        for route in _construction_routes(chi):
            assert route.__dict__["_weights"] is weights and route.__dict__["_values"] is values
            assert repr(route) == f"chi({q}:{index})" and character_index(route) == index


def test_interning_under_threads():
    """Threads that build the same new values at once all get one object
    per value."""
    values = [(4099, (k,)) for k in range(300)]     # built by no other test
    barrier = threading.Barrier(8)
    built = []

    def build():
        barrier.wait(timeout=30)
        built.append([DirichletCharacter(*v) for v in values])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(built) == 8
    for objects in zip(*built):
        assert all(chi is objects[0] for chi in objects)


def test_interned_values_die_with_their_last_reference():
    """The intern table holds its characters weakly."""
    chi = DirichletCharacter(4099, (4000,))
    ref = weakref.ref(chi)
    del chi
    gc.collect()
    assert ref() is None and (4099, (4000,)) not in characters_module._INTERNED


def test_reading_a_character_does_not_keep_it_alive():
    """A character mod 16381 dies with its last reference after any of
    evaluate, value_table, its conjugate's evaluate, primitive_part or
    gauss_sum: no memo keeps it, or its 16,381-entry table, alive.  The
    characters are primitive, so each is its own primitive part."""
    reads = {"evaluate": lambda chi: chi.evaluate(2), "value_table": value_table,
             "conjugate(chi).evaluate": lambda chi: conjugate(chi).evaluate(2),
             "primitive_part": primitive_part, "gauss_sum": gauss_sum}
    alive = []
    for index, (name, read) in enumerate(reads.items(), start=9000):
        chi = build_character(16381, index)
        ref = weakref.ref(chi)
        read(chi)
        del chi
        gc.collect()
        if ref() is not None:
            alive.append(name)
    assert alive == []


def test_a_character_needs_an_int_modulus_and_a_tuple_of_ints():
    """A list of exponents is refused by name, not by the weak table's
    traceback, and so is a value that is not ints in a tuple, new or live:
    5.0 and (True,) hash and compare equal to 5 and (1,), so a check made
    only on a miss would hand them the live 5:1."""
    for exps in ([1, 2], ([1], 2)):
        with pytest.raises(TypeError, match=re.escape(f"need an int modulus and a tuple of int exps, "
                                                      f"got (45, {exps!r})")):
            DirichletCharacter(45, exps)
    live = build_character(5, 1)
    assert (live.modulus, live.exps) == (5, (1,))
    for args in ((4099.0, (7,)), (4099, (7.0,)), (4099, np.array([7])),
                 (5.0, (1,)), (np.int64(5), (True,)), (5, (np.int64(1),))):
        with pytest.raises(TypeError, match="^need an int modulus"):
            DirichletCharacter(*args)
    assert DirichletCharacter(5, (1,)) is live


def test_primitive_gauss_sum_has_modulus_sqrt_q():
    for q in (3, 4, 5, 8, 13, 25, 32, 49):
        for chi in character_group(q):
            if conductor(chi) == q:
                assert abs(abs(gauss_sum(chi)) - math.sqrt(q)) < 1e-11


def test_twisted_gauss_sum_shift_rule():
    """G(chi, b) = conj(chi)(b) G(chi) for primitive chi and b coprime."""
    chi = build_character(7, 2)
    g = gauss_sum(chi)
    for b in (2, 3, 5):
        shifted = sum(chi.evaluate(n) * cmath.exp(2j * cmath.pi * b * n / 7)
                      for n in range(7))
        assert abs(shifted - chi.evaluate(b).conjugate() * g) < 1e-11


def test_local_epsilon_is_unit_modulus_and_local():
    """At a ramified p the factor has modulus one and is G(conj chi_p) / p^{a/2},
    a = v_p(conductor): it depends on the p-component alone."""
    chi = build_character(45, 3)
    for p in (3, 5):
        eps = local_epsilon(chi, p)
        a = characters_module._conductor_exponent(chi, p)
        assert p ** a == math.gcd(conductor(chi), p ** 10)
        assert abs(abs(eps) - 1.0) < 1e-12
        chi_p = primitive_part(local_component(chi, p))
        assert abs(eps - brute_gauss_sum(conjugate(chi_p)) / p ** (a / 2)) < 1e-12


def test_local_epsilon_unramified_is_trivial():
    chi = build_character(45, 3)
    assert characters_module._conductor_exponent(chi, 7) == 0
    assert local_epsilon(chi, 7) == 1


def test_modulus_above_the_ceiling_is_rejected_before_any_table(monkeypatch):
    """Moduli run over [1, 2^14]: above that, and at q <= 0, both entry points
    raise ValueError before factoring q or building a discrete-log array."""
    def forbidden(*args):
        raise AssertionError("q factored or a table built before the modulus check")

    monkeypatch.setattr(characters_module, "_factorize", forbidden)
    monkeypatch.setattr(characters_module, "_component_structure", forbidden)
    for q in (0, -3, 16385, 1000003, 10**12):
        with pytest.raises(ValueError, match=rf"modulus must be in \[1, 16384\], got {q}"):
            build_character(q, 1)
        with pytest.raises(ValueError, match=rf"modulus must be in \[1, 16384\], got {q}"):
            gauss_sum_moduli_squared(q)


@pytest.mark.parametrize("a, b, conjugated, q, f", [
    ((16381, 5), (16369, 7), True, 16381 * 16369, 16381 * 16369),    # coprime primes
    ((993, 331), (1011, 337), True, 3 * 331 * 337, 331 * 337),        # equal 3-parts cancel
    ((128, 37), (129, 53), False, 128 * 129, 128 * 129),
    ((16256, 4415), (14464, 3927), True, 128 * 127 * 113, 127 * 113),  # equal 2-parts cancel
])
def test_products_past_the_modulus_ceiling_need_no_table(monkeypatch, a, b, conjugated, q, f):
    """A product (or quotient) of characters whose lcm exceeds 2^14 has the
    factors' oracle phases summed at sample units, the matching values, and
    the expected conductor, without any value table; its own table is
    refused above the ceiling."""
    def forbidden(*args):
        raise AssertionError("a character value table was built")

    (q1, i1), (q2, i2) = a, b
    ph1, ph2 = oracle_phases(q1, i1), oracle_phases(q2, i2)
    monkeypatch.setattr(characters_module, "_value_rows", forbidden)
    chi1, chi2 = build_character(q1, i1), build_character(q2, i2)
    prod = multiply(chi1, conjugate(chi2) if conjugated else chi2)
    assert prod.modulus == q
    sign = -1 if conjugated else 1
    units = [u for u in list(range(1, 400)) + [q - 1, q // 2 + 1, 7**9 % q] if math.gcd(u, q) == 1]
    for u in units:
        assert prod.phase(u) == (ph1[u % q1] + sign * ph2[u % q2]) % 1, u
        assert abs(prod.evaluate(u) - cmath.exp(2j * math.pi * prod.phase(u))) < 1e-12, u
    assert prod.evaluate(q1 * q2) == 0j
    assert conductor(prod) == f
    prim = primitive_part(prod)
    assert prim.modulus == f and conductor(prim) == f
    assert all(prim.phase(u) == prod.phase(u) for u in units)
    with pytest.raises(ValueError, match=rf"modulus must be in \[1, 16384\], got {q}"):
        value_table(prod)


def test_table_free_reads_match_the_value_table():
    """The reads a character past the modulus ceiling makes, the root of unity
    at its integer phase and 0j off the units, hold the table's bits at every
    residue of every character mod q <= 129."""
    for q in range(1, 130):
        for chi in character_group(q):
            reads = characters_module._PhaseReads(chi)
            table = value_table(chi)
            assert np.array([reads[n] for n in range(q)]).tobytes() == table.tobytes(), chi


def test_moduli_and_indices_must_be_integers(monkeypatch):
    """A float modulus or index is refused with a TypeError naming it, before
    q is factored; an integer type such as np.int64 reads as its int."""
    def forbidden(*args):
        raise AssertionError("q factored before the type check")

    with monkeypatch.context() as m:
        m.setattr(characters_module, "_factorize", forbidden)
        for index in (1.5, 2.0, "1"):
            with pytest.raises(TypeError, match="character index must be an integer"):
                build_character(7, index)
        for q in (7.0, 5.0, 7.5):
            with pytest.raises(TypeError, match="modulus must be an integer"):
                build_character(q, 1)
            with pytest.raises(TypeError, match="modulus must be an integer"):
                gauss_sum_moduli_squared(q)
            with pytest.raises(TypeError, match="modulus must be an integer"):
                list(character_group(q))
    chi = build_character(np.int64(7), np.int64(2))
    assert chi == build_character(7, 2) and type(chi.modulus) is int and type(chi.exps[0]) is int
    assert chi.evaluate(3) == build_character(7, 2).evaluate(3)
    assert [c.modulus for c in character_group(np.int64(5))] == [5] * 4
    assert np.array_equal(gauss_sum_moduli_squared(np.int64(5)), gauss_sum_moduli_squared(5))


def test_build_character_rejects_bad_index():
    with pytest.raises(ValueError):
        build_character(12, 4)
    with pytest.raises(ValueError):
        build_character(12, -1)
