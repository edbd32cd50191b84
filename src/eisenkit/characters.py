"""Exact Dirichlet character arithmetic on integer phases.

A character mod q is its exponent vector exps on fixed generators g_k of
(Z/q)^x, those of each prime power p^e of q in turn, p increasing: chi(g_k) =
e(exps[k] / o_k), o_k the order of g_k.  Each prime power has one cached array
dlog[k, u], the exponent of its generator k in the unit u mod p^e, and each
modulus one cached list of its prime powers with their slices of the vector.
With D the lcm of the o_k, a character carries integer weights
w_k = exps[k] * D / o_k, and chi(n) = e(m / D) with

    m = sum over generators of w_k * dlog[k, n mod p^e]  (mod D).

Each character value has its values chi(0), ..., chi(q-1) built once, on
first use: one integer product of its weights with the stacked dlog arrays
gives every m, and each m indexes the D roots e(m / D), each taken as
cmath.exp of the correctly rounded m / D, so Gauss sums and epsilon factors
are reproducible to machine precision.  value_table returns that read-only
array, the single source of the values.  evaluate(n) reads the entry at
n mod q from a list copy of it, built on the first scalar read, so scalar
callers (the divisor sums among them) pay no numpy scalar access.
int_phase(n) computes the integer m alone, for the callers that need it:
gauss_sum, parity and the L-values.  phase(n), the exact m / D as a
Fraction, is the only Fraction view, and nothing in the package calls it.

Conductors, induction and restriction are integer rules on one prime power
at a time.  The conductor exponent at p^e is e - v_p(k), k the last exponent
of its slice.  Moving the p-part to p^e' reads its integer phase at each
generator mod p^e', so multiply lifts both factors to the lcm prime by prime
and adds exponents, and primitive_part restricts each prime power to its
conductor exponent; conjugate negates the vector, and local_component and
prime_to_p_part are slices of it.

A value is one object, interned by (modulus, exps) in a weak table, so
equality and hashing are identity, in C, for every cache keyed on
characters: the memoized functions conjugate, multiply, primitive_part,
local_component, prime_to_p_part, gauss_sum, local_epsilon and value_table,
which keep their last _MEMO results, each computed once per value.

gauss_sum_moduli_squared builds no character object: every Gauss sum mod q
is one entry of a single inverse DFT of e(u/q) over the exponent grid of
(Z/q)^x, O(phi log phi), and a character is primitive iff p does not divide
the last exponent of any slice, the conductor rule read as one array mask
over the whole group.  gauss_sum stays a scalar sum: one character needs no
transform.
Moduli run over [1, 2^14] where one comes in and wherever a value table is
built; products and quotients, which may exceed it, need no table for their
phases, conductors and parts, nor for scalar values: past the ceiling
evaluate(n) takes the root of unity at int_phase(n), the bits a table holds.

Generator conventions (fixed once, for determinism across runs and platforms):
  * odd p^e: the smallest primitive root g mod p, or g + p when
    g^(p-1) = 1 mod p^2 (then g is not primitive mod p^2);
  * 2^1: trivial group, no generators;
  * 2^2: the single generator 3;
  * 2^e, e >= 3: the pair (2^e - 1, 5), i.e. (-1, 5), in that order.
Character enumeration is lexicographic in the exponent vector, its last
exponent varying fastest; index 0 is always the principal character.
"""

from __future__ import annotations

import cmath
import math
import operator
import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "DirichletCharacter",
    "build_character",
    "character_group",
    "conductor",
    "conjugate",
    "gauss_sum",
    "gauss_sum_moduli_squared",
    "local_component",
    "local_epsilon",
    "multiply",
    "primitive_part",
    "value_table",
]

# ---------------------------------------------------------------------------
# unit group structure of (Z/p^e)^x
# ---------------------------------------------------------------------------

def _least_prime_power(n: int, d: int = 2) -> tuple[int, int, int]:
    """(p, e, n // p^e) for the least prime p of n >= 2, p^e its exact power.

    The one trial division of the package: candidates run from d (2 or odd)
    upward, so the caller promises that n has no prime factor below d.
    """
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            return d, e, n
        d += 1 if d == 2 else 2
    return n, 1, 1


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (p, e), p increasing."""
    out = []
    d = 2
    while n > 1:
        p, e, n = _least_prime_power(n, d)
        out.append((p, e))
        d = p + 1 if p == 2 else p + 2
    return out


@lru_cache(maxsize=None)
def _smallest_primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime p."""
    phi = p - 1
    prime_divs = [q for q, _ in _factorize(phi)]
    g = 2
    while True:
        if all(pow(g, phi // q, p) != 1 for q in prime_divs):
            return g
        g += 1


@lru_cache(maxsize=None)
def _component_structure(p: int, e: int) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray, np.ndarray]:
    """Generators, their orders, the discrete-log array and the units of (Z/p^e)^x.

    dlog[k, u] is the exponent of generator k in the unit u mod p^e (0 at
    the non-units); units[i] is the unit whose exponent vector is the i-th
    in enumeration order, dlog read backwards.  Cached per prime power and
    read-only, so both are safe to share between threads.
    """
    pe = p**e
    if p == 2:
        if e == 1:
            gens: tuple[int, ...] = ()
            orders: tuple[int, ...] = ()
        elif e == 2:
            gens, orders = (3,), (2,)
        else:
            gens, orders = (pe - 1, 5), (2, 2 ** (e - 2))
    else:
        g = _smallest_primitive_root(p)
        # a primitive root mod p^2 stays primitive for every higher power
        if e > 1 and pow(g, p - 1, p * p) == 1:
            g += p
        gens, orders = (g,), ((p - 1) * p ** (e - 1),)

    # every unit as a product of generator powers, in enumeration order
    units = np.ones(1, dtype=np.int64)
    for g, o in zip(gens, orders):
        powers = np.empty(o, dtype=np.int64)
        v = 1
        for j in range(o):
            powers[j] = v
            v = v * g % pe
        units = np.multiply.outer(units, powers).ravel() % pe
    dlog = np.zeros((len(gens), pe), dtype=np.int64)
    if gens:
        dlog[:, units] = np.indices(orders).reshape(len(orders), -1)
    dlog.flags.writeable = False
    units.flags.writeable = False
    return gens, orders, dlog, units


# ---------------------------------------------------------------------------
# the character type
# ---------------------------------------------------------------------------

# the largest modulus taken in or tabulated: above the L-value window q <= 1e4,
# where a value table is about 1 MB and gauss_sum_moduli_squared's O(phi log phi)
# transform takes milliseconds
_MODULUS_MAX = 1 << 14
# entries per memoized function of characters (conjugate, multiply, ..., local_epsilon)
_MEMO = 256
# every live character by (modulus, exps), held weakly: one object per value
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


def _checked_int(name: str, v) -> int:
    """v as an int.  An integer type such as np.int64 reads as its int; a
    float is refused, even 5.0."""
    try:
        return operator.index(v)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {v!r}") from None


def _checked_modulus(q: int) -> int:
    """q as an int, checked to lie in [1, 2^14] before it is factored or a
    table built."""
    q = _checked_int("modulus", q)
    if not 0 < q <= _MODULUS_MAX:
        raise ValueError(f"modulus must be in [1, {_MODULUS_MAX}], got {q}")
    return q


@lru_cache(maxsize=None)
def _structure(q: int) -> tuple[tuple[int, int, slice, tuple[int, ...]], ...]:
    """Per prime power p^e of q, p increasing: (p, e, its slice of an exponent
    vector mod q, its generator orders)."""
    out, start = [], 0
    for p, e in _factorize(q):
        orders = _component_structure(p, e)[1]
        out.append((p, e, slice(start, start + len(orders)), orders))
        start += len(orders)
    return tuple(out)


def _orders(q: int) -> list[int]:
    """The orders of the generators of (Z/q)^x, in exponent-vector order."""
    return [o for *_, orders in _structure(q) for o in orders]


def _p_part(q: int, p: int) -> tuple[int, slice]:
    """e = v_p(q) and the slice of an exponent vector mod q that lives at p^e."""
    for prime, e, span, _ in _structure(q):
        if prime == p:
            return e, span
    return 0, slice(0, 0)


@dataclass(frozen=True, eq=False, init=False)
class DirichletCharacter:
    """A Dirichlet character mod q, one object per value: its exponent vector on
    the fixed generators of (Z/q)^x, chi(g_k) = e(exps[k] / o_k), o_k the order of g_k."""

    modulus: int
    exps: tuple[int, ...]

    def __new__(cls, modulus: int, exps: tuple[int, ...]) -> DirichletCharacter:
        try:
            return _INTERNED[modulus, exps]
        except (KeyError, TypeError):       # a new value, or an unhashable one
            if type(modulus) is not int or type(exps) is not tuple or any(type(k) is not int for k in exps):
                raise TypeError(f"need an int modulus and a tuple of int exps, got ({modulus!r}, {exps!r})") from None
        chi = super().__new__(cls)
        object.__setattr__(chi, "modulus", modulus)
        object.__setattr__(chi, "exps", exps)
        with _INTERN_LOCK:      # two threads building one value get one object
            return _INTERNED.setdefault((modulus, exps), chi)

    def __reduce__(self):       # so that pickle and copy return the live object
        return DirichletCharacter, (self.modulus, self.exps)

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def _weights(self) -> tuple[int, tuple[tuple[int, np.ndarray, tuple[int, ...]], ...]]:
        """D and, per prime power p^e, (p^e, dlog array, integer weights w_k = k D / o_k)."""
        D = math.lcm(*_orders(self.modulus))
        return D, tuple((p**e, _component_structure(p, e)[2],
                         tuple(k * (D // o) for k, o in zip(self.exps[span], orders)))
                        for p, e, span, orders in _structure(self.modulus))

    @property
    def phase_denominator(self) -> int:
        """D, the exponent of (Z/q)^x: every value of chi is a D-th root of unity."""
        return self._weights[0]

    def int_phase(self, n: int) -> int | None:
        """m in [0, D) with chi(n) = e(m / D), or None when gcd(n, q) > 1."""
        n %= self.modulus
        if math.gcd(n, self.modulus) != 1:
            return None
        D, parts = self._weights
        m = 0
        for pe, dlog, weights in parts:
            r = n % pe
            for k, w in enumerate(weights):
                m += w * dlog.item(k, r)
        return m % D

    def phase(self, n: int) -> Fraction | None:
        """chi(n) as an exact fraction of a full turn, or None when gcd(n, q) > 1."""
        m = self.int_phase(n)
        return None if m is None else Fraction(m, self.phase_denominator)

    @cached_property
    def _values(self):
        """value_table as a list of Python complex numbers, for scalar reads;
        past the modulus ceiling, reads that build no table (_PhaseReads)."""
        if self.modulus > _MODULUS_MAX:
            return _PhaseReads(self)
        return value_table(self).tolist()

    def evaluate(self, n: int) -> complex:
        """chi(n), read from _values: the same bits as the table entry at
        n mod q, without a numpy scalar read."""
        return self._values[n % self.modulus]

    # -- basic attributes ---------------------------------------------------

    @property
    def parity(self) -> int:
        """chi(-1), which is +1 or -1."""
        m = self.int_phase(self.modulus - 1 if self.modulus > 1 else 1)
        return 1 if m == 0 else -1

    @property
    def is_principal(self) -> bool:
        return not any(self.exps)

    def __repr__(self) -> str:  # q:index, matching the CLI syntax
        return f"chi({self.modulus}:{character_index(self)})"


class _PhaseReads:
    """chi(n) by index, from int_phase alone: the bits of the table entry."""

    def __init__(self, chi: DirichletCharacter):
        self._chi = chi

    def __getitem__(self, n: int) -> complex:
        m = self._chi.int_phase(n)
        return 0j if m is None else _root(m, self._chi.phase_denominator)


# ---------------------------------------------------------------------------
# construction and enumeration
# ---------------------------------------------------------------------------

def build_character(q: int, index: int) -> DirichletCharacter:
    """The index-th character mod q in the fixed lexicographic enumeration.

    Index 0 is the principal character; valid indices run over [0, phi(q)).
    """
    q, index = _checked_modulus(q), _checked_int("character index", index)
    orders = _orders(q)
    phi = math.prod(orders)
    if not (0 <= index < phi):
        raise ValueError(f"character index {index} out of range for modulus {q} (phi = {phi})")
    exps = []
    # the last exponent varies fastest: lexicographic in the vector
    for o in reversed(orders):
        index, k = divmod(index, o)
        exps.append(k)
    return DirichletCharacter(q, tuple(reversed(exps)))


def character_index(chi: DirichletCharacter) -> int:
    """Inverse of build_character's enumeration."""
    idx = 0
    for k, o in zip(chi.exps, _orders(chi.modulus)):
        idx = idx * o + k
    return idx


def character_group(q: int):
    """All phi(q) characters mod q, in enumeration order."""
    q = _checked_modulus(q)
    phi = math.prod(_orders(q))
    for k in range(phi):
        yield build_character(q, k)


# ---------------------------------------------------------------------------
# conductors, induction and restriction, one prime power at a time
# ---------------------------------------------------------------------------

def _conductor_exponent(chi: DirichletCharacter, p: int) -> int:
    """v_p of conductor(chi): e - v_p(k), k the last exponent of chi's p-part mod p^e.

    The units that are 1 mod p^f (f >= 2 for p = 2) are generated by
    g^{(p-1) p^{f-1}}, or by 5^{2^{f-2}} mod 2^e, where chi is e(k / p^{e-f}):
    chi is trivial on them exactly when p^{e-f} divides k.  A character of
    2^e with no exponent on 5 is trivial or the sign character, of conductor 4.
    """
    e, span = _p_part(chi.modulus, p)
    exps = chi.exps[span]
    if not any(exps):
        return 0
    k = exps[-1]
    if k == 0:
        return 2
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return e - v


def conductor(chi: DirichletCharacter) -> int:
    """Smallest f | q such that chi is induced from a character mod f."""
    return math.prod(p ** _conductor_exponent(chi, p) for p, *_ in _structure(chi.modulus))


def _exps_at(chi: DirichletCharacter, p: int, e: int) -> list[int]:
    """The exponent vector mod p^e of the character that agrees with chi's p-part on units:
    m o / D on a generator g of order o, where the p-part is e(m / D).  Exact
    when e is at least chi's conductor exponent at p."""
    part = local_component(chi, p)
    D = part.phase_denominator
    gens, orders = _component_structure(p, e)[:2]
    exps = []
    for g, o in zip(gens, orders):
        k, rem = divmod(o * part.int_phase(g), D)
        if rem:
            raise ArithmeticError(f"{part} is not trivial on the units that are 1 mod {p}^{e}")
        exps.append(k)
    return exps


@lru_cache(maxsize=_MEMO)
def primitive_part(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character mod conductor(chi) inducing chi."""
    f = conductor(chi)
    if f == chi.modulus:
        return chi
    exps = []
    for p, e, *_ in _structure(f):
        exps += _exps_at(chi, p, e)
    return DirichletCharacter(f, tuple(exps))


@lru_cache(maxsize=_MEMO)
def multiply(chi1: DirichletCharacter, chi2: DirichletCharacter) -> DirichletCharacter:
    """Pointwise product, as a character mod lcm of the two moduli."""
    q = math.lcm(chi1.modulus, chi2.modulus)
    exps = []
    for p, e, _, orders in _structure(q):
        exps += [(a + b) % o for a, b, o in zip(_exps_at(chi1, p, e), _exps_at(chi2, p, e), orders)]
    return DirichletCharacter(q, tuple(exps))


@lru_cache(maxsize=_MEMO)
def conjugate(chi: DirichletCharacter) -> DirichletCharacter:
    """The complex conjugate (inverse) character."""
    return DirichletCharacter(chi.modulus, tuple(-k % o for k, o in zip(chi.exps, _orders(chi.modulus))))


@lru_cache(maxsize=_MEMO)
def local_component(chi: DirichletCharacter, p: int) -> DirichletCharacter:
    """The p-part of chi, as a standalone character mod p^{v_p(q)}."""
    e, span = _p_part(chi.modulus, p)
    return DirichletCharacter(p**e, chi.exps[span])


@lru_cache(maxsize=_MEMO)
def prime_to_p_part(chi: DirichletCharacter, p: int) -> DirichletCharacter:
    """chi with its p-component removed (trivial at p)."""
    e, span = _p_part(chi.modulus, p)
    return DirichletCharacter(chi.modulus // p**e, chi.exps[:span.start] + chi.exps[span.stop:])


# ---------------------------------------------------------------------------
# Gauss sums and epsilon factors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_MEMO)
def gauss_sum(chi: DirichletCharacter) -> complex:
    """The Gauss sum sum_{u mod q} chi(u) e(u/q), for primitive chi.

    Non-primitive input is rejected: the naive sum is not the normalized
    local quantity in that case.  Memoized on chi's value, like local_epsilon.
    """
    q = chi.modulus
    if conductor(chi) != q:
        raise ValueError(f"gauss_sum requires a primitive character (conductor {conductor(chi)} != modulus {q})")
    if q == 1:
        return 1.0 + 0j
    D = chi.phase_denominator
    total = 0j
    for u in range(1, q):
        m = chi.int_phase(u)
        if m is None:
            continue
        total += cmath.exp(2j * math.pi * (m / D + u / q))
    return total


def _root(m: int, D: int) -> complex:
    """e(m / D), as cmath.exp of the correctly rounded m / D."""
    return cmath.exp(2j * math.pi * (m / D))


@lru_cache(maxsize=64)
def _roots_of_unity(D: int) -> np.ndarray:
    """_root(m, D) for m = 0..D-1."""
    roots = np.array([_root(m, D) for m in range(D)], dtype=np.complex128)
    roots.flags.writeable = False
    return roots


def _value_rows(q: int, D: int, weights: np.ndarray) -> np.ndarray:
    """Values at 0..q-1 of the character mod q with the given weights.

    weights holds its integer weights on every generator of (Z/q)^x, in
    exponent-vector order, and D is the exponent of (Z/q)^x; its phases at
    all residues are one integer product with the stacked dlog arrays.
    """
    residues = np.arange(q)
    # q = 1 and q = 2 have no generators: stack onto an empty block
    logs = [np.zeros((0, q), dtype=np.int64)]
    logs += [_component_structure(p, e)[2][:, residues % p**e] for p, e, *_ in _structure(q)]
    values = _roots_of_unity(D)[(weights @ np.concatenate(logs)) % D]
    values[np.gcd(residues, q) != 1] = 0
    return values


@lru_cache(maxsize=_MEMO)
def value_table(chi: DirichletCharacter) -> np.ndarray:
    """chi(0), chi(1), ..., chi(q-1) as a read-only complex array.

    Built once per character value; chi.evaluate reads a list copy of it.
    Only up to the modulus ceiling: a table costs about 60 bytes per residue.
    """
    D, parts = chi._weights
    weights = np.array([w for _, _, ws in parts for w in ws], dtype=np.int64)
    table = _value_rows(_checked_modulus(chi.modulus), D, weights)
    table.flags.writeable = False
    return table


def _primitive_mask(q: int) -> np.ndarray:
    """Which characters mod q are primitive, in enumeration order.

    A character is primitive iff its conductor exponent e - v_p(k) is e at
    every prime power p^e: p does not divide k, the last exponent of that
    prime power's slice of the exponent vector.  So the mask over the
    exponent grid of shape orders is one 1-D mask per prime power, on its
    last axis, broadcast over the rest.  2^1 has no generator and no
    primitive character.
    """
    orders = _orders(q)
    primitive = np.ones(orders, dtype=bool)
    for p, _, span, _ in _structure(q):
        if span.stop == span.start:
            return np.zeros(primitive.size, dtype=bool)
        shape = [1] * len(orders)
        shape[span.stop - 1] = orders[span.stop - 1]
        primitive &= (np.arange(orders[span.stop - 1]) % p != 0).reshape(shape)
    return primitive.ravel()


def _gauss_sums(q: int) -> np.ndarray:
    """G(chi) = sum over units u of chi(u) e(u/q) for every chi mod q, in enumeration order.

    With u(j) the unit whose exponent vector is j, chi(u(j)) = e(sum_k
    exps[k] j_k / o_k), so G over all characters is one unscaled inverse DFT
    of e(u(j)/q) over the exponent grid of shape orders: O(phi log phi).
    u(j) is the sum over prime powers of each one's units array, in exponent
    order, times its CRT idempotent.
    """
    from numpy import fft                   # here, so importing eisenkit does not load it

    structure = _structure(q)
    u = np.zeros([o for *_, orders in structure for o in orders], dtype=np.int64)
    for p, e, span, orders in structure:
        pe = p**e
        cofactor = q // pe
        shape = [1] * u.ndim
        shape[span] = orders
        u += _component_structure(p, e)[3].reshape(shape) * (cofactor * pow(cofactor, -1, pe))
    return fft.ifftn(np.exp(2j * np.pi * (u % q) / q), norm="forward").ravel()


def gauss_sum_moduli_squared(q: int) -> np.ndarray:
    """|G(chi)|^2 for every primitive chi mod q, from one transform over the unit group.

    Returns an array with one entry per primitive character (enumeration
    order).  Used by the classical-law sweep |G(chi)|^2 = q.  No character
    object is built: _gauss_sums gives every G(chi) mod q in O(phi log phi),
    and primitivity comes from the exponent grid.
    """
    q = _checked_modulus(q)
    return np.abs(_gauss_sums(q)[_primitive_mask(q)]) ** 2


@lru_cache(maxsize=_MEMO)
def local_epsilon(chi: DirichletCharacter, p: int) -> complex:
    """Unit-modulus local epsilon factor of chi at p, at the central point.

    Normalized as G(conj(chi_p)) / p^{a/2} with the additive character
    e(u / p^a), a the conductor exponent of chi at p; at an unramified place
    it is 1.  The conjugation orientation here is the one frozen by the
    global functional-equation suite; it is unobservable through any other
    code path.
    """
    a = _conductor_exponent(chi, p)
    if a == 0:
        return 1.0 + 0j
    comp_chi = primitive_part(local_component(chi, p))
    g = gauss_sum(conjugate(comp_chi))
    return g / p ** (a / 2.0)
