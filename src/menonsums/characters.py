"""Dirichlet characters mod n with exact root-of-unity values.

A character is stored by its index vector against fixed generators of each
prime-power unit group: the smallest primitive root for odd p**a, the pair
(-1, 5) in that order for 2**a with a >= 3.  This pins down a canonical,
reproducible labeling of the whole character group.  Values are exact
fractions of a full turn; conversion to floating complex happens only when
sums are accumulated.

A ``DirichletCharacter(n, components)`` is checked once, when it is made:
n is at most ``MODULUS_BOUND`` (or it raises ``ResourceError``), and its
components are the prime powers of n in ascending order, each with one index
in [0, order) per generator of its unit group, or it raises ``DomainError``;
no evaluator checks a character's shape or modulus again.

The character group mod n is the product of the groups mod its prime
powers, so the generators that ``unit_group_structure(p, a)`` gives are the
single source of every character fact.  Enumeration order, labels, flat
indices and conductors mod n are combined from them by CRT.

``CharacterGroup`` keeps one residue table, built forward from the
generators: the unit at each point of the grid of generator exponents.  A
character's grid turns are scattered to those units (-1 at the rest), and
the sums of all phi(n) characters against a common weight vector come out of
one multidimensional DFT of the weights gathered there.  No dlog is read on
either path: a structure's ``dlog_table`` is built on first read, and only
the scalar evaluator ``eval_character`` and the tests read it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .arith import divisors, euler_phi, factorize, is_prime
from .errors import DomainError, IntegrityError, refuse_below, refuse_exceeding

#: Largest prime power, and largest character modulus, with a unit group structure.
MODULUS_BOUND = 1 << 20


# ---------------------------------------------------------------------------
# unit group structure of (Z/p^a)^*


@dataclass(frozen=True, eq=False)
class UnitGroupStructure:
    """Generators of (Z/p**a)^*, each paired with its order.

    ``dlog_table`` is built on first read and kept with the structure.  It
    has one row per residue in [0, p**a); row k is the exponent vector of k
    against ``generators`` (all entries -1 when k is not a unit, and rows are
    empty when the group is trivial).
    """

    modulus: int
    prime: int
    exponent: int
    generators: tuple[tuple[int, int], ...]

    @cached_property
    def dlog_table(self) -> np.ndarray:
        q = self.modulus
        if len(self.generators) == 2:
            table = kernels.dlog_two_gens(q, self.generators[1][1])
        elif self.generators:
            table = kernels.dlog_cyclic(q, *self.generators[0]).reshape(q, 1)
        else:
            table = np.full((q, 0), -1, dtype=np.int32)
        table.setflags(write=False)
        return table


def _smallest_primitive_root(p: int, a: int) -> int:
    q = p**a
    phi = q // p * (p - 1)
    checks = [phi // f for f, _ in factorize(phi).factors]
    g = 2
    while True:
        if g % p != 0 and all(pow(g, c, q) != 1 for c in checks):
            return g
        g += 1


@lru_cache(maxsize=None)
def unit_group_structure(p: int, a: int) -> UnitGroupStructure:
    """Canonical generators of (Z/p**a)^*."""
    refuse_below(a, 1, "exponent")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    q = p**a
    refuse_exceeding(q, MODULUS_BOUND, "prime power")
    gens: tuple[tuple[int, int], ...]
    if p != 2:
        gens = ((_smallest_primitive_root(p, a), q // p * (p - 1)),)
    elif a >= 3:
        gens = ((q - 1, 2), (5, q // 4))
    else:
        gens = ((3, 2),) if a == 2 else ()
    return UnitGroupStructure(q, p, a, gens)


# ---------------------------------------------------------------------------
# characters and exact values


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod n as per-prime-power index vectors.

    ``components`` lists (p**a, index_vector) in ascending prime order;
    entry i of an index vector is the exponent applied to generator i of
    that prime power's unit group, in [0, its order).  All-zero vectors give
    the principal character.  A character of any other shape raises
    ``DomainError`` when it is made, and a modulus above ``MODULUS_BOUND``
    raises ``ResourceError``.
    """

    modulus: int
    components: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        refuse_exceeding(self.modulus, MODULUS_BOUND, "modulus")
        # Kept as tuples, so that the character stays as it was checked.
        object.__setattr__(self, "components", tuple((q, tuple(idx)) for q, idx in self.components))
        fac = factorize(self.modulus)
        expected = tuple(p**e for p, e in fac.factors)
        got = tuple(q for q, _ in self.components)
        if got != expected:
            raise DomainError(
                f"malformed character: components {got} do not match the "
                f"prime powers {expected} of modulus {self.modulus}"
            )
        for (p, e), (q, idx) in zip(fac.factors, self.components):
            st = unit_group_structure(p, e)
            if len(idx) != len(st.generators):
                raise DomainError(f"component mod {q} needs {len(st.generators)} indices, got {len(idx)}")
            for v, (_, order) in zip(idx, st.generators):
                if not 0 <= v < order:
                    raise DomainError(f"index {v} out of range [0, {order}) in component mod {q}")


@dataclass(frozen=True)
class CharValue:
    """Exact character value: zero, or exp(2*pi*i*turn) with turn reduced."""

    turn: Fraction | None

    @classmethod
    def zero(cls) -> "CharValue":
        return cls(None)

    @classmethod
    def one(cls) -> "CharValue":
        return cls(Fraction(0))

    @classmethod
    def root(cls, turn: Fraction) -> "CharValue":
        return cls(turn % 1)

    @property
    def is_zero(self) -> bool:
        return self.turn is None

    def __complex__(self) -> complex:
        if self.turn is None:
            return 0j
        return complex(np.exp(2j * np.pi * float(self.turn)))

    def __mul__(self, other: "CharValue") -> "CharValue":
        if not isinstance(other, CharValue):
            return NotImplemented
        if self.turn is None or other.turn is None:
            return CharValue.zero()
        return CharValue.root(self.turn + other.turn)


def _component_structures(chi: DirichletCharacter) -> list[tuple[int, tuple[int, ...], UnitGroupStructure]]:
    """Pair each component of chi with the group structure of its prime power."""
    return [(q, idx, unit_group_structure(p, e)) for (q, idx), (p, e) in zip(chi.components, factorize(chi.modulus).factors)]


def principal_character(n: int) -> DirichletCharacter:
    """The character that is 1 on every argument coprime to n."""
    comps = ((p**e, (0,) * len(unit_group_structure(p, e).generators)) for p, e in factorize(n).factors)
    return DirichletCharacter(n, tuple(comps))


def enumerate_characters(n: int) -> list[DirichletCharacter]:
    """All phi(n) characters mod n, ordered lexicographically by index vectors.

    The principal character comes first; the ordering is the canonical
    labeling used everywhere in reports.
    """
    refuse_exceeding(n, MODULUS_BOUND, "modulus")
    comps = []
    for p, e in factorize(n).factors:
        orders = (range(order) for _, order in unit_group_structure(p, e).generators)
        comps.append([(p**e, idx) for idx in itertools.product(*orders)])
    return [DirichletCharacter(n, combo) for combo in itertools.product(*comps)]


def eval_character(chi: DirichletCharacter, k: int) -> CharValue:
    """chi(k): zero when gcd(k, n) > 1, else an exact root of unity."""
    n = chi.modulus
    parts = _component_structures(chi)
    r = k % n
    if math.gcd(r, n) != 1:
        return CharValue.zero()
    L = math.lcm(*(order for _, _, st in parts for _, order in st.generators))
    turn = 0
    for q, idx, st in parts:
        for v, e, (_, order) in zip(idx, st.dlog_table[r % q].tolist(), st.generators):
            turn += v * e * (L // order)
    return CharValue(Fraction(turn % L, L))


def multiply_characters(a: DirichletCharacter, b: DirichletCharacter) -> DirichletCharacter:
    """Pointwise product; both characters must share one modulus."""
    if a.modulus != b.modulus:
        raise DomainError(f"modulus mismatch: {a.modulus} != {b.modulus}")
    parts_a = _component_structures(a)
    comps = []
    for (q, ia, st), (_, ib) in zip(parts_a, b.components):
        summed = tuple((x + y) % order for x, y, (_, order) in zip(ia, ib, st.generators))
        comps.append((q, summed))
    return DirichletCharacter(a.modulus, tuple(comps))


def conductor(chi: DirichletCharacter) -> int:
    """Smallest induced modulus of chi: the least d | n with chi(k) = 1
    whenever k = 1 (mod d) and gcd(k, n) = 1.

    Computed as the product of per-component conductors, each read from its
    index vector by ``_index_conductors``; the definition scan
    ``conductor_by_definition`` must agree and is property-tested.
    """
    return math.prod(int(_index_conductors(st, idx)) for _, idx, st in _component_structures(chi))


def conductor_by_definition(chi: DirichletCharacter) -> int:
    """Conductor by direct scan of the induced-modulus condition."""
    n = chi.modulus
    one = CharValue.one()
    for d in divisors(n):
        if all(
            eval_character(chi, k) == one
            for k in range(1, n + 1, d)
            if math.gcd(k, n) == 1
        ):
            return d
    raise IntegrityError(f"no induced modulus found for character mod {n}")  # pragma: no cover


def is_primitive(chi: DirichletCharacter) -> bool:
    """True iff the conductor equals the modulus."""
    return conductor(chi) == chi.modulus


def factor_character(chi: DirichletCharacter) -> list[DirichletCharacter]:
    """Split chi into one character per prime power of its modulus.

    The pointwise product of the factors over coprime arguments equals chi;
    for primitive chi every factor is primitive.
    """
    return [DirichletCharacter(q, ((q, idx),)) for q, idx in chi.components]


def primitive_part(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character psi mod conductor(chi) inducing chi.

    psi agrees with chi on every argument coprime to the modulus of chi.
    """
    d = conductor(chi)
    if d == 1:
        return DirichletCharacter(1, ())
    by_prime = {st.prime: DirichletCharacter(q, ((q, idx),)) for q, idx, st in _component_structures(chi)}
    comps = []
    for p, c in factorize(d).factors:
        source = by_prime[p]
        st = unit_group_structure(p, c)
        idx = []
        for gen, order in st.generators:
            val = eval_character(source, gen)
            w = val.turn * order
            if w.denominator != 1:
                raise IntegrityError(
                    f"character mod {source.modulus} does not factor through {p**c}"
                )
            idx.append(int(w) % order)
        comps.append((p**c, tuple(idx)))
    return DirichletCharacter(d, tuple(comps))


def character_order(chi: DirichletCharacter) -> int:
    """Multiplicative order of chi in the character group mod its modulus."""
    order = 1
    for _, idx, st in _component_structures(chi):
        for v, (_, o) in zip(idx, st.generators):
            order = math.lcm(order, o // math.gcd(v, o))
    return order


def char_label(chi: DirichletCharacter) -> str:
    """Canonical report label, e.g. ``12:2^2=[0];3^1=[1]``."""
    parts = (f"{st.prime}^{st.exponent}=[{','.join(map(str, idx))}]" for _, idx, st in _component_structures(chi))
    return f"{chi.modulus}:" + ";".join(parts)


@lru_cache(maxsize=1)
def character_labels(n: int) -> list[str]:
    """Labels of all phi(n) characters mod n in the canonical flat order.

    Entry j equals ``char_label(enumerate_characters(n)[j])``; each prime
    power's cells are built by comprehension over its generator orders and
    the prime powers are concatenated in product order.  Only the last
    modulus's list is kept; it is shared, and must not be changed.
    """
    refuse_exceeding(n, MODULUS_BOUND, "modulus")
    labels: list[str] = []
    for p, e in factorize(n).factors:
        head = f";{p}^{e}=[" if labels else f"{n}:{p}^{e}=["
        orders = [range(order) for _, order in unit_group_structure(p, e).generators]
        if len(orders) == 2:  # 2**a, a >= 3; every other unit group is cyclic
            cells = [f"{head}{u},{v}]" for u in orders[0] for v in orders[1]]
        else:
            cells = [f"{head}{u}]" for u in (orders[0] if orders else [""])]
        labels = [a + b for a in labels for b in cells] if labels else cells
    return labels or [f"{n}:"]


# ---------------------------------------------------------------------------
# vectorized per-modulus engine


def _index_conductors(st: UnitGroupStructure, v: tuple[int, ...] | np.ndarray) -> np.ndarray:
    """Conductors of the characters of p**a whose index vectors are ``v``
    (one tuple, or an array whose axis 0 runs over the generators).

    The units = 1 (mod p**c), for c >= 1 (c >= 2 at p = 2), are the powers of
    the last generator to the power of its order over p**(a - c), so chi is
    trivial on them exactly when p**(a - c) divides chi's last index.  The
    conductor is p**c for the least such c, and 1 for the principal chi.
    """
    p, a = st.prime, st.exponent
    out = st.modulus
    for c in range(a - 1, 1 if p == 2 else 0, -1):
        out = np.where(v[-1] % p ** (a - c) == 0, p**c, out)
    return np.where(np.any(v, axis=0), out, 1)


class CharacterGroup:
    """Bulk evaluators for the full character group mod n, over one table:
    ``units[j]`` is the unit mod n at flat position j of the grid ``orders``
    of all generators of the prime powers of n, one outer product of powers
    per generator g of p**a, lifted by CRT to g mod p**a and 1 mod n / p**a.
    Per-character vectors are scattered to it; ``all_sums`` gathers by it.
    The roots of unity ``_roots`` are built on the first per-character call."""

    def __init__(self, n: int):
        refuse_below(n, 1, "modulus")
        refuse_exceeding(n, MODULUS_BOUND, "modulus")
        self.modulus = n
        self.structures = tuple(unit_group_structure(p, e) for p, e in factorize(n).factors)
        self.orders = tuple(order for st in self.structures for _, order in st.generators)
        self.phi = math.prod(self.orders)
        self.order_lcm = math.lcm(*self.orders)

        self.units = np.ones(1, dtype=np.int64) % n
        for st in self.structures:
            lift = n // st.modulus * pow(n // st.modulus, -1, st.modulus)  # 1 mod p**a, 0 mod the rest
            for g, order in st.generators:
                self.units = (self.units[:, None] * kernels.powers((1 + (g - 1) * lift) % n, order, n) % n).ravel()

    # -- per-character paths ------------------------------------------------

    def _axes(self, chi: DirichletCharacter) -> tuple[int, ...]:
        """The index vectors of chi, concatenated in the order of self.orders."""
        if chi.modulus != self.modulus:
            raise DomainError(f"modulus mismatch: {chi.modulus} != {self.modulus}")
        return tuple(v for _, idx in chi.components for v in idx)

    def turn_numerators(self, chi: DirichletCharacter) -> np.ndarray:
        """t[k] with chi(k) = exp(2*pi*i*t[k]/lcm); -1 where chi(k) = 0."""
        L = self.order_lcm
        turns = np.zeros(1, dtype=np.int64)
        for v, o in zip(self._axes(chi), self.orders):
            turns = (turns[:, None] + np.arange(o) * (v * (L // o))).ravel()
        out = np.full(self.modulus, -1, dtype=np.int64)
        out[self.units] = turns % L
        return out

    @cached_property
    def _roots(self) -> np.ndarray:
        r = np.exp(2j * np.pi * np.arange(self.order_lcm) / self.order_lcm)
        r.setflags(write=False)
        return r

    def char_sum(self, chi: DirichletCharacter, weights: np.ndarray) -> complex:
        """sum over k in [0, n) of weights[k] * chi(k), over the units in ascending k."""
        t = self.turn_numerators(chi)
        units = t >= 0
        return complex(np.sum(np.asarray(weights, dtype=np.float64)[units] * self._roots[t[units]]))

    def char_values(self, chi: DirichletCharacter) -> np.ndarray:
        """Complex vector of chi(k) for k in [0, n), zeros at non-units."""
        t = self.turn_numerators(chi)
        return np.where(t >= 0, self._roots[t], 0)

    # -- whole-group paths ----------------------------------------------------

    def all_sums(self, weights: np.ndarray) -> np.ndarray:
        """sums[j] = sum_k weights[k] * chi_j(k) for every character j at once.

        Grouping the weights by unit-group coordinates turns the family of
        sums into one multidimensional DFT, evaluated by fftn; entry j is in
        the canonical (lexicographic) character order.
        """
        grid = np.asarray(weights, dtype=np.float64)[self.units].reshape(self.orders)
        return np.conj(np.fft.fftn(grid)).ravel()

    def conductors(self) -> np.ndarray:
        """Conductor of every character, indexed like all_sums output."""
        out = np.ones(1, dtype=np.int64)
        for st in self.structures:
            v = np.indices([order for _, order in st.generators])
            out = (out[:, None] * _index_conductors(st, v).ravel()).ravel()
        return out

    def character(self, flat: int) -> DirichletCharacter:
        axes = iter(np.unravel_index(flat, self.orders))
        comps = tuple((st.modulus, tuple(int(next(axes)) for _ in st.generators)) for st in self.structures)
        return DirichletCharacter(self.modulus, comps)

    def flat_index(self, chi: DirichletCharacter) -> int:
        return int(np.ravel_multi_index(self._axes(chi), self.orders))

    def label(self, flat: int) -> str:
        return character_labels(self.modulus)[flat]


@lru_cache(maxsize=1)
def character_group(n: int) -> CharacterGroup:
    """Shared per-modulus engine; only the last modulus's group is kept, for consecutive calls at it."""
    return CharacterGroup(n)
