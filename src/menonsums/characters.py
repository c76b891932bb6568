"""Dirichlet characters mod n with exact root-of-unity values.

A character is stored by its index vector against fixed generators of each
prime-power unit group: the smallest primitive root for odd p**a, the pair
(-1, 5) in that order for 2**a with a >= 3.  This pins down a canonical,
reproducible labeling of the whole character group.  Values are exact
fractions of a full turn; conversion to floating complex happens only when
sums are accumulated.

The character group mod n is the product of the groups mod its prime
powers, so the per-prime-power tables are the single source of every
character fact: ``unit_group_structure(p, a)`` gives generators, orders and
dlogs, ``_component_conductor_table(p, a)`` conductors.  Enumeration order,
labels, flat indices and conductors mod n are combined from them by CRT.

``CharacterGroup`` holds per-modulus discrete-log tables so that sweeps can
evaluate every character at every argument in vectorized form; the sums of
all phi(n) characters against a common weight vector come out of one
multidimensional DFT over the unit group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import kernels
from .arith import divisors, euler_phi, factorize, is_prime
from .errors import DomainError, IntegrityError, ResourceError

#: Largest prime-power (and largest character modulus) with dlog tables.
MODULUS_BOUND = 1 << 20


# ---------------------------------------------------------------------------
# unit group structure of (Z/p^a)^*


@dataclass(frozen=True, eq=False)
class UnitGroupStructure:
    """Generators and discrete logs of (Z/p**a)^*.

    ``dlog_table`` has one row per residue in [0, p**a); row k is the
    exponent vector of k against ``generators`` (all entries -1 when k is
    not a unit, and rows are empty when the group is trivial).
    """

    modulus: int
    prime: int
    exponent: int
    generators: tuple[tuple[int, int], ...]
    dlog_table: np.ndarray


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
    """Canonical structure of (Z/p**a)^* with a complete dlog table."""
    if a < 1:
        raise DomainError(f"exponent must be >= 1, got {a}")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    q = p**a
    if q > MODULUS_BOUND:
        raise ResourceError(f"prime power {q} exceeds bound {MODULUS_BOUND}")
    if p == 2:
        if a == 1:
            gens: tuple[tuple[int, int], ...] = ()
            table = np.full((q, 0), -1, dtype=np.int32)
        elif a == 2:
            gens = ((3, 2),)
            table = kernels.dlog_cyclic(q, 3, 2).reshape(q, 1)
        else:
            order5 = q // 4
            gens = ((q - 1, 2), (5, order5))
            table = kernels.dlog_two_gens(q, order5)
    else:
        phi = q // p * (p - 1)
        g = _smallest_primitive_root(p, a)
        gens = ((g, phi),)
        table = kernels.dlog_cyclic(q, g, phi).reshape(q, 1)
    table.setflags(write=False)
    return UnitGroupStructure(q, p, a, gens, table)


# ---------------------------------------------------------------------------
# characters and exact values


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod n as per-prime-power index vectors.

    ``components`` lists (p**a, index_vector) in ascending prime order;
    entry i of an index vector is the exponent applied to generator i of
    that prime power's unit group.  All-zero vectors give the principal
    character.
    """

    modulus: int
    components: tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class CharValue:
    """Exact character value: zero, or exp(2*pi*i*turn) with turn reduced."""

    turn: Fraction | None

    ZERO_KIND = "zero"
    ROOT_KIND = "root"

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

    @property
    def kind(self) -> str:
        return self.ZERO_KIND if self.turn is None else self.ROOT_KIND

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
    """Validate a character and pair each component with its group structure."""
    fac = factorize(chi.modulus)
    expected = tuple(p**e for p, e in fac.factors)
    got = tuple(q for q, _ in chi.components)
    if got != expected:
        raise DomainError(
            f"malformed character: components {got} do not match the "
            f"prime powers {expected} of modulus {chi.modulus}"
        )
    out = []
    for (p, e), (q, idx) in zip(fac.factors, chi.components):
        st = unit_group_structure(p, e)
        if len(idx) != len(st.generators):
            raise DomainError(f"component mod {q} needs {len(st.generators)} indices, got {len(idx)}")
        for v, (_, order) in zip(idx, st.generators):
            if not 0 <= v < order:
                raise DomainError(f"index {v} out of range [0, {order}) in component mod {q}")
        out.append((q, idx, st))
    return out


def principal_character(n: int) -> DirichletCharacter:
    """The character that is 1 on every argument coprime to n."""
    comps = []
    for p, e in factorize(n).factors:
        st = unit_group_structure(p, e)
        comps.append((p**e, (0,) * len(st.generators)))
    return DirichletCharacter(n, tuple(comps))


def enumerate_characters(n: int) -> list[DirichletCharacter]:
    """All phi(n) characters mod n, ordered lexicographically by index vectors.

    The principal character comes first; the ordering is the canonical
    labeling used everywhere in reports.
    """
    if n > MODULUS_BOUND:
        raise ResourceError(f"modulus {n} exceeds bound {MODULUS_BOUND}")
    comps = []
    for p, e in factorize(n).factors:
        orders = (range(order) for _, order in unit_group_structure(p, e).generators)
        comps.append([(p**e, idx) for idx in itertools.product(*orders)])
    return [DirichletCharacter(n, combo) for combo in itertools.product(*comps)]


def eval_character(chi: DirichletCharacter, k: int) -> CharValue:
    """chi(k): zero when gcd(k, n) > 1, else an exact root of unity."""
    n = chi.modulus
    parts = _component_structures(chi)
    r = k % n if n > 1 else 0
    if math.gcd(r, n) != 1:
        return CharValue.zero()
    turn = Fraction(0)
    for q, idx, st in parts:
        row = st.dlog_table[r % q]
        for v, e, (_, order) in zip(idx, row, st.generators):
            turn += Fraction(v * int(e), order)
    return CharValue.root(turn)


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

    Computed as the product of per-component conductors, each read from
    ``_component_conductor_table``; the definition scan
    ``conductor_by_definition`` must agree and is property-tested.
    """
    out = 1
    for _, idx, st in _component_structures(chi):
        orders = tuple(order for _, order in st.generators)
        out *= int(_component_conductor_table(st.prime, st.exponent)[np.ravel_multi_index(idx, orders)])
    return out


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
    _component_structures(chi)
    return [DirichletCharacter(q, ((q, idx),)) for q, idx in chi.components]


def primitive_part(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character psi mod conductor(chi) inducing chi.

    psi agrees with chi on every argument coprime to the modulus of chi.
    """
    d = conductor(chi)
    if d == 1:
        return DirichletCharacter(1, ())
    by_prime = {}
    for q, idx, st in _component_structures(chi):
        by_prime[st.prime] = DirichletCharacter(q, ((q, idx),))
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
    psi = DirichletCharacter(d, tuple(comps))
    return psi


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


def character_labels(n: int) -> list[str]:
    """Labels of all phi(n) characters mod n in the canonical flat order.

    Entry j equals ``char_label(enumerate_characters(n)[j])``; each prime
    power's cells are built by comprehension over its generator orders and
    the prime powers are concatenated in product order.
    """
    if n > MODULUS_BOUND:
        raise ResourceError(f"modulus {n} exceeds bound {MODULUS_BOUND}")
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


@lru_cache(maxsize=64)
def _roots_of_unity(order: int) -> np.ndarray:
    r = np.exp(2j * np.pi * np.arange(order) / order)
    r.setflags(write=False)
    return r


@lru_cache(maxsize=None)
def _component_conductor_table(p: int, a: int) -> np.ndarray:
    """Conductors of all characters mod p**a, flat in C order over indices."""
    st = unit_group_structure(p, a)
    orders = tuple(order for _, order in st.generators)
    if not orders:
        out = np.ones(1, dtype=np.int64)
    elif p == 2 and a >= 3:
        v0, v1 = np.meshgrid(np.arange(2), np.arange(orders[1]), indexing="ij")
        v0, v1 = v0.ravel(), v1.ravel()
        k2 = np.zeros(v1.size, dtype=np.int64)
        for t in range(1, a):
            k2 += (v1 % 2**t == 0) & (v1 > 0)
        out = np.where(v1 == 0, np.where(v0 == 0, 1, 4), 2 ** (a - k2)).astype(np.int64)
    else:
        v = np.arange(orders[0], dtype=np.int64)
        o = orders[0] // np.gcd(v, orders[0])
        e = np.zeros(v.size, dtype=np.int64)
        for t in range(1, a + 1):
            e += o % p**t == 0
        out = np.where(v == 0, 1, p ** (1 + e)).astype(np.int64)
    out.setflags(write=False)
    return out


class CharacterGroup:
    """Dlog tables and bulk evaluators for the full character group mod n."""

    def __init__(self, n: int):
        if n < 1:
            raise DomainError(f"modulus must be >= 1, got {n}")
        if n > MODULUS_BOUND:
            raise ResourceError(f"modulus {n} exceeds bound {MODULUS_BOUND}")
        self.modulus = n
        self.structures = tuple(unit_group_structure(p, e) for p, e in factorize(n).factors)
        self.orders = tuple(order for st in self.structures for _, order in st.generators)
        self.phi = math.prod(self.orders)
        self.order_lcm = math.lcm(*self.orders)

        k = np.arange(n, dtype=np.int64)
        self.coprime = np.gcd(k, n) == 1
        tables = (st.dlog_table[k % st.modulus] for st in self.structures)
        self.dlogs = np.concatenate([np.zeros((n, 0), dtype=np.int64), *tables], axis=1)
        strides = np.array([math.prod(self.orders[i + 1 :]) for i in range(len(self.orders))], dtype=np.int64)
        self.flat_index_of_k = np.where(self.coprime, self.dlogs @ strides, -1)
        self._conductors: np.ndarray | None = None
        self._labels: list[str] | None = None

    # -- per-character paths ------------------------------------------------

    def _axes(self, chi: DirichletCharacter) -> tuple[int, ...]:
        """The index vectors of chi, concatenated in the order of self.orders."""
        if chi.modulus != self.modulus:
            raise DomainError(f"modulus mismatch: {chi.modulus} != {self.modulus}")
        flat = tuple(v for _, idx in chi.components for v in idx)
        if len(flat) != len(self.orders):
            raise DomainError("malformed character for this modulus")
        return flat

    def turn_numerators(self, chi: DirichletCharacter) -> np.ndarray:
        """t[k] with chi(k) = exp(2*pi*i*t[k]/lcm); -1 where chi(k) = 0."""
        L = self.order_lcm
        c = np.array([v * (L // o) for v, o in zip(self._axes(chi), self.orders)], dtype=np.int64)
        t = np.full(self.modulus, -1, dtype=np.int64)
        t[self.coprime] = (self.dlogs[self.coprime] @ c) % L
        return t

    def char_sum(self, chi: DirichletCharacter, weights: np.ndarray) -> complex:
        """sum over k in [0, n) of weights[k] * chi(k)."""
        t = self.turn_numerators(chi)
        m = t >= 0
        w = np.ascontiguousarray(weights, dtype=np.float64)
        return complex(np.sum(w[m] * _roots_of_unity(self.order_lcm)[t[m]]))

    def char_values(self, chi: DirichletCharacter) -> np.ndarray:
        """Complex vector of chi(k) for k in [0, n), zeros at non-units."""
        t = self.turn_numerators(chi)
        vals = np.zeros(self.modulus, dtype=np.complex128)
        m = t >= 0
        vals[m] = _roots_of_unity(self.order_lcm)[t[m]]
        return vals

    # -- whole-group paths ----------------------------------------------------

    def all_sums(self, weights: np.ndarray) -> np.ndarray:
        """sums[j] = sum_k weights[k] * chi_j(k) for every character j at once.

        Grouping the weights by unit-group coordinates turns the family of
        sums into one multidimensional DFT, evaluated by fftn; entry j is in
        the canonical (lexicographic) character order.
        """
        w = np.asarray(weights, dtype=np.float64)
        grid = np.bincount(
            self.flat_index_of_k[self.coprime], weights=w[self.coprime], minlength=self.phi
        ).reshape(self.orders)
        return np.conj(np.fft.fftn(grid)).ravel()

    def conductors(self) -> np.ndarray:
        """Conductor of every character, indexed like all_sums output."""
        if self._conductors is None:
            out = np.ones(1, dtype=np.int64)
            for st in self.structures:
                table = _component_conductor_table(st.prime, st.exponent)
                out = (out[:, None] * table[None, :]).ravel()
            out.setflags(write=False)
            self._conductors = out
        return self._conductors

    def character(self, flat: int) -> DirichletCharacter:
        axes = iter(np.unravel_index(flat, self.orders))
        comps = tuple((st.modulus, tuple(int(next(axes)) for _ in st.generators)) for st in self.structures)
        return DirichletCharacter(self.modulus, comps)

    def flat_index(self, chi: DirichletCharacter) -> int:
        return int(np.ravel_multi_index(self._axes(chi), self.orders))

    def labels(self) -> list[str]:
        """Label of every character, indexed like all_sums output."""
        if self._labels is None:
            self._labels = character_labels(self.modulus)
        return self._labels

    def label(self, flat: int) -> str:
        return self.labels()[flat]


@lru_cache(maxsize=16)
def character_group(n: int) -> CharacterGroup:
    """Shared per-modulus engine; construction is idempotent and cached."""
    return CharacterGroup(n)
