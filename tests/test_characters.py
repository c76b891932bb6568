"""Character construction, evaluation, conductor, and structural analysis."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menonsums import (
    CharValue,
    DirichletCharacter,
    DomainError,
    char_label,
    character_group,
    character_labels,
    conductor,
    conductor_by_definition,
    enumerate_characters,
    euler_phi,
    eval_character,
    factor_character,
    factorize,
    is_primitive,
    multiply_characters,
    primitive_part,
    principal_character,
    unit_group_structure,
)
from menonsums.arith import primes_upto
from menonsums.characters import CharacterGroup


class TestUnitGroupStructure:
    def test_small_examples(self):
        st9 = unit_group_structure(3, 2)
        assert st9.generators == ((2, 6),)
        st16 = unit_group_structure(2, 4)
        assert st16.generators == ((15, 2), (5, 4))
        st2 = unit_group_structure(2, 1)
        assert st2.generators == ()
        st4 = unit_group_structure(2, 2)
        assert st4.generators == ((3, 2),)

    def test_not_prime_rejected(self):
        with pytest.raises(DomainError):
            unit_group_structure(6, 1)

    @pytest.mark.parametrize("p,a", [(2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 3), (5, 2), (7, 1), (97, 1)])
    def test_invariants(self, p, a):
        st_ = unit_group_structure(p, a)
        q = p**a
        phi = euler_phi(q)
        assert math.prod(order for _, order in st_.generators) == phi
        # every unit appears exactly once and its exponent vector reconstructs it
        seen = 0
        for k in range(q):
            row = st_.dlog_table[k]
            if math.gcd(k, q) != 1:
                assert all(e == -1 for e in row) or row.size == 0
                continue
            seen += 1
            if row.size:
                assert all(e >= 0 for e in row)
                value = 1
                for e, (g, _) in zip(row, st_.generators):
                    value = value * pow(g, int(e), q) % q
                assert value == k
        assert seen == phi
        # generator count by case
        if p == 2:
            assert len(st_.generators) == (0 if a == 1 else 1 if a == 2 else 2)
            if a >= 3:
                assert [o for _, o in st_.generators] == [2, q // 4]
        else:
            assert len(st_.generators) == 1

    def test_smallest_primitive_root_choice(self):
        # generator is the least primitive root for odd prime powers
        for p, a in ((3, 1), (3, 2), (5, 1), (5, 2), (7, 2), (11, 1), (13, 1)):
            q = p**a
            phi = euler_phi(q)
            (g, order), = unit_group_structure(p, a).generators
            assert order == phi
            for cand in range(2, g):
                orders = {pow(cand, e, q) for e in range(1, phi)}
                assert 1 in orders or math.gcd(cand, q) != 1, (p, a, cand)


class TestEnumeration:
    def test_count_is_phi(self):
        for n in range(1, 301):
            assert len(enumerate_characters(n)) == euler_phi(n)

    def test_principal_first_distinct_lexicographic(self):
        for n in (1, 4, 9, 12, 16, 24, 40):
            chars = enumerate_characters(n)
            assert chars[0] == principal_character(n)
            assert len(set(chars)) == len(chars)
            keys = [tuple(v for _, idx in c.components for v in idx) for c in chars]
            assert keys == sorted(keys)

    def test_flat_index_round_trip(self):
        for n in (1, 2, 8, 12, 45, 48):
            group = character_group(n)
            for flat, chi in enumerate(enumerate_characters(n)):
                assert group.character(flat) == chi
                assert group.flat_index(chi) == flat


class TestEvaluation:
    def test_contract_examples(self):
        chi0 = principal_character(4)
        assert eval_character(chi0, 3) == CharValue.one()
        assert eval_character(chi0, 2).is_zero
        chi1 = enumerate_characters(4)[1]
        assert eval_character(chi1, 3).turn == Fraction(1, 2)
        for n in (1, 2, 7, 16, 45):
            for chi in enumerate_characters(n):
                assert eval_character(chi, 1) == CharValue.one()

    def test_periodicity_and_zero_set(self):
        for n in (6, 8, 9, 15):
            for chi in enumerate_characters(n):
                for k in range(-n, 2 * n):
                    v = eval_character(chi, k)
                    assert v == eval_character(chi, k + n)
                    assert v.is_zero == (math.gcd(k % n, n) > 1)

    def test_complete_multiplicativity(self):
        for n in (5, 8, 9, 12, 16, 21):
            for chi in enumerate_characters(n):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        vj, vk = eval_character(chi, j), eval_character(chi, k)
                        assert eval_character(chi, j * k) == vj * vk

    @given(st.integers(min_value=1, max_value=60), st.integers(), st.integers())
    @settings(max_examples=120, deadline=None)
    def test_multiplicativity_property(self, n, j, k):
        chi = enumerate_characters(n)[-1]
        assert eval_character(chi, j * k) == eval_character(chi, j) * eval_character(chi, k)

    def test_malformed_character_rejected(self):
        with pytest.raises(DomainError):
            eval_character(DirichletCharacter(12, ((12, (0,)),)), 1)
        with pytest.raises(DomainError):
            eval_character(DirichletCharacter(9, ((9, (7,)),)), 1)  # index out of range


class TestConductor:
    def test_contract_examples(self):
        assert conductor(principal_character(12)) == 1
        chi1 = enumerate_characters(4)[1]
        assert conductor(chi1) == 4
        chi9 = enumerate_characters(9)[3]
        assert conductor(chi9) == 3
        assert is_primitive(principal_character(1))
        assert not is_primitive(principal_character(4))
        assert is_primitive(chi1)

    @pytest.mark.parametrize("n", list(range(1, 101)))
    def test_formula_matches_definition_scan(self, n):
        group = character_group(n)
        table = group.conductors()
        for flat, chi in enumerate(enumerate_characters(n)):
            d = conductor(chi)
            assert d == conductor_by_definition(chi)
            assert d == int(table[flat])
            assert n % d == 0

    def test_multiplicative_over_components(self):
        for n in (12, 36, 40, 45, 72, 90):
            for chi in enumerate_characters(n):
                parts = factor_character(chi)
                assert conductor(chi) == math.prod(conductor(c) for c in parts)

    def test_primitive_count_matches_conductor_census(self):
        # number of chi mod n with conductor d == number of primitive chi mod d
        prim_count = {}
        for d in range(1, 201):
            prim_count[d] = sum(1 for c in enumerate_characters(d) if conductor(c) == d)
        for n in range(1, 201):
            census = {}
            for chi in enumerate_characters(n):
                d = conductor(chi)
                census[d] = census.get(d, 0) + 1
            for d, count in census.items():
                assert count == prim_count[d], (n, d)
            assert sum(census.values()) == euler_phi(n)


class TestGroupOperations:
    def test_principal_is_identity(self):
        for n in (4, 9, 15, 16):
            e = principal_character(n)
            for chi in enumerate_characters(n):
                assert multiply_characters(chi, e) == chi
                assert multiply_characters(e, chi) == chi

    def test_order_two_element(self):
        chi1 = enumerate_characters(4)[1]
        assert multiply_characters(chi1, chi1) == principal_character(4)

    def test_group_axioms_pointwise(self):
        for n in (8, 9, 12):
            chars = enumerate_characters(n)
            for a in chars:
                for b in chars:
                    prod = multiply_characters(a, b)
                    for k in range(1, n + 1):
                        assert eval_character(prod, k) == eval_character(a, k) * eval_character(b, k)

    def test_modulus_mismatch(self):
        with pytest.raises(DomainError):
            multiply_characters(principal_character(4), principal_character(8))


class TestPrimitivePart:
    def test_contract_examples(self):
        assert primitive_part(principal_character(12)) == DirichletCharacter(1, ())
        chi9 = enumerate_characters(9)[3]  # conductor 3
        psi = primitive_part(chi9)
        assert psi.modulus == 3 and psi != principal_character(3)
        prim = [c for c in enumerate_characters(8) if is_primitive(c)][0]
        assert primitive_part(prim) == prim

    @pytest.mark.parametrize("n", list(range(1, 101)))
    def test_round_trip(self, n):
        for chi in enumerate_characters(n):
            psi = primitive_part(chi)
            assert psi.modulus == conductor(chi)
            assert is_primitive(psi)
            for k in range(1, n + 1):
                if math.gcd(k, n) == 1:
                    assert eval_character(chi, k) == eval_character(psi, k), (n, chi, k)


class TestFactorCharacter:
    def test_pointwise_product(self):
        for n in (12, 36, 45, 60):
            for chi in enumerate_characters(n):
                parts = factor_character(chi)
                assert [p.modulus for p in parts] == [q for q, _ in chi.components]
                for k in range(1, n + 1):
                    if math.gcd(k, n) > 1:
                        continue
                    prod = CharValue.one()
                    for part in parts:
                        prod = prod * eval_character(part, k)
                    assert prod == eval_character(chi, k)

    def test_primitive_components_of_primitive(self):
        for n in (36, 40, 45, 72):
            for chi in enumerate_characters(n):
                if is_primitive(chi):
                    assert all(is_primitive(c) for c in factor_character(chi))

    def test_prime_power_is_singleton(self):
        for chi in enumerate_characters(27):
            assert factor_character(chi) == [chi]


class TestOrthogonality:
    @pytest.mark.parametrize("n", list(range(1, 101)))
    def test_sum_over_characters(self, n):
        chars = enumerate_characters(n)
        for k in range(1, n + 1):
            if math.gcd(k, n) != 1:
                continue
            total = sum(complex(eval_character(chi, k)) for chi in chars)
            expected = euler_phi(n) if k % n == 1 % n else 0.0
            assert abs(total - expected) < 1e-9, (n, k)


class TestBulkEngine:
    def test_values_match_scalar_eval(self):
        for n in (1, 2, 4, 9, 16, 24, 35, 48):
            group = character_group(n)
            for chi in enumerate_characters(n):
                vals = group.char_values(chi)
                for k in range(n):
                    assert abs(vals[k] - complex(eval_character(chi, k))) < 1e-12

    def test_all_sums_match_per_character(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 12, 16, 27, 40, 63):
            group = character_group(n)
            w = rng.integers(0, 50, size=n).astype(np.float64)
            bulk = group.all_sums(w)
            for flat, chi in enumerate(enumerate_characters(n)):
                direct = group.char_sum(chi, w)
                assert abs(bulk[flat] - direct) < 1e-9, (n, flat)


class TestCharValueInvariants:
    def test_turn_reduced_and_denominator_divides_order(self):
        from menonsums import character_order

        for n in (4, 8, 9, 16, 21, 36, 40):
            for chi in enumerate_characters(n):
                order = character_order(chi)
                for k in range(1, n + 1):
                    v = eval_character(chi, k)
                    if v.is_zero:
                        assert math.gcd(k, n) > 1
                        continue
                    assert 0 <= v.turn < 1
                    assert math.gcd(v.turn.numerator, v.turn.denominator) == 1
                    assert order % v.turn.denominator == 0

    def test_value_arithmetic(self):
        one = CharValue.one()
        zero = CharValue.zero()
        assert (one * zero).is_zero
        half = CharValue.root(Fraction(1, 2))
        assert half * half == one
        assert complex(half) == pytest.approx(-1 + 0j)
        assert zero.kind == "zero" and half.kind == "root"


class TestLabels:
    def test_label_syntax(self):
        assert char_label(principal_character(4)) == "4:2^2=[0]"
        assert char_label(principal_character(1)) == "1:"
        chi = enumerate_characters(12)[-1]
        assert char_label(chi) == "12:2^2=[1];3^1=[1]"
        chi16 = enumerate_characters(16)[-1]
        assert char_label(chi16) == "16:2^4=[1,3]"

    # 2**a has two generators from a = 3; 840 = 2^3*3*5*7 has four prime factors;
    # 2592 = 2^5*3^4 pairs a two-generator 2-part with a cyclic one, and 2**16 has 32768 characters.
    @pytest.mark.parametrize("n", [*range(1, 201), *(2**a for a in range(1, 11)), 840, 2592, 65536])
    def test_character_labels_match_char_label(self, n):
        expected = [char_label(chi) for chi in enumerate_characters(n)]
        assert character_labels(n) == expected
        group = CharacterGroup(n)
        assert [group.label(i) for i in range(group.phi)] == expected
