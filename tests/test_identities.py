"""Sum evaluators: contract examples, reduction chains, and cross-checks."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from menonsums import (
    CharValue,
    DomainError,
    IntegrityError,
    ResourceError,
    char_shift_sum,
    character_group,
    character_labels,
    cohen_partition_check,
    conductor,
    divisor_tau,
    enumerate_characters,
    euler_phi,
    generalized_sum,
    gen_gcd,
    is_primitive,
    klee_phi,
    klee_phi_bruteforce,
    menon_sum,
    power_divisors,
    principal_character,
    round_exact,
    s_power_part,
    sigma,
    sury_sum,
    tau_s,
    unit_group_structure,
    zhao_cao_sum,
)
from menonsums import cli, kernels
from menonsums.arith import sgcd_table
from menonsums.characters import CharacterGroup
from menonsums.identities import SUM_BOUND, TERM_BOUND, cohen_partition_stats, generalized_weights, zhao_cao_weights


class TestMenon:
    @pytest.mark.parametrize("n,expected", [(1, 1), (4, 6), (10, 16)])
    def test_examples(self, n, expected):
        assert menon_sum(n) == expected

    def test_matches_direct_loop(self):
        for n in range(1, 200):
            direct = sum(math.gcd(m - 1, n) for m in range(1, n + 1) if math.gcd(m, n) == 1)
            assert menon_sum(n) == direct

    def test_errors(self):
        with pytest.raises(DomainError):
            menon_sum(0)
        with pytest.raises(ResourceError):
            menon_sum(10**5 + 1)


class TestSury:
    @pytest.mark.parametrize("n,s,expected", [(3, 1, 4), (4, 2, 14), (1, 7, 1)])
    def test_examples(self, n, s, expected):
        assert sury_sum(n, s) == expected

    def test_matches_tuple_enumeration(self):
        for n in range(1, 13):
            for s in (1, 2, 3):
                total = 0
                tuples = [(m1,) for m1 in range(1, n + 1) if math.gcd(m1, n) == 1]
                for _ in range(s - 1):
                    tuples = [t + (m,) for t in tuples for m in range(1, n + 1)]
                for t in tuples:
                    total += math.gcd(t[0] - 1, *t[1:], n) if len(t) > 1 else math.gcd(t[0] - 1, n)
                assert sury_sum(n, s) == total, (n, s)

    def test_reduces_to_menon(self):
        for n in range(1, 401):
            assert sury_sum(n, 1) == menon_sum(n)

    def test_tuple_bound(self):
        with pytest.raises(ResourceError):
            sury_sum(10**4, 2)

    @pytest.mark.parametrize("s", [66, 10**6, 2**31 - 1])
    def test_n1_work_does_not_grow_with_s(self, s):
        start = time.perf_counter()
        assert sury_sum(1, s) == 1
        assert time.perf_counter() - start < 0.5


class TestZhaoCao:
    def test_examples(self):
        assert zhao_cao_sum(4, principal_character(4)).rounded == 6
        for chi in enumerate_characters(9):
            if is_primitive(chi):
                assert zhao_cao_sum(9, chi).rounded == 6
        for chi in enumerate_characters(12):
            if conductor(chi) == 3:
                assert zhao_cao_sum(12, chi).rounded == 12

    def test_principal_reduces_to_menon(self):
        for n in range(1, 1001):
            assert zhao_cao_sum(n, principal_character(n)).rounded == menon_sum(n)

    def test_menon_gcd_table_and_fft_paths_agree(self):
        # Menon's identity is Zhao-Cao at the principal character (flat index 0, d = 1).
        for n in range(1, 501):
            group = character_group(n)
            assert group.conductors()[0] == 1
            fft = round(group.all_sums(zhao_cao_weights(n))[0].real)
            assert menon_sum(n) == fft == euler_phi(n) * divisor_tau(n)

    def test_modulus_mismatch(self):
        with pytest.raises(DomainError):
            zhao_cao_sum(8, principal_character(4))
        with pytest.raises(DomainError):
            generalized_sum(8, 2, principal_character(4))


class TestGeneralizedSum:
    def test_remark_example(self):
        assert generalized_sum(4, 2, principal_character(4)).rounded == 5

    def test_theorem1_examples(self):
        for chi in enumerate_characters(16):
            if is_primitive(chi):
                assert generalized_sum(16, 2, chi).rounded == 12
        for chi in enumerate_characters(9):
            if is_primitive(chi):
                assert generalized_sum(9, 1, chi).rounded == 6

    def test_theorem1_property_full_range(self):
        # every primitive chi on an s-th-power modulus up to 2**10
        from menonsums import run_sweep
        from menonsums.harness import SweepConfig

        report = run_sweep(SweepConfig(identity="theorem1", n_max=1024, s_values=(1, 2, 3)))
        assert report.summary["fail"] == 0
        assert report.worst_residual < 1e-6

    def test_s1_equals_zhao_cao(self):
        for n in range(1, 151):
            group = character_group(n)
            via_gen = group.all_sums(generalized_weights(n, 1))
            via_zc = group.all_sums(zhao_cao_weights(n))
            assert np.allclose(via_gen, via_zc, atol=1e-10)
            chi = enumerate_characters(n)[-1]
            assert generalized_sum(n, 1, chi).rounded == zhao_cao_sum(n, chi).rounded

    def test_direct_transcription(self):
        # literal sum over k with (k, n)_s = 1 of (k-1, n)_s * chi(k)
        from menonsums import eval_character

        for n in (4, 9, 12, 16, 18):
            for s in (1, 2, 3):
                for chi in enumerate_characters(n):
                    total = 0j
                    for k in range(1, n + 1):
                        if gen_gcd(k, n, s) != 1:
                            continue
                        total += gen_gcd(k - 1 if k > 1 else 0, n, s) * complex(eval_character(chi, k))
                    res = generalized_sum(n, s, chi)
                    assert abs(res.complex_value - total) < 1e-9, (n, s)

    def test_multiplicativity_small(self):
        # f(rt) = f(r) f(t) for coprime r, t under component factorization
        for s in (1, 2):
            for r, t in ((4, 9), (8, 3), (5, 9), (16, 9), (4, 25)):
                n = r * t
                gr, gt, gn = character_group(r), character_group(t), character_group(n)
                sums_r = gr.all_sums(generalized_weights(r, s))
                sums_t = gt.all_sums(generalized_weights(t, s))
                sums_n = gn.all_sums(generalized_weights(n, s))
                for flat, chi in enumerate(enumerate_characters(n)):
                    fr = sums_r[gr.flat_index(_restrict(chi, r))]
                    ft = sums_t[gt.flat_index(_restrict(chi, t))]
                    lhs = np.rint(sums_n[flat].real)
                    assert lhs == round((fr * ft).real), (s, r, t, flat)


def _restrict(chi, modulus):
    """The product of the components of chi living over the primes of modulus."""
    from menonsums import DirichletCharacter, factor_character

    comps = tuple((q, idx) for q, idx in chi.components if modulus % q == 0)
    return DirichletCharacter(modulus, comps)


class TestCharShiftSum:
    def test_primitive_examples(self):
        for chi in enumerate_characters(9):
            if is_primitive(chi):
                assert char_shift_sum(3, 2, 1, 1, chi).rounded == -1
        for chi in enumerate_characters(16):
            if is_primitive(chi):
                assert char_shift_sum(2, 4, 2, 2, chi).rounded == -1

    def test_conductor_example(self):
        for chi in enumerate_characters(9):
            if conductor(chi) == 3:
                assert char_shift_sum(3, 2, 1, 1, chi).rounded == 2  # Phi_1(3)

    def test_primitive_piecewise_grid(self):
        for p, n_exp, s in ((2, 4, 1), (2, 6, 2), (3, 3, 1), (3, 4, 2), (5, 2, 1)):
            for chi in enumerate_characters(p**n_exp):
                if not is_primitive(chi):
                    continue
                for m in range(s, n_exp, s):
                    got = char_shift_sum(p, n_exp, s, m, chi).rounded
                    assert got == (-1 if m == n_exp - s else 0), (p, n_exp, s, m)

    def test_parameter_validation(self):
        chi = principal_character(16)
        with pytest.raises(DomainError):
            char_shift_sum(4, 2, 1, 1, principal_character(16))  # p not prime
        with pytest.raises(DomainError):
            char_shift_sum(2, 4, 2, 1, chi)  # m not a multiple of s
        with pytest.raises(DomainError):
            char_shift_sum(2, 4, 2, 4, chi)  # m not < n_exp
        with pytest.raises(DomainError):
            char_shift_sum(2, 3, 2, 2, chi)  # n_exp not a multiple of s
        with pytest.raises(DomainError):
            char_shift_sum(2, 4, 2, 2, principal_character(8))  # modulus mismatch


# Each entry point just past its bound, with the refusal it must give at once.
_PAST_BOUNDS = {
    "unit_group_structure": (lambda: unit_group_structure(2, 21), ResourceError, "prime power 2097152 exceeds bound 1048576"),
    "enumerate_characters_low": (lambda: enumerate_characters(0), DomainError, "factorize requires n >= 1, got 0"),
    "enumerate_characters_high": (
        lambda: enumerate_characters(2**20 + 1),
        ResourceError,
        "modulus 1048577 exceeds bound 1048576",
    ),
    "character_labels_low": (lambda: character_labels(0), DomainError, "factorize requires n >= 1, got 0"),
    "character_labels_high": (lambda: character_labels(2**20 + 1), ResourceError, "modulus 1048577 exceeds bound 1048576"),
    "group_low": (lambda: CharacterGroup(0), DomainError, "modulus must be >= 1, got 0"),
    "group_high": (lambda: CharacterGroup(2**20 + 1), ResourceError, "modulus 1048577 exceeds bound 1048576"),
    "principal_character": (lambda: principal_character(3 * 2**20), ResourceError, "modulus 3145728 exceeds bound 1048576"),
    "char_shift_sum": (
        lambda: char_shift_sum(2, 21, 1, 1, principal_character(4)),
        ResourceError,
        "modulus 2097152 exceeds bound 1048576",
    ),
    "zhao_cao_sum": (
        lambda: zhao_cao_sum(SUM_BOUND + 1, principal_character(1)),
        ResourceError,
        "zhao_cao_sum bound is 100000, got 100001",
    ),
    "generalized_sum": (
        lambda: generalized_sum(SUM_BOUND + 1, 2, principal_character(1)),
        ResourceError,
        "generalized_sum bound is 100000, got 100001",
    ),
}


@pytest.mark.parametrize("case", _PAST_BOUNDS)
def test_refused_just_past_its_bound(case):
    call, error, message = _PAST_BOUNDS[case]
    start = time.perf_counter()
    with pytest.raises(error) as info:
        call()
    assert time.perf_counter() - start < 0.5
    assert str(info.value) == message


# Each argument refusal that no sweep or other test reaches, with its exact message.
_REFUSED = {
    "power_divisors": (lambda: power_divisors(12, 0), DomainError, "s must be >= 1, got 0"),
    "s_power_part_s": (lambda: s_power_part(12, 0), DomainError, "s must be >= 1, got 0"),
    "s_power_part_n": (lambda: s_power_part(0, 1), DomainError, "n must be >= 1, got 0"),
    "klee_phi": (lambda: klee_phi(12, 0), DomainError, "s must be >= 1, got 0"),
    "klee_phi_bruteforce": (lambda: klee_phi_bruteforce(12, 0), DomainError, "s must be >= 1, got 0"),
    "tau_s": (lambda: tau_s(12, 0), DomainError, "s must be >= 1, got 0"),
    "sigma": (lambda: sigma(12, -1), DomainError, "sigma exponent must be >= 0, got -1"),
    "sgcd_table": (lambda: sgcd_table(0, 1), DomainError, "n must be >= 1, got 0"),
    "sury_sum_n": (lambda: sury_sum(0, 1), DomainError, "n must be >= 1, got 0"),
    "sury_sum_s": (lambda: sury_sum(5, 0), DomainError, "s_vars must be >= 1, got 0"),
    "zhao_cao_sum": (lambda: zhao_cao_sum(0, principal_character(1)), DomainError, "n must be >= 1, got 0"),
    "generalized_sum_n": (lambda: generalized_sum(0, 1, principal_character(1)), DomainError, "n must be >= 1, got 0"),
    "generalized_sum_s": (lambda: generalized_sum(1, 0, principal_character(1)), DomainError, "s must be >= 1, got 0"),
    "char_shift_sum": (lambda: char_shift_sum(3, 2, 0, 1, principal_character(9)), DomainError, "s must be >= 1, got 0"),
    "cohen_partition_n": (lambda: cohen_partition_check(0, 1, 1), DomainError, "n must be >= 1, got 0"),
    "cohen_partition_s": (lambda: cohen_partition_check(4, 0, 1), DomainError, "s must be >= 1, got 0"),
    "round_exact": (
        lambda: round_exact(0j for _ in range(TERM_BOUND + 1)),
        ResourceError,
        f"round_exact accepts at most {TERM_BOUND} terms",
    ),
    "unit_group_structure": (lambda: unit_group_structure(3, 0), DomainError, "exponent must be >= 1, got 0"),
    "parse_s_values_int": (lambda: cli._parse_s_values("a"), DomainError, "--s expects comma-separated integers, got 'a'"),
    "parse_s_values_empty": (lambda: cli._parse_s_values(","), DomainError, "--s expects at least one integer, got ','"),
}


@pytest.mark.parametrize("case", _REFUSED)
def test_refused_argument(case):
    call, error, message = _REFUSED[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class TestCohenPartition:
    def test_examples(self):
        assert cohen_partition_stats(16, 2, 4) == (True, 4, 4)
        assert cohen_partition_check(36, 2, 9)
        for n in (7, 20, 45):
            for s in (1, 2, 3):
                assert cohen_partition_check(n, s, 1)

    def test_explicit_partition_16(self):
        # the twelve 2-reduced residues mod 16 split into 4 classes of 3 mod 4
        members = [m for m in range(1, 17) if gen_gcd(m, 16, 2) == 1]
        assert len(members) == 12
        by_residue = {}
        for m in members:
            by_residue.setdefault(m % 4, []).append(m)
        assert sorted(by_residue) == [1, 2, 3]
        assert all(len(v) == 4 for v in by_residue.values())

    def test_full_grid(self):
        for n in range(1, 200):
            for s in (1, 2, 3):
                for d in power_divisors(n, s):
                    assert cohen_partition_check(n, s, d), (n, s, d)

    def test_errors(self):
        with pytest.raises(DomainError):
            cohen_partition_check(16, 2, 8)  # 8 is not a square
        with pytest.raises(DomainError):
            cohen_partition_check(16, 2, 3)  # 3 does not divide 16
        with pytest.raises(ResourceError):
            cohen_partition_check(10**4 + 1, 2, 1)


class TestRoundExact:
    def test_examples(self):
        res = round_exact([])
        assert (res.rounded, res.residual) == (0, 0.0)
        res = round_exact([CharValue.one(), CharValue.root(Fraction(1, 2))])
        assert res.rounded == 0
        chi = [c for c in enumerate_characters(12) if conductor(c) == 3][0]
        vals = [math.gcd(k - 1, 12) * complex(eval) for k, eval in _zc_terms(12, chi)]
        res = round_exact(vals)
        assert res.rounded == 12 and res.residual < 1e-9

    def test_integrity_error(self):
        with pytest.raises(IntegrityError):
            round_exact([CharValue.root(Fraction(1, 4))])  # sum = i, not an integer

    def test_residual_includes_imaginary(self):
        res = round_exact([complex(1, 1e-8)])
        assert res.rounded == 1
        assert res.residual == pytest.approx(1e-8)


def _zc_terms(n, chi):
    from menonsums import eval_character

    return [(k, eval_character(chi, k)) for k in range(1, n + 1)]


def _odd_prime_powers_upto(bound):
    for p in range(3, bound + 1, 2):
        if all(p % f for f in range(3, math.isqrt(p) + 1, 2)):
            a = 1
            while p**a <= bound:
                yield p, a
                a += 1


class TestKernelsMatchDefinitions:
    """Each kernel against a pure-Python statement of what it computes."""

    def test_menon_gcd_sum(self):
        # 98,280 has the largest n * tau(n) up to SUM_BOUND = 100,000, the
        # bound on the int32 accumulator.
        for n in [*range(1, 1501), 65536, 83160, 98280, 99991, SUM_BOUND]:
            direct = sum(math.gcd(k - 1, n) for k in range(1, n + 1) if math.gcd(k, n) == 1)
            assert kernels.menon_gcd_sum(n) == direct, n

    @staticmethod
    def _check_dlog(table, q, powers, logs):
        """table[x] == log for every (x, log) pair, and -1 at every non-unit."""
        assert np.array_equal(table[powers], logs), q
        assert (table[np.gcd(np.arange(q), q) != 1] == -1).all(), q

    def test_dlog_cyclic(self):
        cases = [(4, 3, 2)]
        for p, a in [*_odd_prime_powers_upto(5000), (3, 10)]:
            q = p**a
            cases.append((q, unit_group_structure(p, a).generators[0][0], q // p * (p - 1)))
        for q, g, order in cases:
            powers = [pow(g, j, q) for j in range(order)]
            self._check_dlog(kernels.dlog_cyclic(q, g, order), q, powers, np.arange(order))

    def test_dlog_two_gens(self):
        for a in range(3, 17):
            q = 1 << a
            pairs = [(i, j) for i in range(2) for j in range(q // 4)]
            powers = [(-1) ** i * pow(5, j, q) % q for i, j in pairs]
            self._check_dlog(kernels.dlog_two_gens(q, q // 4), q, powers, np.array(pairs))

    def test_sgcd_weights_and_klee_count(self):
        for n in (1, 12, 360):
            for s in (1, 2, 3):
                w = kernels.sgcd_weights(n, power_divisors(n, s))
                for j in range(n):
                    g = math.gcd(j, n)
                    assert w[j] == max(l**s for l in range(1, g + 1) if g % l**s == 0)
                no_power = [
                    m for m in range(1, n + 1) if all(math.gcd(m, n) % l**s for l in range(2, n + 1))
                ]
                assert kernels.klee_brute_count(n, s) == len(no_power)
