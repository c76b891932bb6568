"""Every bound at its edge: one call exactly at it, accepted, and one just past
it, refused at once with its exact message.

The table holds the 17 ResourceError bounds (ROW_BUDGET and each identity's
n_max among them), each identity's s bound (the int32 cap on report params,
or s = 1 for menon and zhao_cao), a character index's range [0, order)
and the lower bounds of a sweep's n_max and a group's modulus.  Every bound is
inclusive.  An at-edge call that would build something large (every
character mod 2**20, a 10**7-cell table) is stopped right after its check by
a sentinel patched over the next call, and the caches an at-edge call fills
are cleared after it.
"""

import itertools
import time
from typing import Callable, NamedTuple
from unittest import mock

import pytest

from menonsums import (
    DirichletCharacter,
    DomainError,
    ResourceError,
    character_group,
    character_labels,
    enumerate_characters,
    factorize,
    generalized_sum,
    klee_phi_bruteforce,
    menon_sum,
    principal_character,
    round_exact,
    sury_sum,
    unit_group_structure,
    zhao_cao_sum,
)
from menonsums import characters, cli, harness
from menonsums.characters import CharacterGroup
from menonsums.cli import char_table_bytes
from menonsums.harness import SweepConfig
from menonsums.identities import SUM_BOUND, TERM_BOUND, cohen_partition_stats


class _Checked(Exception):
    """Raised by a sentinel: the call got past its check."""


def _stopped(module, name: str, call: Callable) -> Callable:
    """call() with module.name replaced by a sentinel, the next call after the check."""

    def run():
        with mock.patch.object(module, name, side_effect=_Checked), pytest.raises(_Checked):
            call()

    return run


def _config(identity: str, n_max: int, s_values=(1,)) -> Callable:
    return lambda: harness._validate_config(SweepConfig(identity, n_max, s_values))


class Edge(NamedTuple):
    at: Callable  # the call exactly at the bound; it must return
    past: Callable  # the call just past it; it must raise error(message)
    error: type
    message: str


# phi(1004251) = 10**6, so ten character jobs mod 1004251 count exactly ROW_BUDGET rows.
_TEN_MILLION_ROWS = [(1004251, 1)] * 10

EDGES = {
    "factorize": Edge(
        lambda: factorize(10**7), lambda: factorize(10**7 + 1), ResourceError, "factorize bound is 10000000, got 10000001"
    ),
    "brute_force": Edge(
        lambda: klee_phi_bruteforce(10**5, 2),
        lambda: klee_phi_bruteforce(10**5 + 1, 2),
        ResourceError,
        "brute-force bound is 100000, got 100001",
    ),
    "prime_power": Edge(
        lambda: unit_group_structure(2, 20),
        lambda: unit_group_structure(2, 21),
        ResourceError,
        "prime power 2097152 exceeds bound 1048576",
    ),
    "character_modulus": Edge(
        lambda: DirichletCharacter(2**20, ((2**20, (0, 0)),)),
        lambda: DirichletCharacter(2**20 + 1, ()),
        ResourceError,
        "modulus 1048577 exceeds bound 1048576",
    ),
    "enumerate_characters": Edge(
        _stopped(characters, "factorize", lambda: enumerate_characters(2**20)),
        lambda: enumerate_characters(2**20 + 1),
        ResourceError,
        "modulus 1048577 exceeds bound 1048576",
    ),
    "character_labels": Edge(
        lambda: character_labels(2**20),
        lambda: character_labels(2**20 + 1),
        ResourceError,
        "modulus 1048577 exceeds bound 1048576",
    ),
    "character_group": Edge(
        lambda: CharacterGroup(2**20),
        lambda: CharacterGroup(2**20 + 1),
        ResourceError,
        "modulus 1048577 exceeds bound 1048576",
    ),
    # phi(5000) * 5000 = 10**7 cells; 3163 has the fewest cells past it.
    "char_table": Edge(
        _stopped(cli, "character_group", lambda: char_table_bytes(5000, "csv")),
        lambda: char_table_bytes(3163, "csv"),
        ResourceError,
        "char-table refused: phi(n)*n = 10001406 cells exceed 10000000",
    ),
    "round_exact": Edge(
        lambda: round_exact(itertools.repeat(0j, TERM_BOUND)),
        lambda: round_exact(itertools.repeat(0j, TERM_BOUND + 1)),
        ResourceError,
        "round_exact accepts at most 1000000 terms",
    ),
    "menon_sum": Edge(
        lambda: menon_sum(10**5), lambda: menon_sum(10**5 + 1), ResourceError, "menon_sum bound is 100000, got 100001"
    ),
    "sury_sum": Edge(
        lambda: sury_sum(10, 7), lambda: sury_sum(11, 7), ResourceError, "tuple count 11**7 exceeds 10000000"
    ),
    "zhao_cao_sum": Edge(
        lambda: zhao_cao_sum(SUM_BOUND, principal_character(SUM_BOUND)),
        lambda: zhao_cao_sum(SUM_BOUND + 1, principal_character(1)),
        ResourceError,
        "zhao_cao_sum bound is 100000, got 100001",
    ),
    "generalized_sum": Edge(
        lambda: generalized_sum(SUM_BOUND, 2, principal_character(SUM_BOUND)),
        lambda: generalized_sum(SUM_BOUND + 1, 2, principal_character(1)),
        ResourceError,
        "generalized_sum bound is 100000, got 100001",
    ),
    "partition_check": Edge(
        lambda: cohen_partition_stats(10**4, 2, 1),
        lambda: cohen_partition_stats(10**4 + 1, 2, 1),
        ResourceError,
        "partition-check bound is 10000, got 10001",
    ),
    "sury_config": Edge(
        lambda: harness._jobs(SweepConfig("sury", 10, (7,))),
        lambda: harness._jobs(SweepConfig("sury", 11, (7,))),
        ResourceError,
        "sury sweep refused: 11**7 tuples exceed 10000000",
    ),
    "row_budget": Edge(
        lambda: harness._admit("theorem2", harness._SPECS["theorem2"], _TEN_MILLION_ROWS),
        lambda: harness._admit("theorem2", harness._SPECS["theorem2"], _TEN_MILLION_ROWS + [(2, 1)]),
        ResourceError,
        "theorem2 sweep refused: 10000001 rows counted exceed the budget 10000000",
    ),
    **{
        f"n_max_{identity}": Edge(
            _config(identity, bound), _config(identity, bound + 1), ResourceError, message
        )
        for identity, bound, message in [
            ("menon", 10**5, "n_max 100001 exceeds the menon bound 100000"),
            ("sury", 10**7, "n_max 10000001 exceeds the sury bound 10000000"),
            ("zhao_cao", 10**5, "n_max 100001 exceeds the zhao_cao bound 100000"),
            ("theorem1", 10**5, "n_max 100001 exceeds the theorem1 bound 100000"),
            ("theorem2", 10**5, "n_max 100001 exceeds the theorem2 bound 100000"),
            ("lemma31", 2**20, "n_max 1048577 exceeds the lemma31 bound 1048576"),
            ("lemma33", 2**20, "n_max 1048577 exceeds the lemma33 bound 1048576"),
            ("lemma34", 10**5, "n_max 100001 exceeds the lemma34 bound 100000"),
            ("cohen_partition", 10**4, "n_max 10001 exceeds the cohen_partition bound 10000"),
            ("strict_gen", 10**5, "n_max 100001 exceeds the strict_gen bound 100000"),
        ]
    },
    "n_max_low": Edge(_config("menon", 1), _config("menon", 0), DomainError, "n_max must be >= 1, got 0"),
    "int32_s": Edge(
        _config("theorem1", 16, (2**31 - 1,)),
        _config("theorem1", 16, (2**31,)),
        DomainError,
        "s must be at most 2147483647, got 2147483648",
    ),
    **{
        f"s_max_{identity}": Edge(
            _config(identity, 16, (1,)), _config(identity, 16, (2,)), DomainError, "s must be at most 1, got 2"
        )
        for identity in ("menon", "zhao_cao")
    },
    "group_low": Edge(lambda: CharacterGroup(1), lambda: CharacterGroup(0), DomainError, "modulus must be >= 1, got 0"),
    # The unit group mod 5 has one generator, of order 4.
    "index_high": Edge(
        lambda: DirichletCharacter(5, ((5, (3,)),)),
        lambda: DirichletCharacter(5, ((5, (4,)),)),
        DomainError,
        "index 4 out of range [0, 4) in component mod 5",
    ),
    "index_low": Edge(
        lambda: DirichletCharacter(5, ((5, (0,)),)),
        lambda: DirichletCharacter(5, ((5, (-1,)),)),
        DomainError,
        "index -1 out of range [0, 4) in component mod 5",
    ),
}


@pytest.mark.parametrize("case", EDGES)
def test_accepted_at_its_bound(case):
    try:
        EDGES[case].at()
    finally:
        character_labels.cache_clear()
        character_group.cache_clear()


@pytest.mark.parametrize("case", EDGES)
def test_refused_just_past_its_bound(case):
    edge = EDGES[case]
    start = time.perf_counter()
    with pytest.raises(edge.error) as info:
        edge.past()
    assert time.perf_counter() - start < 0.5
    assert str(info.value) == edge.message
