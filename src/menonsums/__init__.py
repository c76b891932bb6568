"""Exact verification of Menon-type gcd-character sum identities.

The package evaluates sums of the shape

    sum over k in [1, n], (k, n)_s = 1  of  (k-1, n)_s * chi(k)

for Dirichlet characters chi mod n, where (a, b)_s is the largest s-th
power dividing both arguments, together with the classical Menon, Sury,
and conductor-weighted specializations, and sweeps them exhaustively at
desk scale.

Importing the package sets ``OPENBLAS_NUM_THREADS`` to 1, unless the
variable is already set or numpy is already loaded.  menonsums calls no
BLAS routine (its FFTs are pocketfft and its one dot an int32 einsum), and
OpenBLAS would otherwise start a thread pool in each process that loads
numpy, at about 0.07 s of CPU on a 2-vCPU host.  ``python -m menonsums``
runs this module before ``__main__``, so the setting reaches the CLI, its
forked pool workers and every child that inherits its environment.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arith import (
    Factorization,
    divisor_tau,
    divisors,
    euler_phi,
    factorize,
    gen_gcd,
    klee_phi,
    klee_phi_bruteforce,
    power_divisors,
    s_power_part,
    sigma,
    tau_s,
)
from .characters import (
    CharValue,
    DirichletCharacter,
    UnitGroupStructure,
    char_label,
    character_labels,
    character_group,
    character_order,
    conductor,
    conductor_by_definition,
    enumerate_characters,
    eval_character,
    factor_character,
    is_primitive,
    multiply_characters,
    primitive_part,
    principal_character,
    unit_group_structure,
)
from .errors import DomainError, IntegrityError, ResourceError
from .harness import (
    IdentityReport,
    SweepConfig,
    format_report,
    reproduce_remark,
    run_sweep,
    search_counterexamples,
)
from .identities import (
    SumResult,
    char_shift_sum,
    cohen_partition_check,
    generalized_sum,
    menon_sum,
    round_exact,
    sury_sum,
    zhao_cao_sum,
)

__version__ = "0.1.0"

__all__ = [
    "CharValue",
    "DirichletCharacter",
    "DomainError",
    "Factorization",
    "IdentityReport",
    "IntegrityError",
    "ResourceError",
    "SumResult",
    "SweepConfig",
    "UnitGroupStructure",
    "char_label",
    "character_labels",
    "char_shift_sum",
    "character_group",
    "character_order",
    "cohen_partition_check",
    "conductor",
    "conductor_by_definition",
    "divisor_tau",
    "divisors",
    "enumerate_characters",
    "euler_phi",
    "eval_character",
    "factor_character",
    "factorize",
    "format_report",
    "gen_gcd",
    "generalized_sum",
    "is_primitive",
    "klee_phi",
    "klee_phi_bruteforce",
    "menon_sum",
    "multiply_characters",
    "power_divisors",
    "primitive_part",
    "principal_character",
    "reproduce_remark",
    "round_exact",
    "run_sweep",
    "s_power_part",
    "search_counterexamples",
    "sigma",
    "sury_sum",
    "tau_s",
    "unit_group_structure",
    "zhao_cao_sum",
]
