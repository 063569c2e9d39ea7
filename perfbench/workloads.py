"""The inputs of each workload.

The exact workloads are fixed grids over the paper's two regimes; the seed
changes nothing in them, so their memo tables fill in the same order in every
run.  The seed fixes the Lanczos start vector of alt8-certify and the order of
the cli-session commands.
"""

from __future__ import annotations

import random

#: full_spectrum cap passed explicitly: both exact grids go past the default of 14
EXACT_MAX_N = 40

#: short cycles, k = n-2, n-3, n-5: rim-hook scans and the character recursion
EXACT_DEEP = [(n, n - d) for n in (18, 20, 22) for d in (2, 3, 5)]

#: the main-theorem regime, k in 0..4 with n from 30 to 34: many shapes, at most one long hook
#: each; one call per n, paired so that every call costs about the same and the median is steady
EXACT_WIDE = [(30, 4), (31, 3), (32, 2), (33, 1), (34, 0)]

#: the default Lanczos tolerance of verify_recursive_5cycles
ALT8_TOL = 1e-9

#: (argv, exits 2 with a usage message); every subcommand but verify-recursive-5cycles, n <= 14
CLI_COMMANDS = [
    (["spectrum", "--n", "12", "--k", "3", "--format", "json"], False),
    (["spectrum", "--n", "14", "--k", "12", "--format", "json"], False),
    (["spectrum", "--n", "13", "--k", "8", "--format", "json"], False),
    (["spectrum", "--n", "11", "--k", "1", "--format", "json"], False),
    (["spectrum", "--n", "9", "--k", "6", "--format", "json"], False),
    (["lambda2", "--n", "14", "--k", "0", "--format", "json"], False),
    (["lambda2", "--n", "13", "--k", "1", "--format", "json"], False),
    (["lambda2", "--n", "12", "--k", "2", "--format", "json"], False),
    (["lambda2", "--n", "14", "--k", "9", "--format", "json"], False),
    (["conjecture", "--n-max", "12", "--format", "json"], False),
    (["conjecture", "--n-max", "8", "--format", "json"], False),
    (["table1", "--n", "12", "--k", "3", "--format", "json"], False),
    (["table1", "--n", "14", "--k", "1", "--format", "json"], False),
    (["quotient", "--n", "12", "--k", "3", "--format", "json"], False),
    (["quotient", "--n", "9", "--k", "7", "--format", "json"], False),
    (["char", "--partition", "9,1", "--type", "4,1^6"], False),
    (["char", "--partition", "1^8", "--type", "3,3,2"], False),
    (["char", "--partition", "4,3,1", "--type", "1^8"], False),
    (["bruteforce", "--n", "6", "--k", "2"], False),
    (["bruteforce", "--n", "5", "--k", "1"], False),
    (["hypothesis", "--n", "10", "--k", "3", "--format", "json"], False),
    (["lambda2", "--n", "6", "--k", "5", "--format", "json"], True),
]

WORKLOADS = ("exact-deep", "exact-wide", "cli-session", "alt8-certify")


def lanczos_seed(seed: int) -> int:
    """The Lanczos start-vector seed drawn from the workload seed."""
    return random.Random(seed).getrandbits(32)


def cli_order(seed: int) -> list[tuple[list[str], bool]]:
    """The cli-session commands in the seed's order."""
    commands = list(CLI_COMMANDS)
    random.Random(seed).shuffle(commands)
    return commands
