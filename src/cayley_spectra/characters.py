"""Character values of the symmetric group via the Murnaghan-Nakayama rule.

Everything here is exact integer arithmetic.  The rule peels the cycles
largest first, one cycle at a time, carrying every bead set reached so far
with its signed count, so its depth never grows with the number of cycles.
A rim hook is a bead move (:func:`cayley_spectra.young._bead_moves`), and
nothing is memoized: each call recomputes its character.
"""

from __future__ import annotations

from .errors import SizeLimitError
from .spectra import MAX_N_ENV_VAR, resolve_max_n
from .young import Partition, _bead_moves, _clip, _clip_int, beta_set, validate_partition

CycleType = Partition


def _mn(lam: Partition, tau: CycleType) -> int:
    # frontier: the bead set of every shape left after peeling the cycles seen so
    # far, with its signed count; a hook's leg is the beads passed by its move
    frontier = {frozenset(beta_set(lam)): 1}
    for length in tau:
        peeled: dict[frozenset[int], int] = {}
        for beads, count in frontier.items():
            for b, target in _bead_moves(beads, length):
                left = beads - {b} | {target}
                leg = sum(target < x < b for x in beads)
                peeled[left] = peeled.get(left, 0) + (-count if leg % 2 else count)
        frontier = peeled
    return frontier.get(frozenset(range(len(lam))), 0)  # the empty shape's beads


def mn_character(lam, tau) -> int:
    """Character of the irreducible indexed by ``lam`` on the class of type ``tau``,
    capped like :func:`~cayley_spectra.spectra.full_spectrum`."""
    lam = validate_partition(lam)
    tau = validate_partition(tau)
    _check_cap(max(sum(lam), sum(tau)))  # first, so that the mismatch message stays short
    if sum(lam) != sum(tau):
        raise ValueError(
            f"size mismatch: |{_clip(str(lam))}| = {sum(lam)} but |{_clip(str(tau))}| = {sum(tau)}"
        )
    return _mn(lam, tau)


def _check_cap(n: int) -> None:
    """The cap of :func:`mn_character`, also checked by the CLI before it expands any exponent."""
    bound = resolve_max_n()
    if n > bound:
        raise SizeLimitError(
            f"mn_character is capped at n <= {_clip_int(bound)} (override with {MAX_N_ENV_VAR}), "
            f"got n = {_clip_int(n)}"
        )
