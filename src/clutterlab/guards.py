"""Size guards for the brute-force oracles, and the search budget's error.

The enumeration oracles (direct f-vectors, clique-complex homology,
graded Betti tables) are exponential in the vertex count, so each one
refuses inputs above a default cap.  The CLUTTERLAB_MAX_N environment
variable overrides every default at once; an explicit argument at the
call site overrides both.
"""

import os

ENV_VAR = "CLUTTERLAB_MAX_N"

F_VECTOR_DEFAULT = 20
FACES_DEFAULT = 16
HOCHSTER_DEFAULT = 12


class OracleBoundError(ValueError):
    """An oracle was asked to enumerate beyond its configured cap."""


class SearchLimitReached(RuntimeError):
    """The configured state budget ran out before an answer was proved.

    Catching this means the chordality question is still open for the
    input; it must not be reported as "not chordal".  It is defined here,
    where the command line can catch it without loading the search, and
    chordality exports it as well.
    """


def oracle_cap(default: int, override: int | None = None) -> int:
    """Resolve a cap: explicit argument, then environment, then default.

    A malformed environment value raises OracleBoundError, so callers that
    skip an oracle above its cap skip it for that reason too.
    """
    if override is not None:
        return override
    env = os.environ.get(ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise OracleBoundError(f"{ENV_VAR} must be an integer, got {env!r}") from exc
    return default


def check_cap(kind: str, size: int, default: int, override: int | None) -> None:
    cap = oracle_cap(default, override)
    if size > cap:
        raise OracleBoundError(
            f"{kind} oracle capped at {cap} vertices, got {size}; "
            f"set {ENV_VAR} or pass max_n to raise the cap")
