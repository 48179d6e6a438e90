"""A fixed pure-Python computation that gauges the CPU's current speed.

The benchmark's machine shares its cores with other work, so the same op
can take up to twice as long for tens of seconds at a time (ten back-to-
back asylum ops ranged from 268 to 549 ms).  The benchmark times this
probe between ops and reports each time scaled to the reference speed:

    scaled = measured * REFERENCE_SECONDS / (probe time around it)

The probe evaluates a fixed boolean formula tree under 64 assignments,
twelve times: recursion, tuple indexing and dict lookups, like the
evaluator that dominates bedlam's ops, but no code of bedlam's, so a
change to the program cannot move it.  It allocates nothing, so it never
triggers a garbage collection.  On a machine whose speed is steady the
scaled times are the measured ones times a constant.
"""

from __future__ import annotations

import random
import time

# The probe's time on an uncontended core of the 2 GHz Xeon the
# benchmark was defined on.
REFERENCE_SECONDS = 0.0017

_VARS = "abcdef"
_ROUNDS = 12


def _tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return ("var", rng.choice(_VARS))
    kind = rng.choice(("and", "or", "not"))
    if kind == "not":
        return ("not", _tree(rng, depth - 1))
    return (kind, tuple(_tree(rng, depth - 1)
                        for _ in range(rng.randint(2, 3))))


_TREE = _tree(random.Random(0), 9)
_ENVS = [{v: bool(i >> k & 1) for k, v in enumerate(_VARS)}
         for i in range(64)]


def _eval(node, env) -> bool:
    kind = node[0]
    if kind == "var":
        return env[node[1]]
    if kind == "not":
        return not _eval(node[1], env)
    if kind == "and":
        for child in node[1]:
            if not _eval(child, env):
                return False
        return True
    for child in node[1]:
        if _eval(child, env):
            return True
    return False


def probe() -> float:
    """Seconds the fixed computation takes now."""
    started = time.perf_counter()
    for _ in range(_ROUNDS):
        for env in _ENVS:
            _eval(_TREE, env)
    return time.perf_counter() - started


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return 2.0 * REFERENCE_SECONDS / (before + after)
