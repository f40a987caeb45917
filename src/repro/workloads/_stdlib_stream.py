"""The :mod:`random` streams the fleet consumes, drawn in numpy blocks.

The pinned fleet digests fix the *values* of two seeded stdlib streams:
``random.Random(seed).randrange(n)`` (the balancer's spray) and
``int(random.Random(seed).lognormvariate(mu, sigma))`` (service times).
This module produces the same values without a per-element Python loop,
and replaces those two loops in :func:`repro.fleet.balancer.spray` and
:func:`repro.workloads.latency.draw_service_times`.

The contract, as CPython implements :mod:`random` (the stream-identity
tests, which keep the per-element loops as references, pin it on each
Python version CI runs):

* **State.** ``random.Random(seed).getstate()`` carries the 624 words and
  the position of the Mersenne Twister the stdlib seeded (any seed type
  the stdlib accepts); :func:`bit_generator` loads them into
  ``numpy.random.MT19937``, whose ``random_raw`` then yields the words
  ``getrandbits(32)`` would, in order.
* **random()**: ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53`` of two words.
* **normalvariate**: Kinderman–Monahan; an attempt spends two
  ``random()`` calls, ``u1`` and ``u2 = 1 - random()``, and is accepted
  when ``z*z/4 <= -log(u2)`` with ``z = NV_MAGICCONST*(u1 - 0.5)/u2``.
* **randrange(n)** (``_randbelow``): an attempt spends one word,
  ``r = word >> (32 - n.bit_length())``, and is accepted when ``r < n``.

Every attempt of a block is evaluated before the next block is drawn, so
the accepted values come out in stream order. ``np.log`` and ``np.exp``
need not match libm to the last ulp, so two guard bands hand the values
they could get wrong to :mod:`math`: an acceptance whose two sides lie
within :data:`LOG_BAND` (relative) of each other is re-decided with
:func:`math.log`, and :func:`floored_exp_ints` recomputes with
:func:`math.exp` an ``exp`` within :data:`EXP_BAND` (relative) of an
integer before ``int`` truncates it.
"""

from __future__ import annotations

import math
import random
from random import NV_MAGICCONST
from typing import List

import numpy as np

#: Most attempts one block evaluates; a block is sized to finish the
#: request and capped here.
BLOCK_ATTEMPTS = 1 << 16

#: Relative distance under which ``np.log`` cannot be trusted to decide a
#: Kinderman–Monahan acceptance the way ``math.log`` does.
LOG_BAND = 1e-12

#: Relative distance to an integer under which ``np.exp`` cannot be
#: trusted to truncate the way ``math.exp`` does.
EXP_BAND = 1e-12

#: Kinderman–Monahan's acceptance probability, ``sqrt(pi * e) / 4``
#: (about 0.7306), rounded down.
_KM_ACCEPT_RATE = 0.73


def bit_generator(seed) -> np.random.MT19937:
    """An MT19937 positioned where ``random.Random(seed)`` starts."""
    state = random.Random(seed).getstate()[1]
    gen = np.random.MT19937(0)
    gen.state = {"bit_generator": "MT19937",
                 "state": {"key": np.array(state[:624], dtype=np.uint32),
                           "pos": state[624]}}
    return gen


def _block_attempts(remaining: int, accept_rate: float) -> int:
    """Attempts for the next block: enough to finish ``remaining``
    acceptances almost always, capped at :data:`BLOCK_ATTEMPTS`."""
    return min(BLOCK_ATTEMPTS, int(remaining / accept_rate * 1.05) + 64)


def randbelow(count: int, n: int, seed) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(count)]`` with
    ``rng = random.Random(seed)``, as a uint64 array."""
    if n < 1:
        raise ValueError(f"empty range for randrange({n})")
    k = n.bit_length()
    if k > 32:
        raise ValueError(f"randrange({n}) spans more than one 32-bit word")
    gen = bit_generator(seed)
    parts = [np.zeros(0, dtype=np.uint64)]
    remaining = count
    while remaining > 0:
        r = gen.random_raw(_block_attempts(remaining, n / (1 << k))) \
            >> (32 - k)
        r = r[r < n][:remaining]
        parts.append(r)
        remaining -= r.size
    return np.concatenate(parts)


def _random(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """CPython's ``random()`` of the word pairs ``(a, b)``."""
    return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)


def km_accept(zz: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """``zz <= -math.log(u2)`` per attempt.

    ``np.log`` decides every attempt except those within
    :data:`LOG_BAND` of the boundary, which :func:`math.log` re-decides.
    """
    bound = -np.log(u2)
    accept = zz <= bound
    for i in np.flatnonzero(np.abs(zz - bound) <= LOG_BAND * bound):
        accept[i] = zz[i] <= -math.log(u2[i])
    return accept


def normal_deviates(count: int, seed) -> np.ndarray:
    """The first ``count`` accepted Kinderman–Monahan ``z`` of
    ``random.Random(seed)``: ``normalvariate(mu, sigma)`` returns
    ``mu + z * sigma`` for each of them in turn."""
    gen = bit_generator(seed)
    parts = [np.zeros(0)]
    remaining = count
    while remaining > 0:
        attempts = _block_attempts(remaining, _KM_ACCEPT_RATE)
        words = gen.random_raw(4 * attempts).reshape(attempts, 4)
        u1 = _random(words[:, 0], words[:, 1])
        u2 = 1.0 - _random(words[:, 2], words[:, 3])
        z = NV_MAGICCONST * (u1 - 0.5) / u2
        z = z[km_accept(z * z / 4.0, u2)][:remaining]
        parts.append(z)
        remaining -= z.size
    return np.concatenate(parts)


def floored_exp_ints(x: np.ndarray, floor: int) -> List[int]:
    """``[max(floor, int(math.exp(v))) for v in x]``.

    An ulp of ``exp`` moves ``int`` only for a value within a few ulps of
    an integer. Those values, and every one that is not finite or is at
    least 2**52 (where each double is an integer), are recomputed with
    :func:`math.exp`, which also raises where the stdlib would.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(x)
        whole = np.trunc(e)
        frac = e - whole
        exact = np.minimum(frac, 1.0 - frac) > EXP_BAND * e
    out = np.maximum(np.where(exact, whole, 0.0), float(floor)) \
        .astype(np.int64).tolist()
    for i in np.flatnonzero(~exact):
        out[i] = max(floor, int(math.exp(x[i])))
    return out
