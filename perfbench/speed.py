"""The speed of the machine, read from a fixed reference computation.

A shared virtual machine slows down by a factor of up to two for
stretches of seconds to minutes, without any steal time showing: other
tenants compete for caches and cores. A run that falls into such a
stretch reads slow throughout, so neither longer runs nor the best of
several passes remove it. The benchmark therefore times, just before
each unit of work it hands to the program, three small computations of
the kind the program does (Fraction polynomial products, an integer
pseudo-remainder sequence, big-integer division), none of which uses
the program's code. ``factor()`` is the geometric mean of their times
over ``NOMINAL``, their times on a 2-core x86-64 virtual machine with
Python 3.11 in a fast stretch, so a time divided by the factor is the
time the same work takes on that machine at that speed.
``threaded_factor()`` runs the same computations on a thread pool, for
work the program itself runs on one.

A change to the program does not change the reference, so two commits
compare as they would on a quiet machine.
"""

from __future__ import annotations

import gc
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as Q

_rng = random.Random("perfbench.speed")
_A = [Q(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(14)]
_B = [Q(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(14)]
_P = [_rng.randint(-9, 9) for _ in range(12)] + [1]
_D = [_rng.randint(-9, 9) for _ in range(11)] + [3]
_X = _rng.getrandbits(3000)
_Y = _rng.getrandbits(1500) | 1


def _fraction_products() -> None:
    for _ in range(6):
        out = [Q(0)] * (len(_A) + len(_B) - 1)
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                out[i + j] += x * y


def _prem(a: list, b: list) -> list:
    a = a[:]
    while len(a) >= len(b):
        lead, k = a[-1], len(a) - len(b)
        a = [x * b[-1] for x in a]
        for i, y in enumerate(b):
            a[i + k] -= lead * y
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _remainder_sequence() -> None:
    for _ in range(2):
        a, b = _P, _D
        while len(b) > 1:
            a, b = b, _prem(a, b)


def _big_division() -> None:
    acc = 0
    for k in range(1, 750):
        q, r = divmod(_X * k, _Y)
        acc ^= q & r


BLOCKS = (_fraction_products, _remainder_sequence, _big_division)
# seconds each block takes at the nominal speed
NOMINAL = (0.0036, 0.0039, 0.0045)
# seconds a threaded_factor() reading takes at the nominal speed
NOMINAL_THREADED = 0.064


def factor() -> float:
    """How many times slower than nominal the machine runs just now.

    The garbage collector is held off meanwhile, so a collection of the
    program's garbage does not count as slowness of the machine.
    """
    product = 1.0
    gc.disable()
    try:
        for block, nominal in zip(BLOCKS, NOMINAL):
            best = math.inf
            for _ in range(2):
                t0 = time.perf_counter()
                block()
                best = min(best, time.perf_counter() - t0)
            product *= best / nominal
    finally:
        gc.enable()
    return product ** (1 / len(BLOCKS))


def threaded_factor() -> float:
    """How many times slower than nominal a thread pool runs just now.

    Each block runs four times, spread over a fresh ``ThreadPoolExecutor``
    of the default size, as ``cli.main`` runs a batch. Threads take the
    interpreter lock in turn, and on a shared machine the cost of
    handing it over changes in a way a single thread does not see.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        with ThreadPoolExecutor() as pool:
            for _ in pool.map(lambda block: block(), BLOCKS * 4):
                pass
        return (time.perf_counter() - t0) / NOMINAL_THREADED
    finally:
        gc.enable()
