"""Host speed: fixed speed kernels and the steal counter.

The hosts this benchmark runs on change speed under it: on a shared
2-vCPU machine the same session took 9 ms in some seconds and 19 ms in
others, with the steal counter flat. The benchmark cannot change that,
so it measures it. Fixed pure-Python kernels run before the timed
window, between every two ops, and after the window. An op's time is
scaled by REFERENCE_MS over the mean of its kernel's times on either
side of it. That turns it into the time the op would take on a host
where the kernel takes REFERENCE_MS.

Two kernels cover the two kinds of work in etdr, because one kernel
tracks the other kind poorly:

  bytecode  the benchmark's own straight-line GF(2^8) digest code: small
            integers, calls, allocation. It tracks the protocol, the
            dealer and the attack harness. A bare arithmetic loop did
            not: it sped up 1.25x in the host's fast phases, where the
            protocol sped up 1.6x.
  bignum    products and gcds of 6000-bit integers, as in the exact
            Fraction arithmetic of verify_security. With the bytecode
            kernel, verify_security still swung by 12% between 5 s
            windows; with this one, by 6%.
  numpy     a gather and two reductions over a boolean table, the shape
            of work in exact_game_value.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

import numpy as np

import reference

REFERENCE_MS = 1.3  # each kernel on a 2-vCPU host, Python 3.11, in its common state
_KEYS = [random.Random(1).getrandbits(8) for _ in range(8)]
_VALUE = random.Random(2).getrandbits(256)
_BIG_A = random.Random(3).getrandbits(6000) | 1
_BIG_B = random.Random(4).getrandbits(6000) | 1
_ROOTS = np.random.default_rng(5).random((512, 8)) < 0.25
_VIEWS = np.random.default_rng(6).integers(0, 8, size=(280, 6))


def _bytecode() -> None:
    reference.digest_vector(_KEYS, _VALUE, 256, 8)


def _bignum() -> None:
    x = _BIG_A
    for _ in range(8):
        x = (x * _BIG_B) >> 6000
        math.gcd(x | 1, _BIG_B)


def _numpy() -> None:
    _ROOTS[:, _VIEWS].sum(axis=2).max(axis=0)


KERNELS = {"bytecode": _bytecode, "bignum": _bignum, "numpy": _numpy}


def kernel_ms(kind: str = "bytecode") -> float:
    """Time of one fixed run of a speed kernel."""
    start = perf_counter()
    KERNELS[kind]()
    return (perf_counter() - start) * 1e3


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that puts a time taken between two kernel runs at reference speed."""
    return REFERENCE_MS / ((before_ms + after_ms) / 2)


def calibration_ms(runs: int = 100) -> float:
    """The bytecode kernel run `runs` times back to back: the host-speed record."""
    return sum(kernel_ms() for _ in range(runs))


def steal_ticks() -> int:
    """Cumulative steal ticks of all CPUs from /proc/stat, or -1."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1
