"""Shared randomized-input helpers, a text stream that records its reads, and
fixtures that record battery and flat-structure runs.

All randomness is driven by ``random.Random`` instances seeded from the
``FMAN_SEED`` environment variable (default 0), so failures reproduce exactly.
"""

from __future__ import annotations

import io
import math
import os
import random
from fractions import Fraction

import pytest

from fmanlin.symcore import Poly, RatFunc

SEED = int(os.environ.get("FMAN_SEED", "0"))


@pytest.fixture
def battery_runs(monkeypatch):
    """The components of every ``check_battery`` call from now on, in order.

    Every module that imports ``check_battery`` by name is patched, so base
    batteries (run by ``BaseFManifold.verify``) are recorded with the rest.
    """
    from fmanlin import duality, fman, gengeo, prolong

    runs = []
    real = fman.check_battery

    def counting(c, e=None):
        runs.append(c)
        return real(c, e)

    for module in (fman, duality, gengeo, prolong):
        monkeypatch.setattr(module, "check_battery", counting)
    return runs


@pytest.fixture
def flat_runs(monkeypatch):
    """The base of every ``check_flat_f`` call from now on, in order.

    ``gengeo`` imports the check by name and ``prolong`` imports it from
    ``duality`` when it runs, so patching both modules sees every call.
    """
    from fmanlin import duality, gengeo

    runs = []
    real = duality.check_flat_f

    def counting(base, nabla, euler=None):
        runs.append(base)
        return real(base, nabla, euler)

    for module in (duality, gengeo):
        monkeypatch.setattr(module, "check_flat_f", counting)
    return runs


class SizedReads(io.StringIO):
    """A text stream that records the size argument of every ``read``."""

    def __init__(self, text: str):
        super().__init__(text)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


def rng_for(name: str) -> random.Random:
    """A deterministic RNG stream, independent per test-site name."""
    return random.Random(f"{SEED}:{name}")


def rand_fraction(rng: random.Random, span: int = 4) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def rand_poly(
    rng: random.Random,
    variables: tuple[str, ...],
    max_deg: int = 2,
    max_terms: int = 4,
    nonzero: bool = False,
) -> Poly:
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        exp = [0] * len(variables)
        for _ in range(rng.randint(0, max_deg)):
            if variables:
                exp[rng.randrange(len(variables))] += 1
        terms[tuple(exp)] = rand_fraction(rng)
    p = Poly(variables, terms)
    if nonzero and p.is_zero():
        return Poly((), {(): Fraction(1)})
    return p


def primitive(p: Poly) -> Poly:
    """The integer-primitive associate of ``p`` with positive leading
    coefficient, computed apart from ``symcore`` for use as a reference."""
    if p.is_zero():
        return p
    coeffs = p.terms.values()
    content = Fraction(
        math.gcd(*(c.numerator for c in coeffs)),
        math.lcm(*(c.denominator for c in coeffs)),
    )
    return p * (1 / (content if p.lead()[1] > 0 else -content))


def rand_ratfunc(
    rng: random.Random,
    variables: tuple[str, ...],
    max_deg: int = 2,
    with_den: bool = True,
) -> RatFunc:
    num = rand_poly(rng, variables, max_deg)
    if with_den and rng.random() < 0.5:
        den = rand_poly(rng, variables, max_deg=1, max_terms=2, nonzero=True)
        return RatFunc(num, den)
    return RatFunc(num)
