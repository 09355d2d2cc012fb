"""Catalog witnesses shared by the test modules."""

import cmath
import math
import random

from conformal_metrics import maps


def lambda_lower_violation_witness(c: float) -> complex:
    """A point of the punctured disk where lambda < c/delta fails, for any
    fixed c > 0: any |z| < e^{-4/c} works; return e^{-4/c - 1}."""
    if c <= 0:
        raise ValueError("c must be positive")
    return complex(math.exp(-4.0 / c - 1.0), 0.0)


def random_map_pair(rng: random.Random):
    """(f, g) with g a disk automorphism (or identity) and f any disk-based
    catalog map, so f o g is always well formed."""
    def rand_mobius():
        a = cmath.rect(math.sqrt(rng.random()) * 0.9,
                       rng.uniform(-math.pi, math.pi))
        return maps.mobius_map(a, rng.uniform(-math.pi, math.pi))

    g = rand_mobius() if rng.random() < 0.8 else maps.identity_map()
    pick = rng.randrange(6)
    if pick == 0:
        f = maps.identity_map()
    elif pick == 1:
        f = maps.koebe_map()
    elif pick == 2:
        f = rand_mobius()
    elif pick == 3:
        f = maps.cayley_map()
    elif pick == 4:
        f = maps.power_map(rng.randrange(2, 5))
    else:
        f = maps.punctured_disk_covering_map()
    return f, g
