"""The paths documented as one scan stay linear on every input family.

Each path runs at n and 8n on six families, the ones the benchmark's
`membership` workload draws, written out here.  A linear path's best time
grows about 8-fold and a quadratic one's about 64-fold; the bound sits
at 24, near their geometric mean, so host noise does not flip it.
"""

import random
import time

import pytest

from socksort import image_membership, stack_machine
from socksort.core import random_standardized
from socksort.preimage_fertility import CONS_ABA

SMALL, LARGE = 2000, 16000
GROWTH_BOUND = 24

FAMILIES = {
    "random": lambda n: random_standardized(n, random.Random(n)),
    "fewsocks": lambda n: tuple(random.Random(n).randrange(8) for _ in range(n)),
    "increasing": lambda n: tuple(range(n)),
    "alternating": lambda n: tuple(i % 2 for i in range(n)),
    "axax": lambda n: tuple(0 if i % 2 == 0 else i // 2 + 1 for i in range(n)),  # a x1 a x2 ...
    "one-run": lambda n: (0,) * n,
}

PATHS = {
    "in_image_cons": image_membership.in_image_cons,
    "in_image_aba": image_membership.in_image_aba,
    "gamma_trace": image_membership.gamma_trace,
    "phi_cons_via_sandwich": image_membership.phi_cons_via_sandwich,
    "phi_aba_via_decomposition": image_membership.phi_aba_via_decomposition,
    "phi_cons_aba": lambda p: stack_machine.phi(p, CONS_ABA),
    "sandwich_decompose": image_membership.sandwich_decompose,
}


def best_of_3(path, p):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        path(p)
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_one_scan_paths_grow_linearly(path, family):
    small, large = (best_of_3(PATHS[path], FAMILIES[family](n)) for n in (SMALL, LARGE))
    assert large / small < GROWTH_BOUND, (small, large)
