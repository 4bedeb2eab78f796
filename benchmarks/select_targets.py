"""Regenerate ``SELFBOOST_CANDIDATES`` in workloads.py.

Scans candidates c = 0, 1, ... of ``selfboost_target`` and keeps those
whose greedy path (best one-prefix member, boost, repeat until the
largest |advantage| is at most EPSILON) makes exactly SELFBOOST_BOOSTS
boosts.  The raw**4 target's boost count ranges from about 2 to 30, so
without this every op would do a different amount of family search and
no run's median would repeat across seeds.

    python3 benchmarks/select_targets.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from ntpboost.boosting import boost_text  # noqa: E402
from ntpboost.dist import uniform_text  # noqa: E402
from ntpboost.families import one_prefix_table_family  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

COUNT = 64  # candidates kept
SCAN = 2000  # candidates tried


def boosts_to_certify(p, family, bits) -> int:
    q = uniform_text(wl.B2, wl.N)
    boosts = 0
    while True:
        adv = wl.family_advantages(p.probs, q.probs, wl.N, wl.K, bits)
        best = int(np.argmax(np.abs(adv)))
        if abs(adv[best]) <= wl.EPSILON:
            return boosts
        q = boost_text(p, q, family[best]).q_boosted
        boosts += 1


def main() -> None:
    family = one_prefix_table_family(wl.B2, wl.N, wl.K)
    bits = wl.family_bits(wl.K)
    found = []
    for c in range(SCAN):
        if boosts_to_certify(wl.selfboost_target(c), family, bits) == wl.SELFBOOST_BOOSTS:
            found.append(c)
            if len(found) == COUNT:
                break
    print(found)


if __name__ == "__main__":
    main()
