"""One component on a scaffold of its own, for tests that run it alone.

The boosted builders build a scaffold, add each component to it as a
``Part`` and join them with ``EnumScaffold.graph``; ``alone`` does the
same with one part.
"""

from __future__ import annotations

from ntpboost.construct.enumerator import build_scaffold


def alone(part_of, k, i0_star, tau, base=2):
    """The graph of ``part_of(sc)`` on a new scaffold ``sc``, and ``sc``.

    The graph's output is the part's first output.
    """
    sc = build_scaffold(base, k, tau, i0_star)
    part = part_of(sc)
    return sc.graph(part, output_id=part.outputs[0], kind="component"), sc
