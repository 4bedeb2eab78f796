"""The materialized family search: a test reference.

``families.Family.best`` finds the best member in closed form from per-key
sums.  Here every member is written out as a row of a ``(members, cells)``
bit matrix, the way families were first stored, and the search is one
product with the flattened gaps, so the differential tests in
``test_distinguishers`` can check the closed form member by member.
"""

from __future__ import annotations

import numpy as np

MATRIX_KEYS = 16  # most keys a reference matrix spans: 2^16 rows


def member_matrix(family) -> np.ndarray:
    """Row m holds member m's cells: 1 where the cell's key is a bit of m."""
    if family.keys > MATRIX_KEYS:
        raise ValueError(f"2^{family.keys} members exceed 2^{MATRIX_KEYS} rows")
    members = np.arange(2**family.keys)
    held = (members[:, None] >> np.arange(family.keys)) & 1
    held = np.concatenate([held, np.zeros((len(members), 1), int)], axis=1)
    return held[:, family.cell_keys].astype(np.uint8)  # key -1 reads the 0 column


def matrix_best(bits: np.ndarray, values: np.ndarray) -> tuple[int, float]:
    """Row of ``bits`` whose product with ``values`` has the largest |total|.

    Ties go to the lowest row.
    """
    totals = bits @ values
    best = int(np.argmax(np.abs(totals)))
    return best, float(totals[best])
