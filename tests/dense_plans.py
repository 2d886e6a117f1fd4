"""A query plan as a dense matrix, for tests that read or change a plan entry
by entry: entry (i, w-1) is candidate w's subindex in sum i, 0 when w is not
a member."""

import numpy as np


def dense(plan):
    """The (S, mu) int32 matrix of the plan's sums."""
    matrix = np.zeros((len(plan.sums), plan.mu), dtype=np.int32)
    matrix[(plan.sums[:, None] >> np.arange(plan.mu)) & 1 == 1] = plan.members
    return matrix


def with_dense(plan, matrix):
    """The plan whose sums the matrix describes, its other fields kept: every
    nonzero entry is a member, a negative one too."""
    matrix = np.asarray(matrix)
    member = matrix != 0
    return plan._replace(
        mu=matrix.shape[1],
        sums=(member << np.arange(matrix.shape[1])).sum(axis=1).astype(np.int32),
        members=matrix[member].astype(np.int32),
    )
