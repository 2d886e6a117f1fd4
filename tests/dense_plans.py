"""A query plan as a dense matrix, for tests that read or change a plan entry
by entry: entry (i, w-1) is candidate w's subindex in sum i, 0 when w is not
a member.  Also a plan with its rows reordered, put back in wire order after
a change, or taken out of it."""

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


def reordered(plan, order):
    """The plan whose row k is row order[k] of this one, the side references
    following the rows they name; order keeps each database's rows within
    its bounds."""
    order = np.asarray(order)
    moved_to = np.empty_like(order)
    moved_to[order] = np.arange(len(order))
    refs = plan.side_ref[order]
    return with_dense(plan, dense(plan)[order])._replace(
        side_ref=np.where(refs < 0, refs, moved_to[refs]).astype(plan.side_ref.dtype)
    )


def wire_ordered(plan):
    """The plan with each database's rows stably sorted by (round, mask), the
    order in which a database must receive them."""
    key = (plan.round.astype(np.int64) << plan.mu) + plan.sums
    order = [
        np.argsort(key[plan.rows(j)], kind="stable") + plan.rows(j).start
        for j in range(1, plan.n + 1)
    ]
    return reordered(plan, np.concatenate(order))
