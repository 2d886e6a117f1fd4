"""Database j's answers computed on its own, sum by sum: the reference that
the one-pass answers of every database are compared against."""

import numpy as np
from dense_plans import dense

from privcomp.coding import encode_fixed, sum_codewords


def answer_database(j, plan, store, values, codes=None):
    """(answers, lead) for database j's sums in plan order.  Symbolic answers
    are each sum's member segments added in int64, mod q, as one array;
    concrete answers a list, every round-1 sum sent as the joint bundle of
    the database's one round-1 segment, every later sum as its members'
    codewords under its lead's code, summed."""
    rows, perm = dense(plan)[plan.rows(j)], plan.permutation
    segment = [
        [values[w, perm[t - 1] - 1] for w, t in enumerate(row) if t] for row in rows
    ]
    lead = np.array([np.flatnonzero(row)[0] for row in rows], dtype=np.int8)
    if codes is None:
        answers = [np.sum(s, axis=0, dtype=np.int64) % store.q for s in segment]
        return np.array(answers, dtype=values.dtype).reshape(len(rows), -1), lead
    (t,) = {int(row.max()) for row in rows if np.count_nonzero(row) == 1}
    bundle = encode_fixed(
        codes.image_of_code[store.input_codes(perm[t - 1] - 1)], codes.joint_code
    )
    answers = [
        bundle
        if len(s) == 1
        else sum_codewords(*(encode_fixed(x, codes.sum_codes[w]) for x in s))
        for s, w in zip(segment, lead.tolist())
    ]
    return answers, lead
