import numpy as np
import pytest

from nblifts.graphs import from_pairs
from nblifts.walks import Walk, enumerate_snbc

from helpers import random_connected_multigraph, reference_nb_successors


def _chained_walks(g, k):
    """Every sequence of k directed edges, each leaving the head of the last."""
    walks = [(e,) for e in range(g.num_directed)]
    for _ in range(k - 1):
        walks = [w + (f,) for w in walks for f in g.out_edges(g.head[w[-1]])]
    return [Walk.from_edges(g, w) for w in walks]


# a whole loop at 0, parallel edges 0-1, a half-loop at 1, and a whole loop
# and a half-loop at 2
LOOPY = from_pairs(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2)], [1, 2])


@pytest.mark.parametrize("g", [LOOPY] + [
    random_connected_multigraph(np.random.default_rng(seed), max_vertices=4,
                                max_extra=4, half_loop_prob=0.5)
    for seed in range(6)])
def test_is_snbc_holds_exactly_on_the_enumerated_walks(g):
    succ = reference_nb_successors(g)
    for k in range(1, 5):
        listed = set(enumerate_snbc(g, k))
        for w in _chained_walks(g, k):
            assert w.is_snbc(g) == (w in listed), (k, w)
            assert w.is_nonbacktracking(g) == all(
                f in succ[e] for e, f in zip(w.edges, w.edges[1:]))
