"""The symmetry hypothesis behind the B/w agreement, as a negative control.

On a fiber-complete lift K = f^{-1}(f(K)) the graph-basis (B) diameter of K
agrees with the w diameter of its base f(K); acceptance 08 checks that.  Here
the hypothesis is broken on purpose: keeping only some roots of each fiber
must pull the B diameter well below d(f(K)).  For the squares map the roots
over w are the deck-group images (+-sqrt(w1), +-sqrt(w2)) of the principal
ones, so a subset of the group picks the roots kept in every fiber.
"""

import random

import numpy as np
import pytest

from capax import GraphMap, SampledSet, build_mesh, graph_lift, parse_poly, transfinite_diameter
from conftest import random_generic_map

AGREEMENT = 0.10  # acceptance 08's relative bound on a fiber-complete lift
MARGIN = 0.15  # a subset keeping at most two roots per fiber reads this far below d(K)


def fiber_subset(lift: SampledSet, k: int) -> SampledSet:
    """The k roots of smallest Re z1 in each fiber of a lift with no roots missing."""
    per_fiber = lift.map.d1 * lift.map.d2
    z = lift.z.reshape(-1, per_fiber, 2)
    w = lift.w.reshape(-1, per_fiber, 2)
    keep = np.argsort(z[:, :, 0].real, axis=1, kind="stable")[:, :k, None]
    return SampledSet(
        w=np.take_along_axis(w, keep, axis=1).reshape(-1, 2),
        z=np.take_along_axis(z, keep, axis=1).reshape(-1, 2),
        provenance="graph_lift",
        map=lift.map,
    )


@pytest.mark.parametrize("seed", [107, 11])
def test_fiber_incomplete_subsets_fall_below_the_base_diameter(seed):
    f = random_generic_map(random.Random(seed), 2)
    base = build_mesh("torus:1,1", (12, 12))
    lift = graph_lift(f, base)
    assert lift.meta["roots_missing"] == 0
    d_base = transfinite_diameter(base, "w", 3).final
    full = transfinite_diameter(lift, "B", 3).final
    assert abs(full - d_base) / d_base < AGREEMENT
    subsets = [transfinite_diameter(fiber_subset(lift, k), "B", 3).final for k in (3, 2, 1)]
    # fewer roots per fiber read lower; measured at 12 x 12, n = 3 with
    # d(K) = 1: seed 107 reads 1.057 on the full lift and 0.886, 0.840 and
    # 0.711 for k = 3, 2, 1; seed 11 reads 1.048 and 0.639, 0.403, 0.197
    assert full > subsets[0] > subsets[1] > subsets[2], subsets
    assert max(subsets[1:]) < (1 - MARGIN) * d_base, subsets


def test_squares_deck_group_subsets_read_lower_as_they_keep_less_of_the_group():
    f = GraphMap(parse_poly("z1^2"), parse_poly("z2^2"))
    base = build_mesh("torus:1,1", (12, 12))
    a, b = np.sqrt(base.w[:, 0]), np.sqrt(base.w[:, 1])

    def diameter(signs):
        z = np.concatenate([np.column_stack([s1 * a, s2 * b]) for s1, s2 in signs])
        lift = SampledSet(w=np.tile(base.w, (len(signs), 1)), z=z, provenance="graph_lift", map=f)
        return transfinite_diameter(lift, "B", 3).final

    subsets = (
        ((1, 1), (-1, 1), (1, -1), (-1, -1)),  # the whole group: d(K) = 1
        ((1, 1), (-1, 1), (1, -1)),
        ((1, 1), (-1, -1)),  # the diagonal subgroup
        ((1, 1), (-1, 1)),  # the subgroup that flips z1 alone
        ((1, 1),),
    )
    d = [diameter(signs) for signs in subsets]
    # measured at 12 x 12, n = 3: 1.000, 0.987, 0.961, 0.814 and 0.663
    assert abs(d[0] - 1) < 1e-9, d
    assert d[0] > d[1] > d[2] > d[3] > d[4], d
    assert d[2] < 0.98, d
