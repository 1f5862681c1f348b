"""
From the boolean lattice to the Bruhat interval
===============================================

Fix a reduced word Q for w.  Sending a set of positions to the Demazure
product of the letters it selects gives an order-preserving surjection
from subsets of Q onto the Bruhat interval [e, w].  Its fibers over
upper intervals are complements of subword-complex faces, which makes
their homotopy types computable: upper fibers are contractible and open
intervals (u, w) carry spheres.
"""

from itertools import combinations

from coxsort import CoxeterSystem, word_str
from coxsort.fibermap import (certify_fiber_contractible, certify_interval_sphere,
                              check_order_preserving, fiber_up, subset_image)
from coxsort.posets import bruhat_interval

a3 = CoxeterSystem.type_a(3)
Q = (1, 2, 3, 1, 2, 1)
w = a3.element(Q)

# the headline example: positions {1,2,4,5} spell 1,2,1,2 which folds to 1,2,1
img = subset_image(a3, Q, (1, 2, 4, 5))
print("f({1,2,4,5}) =", word_str(img.word))

print("f is order preserving:", check_order_preserving(a3, Q))

# f is onto: the images of all position sets are the whole interval
images = [subset_image(a3, Q, S)
          for k in range(len(Q) + 1) for S in combinations(range(1, len(Q) + 1), k)]
print("2^6 =", len(images), "position sets cover",
      len(set(images)), "group elements")

interval = bruhat_interval(a3.identity, w)
print(f"\n{'u':>8}  |fiber over [u,w]|  contractible?")
for u in interval.ground:
    up = fiber_up(a3, Q, u)
    if u.is_identity:
        note = "(whole boolean lattice)"
    else:
        report = certify_fiber_contractible(a3, Q, u)
        note = f"{report.contractible} via {report.method}"
    print(f"{word_str(u.word):>8}  {len(up):>5}              {note}")

# open Bruhat intervals have the homology of spheres
print()
for u_word in ((), (1,), (1, 2, 1)):
    u = a3.element(u_word)
    r = certify_interval_sphere(u, w)
    print(f"({word_str(u.word)}, {word_str(w.word)}) ->",
          f"S^{r.expected_dim} expected;", "confirmed" if r.matches else "MISMATCH",
          f"({r.size} inner elements, {r.profile})")
