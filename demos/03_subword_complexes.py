"""
Subword complexes are balls or spheres
======================================

The subword complex of (Q, w) lives on the positions of Q; a face is a
set of positions whose removal still leaves a reduced word for w.  The
complex is a sphere exactly when the Demazure product of Q is w, and a
ball otherwise — checked here against exact Betti numbers.
"""

import itertools

from coxsort import (CoxeterSystem, VoidComplexError, certify_subword_complex,
                     subword_complex, word_str)
from coxsort.homology import reduced_betti

b2 = CoxeterSystem.type_b(2)

# one ball and one sphere, small enough to print in full
for Q, w_word in (((1, 2, 1, 2), (1, 2, 1)), ((1, 2, 1, 2, 1), (1, 2, 1, 2))):
    w = b2.element(w_word)
    c = subword_complex(b2, Q, w)
    print(f"Q = {word_str(Q)}, w = {word_str(w.word)}")
    print("  facets:", sorted(sorted(f) for f in c.facets))
    print("  classification:", c.classify(), "| dim", c.dim)
    print("  GF(2) betti:", reduced_betti(c, 2).numbers or "all zero")
    print("  boundary faces:", sorted(sorted(f) for f in c.boundary_faces()))
    print()

# sweep every word of length <= 6 on the A2 alphabet and confirm the
# Demazure criterion against homology over both fields
a2 = CoxeterSystem.type_a(2)
agree = total = 0
for n in range(7):
    for Q in itertools.product((1, 2), repeat=n):
        for u in a2.elements():
            try:
                c = subword_complex(a2, Q, u)
            except VoidComplexError:
                continue
            total += 1
            agree += all(certify_subword_complex(c).matches)
print(f"classification matches homology on {agree}/{total} A2 instances")
