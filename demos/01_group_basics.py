"""
Finite Coxeter groups from their matrices
=========================================

Build a few groups, look at canonical words, lengths, and descents.
"""

from coxsort import CoxeterSystem, word_str

# the symmetric group S4, generated by the adjacent swaps s1, s2, s3
a3 = CoxeterSystem.type_a(3)
print(f"A3 has {len(a3.elements())} elements")

w0 = a3.longest_element()
print("longest element:", word_str(w0.word), "of length", w0.length)
print("its descents:", sorted(w0.left_descents()))

# (2,1,2) and (1,2,1) spell the same element, named by its lex-first reduced word
u = a3.element((2, 1, 2))
v = a3.element((1, 2, 1))
print("s2s1s2 == s1s2s1:", u == v, "| canonical word:", word_str(u.word))

# non-reduced input folds down to the group element it spells
z = a3.element((1, 1, 2, 2, 3))
print("(1,1,2,2,3) multiplies out to", word_str(z.word))

# the hyperoctahedral group B3 and a crystallographic oddity, H3
b3 = CoxeterSystem.type_b(3)
h3 = CoxeterSystem.type_h3()
print("B3 order:", len(b3.elements()), "| H3 order:", len(h3.elements()))

# any Coxeter matrix works, e.g. the 7-gon dihedral group
i7 = CoxeterSystem.dihedral(7)
print("I2(7) order:", len(i7.elements()),
      "| longest word:", word_str(i7.longest_element().word))

# length distribution of A3 (the Poincare polynomial coefficients)
hist = {}
for e in a3.elements():
    hist[e.length] = hist.get(e.length, 0) + 1
print("A3 length distribution:", [hist[k] for k in sorted(hist)])
