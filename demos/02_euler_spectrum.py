"""Four Euler characteristics side by side.

chi_nerve counts simplices of the nerve and only converges when no
nonidentity endomorphism exists.  chi (functorial) and chi2 (rank-level)
need an EI category.  chi_L (weighting-based) asks only for a weighting
and a coweighting.  On their common domain they agree; each strictly
extends the previous one.  chi and chi2 are read off the class table that
``iso_order`` builds from an EI category.
"""

from catrank import corpus
from catrank.exactq import rat_str
from catrank.fincat import classify, iso_order, opposite
from catrank.leinster import chi_L
from catrank.moebius import euler_characteristics


def spectrum(name, cat):
    rep = classify(cat)
    e = euler_characteristics(iso_order(cat)) if rep["is_ei"] else None
    if rep["has_trivial_endomorphisms"] and rep["is_skeletal"]:
        # no cycle of nonidentity morphisms: the nerve count is chi
        cols = [f"chi_nerve={rat_str(e.chi)}"]
    else:
        # endomorphisms, or a cycle of nonidentity morphisms: infinite nerve
        cols = ["chi_nerve=n/a"]
    if e is not None:
        cols.append(f"chi={rat_str(e.chi)}")
        cols.append(f"chi2={rat_str(e.chi2)}")
    else:
        cols.append("chi=n/a chi2=n/a")
    v = chi_L(cat)
    cols.append("chi_L=" + (v if v == "undefined" else rat_str(v)))
    print(f"{name:24s} {' '.join(cols)}")


for name in ("span", "parallel-pair", "section8", "leinster-A",
             "indiscrete-2", "delooping-c2", "delooping-s3",
             "biset-point-c2", "biset-regular-c2"):
    spectrum(name, corpus.build(name))

print()
print("the delooping of a group of order n has a single object with n")
print("automorphisms: chi2 = chi_L = 1/n even though its nerve is infinite")
print()

# chi2 is not invariant under taking opposites; chi_L is
cat = corpus.build("biset-point-c2")
e, eo = euler_characteristics(iso_order(cat)), euler_characteristics(iso_order(opposite(cat)))
print("one-point biset over C2:   chi2 =", rat_str(e.chi2),
      "  chi2 of the opposite =", rat_str(eo.chi2))
print("chi_L of both:            ", rat_str(chi_L(cat)), "and",
      rat_str(chi_L(opposite(cat))))
