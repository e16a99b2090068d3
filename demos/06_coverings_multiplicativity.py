"""chi2 under coverings and fibrations.

An n-sheeted covering of connected finite groupoids multiplies chi2 by n.
An isofibration with connected fibers multiplies the chi2 of base and
fiber.  Both statements are checked here on hand-built functors.
"""

from catrank import corpus
from catrank.exactq import rat_str
from catrank.fincat import (
    FunctorData,
    classify,
    delooping,
    fiber_category,
    is_covering,
    is_isofibration,
    iso_order,
    validate_functor,
)
from catrank.grouptheory import build_group
from catrank.moebius import euler_characteristics


def chi2(cat):
    """chi2 of an EI category, read off its class table."""
    return euler_characteristics(iso_order(cat)).chi2


# 1. the indiscrete pair double-covers the delooping of Z/2: both objects
# sit over the single object, identities over the identity, the two
# cross morphisms over the flip.
e = corpus.build("indiscrete-2")
b = delooping(build_group("cyclic:2"))
p = FunctorData(e, b, {"0": "*", "1": "*"}, {0: 0, 1: 0, 2: 1, 3: 1})
assert validate_functor(p) == []
ok, sheets = is_covering(p)
print("indiscrete pair -> delooping(Z/2): covering =", ok, " sheets =", sheets)
print("   chi2 upstairs =", rat_str(chi2(e)),
      "  n * chi2 downstairs =", sheets, "*", rat_str(chi2(b)))
assert chi2(e) == sheets * chi2(b)
print()

# 2. the quotient map Z/4 -> Z/2 between deloopings: star maps are onto
# but 2-to-1, so not a covering, but it is an isofibration whose fiber is
# the delooping of the kernel.
e = delooping(build_group("cyclic:4"))
p = FunctorData(e, b, {"*": "*"}, {m: m % 2 for m in range(4)})
assert validate_functor(p) == []
print("delooping(Z/4) -> delooping(Z/2): covering =", is_covering(p)[0],
      " isofibration =", is_isofibration(p))
fib = fiber_category(p, "*")
print("   fiber over the object: connected groupoid =",
      classify(fib).is_connected_groupoid,
      " with", fib.n_morphisms, "morphisms")
print("   chi2(total) =", rat_str(chi2(e)),
      "  chi2(base) * chi2(fiber) =",
      rat_str(chi2(b)), "*", rat_str(chi2(fib)))
assert chi2(e) == chi2(b) * chi2(fib)
print()

# 3. same quotient, wrong claim: the covering test refuses it because the
# star maps identify the two kernel elements.
ok, sheets = is_covering(p)
print("and indeed is_covering gives", (ok, sheets),
      "- chi2 would be off by a factor of 2 if it were treated as one")
