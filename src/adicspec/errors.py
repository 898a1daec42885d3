"""Exception hierarchy shared by all modules, and the one work limit.

Every error carries a stable ``code`` string which the CLI maps to exit
status 1 and prints verbatim, so scripts can match on it.
"""


class AdicError(Exception):
    code = "adic-error"


class MismatchedGroups(AdicError):
    code = "mismatched-groups"


class WrongRing(AdicError):
    code = "wrong-ring"


class NotConvexSubgroupOfValueGroup(AdicError):
    code = "not-convex-subgroup-of-value-group"


class UnsupportedKind(AdicError):
    code = "unsupported-kind"


class CharacteristicGroupNotContained(AdicError):
    code = "characteristic-group-not-contained"


class NotContinuous(AdicError):
    code = "not-continuous"


class ContextMismatch(AdicError):
    code = "context-mismatch"


class ZeroSeries(AdicError):
    code = "zero-series"


class AllZero(AdicError):
    code = "all-zero"


class NotTypeFive(AdicError):
    code = "not-type-five"


class MalformedSubset(AdicError):
    code = "malformed-subset"


class NotUnitIdeal(AdicError):
    code = "not-unit-ideal"


class UnknownPoint(AdicError):
    code = "unknown-point"


class NotKolmogorov(AdicError):
    code = "not-kolmogorov"


class UnsupportedRing(AdicError):
    code = "unsupported-ring"


class NotAPreorder(AdicError):
    code = "not-a-preorder"


class NotASpecialization(AdicError):
    code = "not-a-specialization"


class NonFunctorialPresheaf(AdicError):
    code = "non-functorial-presheaf"


class NotAComplex(AdicError):
    code = "not-a-complex"


class TruncationTooSmall(AdicError):
    code = "truncation-too-small"


class ParseError(AdicError):
    code = "parse-error"


class TooLarge(AdicError):
    code = "too-large"


# the most work one step of any layer starts, in units of about 1 ns (each
# cost per unit measured on Python 3.11, shared 2-vCPU host): about 1 s
MAX_WORK = 10 ** 9


def check_work(units: int, what: str) -> None:
    """Refuse the step `what`, "layer: step", if estimated above MAX_WORK."""
    if units > MAX_WORK:
        raise TooLarge(f"{what}: estimated work {units} exceeds {MAX_WORK}")


class MalformedElement(AdicError):
    code = "malformed-element"


class MalformedPoint(AdicError):
    code = "malformed-point"


class NotPrime(AdicError):
    code = "not-prime"


class ZeroValue(AdicError):
    code = "zero-value"


class MalformedIdeal(AdicError):
    code = "malformed-ideal"


class MalformedValuation(AdicError):
    code = "malformed-valuation"
