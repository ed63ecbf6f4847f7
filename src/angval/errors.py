"""Exception hierarchy shared by all angval modules."""


class AngvalError(Exception):
    """Base class for all errors raised by this package.  `exit_code` is the
    CLI's exit status for it: 2 bad input, 3 numerical failure, 4 budget
    exceeded."""

    exit_code = 2


class DimensionMismatch(AngvalError):
    """Operands live in different ambient spaces or have incompatible shapes."""


class RankDeficient(AngvalError):
    """A matrix that must have full column rank does not, at the given tolerance."""

    exit_code = 3


class NoConvergence(AngvalError):
    """An iterative kernel exhausted its iteration budget."""

    exit_code = 3


class InvalidBlock(AngvalError):
    """A quasitriangular block has parameters outside its admissible range."""


class SingularMatrix(AngvalError):
    """A matrix that must be invertible is singular at working precision."""

    exit_code = 3


class StepUnstable(AngvalError):
    """Time stepping produced a non-finite or rank-collapsed basis."""

    exit_code = 3


class BudgetExceeded(AngvalError):
    """A search or estimate would exceed its configured cost cap."""

    exit_code = 4


class NotCoprime(AngvalError):
    """A resonance order p/q was given in non-reduced form."""


class RationalityDetected(AngvalError):
    """Frequencies failed the rational-independence gate.

    Carries the offending witnesses as a list of (i, j, p, q) tuples:
    omega_j / omega_i is approximated by p/q within the gate tolerance.
    """

    exit_code = 3

    def __init__(self, witnesses):
        self.witnesses = list(witnesses)
        pairs = ", ".join(
            "omega[%d]/omega[%d] ~ %d/%d" % (j, i, p, q) for (i, j, p, q) in self.witnesses
        )
        super().__init__("rationally dependent frequencies: " + pairs)
