"""Exception hierarchy for the solver.

Every failure mode that callers are expected to handle gets its own class;
all of them derive from QesError so a pipeline can catch the lot at once.
"""


class QesError(Exception):
    """Base class for all errors raised by this package."""


class InexactDivision(QesError):
    """Polynomial division left a remainder above tolerance.

    When raised from the operator layer this signals that the input was not
    in the admissible polynomial space (or a model-construction bug), since
    the kinematic denominators are guaranteed to cancel exactly there.
    """


class InversionAsymmetry(QesError, ValueError):
    """A Laurent polynomial that must be z -> 1/z symmetric lost that
    symmetry beyond tolerance, so it has no expansion in eta."""


class NoConvergence(QesError):
    """An iterative method exhausted its iteration budget."""


class SingularJacobian(QesError):
    """Newton iteration met a Jacobian with condition estimate beyond the
    configured limit."""


class PoleOfGamma(QesError):
    """log-gamma evaluated at a non-positive integer."""


class DivergentProduct(QesError):
    """q-Pochhammer product outside its convergence preconditions."""


class PoleOfPotential(QesError):
    """Potential function evaluated at a zero of its denominator."""


class SectorMismatch(QesError):
    """Requested parity sector is incompatible with the model family or the
    subspace degree."""


class UnsupportedFamily(QesError):
    """Operation not defined for this model family."""


class SubspaceLeak(QesError):
    """The transformed Hamiltonian produced components outside the invariant
    subspace above tolerance: a compensation-term bug, or, for trig-q from
    M ~ 10, rounding in the monomial eta route (the operator is exact
    there)."""


class DegenerateRoots(QesError):
    """Two Bethe roots coincide below separation tolerance."""


class MissingLimitParameter(QesError, ValueError):
    """A limit case was stated without a parameter its tag requires."""


class LimitViolation(QesError):
    """A closed-form limit check failed beyond its error budget."""
