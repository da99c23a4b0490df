"""Exception types and diagnostics shared across the toolkit."""


class Diagnostic:
    """A coded message, at a source line and column when it has one."""

    def __init__(self, code, message, line=None, col=None):
        self.code = code
        self.message = message
        self.line = line
        self.col = col

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __repr__(self):
        return (f"Diagnostic(code={self.code!r}, message={self.message!r}, "
                f"line={self.line!r}, col={self.col!r})")

    def __str__(self):
        if self.line is not None:
            return f"{self.line}:{self.col}: [{self.code}] {self.message}"
        return f"[{self.code}] {self.message}"


class BeliefProgError(Exception):
    """Base class for all toolkit errors."""


class ParseError(BeliefProgError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class EvalError(BeliefProgError):
    """Runtime evaluation failure (e.g. division by zero in an effect)."""


class LikelihoodContextError(BeliefProgError):
    """Likelihood contexts overlap or fail to cover an evaluation point."""


class LikelihoodSumError(BeliefProgError):
    """Outcome weights within one likelihood context do not sum to 1."""


class IncompatibleActionError(BeliefProgError):
    """A stochastic action has zero believed likelihood on the whole support."""


class IncompatibleSensingError(BeliefProgError):
    """Bayes normalizer is zero: the sensing outcome is believed impossible."""


class InadmissiblePropertyError(BeliefProgError):
    """Property lies outside the checker-decidable fragment."""


class PolicyBudgetError(BeliefProgError):
    """Proper-policy count exceeds the configured enumeration cap."""


class SequenceBudgetError(BeliefProgError):
    """Type abstraction would build more action DAG nodes (distinct state
    sets), or more level-table slots (each node's representative states
    times its levels), than its budgets."""


class StateBudgetError(BeliefProgError):
    """A type's POMDP would have more states than its budget."""


class TableBudgetError(BeliefProgError):
    """The configuration table would hold more belief worlds, summed over
    its configurations, than its budget."""


class ObservationUniformityError(BeliefProgError):
    """States sharing an observation disagree on their enabled actions."""
