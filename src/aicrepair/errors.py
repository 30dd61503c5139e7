"""Exception hierarchy shared by every engine module.

Two families matter to callers: input problems (reject the data) and
semantic refusals (the data is fine but the requested computation is not,
e.g. the universe exceeds the exhaustive-enumeration bound). The CLI maps
them to exit codes 2 and 1 respectively.
"""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EngineError):
    """The input itself is malformed or out of vocabulary."""


class Refusal(EngineError):
    """The input is well formed but the requested computation is refused."""


class UnknownAtom(InputError):
    def __init__(self, atom: str, context: str = ""):
        self.atom = atom
        suffix = f" in {context}" if context else ""
        super().__init__(f"unknown atom '{atom}'{suffix}")


class UpdatableConditionViolated(InputError):
    """A rule head action whose dual literal is missing from the body."""

    def __init__(self, action, rule_text: str = ""):
        self.action = action
        suffix = f" (rule: {rule_text})" if rule_text else ""
        super().__init__(
            f"head action {action} has no dual literal in the body{suffix}"
        )


class ParseError(InputError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class InconsistentUpdateSet(Refusal):
    def __init__(self, atom: str):
        self.atom = atom
        super().__init__(f"set contains both signs of atom '{atom}'")


class _RuleRefusal(Refusal):
    """A refusal whose class gives its ``message``, then the rule at fault."""

    def __init__(self, rule=None):
        detail = f": {rule}" if rule is not None else ""
        super().__init__(f"{self.message}{detail}")


class NotNormalProgram(_RuleRefusal):
    message = "operation requires a normal program"


class NotProperProgram(_RuleRefusal):
    message = "operation requires a proper program"


class NotSimpleRule(_RuleRefusal):
    message = "rule mentions an atom more than once"


class UniverseTooLarge(Refusal):
    def __init__(self, size: int, bound: int, what: str = "universe"):
        self.size = size
        self.bound = bound
        super().__init__(
            f"{what} has {size} atom{'' if size == 1 else 's'}, "
            f"exhaustive bound is {bound} "
            f"(raise with AICREPAIR_MAX_ATOMS or --max-atoms)"
        )

