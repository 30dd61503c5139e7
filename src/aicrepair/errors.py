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


class NotNormalProgram(Refusal):
    def __init__(self, rule=None):
        detail = f": {rule}" if rule is not None else ""
        super().__init__(f"operation requires a normal program{detail}")


class NotProperProgram(Refusal):
    def __init__(self, rule=None):
        detail = f": {rule}" if rule is not None else ""
        super().__init__(f"operation requires a proper program{detail}")


class NotSimpleRule(Refusal):
    def __init__(self, rule=None):
        detail = f": {rule}" if rule is not None else ""
        super().__init__(f"rule mentions an atom more than once{detail}")


class UniverseTooLarge(Refusal):
    def __init__(self, size: int, bound: int, what: str = "universe"):
        self.size = size
        self.bound = bound
        super().__init__(
            f"{what} has {size} atoms, exhaustive bound is {bound} "
            f"(raise with AICREPAIR_MAX_ATOMS or --max-atoms)"
        )

