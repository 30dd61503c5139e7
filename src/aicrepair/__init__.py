"""Repairing propositional databases under active integrity constraints.

The package implements and cross-validates a family of repair semantics
for active integrity constraints (weak, founded and justified repairs),
the matching semantics for revision programs (plus supported revisions),
the syntactic transformations connecting the two formalisms, a small
disjunctive-logic-program core with answer sets, and consistent query
answering on top of any of the repair classes.
"""

from .errors import (
    EngineError,
    InconsistentUpdateSet,
    InputError,
    NotNormalProgram,
    NotProperProgram,
    NotSimpleRule,
    ParseError,
    Refusal,
    UniverseTooLarge,
    UnknownAtom,
    UpdatableConditionViolated,
)
from .model import (
    AicRule,
    Limits,
    Literal,
    RevLiteral,
    RevRule,
    Universe,
    UpdateAction,
    apply_revision,
    apply_update,
    inertia_set,
    is_consistent,
    is_normal,
    is_proper,
    lit,
    no_effect_set,
    ordered,
    rev_literal,
    ua,
)
from .repairs import (
    RepairClass,
    Report,
    check_membership,
    enumerate_repairs,
)
from .revisions import (
    RevisionClass,
    check_supported_revision,
    enumerate_revisions,
)
from .revisions import check_membership as check_revision_membership
from .transforms import (
    normalize_aic,
    normalize_rev,
    properize,
    shift,
    shift_db,
    shift_instance,
    to_aic,
    to_rev,
)
from .asp import LpRule, aic_of_program, answer_sets, is_answer_set
from .query import CqaStatus, CqaVerdict, cqa
from .syntax import Instance, parse_instance, print_instance

__version__ = "0.1.0"

__all__ = [
    "AicRule",
    "CqaStatus",
    "CqaVerdict",
    "EngineError",
    "InconsistentUpdateSet",
    "InputError",
    "Instance",
    "Limits",
    "Literal",
    "LpRule",
    "NotNormalProgram",
    "NotProperProgram",
    "NotSimpleRule",
    "ParseError",
    "Refusal",
    "RepairClass",
    "Report",
    "RevLiteral",
    "RevRule",
    "RevisionClass",
    "Universe",
    "UniverseTooLarge",
    "UnknownAtom",
    "UpdatableConditionViolated",
    "UpdateAction",
    "aic_of_program",
    "answer_sets",
    "apply_revision",
    "apply_update",
    "check_membership",
    "check_revision_membership",
    "check_supported_revision",
    "cqa",
    "enumerate_repairs",
    "enumerate_revisions",
    "inertia_set",
    "is_answer_set",
    "is_consistent",
    "is_normal",
    "is_proper",
    "lit",
    "no_effect_set",
    "normalize_aic",
    "normalize_rev",
    "ordered",
    "parse_instance",
    "print_instance",
    "properize",
    "rev_literal",
    "shift",
    "shift_db",
    "shift_instance",
    "to_aic",
    "to_rev",
    "ua",
]
