"""Exception hierarchy shared across the library.

InputError subclasses map to CLI exit code 2, ResourceError to exit code 3.
A mathematical violation (a failed congruence or trace identity) is not an
exception; it is reported in the relevant report object and mapped to exit
code 1 by the CLI.
"""


class DwlinkError(Exception):
    pass


class InputError(DwlinkError):
    """Invalid input or unsatisfied precondition."""


class ResourceError(DwlinkError):
    """A configured resource cap was exceeded."""


# group construction
class NotAGroup(InputError):
    pass


class BadShape(InputError):
    pass


class GroupTooLarge(ResourceError):
    pass


class BadPermutation(InputError):
    pass


class NotInSubgroup(InputError):
    pass


# braids
class StrandMismatch(InputError):
    pass


class BadBraid(InputError):
    pass


# holonomy
class LengthMismatch(InputError):
    pass


class NotAFixedPoint(InputError):
    pass


class SearchTooLarge(ResourceError):
    pass


# dw / congruence
class HNotInCentralizer(InputError):
    pass


class NotPrime(InputError):
    pass


class GroupOrderDivisible(InputError):
    pass


class ComponentMismatch(InputError):
    pass


# finite fields
class DegreeTooLarge(InputError):
    pass


class DimMismatch(InputError):
    pass


class FieldMismatch(InputError):
    pass
