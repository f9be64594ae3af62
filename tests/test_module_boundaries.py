"""Which module owns which formula: the names each module binds.

The Jacobian multiplicities are ``cw_multiplicity`` of a representation or
of its conjugate, so ``galcov.jacobian`` takes from ``galcov.differentials``
only the table type, that route and the conjugation; the eigenvalue-row
format and the +1 test stay inside ``galcov.differentials``.  The corrected
character is read off the u-rows, not found by the kernel or the +1 test,
and a trace's delta angle comes from the order of tau it already has.
"""

import galcov.differentials
import galcov.jacobian


def test_jacobian_binds_no_kernel_internals():
    bound = set(vars(galcov.jacobian))
    assert not bound & {"cw_value", "eigen_rows", "EigenRows", "_is_trivial_rep"}


def test_jacobian_takes_three_names_from_differentials():
    taken = {
        name
        for name, value in vars(galcov.jacobian).items()
        if getattr(value, "__module__", None) == galcov.differentials.__name__
    }
    assert taken == {"IrrepClassData", "conjugate", "cw_multiplicity"}


def names_used(code) -> set[str]:
    """The global and attribute names a code object reads, with those of the
    comprehensions and lambdas nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            names |= names_used(const)
    return names


def test_delta_search_reads_rows_only():
    names = names_used(galcov.differentials._locate_delta.__code__)
    assert not {"raw_dimension_value", "same_character"} & names


def test_trace_takes_no_pairing():
    assert "pairing" not in names_used(galcov.differentials.eichler_trace.__code__)
