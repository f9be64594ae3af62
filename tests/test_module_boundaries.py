"""Which module owns which formula: the names each module binds.

The Jacobian multiplicities are ``cw_multiplicity`` of a representation or
of its conjugate, so ``galcov.jacobian`` takes from ``galcov.differentials``
only the table type, that route and the conjugation; the eigenvalue-row
format and the +1 test stay inside ``galcov.differentials``.
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
