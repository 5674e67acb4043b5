import pytest

from fwfs import (FactorisationAssignment, FinCategory, LiftingStructure,
                  awfs_from_lifting, build_finset, comma_category,
                  dbl_from_class, unique_filler_lifting, walking_arrow)
from fwfs.fincat import finset_image_factorisation, identity_functor

# one line per acceptance criterion, filled in by tests/test_acceptance.py
# and echoed after the run (pytest captures ordinary prints)
acceptance_lines = []


def chain(n):
    """[n] = 0 < 1 < ... < n; ``i<j`` is the unique morphism i -> j."""
    objects = [str(i) for i in range(n + 1)]
    return FinCategory(
        objects, [(f"{i}<{j}", str(i), str(j)) for i in range(n + 1)
                  for j in range(i, n + 1)],
        {str(i): f"{i}<{i}" for i in range(n + 1)},
        {(f"{j}<{k}", f"{i}<{j}"): f"{i}<{k}" for i in range(n + 1)
         for j in range(i, n + 1) for k in range(j, n + 1)}, name=f"[{n}]")


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def finset2():
    return build_finset(2)


@pytest.fixture(scope="session")
def epi_mono2(finset2):
    """The surjection/injection lifting structure over FinSet<=2 with its
    image factorisation assignment."""
    C = finset2.category
    left = dbl_from_class(C, finset2.epis, name="D(Epi)")
    right = dbl_from_class(C, finset2.monos, name="D(Mono)")
    S = LiftingStructure(left, unique_filler_lifting(left, right), right)
    FA = FactorisationAssignment(
        {f: finset_image_factorisation(f) for f in C.morphisms})
    return S, FA


@pytest.fixture(scope="session")
def image_awfs2(epi_mono2):
    S, FA = epi_mono2
    return awfs_from_lifting(S, FA)


@pytest.fixture(scope="session")
def arrow_comma():
    """Comma factorisation of the identity on the walking arrow."""
    W = walking_arrow()
    return comma_category(identity_functor(W, name="idW"))
