import pytest

from reference import (
    checked,
    checked_h2_reduction,
    checked_trusted,
    conjugation_step_reference,
    even_to_x_reference,
    generator_conjugate_shape_reference,
    inner_conjugator_reference,
)
from symlift import braid, cli, complexes, kernel, lift, selftest, symaut, words

REFERENCES = {
    "conjugation_step": conjugation_step_reference,
    "even_to_x": even_to_x_reference,
    "inner_conjugator": inner_conjugator_reference,
    "generator_conjugate_shape": generator_conjugate_shape_reference,
}


@pytest.fixture(scope="session", autouse=True)
def fast_paths_checked_against_the_references():
    """Every ``conjugation_step``, ``even_to_x``, ``inner_conjugator`` and
    ``generator_conjugate_shape`` that the library calls during the suite,
    through any module that binds the name, is compared with its reference
    in ``reference.py``: the four-factor ``product``, the
    ``normalize``-based rewrite, the ``coset_intersection`` solve and the
    ``cyclic_reduce`` split.  Every word that ``_h2_reduced`` reduces must
    evaluate in the order-2 product to the automorphism of its raw
    letters."""
    with pytest.MonkeyPatch.context() as mp:
        for name, reference in REFERENCES.items():
            fast = getattr(words, name)
            wrapped = checked(fast, reference)
            for module in (words, symaut, lift, kernel, complexes, braid, cli, selftest):
                if getattr(module, name, None) is fast:
                    mp.setattr(module, name, wrapped)
        mp.setattr(lift, "_h2_reduced", checked_h2_reduction(lift._h2_reduced))
        yield


# each class with a private constructor that skips validation
TRUSTED = (complexes.LabelledBipartiteTree, symaut.GeneratorWord)


@pytest.fixture(scope="session", autouse=True)
def trusted_constructions_validated():
    """Every value built by a private ``_trusted`` constructor during the
    suite is built again by its public constructor, which validates it, and
    must come out equal: every tree the enumeration builds, and every
    ``GeneratorWord`` product, inverse and free cancellation."""
    with pytest.MonkeyPatch.context() as mp:
        for cls in TRUSTED:
            mp.setattr(cls, "_trusted", checked_trusted(cls))
        yield
