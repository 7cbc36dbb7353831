import pytest

from reference import (
    checked,
    checked_h1_refutation,
    checked_h2_reduction,
    checked_trusted,
    conjugation_step_reference,
    even_to_x_reference,
    generator_conjugate_shape_reference,
    inner_conjugator_reference,
    parse_semipalindrome_product_reference,
    semidirect_normal_form_reference,
)
from symlift import braid, cli, complexes, kernel, lift, selftest, symaut, words

# (defining module, name): reference
REFERENCES = {
    (words, "conjugation_step"): conjugation_step_reference,
    (words, "even_to_x"): even_to_x_reference,
    (words, "inner_conjugator"): inner_conjugator_reference,
    (words, "generator_conjugate_shape"): generator_conjugate_shape_reference,
    (symaut, "semidirect_normal_form"): semidirect_normal_form_reference,
    (kernel, "parse_semipalindrome_product"): parse_semipalindrome_product_reference,
}


@pytest.fixture(scope="session", autouse=True)
def fast_paths_checked_against_the_references():
    """Every call the library makes during the suite to a name in
    ``REFERENCES``, through any module that binds the name, is compared with
    its reference in ``reference.py``: ``conjugation_step`` with one
    ``normalize`` of its four factors, ``even_to_x`` with the
    ``normalize``-based rewrite, ``inner_conjugator`` with the
    ``coset_intersection`` solve, ``generator_conjugate_shape`` with the
    ``cyclic_reduce`` split, and ``semidirect_normal_form`` and ``parse_semipalindrome_product``
    with their per-letter ``letter_inverse`` forms.  Every word that
    ``_h2_reduced`` reduces, in ``eval_generator_word`` or in
    ``kernel_verdict``, must evaluate in the order-2 product to the
    automorphism of its raw letters, and every word that ``_h1_refutes``
    refutes must be out of the kernel by both routes, run unfiltered."""
    with pytest.MonkeyPatch.context() as mp:
        for (home, name), reference in REFERENCES.items():
            fast = getattr(home, name)
            wrapped = checked(fast, reference)
            for module in (words, symaut, lift, kernel, complexes, braid, cli, selftest):
                if getattr(module, name, None) is fast:
                    mp.setattr(module, name, wrapped)
        wrapped = checked_h2_reduction(symaut._h2_reduced)
        for module in (symaut, lift):
            mp.setattr(module, "_h2_reduced", wrapped)
        mp.setattr(lift, "_h1_refutes", checked_h1_refutation(lift._h1_refutes))
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
