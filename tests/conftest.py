import functools

import pytest

from reference import (
    checked,
    checked_column_reduction,
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


def against(reference):
    """The check that compares each result with ``reference``'s."""
    return functools.partial(checked, reference=reference)


# (defining module, name): the check that wraps it
REFERENCES = {
    (words, "conjugation_step"): against(conjugation_step_reference),
    (words, "even_to_x"): against(even_to_x_reference),
    (words, "inner_conjugator"): against(inner_conjugator_reference),
    (words, "generator_conjugate_shape"): against(generator_conjugate_shape_reference),
    (symaut, "semidirect_normal_form"): against(semidirect_normal_form_reference),
    (kernel, "parse_semipalindrome_product"): against(parse_semipalindrome_product_reference),
    (symaut, "_h2_reduced"): checked_h2_reduction,
    (lift, "_h1_refutes"): checked_h1_refutation,
    (complexes, "_reduce_columns"): checked_column_reduction,
}


@pytest.fixture(scope="session", autouse=True)
def fast_paths_checked_against_the_references():
    """Every call the library makes during the suite to a name in
    ``REFERENCES``, through any module that binds the name, goes through its
    check in ``reference.py``: ``conjugation_step`` is compared with one
    ``normalize`` of its four factors, ``even_to_x`` with the
    ``normalize``-based rewrite, ``inner_conjugator`` with the
    ``coset_intersection`` solve, ``generator_conjugate_shape`` with the
    ``cyclic_reduce`` split, and ``semidirect_normal_form`` and
    ``parse_semipalindrome_product`` with their per-letter ``letter_inverse``
    forms.  Every word that ``_h2_reduced`` reduces, in
    ``eval_generator_word`` or in ``kernel_verdict``, must evaluate in the
    order-2 product to the automorphism of its raw letters, every word that
    ``_h1_refutes`` refutes must be out of the kernel by both routes, run
    unfiltered, and every matrix that ``_reduce_columns`` reduces must have
    the rank and divisors of the row-and-column elimination it replaced."""
    with pytest.MonkeyPatch.context() as mp:
        for (home, name), check in REFERENCES.items():
            fast = getattr(home, name)
            wrapped = check(fast)
            for module in (words, symaut, lift, kernel, complexes, braid, cli, selftest):
                if getattr(module, name, None) is fast:
                    mp.setattr(module, name, wrapped)
        yield


# each class with a private constructor that skips validation
TRUSTED = (complexes.LabelledBipartiteTree, complexes.WhiteheadPoset, symaut.GeneratorWord)


@pytest.fixture(scope="session", autouse=True)
def trusted_constructions_validated():
    """Every value built by a private ``_trusted`` constructor during the
    suite is built again by its public constructor, which validates it, and
    must come out the same (``reference.trusted_view``): every tree the
    enumeration builds, every poset it hands its up-sets and covers, and
    every ``GeneratorWord`` product, inverse and free cancellation."""
    with pytest.MonkeyPatch.context() as mp:
        for cls in TRUSTED:
            mp.setattr(cls, "_trusted", checked_trusted(cls))
        yield
