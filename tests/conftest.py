import pytest

from reference import checked_even_to_x
from symlift import cli, lift, words


@pytest.fixture(scope="session", autouse=True)
def even_to_x_checked_against_the_reference():
    """Every ``even_to_x`` that the library calls during the suite, through
    ``words``, ``lift`` (the verdicts and restrictions) or ``cli``, is
    compared with the ``normalize``-based reference."""
    with pytest.MonkeyPatch.context() as mp:
        checked = checked_even_to_x(words.even_to_x)
        for module in (words, lift, cli):
            mp.setattr(module, "even_to_x", checked)
        yield
