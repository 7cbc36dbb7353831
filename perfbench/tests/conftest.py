import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


@pytest.fixture(scope="session")
def lib():
    import run

    return run.Lib()
