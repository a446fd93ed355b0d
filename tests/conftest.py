from pathlib import Path

import pytest

TESTS = Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Turn every warning raised by a test under this directory into an error."""
    for item in items:
        if item.path.is_relative_to(TESTS):
            item.add_marker(pytest.mark.filterwarnings("error"))
