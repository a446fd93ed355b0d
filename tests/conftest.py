from pathlib import Path

import pytest

TESTS = Path(__file__).parent

# Hypothesis imports libcst to report a failing property test, and libcst's
# import warns; raised as an error inside the report hook, that warning would
# end the run with INTERNALERROR and hide every later test's result.
_LIBCST_IMPORT = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning:libcst"


def pytest_collection_modifyitems(items):
    """Turn every warning raised by a test under this directory into an error,
    except the one from libcst's import."""
    for item in items:
        if item.path.is_relative_to(TESTS):
            item.add_marker(pytest.mark.filterwarnings("error", _LIBCST_IMPORT))
