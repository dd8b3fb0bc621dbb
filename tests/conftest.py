"""Keeps the tests directory importable (shared oracles live here)."""

import warnings

# When a @given test fails, the hypothesis plugin imports its patch writer,
# which imports libcst and with it a deprecated mypy_extensions.TypedDict.
# Under a filterwarnings("error") mark that warning would abort the run with
# an INTERNALERROR in place of the failure report, so the module is loaded
# here, once, with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
