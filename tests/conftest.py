"""Settings shared by the test modules."""

#: The warning filters that pyproject.toml sets for the suite's own process,
#: as ``PYTHONWARNINGS`` for the child processes that run the package.
CHILD_WARNINGS = "error::RuntimeWarning,error::DeprecationWarning,error::FutureWarning"
