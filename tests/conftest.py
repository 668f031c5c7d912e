"""Import the package before any test module imports NumPy, so the suite
runs under the package's BLAS default of one thread (`thermalcap/__init__.py`)
unless the environment sets its own."""

import thermalcap  # noqa: F401
