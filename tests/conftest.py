"""Settings for the whole test run.

Every property test draws the same examples on each run: the one
Hypothesis profile registered here is derandomized and loaded by
default. A test's own ``@settings`` (``max_examples``, ``deadline``)
still apply on top of it.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
