"""Hypothesis defaults shared by every property in this suite.

Properties run the algebra on random inputs whose cost varies by orders of
magnitude between examples, so no per-example deadline is set; each test
keeps its own max_examples.
"""

from hypothesis import settings

settings.register_profile("supercalc", deadline=None)
settings.load_profile("supercalc")
