"""Test set-up shared by every module: the hypothesis profile the CI workflow selects."""

from hypothesis import settings

# `pytest --hypothesis-profile ci` draws the same examples on every run and
# prints a reproduction blob for each failure, so a red CI run repeats locally
# with the same command; without the flag the default profile applies
settings.register_profile("ci", derandomize=True, print_blob=True)
