"""Hypothesis profiles of the suite.

``probe`` runs every phase but shrinking and the explanation that follows it.
A mutant fails a property test whether or not its failing example is shrunk,
so ``tools/mutants.py`` selects it with ``--hypothesis-profile probe``; any
other run keeps Hypothesis's default profile.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "probe", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
