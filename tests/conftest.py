"""Hypothesis settings profiles for the suite.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile, which prints the
reproduction blob of a failing example (``@reproduce_failure``), so a
bit-identity failure seen only on a CI runner can be replayed locally.
Without the variable Hypothesis keeps its default profile. Example counts
stay with each test's own ``@settings``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
