"""Settings shared by the test suite.

Every hypothesis property test runs under one profile: no example database,
so a run replays nothing from an earlier one, and no deadline, since a
draw's time depends on the machine.  Hypothesis still caches other files
(constants it collects from the code, unicode tables) under its home
directory, by default .hypothesis in the working directory; the home is
pointed at a temporary directory, removed at exit, so a run leaves no
.hypothesis directory behind.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

settings.register_profile("georesnet", database=None, deadline=None)
settings.load_profile("georesnet")
