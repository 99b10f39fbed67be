"""Settings shared by the test suite.

Every hypothesis property test runs under one profile: no example database,
so a run leaves no .hypothesis directory and replays nothing from an
earlier one, and no deadline, since a draw's time depends on the machine.
"""

from hypothesis import settings

settings.register_profile("georesnet", database=None, deadline=None)
settings.load_profile("georesnet")
