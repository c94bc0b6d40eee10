import os
import sys
from pathlib import Path

from hypothesis import settings

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Derandomized, so a run is repeatable; tests with their own settings keep
# them.  CI sets HYPOTHESIS_PROFILE=ci to draw ten times as many examples.
settings.register_profile("dev", max_examples=100, deadline=None, derandomize=True, database=None)
settings.register_profile("ci", settings.get_profile("dev"), max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
