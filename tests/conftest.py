import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and have no per-example
# time limit, so the suite's outcome does not depend on the machine's speed.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
