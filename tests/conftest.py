import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# One profile for the suite: reruns draw the same examples, slow fits do
# not trip a per-example deadline, and no example database is written.
settings.register_profile("mixcox", derandomize=True, deadline=None, database=None)
settings.load_profile("mixcox")

# Hypothesis still caches the constants it collects from the source under
# its home directory (".hypothesis/" in the working directory by default);
# keep that cache in a temporary directory removed when the run exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="mixcox-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
