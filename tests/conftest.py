from hypothesis import settings

# One profile for the suite: reruns draw the same examples, slow fits do
# not trip a per-example deadline, and no example database is written.
settings.register_profile("mixcox", derandomize=True, deadline=None, database=None)
settings.load_profile("mixcox")
