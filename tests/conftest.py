from hypothesis import settings

# property tests draw the same examples on every run, with no time limit
# per example, so the suite is deterministic
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
