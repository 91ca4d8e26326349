from hypothesis import settings


# Property tests draw the same examples on every run and have no deadline,
# so a run is reproducible and timing noise cannot fail it.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
