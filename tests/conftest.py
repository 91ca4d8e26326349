from hypothesis import settings


# Property tests draw the same examples on every run and have no deadline,
# so a run is reproducible and timing noise cannot fail it.  A failing test
# shrinks and reports one failure, not every distinct one it finds.
settings.register_profile(
    "reproducible", derandomize=True, deadline=None, report_multiple_bugs=False
)
settings.load_profile("reproducible")
