from hypothesis import HealthCheck, settings

# Oracle-backed properties have wildly varying per-example runtime, so the
# per-example deadline is off for the whole suite.  Derandomized, every
# run draws the same examples, so a property test catches the same
# faults on every run.
settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
