import hypothesis

hypothesis.settings.register_profile(
    "suite", max_examples=50, deadline=None, derandomize=True
)
# the Hypothesis oracles at ten times the examples, for the CI step that runs
# them with --hypothesis-profile=thorough
hypothesis.settings.register_profile(
    "thorough", max_examples=500, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")
