import os

# every search reads CYL_NODE_BUDGET, so an exported value would change the
# verdicts of tests that never set it; a test that needs one sets its own.
# This file sits at the repository root so that tests/ and bench/ both see it,
# and it imports nothing from cylgraph.
os.environ.pop("CYL_NODE_BUDGET", None)
