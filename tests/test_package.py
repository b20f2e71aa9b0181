import types

import cfthz

# The top-level API. A name added to or dropped from `cfthz/__init__.py`
# has to be added to or dropped from this set as well.
EXPORTS = {
    "AntennaConfig", "GridRss", "ScenarioConfig", "antenna_gain", "ce_optimize",
    "generate_scenario", "monte_carlo", "peak_frequency",
}


def test_top_level_exports_are_pinned():
    # submodules (alloc, phy, ...) become attributes once imported; they are
    # reached by their module path, not exported
    public = {
        name for name, value in vars(cfthz).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS
