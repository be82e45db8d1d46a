from types import ModuleType

import gapfree


def test_all_matches_the_package_namespace():
    names = gapfree.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(gapfree, name) for name in names)
    # every public non-module name __init__ binds is exported, and nothing else
    bound = {
        name
        for name, value in vars(gapfree).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(names) == bound
