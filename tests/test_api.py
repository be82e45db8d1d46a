from types import ModuleType

import gapfree


def test_all_matches_the_package_namespace():
    names = gapfree.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(gapfree, name) for name in names)
    # every public non-module name the package hands out is exported, and
    # nothing else; a name resolves on first use, so it is read through
    # getattr, not from the namespace's current contents
    bound = {
        name
        for name in dir(gapfree)
        if not name.startswith("_") and not isinstance(getattr(gapfree, name), ModuleType)
    }
    assert set(names) == bound
