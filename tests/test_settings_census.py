import inspect

import spisep as sp


def test_exported_keyword_defaults():
    # every exported keyword needs a caller that sets it; a new one has to
    # change this count and say why
    count = sum(
        p.default is not inspect.Parameter.empty
        for name, obj in vars(sp).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        for p in inspect.signature(obj).parameters.values()
    )
    assert count == 21
