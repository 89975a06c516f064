"""Every name a module exports in `__all__` exists in that module."""

import importlib
import pkgutil

import asrfuse


def test_every_export_resolves():
    modules = [asrfuse] + [importlib.import_module(info.name) for info in
                           pkgutil.walk_packages(asrfuse.__path__, prefix="asrfuse.")]
    # the walk reaches into the subpackages
    assert {"asrfuse.numcore.tensor", "asrfuse.ssl_objectives.losses"} <= \
        {module.__name__ for module in modules}
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
