"""numpy, imported on the first attribute read of `np`: the rate pipeline
works on exponent vectors alone and never loads it."""

import importlib


class _LazyNumpy:
    def __getattr__(self, name):
        value = getattr(importlib.import_module("numpy"), name)
        setattr(self, name, value)  # later reads find it without __getattr__
        return value


np = _LazyNumpy()
