"""``python -m cesrank``: the command-line interface, as the ``cesrank`` script runs it."""

from .cli import entry_point

entry_point()
