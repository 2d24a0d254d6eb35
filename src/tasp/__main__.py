"""``python -m tasp``: the command-line front end (see tasp.cli)."""
from .cli import entry

entry()
