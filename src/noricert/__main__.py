"""``python -m noricert``: the ``noricert`` console script."""

from .cli import main

raise SystemExit(main())
