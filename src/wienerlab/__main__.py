"""``python -m wienerlab``: the ``wienerlab`` command line."""

from .cli import main

raise SystemExit(main())
