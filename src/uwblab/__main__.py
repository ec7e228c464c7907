"""`python -m uwblab`: the command-line front end, exiting with its code."""

from .cli import main

raise SystemExit(main())
