"""`python -m fivegsim`: the `fivegsim` command (cli.main)."""
import sys

from .cli import main

sys.exit(main())
