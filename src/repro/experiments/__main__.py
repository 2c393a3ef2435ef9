"""``python -m repro.experiments`` delegates to the CLI."""

import sys

from repro.experiments.cli import console_main

sys.exit(console_main())
