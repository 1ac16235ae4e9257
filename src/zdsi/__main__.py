"""`python -m zdsi`: the command-line interface."""

from .cli import main

main()
