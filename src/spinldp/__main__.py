"""`python -m spinldp ...` runs the command-line interface."""
from spinldp.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
