"""Run the command line without an install: ``PYTHONPATH=src python -m padyn ...``."""
from .cli import main

if __name__ == "__main__":
    main()
