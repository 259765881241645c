"""The layered performance ledger (see README.md in this directory)."""
