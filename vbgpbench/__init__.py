"""Wire-to-wire benchmark of one vBGP PoP (see run.py)."""
