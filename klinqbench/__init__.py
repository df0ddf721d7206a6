"""KLiNQ readout benchmark (see run.py)."""
