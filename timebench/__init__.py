"""Layer-traced benchmark of the ADMM solver, run through ``timebench/run.py``."""
