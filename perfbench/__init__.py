"""Standing campaign benchmark for the repro package (see ``run.py``)."""
