"""Job-level benchmark for the ``mlscert`` command line.

``run.py`` is the entry point; see ``README.md`` in this directory.
"""
