"""Developer tooling that ships with the library.

Currently one tool: :mod:`repro.devtools.simlint`, the domain-aware static
analysis suite that enforces the simulation contracts the test suite
cannot see (seeded randomness, float comparison hygiene, library and
event-loop discipline) before code runs.
"""
