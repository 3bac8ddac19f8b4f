"""Cycle-level simulator of the sampling coprocessor.

Import each name from the module that defines it: `core`, `isa`,
`memory` or `errors`.
"""

# bench/workloads.py calls hwsim.run_program(hwsim.default_program(level))
from .core import run_program
from .isa import default_program
