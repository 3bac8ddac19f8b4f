"""Cycle-level simulator of the sampling coprocessor.

Import each name from the module that defines it: `core`, `isa`,
`memory` or `errors`.
"""

# bench/workloads.py calls hwsim.run_program(hwsim.default_program(level)),
# and bench/tracing.py wraps the modules it finds in sys.modules after
# that import, so these stay eager: a lazy package (PEP 562) would leave
# core and isa unloaded there and their trace targets absent.  So
# importing any hwsim module loads the whole simulator, and only
# cli's simulate command imports one.
from .core import run_program
from .isa import default_program
