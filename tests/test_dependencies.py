"""The runtime has no third-party dependencies (`dependencies = []`), and
its public surface grows only by a deliberate edit of the lists below."""

import ast
import inspect
import sys
from pathlib import Path

import rejsamp
from rejsamp import aesprg, hwsim

PACKAGE_DIR = Path(rejsamp.__file__).parent


def test_package_imports_only_itself_and_the_stdlib():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] != "rejsamp"
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_public_surface_is_pinned():
    assert sorted(rejsamp.__all__) == [
        "FieldVector", "ParameterSet", "SecurityLevel", "builtin_params",
        "mask_bytes", "rej_samp", "rej_samp_prg"]
    assert sorted(hwsim.__all__) == [
        "AesCtrWrapper", "CapacityError", "CycleReport", "HwSimError",
        "Instruction", "InvalidInstructionError", "MemoryModel", "Opcode",
        "PreconditionFault", "ProgramError", "ProgramResult", "RejSampUnit",
        "SimulationFault", "TimingConfig", "UnsupportedLevelError",
        "assemble", "decode", "default_program", "encode", "format_program",
        "parse_program", "run_program", "validate_program"]
    # public functions and constants defined in aesprg (not imported into it)
    defined = sorted(
        name for name, value in vars(aesprg).items()
        if not name.startswith("_") and not inspect.ismodule(value)
        and getattr(value, "__module__", aesprg.__name__) == aesprg.__name__)
    assert defined == [
        "BLOCK_BYTES", "IV_BYTES", "KEY_BYTES", "SBOX", "aes128_encrypt_block",
        "check_key", "ctr_blocks", "encrypt_block_expanded", "expand_key",
        "keystream"]
