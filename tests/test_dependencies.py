"""The runtime has no third-party dependencies (`dependencies = []`), and
its public surface grows only by a deliberate edit of the lists below."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mutants
import rejsamp
from rejsamp import aesprg, cli, fom, hwsim, kat, params, sampler
from rejsamp.hwsim import core, errors, isa, memory

PACKAGE_DIR = Path(rejsamp.__file__).parent


def _imported(path):
    """The top-level packages path imports by absolute name."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_itself_and_the_stdlib():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    foreign = [f"{path.name}: {name}" for path in modules
               for name in _imported(path)
               if name != "rejsamp" and name not in sys.stdlib_module_names]
    assert foreign == []


def test_oracles_import_nothing_from_the_package():
    # an oracle that reused package code would agree with it by construction
    assert "rejsamp" not in set(_imported(
        Path(__file__).with_name("oracles.py")))


def test_every_mutant_applies_once():
    # an edit to src that defuses a mutant fails here, not in the harness
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert set(mutants.EQUIVALENT) <= set(names)
    for name, file, old, new in mutants.MUTANTS:
        assert old != new, name
        assert (PACKAGE_DIR / file).read_text().count(old) == 1, name
    modules = {path.stem for path in PACKAGE_DIR.rglob("*.py")}
    assert {Path(file).stem for _, file, _, _ in mutants.MUTANTS} == \
        modules - {"__init__", "errors"}


def test_mutation_harness_imports_only_the_stdlib():
    assert set(_imported(Path(mutants.__file__))) <= sys.stdlib_module_names


def _fresh(code, *argv):
    """Run code with argv in a fresh interpreter, so that no other test's
    imports are counted."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          check=True, capture_output=True, text=True)


def _loaded_by(module):
    """The rejsamp modules that importing module loads."""
    code = (f"import sys, {module}; print(*sorted(m for m in sys.modules "
            f"if m.split('.')[0] == 'rejsamp'))")
    return _fresh(code).stdout.split()


def _loaded_by_command(*argv):
    """The rejsamp modules, and dataclasses if loaded, after `rejsamp
    *argv` runs; the command must exit 0."""
    stderr = _fresh("import sys; from rejsamp import cli; "
                    "code = cli.main(sys.argv[1:]); print(code, *sorted(m for "
                    "m in sys.modules if m.split('.')[0] in ('rejsamp', "
                    "'dataclasses')), file=sys.stderr)", *argv).stderr
    code, *loaded = stderr.splitlines()[-1].split()
    assert code == "0"
    return loaded


def test_each_command_loads_only_its_layers(tmp_path):
    # one rejsamp process per command: start-up is most of a command's time
    assert _loaded_by_command("fom") == [
        "rejsamp", "rejsamp.aesprg", "rejsamp.cli", "rejsamp.fom",
        "rejsamp.params"]
    path = tmp_path / "one.kat"
    path.write_text(kat.generate_kat(bytes(16), bytes(2), 1))
    verify = _loaded_by_command("kat", "verify", str(path))
    assert "rejsamp.kat" in verify
    assert not [m for m in verify if m.startswith("rejsamp.hwsim")]
    simulate = _loaded_by_command("simulate", "--level", "1", "--seed",
                                  "00" * 16, "--iv", "0000")
    assert "rejsamp.hwsim.core" in simulate
    assert "rejsamp.kat" not in simulate
    assert "dataclasses" not in verify + simulate


@pytest.mark.parametrize("module", ["rejsamp.fom", "rejsamp.params"])
def test_importing_a_layer_loads_only_that_layer(module):
    assert _loaded_by(module) == ["rejsamp", module]


def test_simulator_loads_no_layer_above_it():
    # the simulator counts cycles; time, the CLI and KAT files sit above it
    loaded = _loaded_by("rejsamp.hwsim")
    assert "rejsamp.hwsim.core" in loaded
    assert not {"rejsamp.fom", "rejsamp.kat", "rejsamp.cli"} & set(loaded)


def _assigned(module):
    """The names module assigns at its top level, read from its source."""
    targets = []
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def _defined(module):
    """The public functions, classes and constants defined in module, not
    imported into it. A constant (an int, str or tuple has no __module__)
    counts only where the module assigns it."""
    assigned = _assigned(module)
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_") and not inspect.ismodule(value)
        and getattr(value, "__module__", module.__name__ if name in assigned
                    else None) == module.__name__)


def _aliases(package):
    """The names a package holds besides its submodules."""
    return sorted(name for name, value in vars(package).items()
                  if not name.startswith("_") and not inspect.ismodule(value))


def test_public_surface_is_pinned():
    # the package root only holds its submodules: import the defining module
    assert _aliases(rejsamp) == []
    # bench/workloads.py reads these two off the simulator package
    assert _aliases(hwsim) == ["default_program", "run_program"]
    # a run carries no log: trace_rows() joins its schedule's rows and bytes
    assert list(core.ProgramResult.__slots__) == [
        "report", "vector", "_rows", "_loaded"]
    # the memory only checks and stores: no unit, no log row
    assert list(inspect.signature(memory.MemoryModel.read).parameters) == [
        "self", "addr", "cycle"]
    assert list(inspect.signature(memory.MemoryModel.write).parameters) == [
        "self", "addr", "word", "cycle"]
    # a parameter set stores only the paper's inputs; the rest is derived
    assert list(params.ParameterSet._fields) == [
        "sec_level", "q", "l", "V", "M", "tau", "lambda_bits"]
    assert _defined(aesprg) == [
        "IV_BYTES", "KEY_BYTES", "check_key", "ctr_blocks",
        "encrypt_block_expanded", "expand_key", "keystream"]
    assert _defined(fom) == [
        "LUT_S", "MW_S", "REFERENCE_INPUTS", "UM2_S", "fom_report", "latency",
        "report_to_csv"]
    assert _defined(params) == [
        "BYTES_PER_WORD", "LEVEL_NUMBERS", "ParameterSet", "SecurityLevel",
        "builtin_params", "is_mersenne", "level_from_number"]
    assert _defined(kat) == [
        "KatError", "KatRecord", "generate_kat", "parse_kat", "verify_kat"]
    assert _defined(sampler) == [
        "FieldVector", "RejectionStats", "rej_samp", "rej_samp_prg",
        "rejection_stats"]
    assert _defined(core) == [
        "AesCtrWrapper", "CycleReport", "ProgramResult", "RejSampUnit",
        "run_program"]
    assert _defined(isa) == [
        "Instruction", "Opcode", "assemble", "decode", "default_program",
        "encode", "parse_program"]
    assert _defined(memory) == ["DEFAULT_DEPTH", "MemoryModel"]
    assert _defined(errors) == [
        "AddressError", "CapacityError", "HwSimError",
        "InvalidInstructionError", "ProgramError", "SimulationFault",
        "UnsupportedLevelError"]
    assert _defined(cli) == [
        "EXIT_CAPACITY", "EXIT_MISMATCH", "EXIT_OK", "EXIT_UNSUPPORTED_LEVEL",
        "EXIT_USAGE", "build_parser", "main"]
