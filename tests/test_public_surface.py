"""Every public name in the library has a caller, and so does every private one.

A public top-level function, class or constant, or a public method or
property of a top-level class, in a ``src/srirkit`` module counts as called
when some ``src/srirkit`` module other than ``__init__``, or a ``perfbench``
script, mentions its name as a ``Name`` it reads or an ``Attribute`` node.
Tests, the README and ``__init__``'s re-exports do not count: a name only
they reach is code that nothing the package runs needs. A single-underscore
top-level name must be read the same way, its own module included.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Names kept without a caller, each for a stated reason.
EXEMPT = {
    # Acceptance criterion 8 measures the IACC identity through it.
    "metrics.iacc",
}


def _trees(directory: Path) -> dict:
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py")) if path.name != "__init__.py"}


def _top_level(tree: ast.Module):
    """(name, node) of every top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((target.id, node) for target in targets if isinstance(target, ast.Name))


def _public_definitions(tree: ast.Module):
    for name, node in _top_level(tree):
        if not name.startswith("_"):
            yield name
            if isinstance(node, ast.ClassDef):
                yield from (member.name for member in node.body
                            if isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_"))


def _mentioned(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)  # a constant's own assignment is no caller
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_referenced():
    library = _trees(ROOT / "src" / "srirkit")
    referenced = _referenced(library)
    uncalled = [f"{path.stem}.{name}"
                for path, tree in library.items() for name in _public_definitions(tree)
                if name not in referenced and f"{path.stem}.{name}" not in EXEMPT]
    assert not uncalled, f"public names nothing in src/srirkit or perfbench calls: {uncalled}"


def _referenced(library: dict) -> set:
    referenced = set()
    for tree in [*library.values(), *_trees(ROOT / "perfbench").values()]:
        referenced |= _mentioned(tree)
    return referenced


def test_no_exemption_is_stale():
    """An exempt name must still be defined and still lack a caller: one that
    gains a caller leaves ``EXEMPT``."""
    library = _trees(ROOT / "src" / "srirkit")
    referenced = _referenced(library)
    defined = {f"{path.stem}.{name}" for path, tree in library.items()
               for name in _public_definitions(tree)}
    stale = [entry for entry in sorted(EXEMPT)
             if entry not in defined or entry.split(".")[-1] in referenced]
    assert not stale, f"exempt names that are gone or now have a caller: {stale}"


def test_every_private_top_level_name_is_read():
    library = _trees(ROOT / "src" / "srirkit")
    referenced = _referenced(library)
    orphans = [f"{path.stem}.{name}"
               for path, tree in library.items() for name, _ in _top_level(tree)
               if name.startswith("_") and not name.startswith("__") and name not in referenced]
    assert not orphans, f"private names nothing in src/srirkit or perfbench reads: {orphans}"


def test_only_cli_writes_csv():
    """The CLI owns every CSV it writes: no other library module calls
    ``csv.writer`` or imports from ``csv``, so the records carry no file format."""
    writers = []
    for path, tree in _trees(ROOT / "src" / "srirkit").items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "writer"
                    and isinstance(node.value, ast.Name) and node.value.id == "csv") \
                    or (isinstance(node, ast.ImportFrom) and node.module == "csv"):
                writers.append(f"{path.stem}:{node.lineno}")
    assert writers, "the check no longer finds cli's own csv.writer"
    elsewhere = [where for where in writers if not where.startswith("cli:")]
    assert not elsewhere, f"csv writers outside cli: {elsewhere}"


def test_one_hrir_convolution():
    """Only ``dsp.fft_convolve`` and ``dsp._frame_render`` call
    ``np.fft.rfft`` with a transform length (a second positional argument or
    ``n=``): a second HRIR convolution cannot come back unnoticed."""
    callers = set()
    for path, tree in _trees(ROOT / "src" / "srirkit").items():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.fft.rfft" \
                        and (len(node.args) > 1 or any(k.arg == "n" for k in node.keywords)):
                    callers.add(f"{path.stem}.{function.name}")
    assert {"dsp.fft_convolve", "dsp._frame_render"} <= callers, \
        "the check no longer finds the two owners' transforms"
    others = callers - {"dsp.fft_convolve", "dsp._frame_render"}
    assert not others, f"sized rfft calls outside the two owners: {sorted(others)}"


def _imports(tree: ast.Module) -> set:
    """The package modules that ``tree`` imports by ``from .x import`` or
    ``from . import x``."""
    return {name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [alias.name for alias in node.names])}


def test_oracle_imports_no_system_under_test():
    """The image-source simulator renders the reference every system is scored
    against: walking the package's ``from .x import`` edges from ``ism`` reaches
    no analysis, synthesis, scoring or pipeline module."""
    edges = {path.stem: _imports(tree) for path, tree in _trees(ROOT / "src" / "srirkit").items()}
    reached, todo = set(), ["ism"]
    while todo:
        for module in edges[todo.pop()] - reached:
            reached.add(module)
            todo.append(module)
    assert {"dsp", "grids", "hrir"} <= reached, "the walk no longer finds ism's own imports"
    judged = reached & {"synthesis", "doa", "vbap", "filterbanks", "metrics", "pipelines"}
    assert not judged, f"ism reaches the code it judges: {sorted(judged)}"


def test_one_stft_layout_carrier():
    """Only ``signals.StftFrames`` and ``doa.TfDoaField`` are dataclasses that
    declare a ``hop`` field: every other record takes its STFT layout from an
    ``StftFrames``. The field is the layout ``sirr_synthesize`` transforms the
    pressure in, so it carries its own."""
    carriers = set()
    for path, tree in _trees(ROOT / "src" / "srirkit").items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list):
                if any(isinstance(field, ast.AnnAssign) and ast.unparse(field.target) == "hop"
                       for field in node.body):
                    carriers.add(f"{path.stem}.{node.name}")
    owners = {"signals.StftFrames", "doa.TfDoaField"}
    assert owners <= carriers, "the check no longer finds the two layout carriers"
    assert carriers == owners, f"dataclasses with their own hop: {sorted(carriers - owners)}"
