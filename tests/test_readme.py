"""The README's library tour and command-line examples run as documented, and the names it points to exist."""

import ast
import importlib
import json
from pathlib import Path
import pkgutil
import re
import shlex
import shutil

import numpy as np

import tricoh
from tricoh import cli, qmat, states

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def section(title):
    start = README.index(title)
    end = re.compile(r"\n#{2,3} ").search(README, start + len(title))
    return README[start:end.start() if end else None]


def fenced(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def cli_examples():
    script = fenced(section("## Command line"), "sh")[0].replace("\\\n", " ")
    return [shlex.split(line) for line in script.splitlines() if line.strip() and not line.startswith("#")]


def documented_outputs():
    """File-name pattern -> the other code spans of its bullet in "Output files"."""
    bullets = re.split(r"\n- ", section("### Output files"))[1:]
    spans = [re.findall(r"`([^`]+)`", bullet) for bullet in bullets]
    return {s[0]: s[1:] for s in spans}


def documented_names():
    """Each ``(module, name)`` that a code span outside the fenced blocks names as tricoh.<module>.<name> or <module>.<name>."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    modules = "|".join(m.name for m in pkgutil.iter_modules(tricoh.__path__))
    dotted = re.compile(rf"(?:tricoh\.)?({modules})\.([A-Za-z_]\w*)")
    return sorted({hit.groups() for span in re.findall(r"`([^`\n]+)`", prose) for hit in [dotted.match(span)] if hit})


def public_name_readers():
    """Each ``__all__`` name -> the top-level definitions (or ``<module>``) outside its own that load it.

    A load is a name or an attribute read, so an import, or a field store of the same name, is none. The
    files searched are the library modules but ``__init__.py``, the benchmark's and the tools'.
    """
    files = [p for p in sorted((ROOT / "src" / "tricoh").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    readers = {name: set() for name in tricoh.__all__}
    for path in files:
        for top in ast.parse(path.read_text()).body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name in readers and name != where:
                    readers[name].add(f"{path.stem}.{where}")
    return readers


def nested_keys(obj):
    if isinstance(obj, dict):
        return set(obj).union(*(nested_keys(v) for v in obj.values()))
    return set()


def test_library_tour_runs():
    namespace = {}
    exec(compile(fenced(section("## Library tour"), "python")[0], "README.md", "exec"), namespace)
    assert namespace["reps"][0] == namespace["rep"]
    assert len(namespace["curves"]) == namespace["zz"].steps + 1
    assert namespace["curves"][-1] == namespace["rep"]
    target = states.density(states.make_state("W001"))
    assert abs(qmat.root_fidelity(namespace["rho"], target) - 0.9978) < 5e-4
    assert namespace["hz"].shape == (8,)
    assert namespace["hs"].shape == (5, 8, 8)
    assert namespace["grounds"].shape == (5, 8)
    assert np.abs(namespace["phased"] - namespace["grounds"]).max() < 1e-15
    assert namespace["fids"].shape == namespace["ratios"].shape == (5,)
    assert (namespace["fids"] > 0.999).all() and (abs(namespace["ratios"] - 8.0) < 0.1).all()


def test_cli_examples_write_documented_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    inputs = {"rho_a.json": "W001", "rho_b.json": "G"}
    for name, label in inputs.items():
        qmat.save_density(name, states.density(states.make_state(label)))
    examples = cli_examples()
    assert len(examples) >= 6 and all(argv[0] == "tricoh" for argv in examples)
    for argv in examples:
        assert cli.main(argv[1:]) == 0, argv

    written = {
        p.name: p for p in tmp_path.rglob("*")
        if p.is_file() and p.parent.name != "configs" and p.name not in inputs
    }
    documented = set()
    for pattern, spans in documented_outputs().items():
        name_re = re.compile(re.escape(pattern).replace(re.escape("<model>"), "(zz|zzz)") + "$")
        hits = [p for name, p in written.items() if name_re.match(name)]
        assert hits, f"no README example writes {pattern}"
        headers = {s for s in spans if "," in s}
        seen = set()
        for path in hits:
            documented.add(path.name)
            if path.suffix == ".csv":
                header = path.read_text().splitlines()[0]
                assert header in headers, (path.name, header)
                seen.add(header)
            else:
                data = json.loads(path.read_text())
                assert isinstance(data, list) and data
                for record in data:
                    assert set(spans) <= nested_keys(record), (path.name, record)
        assert seen == headers, pattern
    assert documented == set(written)


def test_readme_names_resolve_to_documented_objects():
    # a pointer to a renamed or deleted name fails here, and so does a named function or class without a docstring
    names = documented_names()
    assert {("qmat", "_eigh"), ("adiabatic", "_search_probe"), ("coherence", "coherence_reports")} <= set(names)
    for module, name in names:
        obj = getattr(importlib.import_module(f"tricoh.{module}"), name, None)
        assert obj is not None, f"README names {module}.{name}, which does not exist"
        if callable(obj):
            assert obj.__doc__ and obj.__doc__.strip(), f"README names {module}.{name}, which has no docstring"


def test_readme_lists_the_public_names_that_nothing_outside_the_tests_reads():
    readers = public_name_readers()
    listed = re.search(r"no caller outside the test suite, .*?: (.*?)\. Of the others, only `dist` reads "
                       r"`coherence\.qjsd` and only `pi_product` reads `states\.marginals`\.", " ".join(README.split()))
    assert listed, "README's list of unread public names moved"
    assert sorted(span.split(".")[1] for span in re.findall(r"`([^`]+)`", listed[1])) == sorted(
        name for name, where in readers.items() if not where)
    assert (readers["qjsd"], readers["marginals"]) == ({"coherence.dist"}, {"states.pi_product"})
