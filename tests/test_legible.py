"""Legible by test: ``src/`` defines only what something calls, and the
docs name only what exists.

Two guards in the style of the ``mpi.d.*`` reader test
(``tests/core/test_modes_mpidrun.py``):

* every module-level function and class in ``src/``, and every public
  method, is named by code outside ``tests/`` — in ``src/``, ``bench/``,
  ``benchmarks/``, ``examples/`` or a ``pyproject.toml`` entry point —
  or is on :data:`NO_CALLER`, which says why it stays;
* every inline code name in ``docs/*.md`` and ``README.md`` is a name the
  code has, an ``mpi.d.*`` key, a ``BENCHMARK.json`` workload or metric,
  a file of the repo, or one of :data:`PROSE`.

Both scans are word-level: a reference is an identifier (a name, an
attribute, an import) in code, not a word in a comment, docstring or
string.  A package ``__init__``'s imports re-export and call nothing, so
they do not count.  Neither allowlist can rot: an entry that names
nothing, or that no longer needs to be there, fails its test.
"""

import ast
import builtins
import functools
import json
import keyword
import pathlib
import re

from repro.core.constants import MPI_D_Constants as K

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: where a caller may live
CALLER_ROOTS = ("src", "bench", "benchmarks", "examples")

_MPI = (
    "the MPI substitution (DESIGN.md §2): repro.mpi is a whole MPI, "
    "not the part DataMPI calls"
)
_CHAOS = (
    "a fault-schedule verb (docs/FAULT_TOLERANCE.md): whoever injects the "
    "fault writes the schedule, today only the chaos tests"
)

#: definitions nothing outside ``tests/`` names, each with why it stays
NO_CALLER = {
    "repro.mpi.comm.Receiving.irecv": _MPI,
    "repro.mpi.comm.Receiving.iprobe": _MPI,
    "repro.mpi.comm.Intracomm.Get_rank": _MPI,
    "repro.mpi.comm.Intracomm.Get_size": _MPI,
    "repro.mpi.comm.Intracomm.ssend": _MPI,
    "repro.mpi.comm.Intracomm.sendrecv": _MPI,
    "repro.mpi.comm.Intracomm.scatter": _MPI,
    "repro.mpi.comm.Intracomm.scan": _MPI,
    "repro.mpi.comm.Intracomm.exscan": _MPI,
    "repro.mpi.comm.Intracomm.reduce_scatter": _MPI,
    "repro.mpi.comm.Intracomm.dup": _MPI,
    "repro.mpi.comm.Intracomm.free": _MPI,
    "repro.mpi.datatypes.Status.Get_source": _MPI,
    "repro.mpi.datatypes.Status.Get_tag": _MPI,
    "repro.mpi.datatypes.Status.Get_count": _MPI,
    "repro.mpi.intercomm.Intercomm.Get_rank": _MPI,
    "repro.mpi.intercomm.Intercomm.Get_size": _MPI,
    "repro.mpi.intercomm.Intercomm.Get_remote_size": _MPI,
    "repro.mpi.request.waitall": _MPI,
    "repro.mpi.request.testall": _MPI,
    "repro.mpi.request.waitany": _MPI,
    "repro.mpi.transport.FaultInjector.duplicate": _CHAOS,
    "repro.mpi.transport.FaultInjector.truncate": _CHAOS,
    "repro.mpi.transport.FaultInjector.sever": _CHAOS,
    "repro.mpi.transport.FaultInjector.restore": _CHAOS,
    "repro.mpi.runtime.BaseRuntime.transport": (
        "read by tests only: they reach a runtime's endpoints through it, "
        "while the runtime itself holds its _transport"
    ),
}

#: the paper's spellings of Table I/II, each with the name that implements it
PAPER_NAMES = {
    "MPI_D_INIT": "MPI_D.Init",
    "MPI_D_FINALIZE": "MPI_D.Finalize",
    "MPI_D_COMM_RANK": "MPI_D.Comm_rank",
    "MPI_D_COMM_SIZE": "MPI_D.Comm_size",
    "MPI_D_SEND": "MPI_D.Send",
    "MPI_D_RECV": "MPI_D.Recv",
    "MPI_D_COMPARE": "DataMPIJob.comparator",
    "MPI_D_PARTITION": "DataMPIJob.partitioner",
    "MPI_D_COMBINE": "DataMPIJob.combiner",
}

#: code-shaped words the docs use that are not this repo's names
PROSE = {
    "copyFromLocal": "Hadoop's HDFS shell command that DFSClient.put mirrors",
    "ipc.Server": "Hadoop's RPC server class, the model of SocketRpcServer",
    "hypothesis": "a test dependency (pyproject.toml)",
    "scipy": "a dependency (pyproject.toml)",
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def definitions(src: pathlib.Path) -> set[str]:
    """Qualified names of every module-level function and class under
    ``src`` and of every public method of those classes."""
    out = set()
    for path in sorted(src.rglob("*.py")):
        module = _module(path, src)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, _DEFS):
                out.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out |= {
                    f"{module}.{node.name}.{sub.name}"
                    for sub in node.body
                    if isinstance(sub, _DEFS[:2])
                    and not sub.name.startswith("_")
                }
    return out


def _code_files(roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                yield path


def referenced(roots) -> set[str]:
    """Every identifier the code under ``roots`` (but not in a ``tests``
    directory) names: a name, an attribute, an import — a package
    ``__init__``'s imports excepted, which only re-export."""
    names = set()
    for path in _code_files(roots):
        reexports = path.name == "__init__.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
                for alias in node.names:
                    names.update(alias.name.split("."))
    return names


def entry_points(pyproject: pathlib.Path) -> set[str]:
    """The functions ``[project.scripts]`` names (``pkg.mod:function``)."""
    return set(re.findall(r'"[\w.]+:(\w+)"', pyproject.read_text()))


def uncalled(src: pathlib.Path, caller_roots, pyproject=None) -> set[str]:
    """Definitions under ``src`` whose name no caller root's code uses."""
    names = referenced(caller_roots)
    if pyproject is not None:
        names |= entry_points(pyproject)
    return {q for q in definitions(src) if q.rsplit(".", 1)[1] not in names}


class TestSrcDefinesOnlyWhatSomethingCalls:
    def test_every_definition_has_a_caller_outside_tests(self):
        """A definition only tests call is behaviour nobody gets."""
        found = uncalled(
            ROOT / "src", [ROOT / top for top in CALLER_ROOTS], ROOT / "pyproject.toml"
        )
        assert sorted(found - set(NO_CALLER)) == []
        # an entry with a caller now, or naming nothing, goes
        assert sorted(set(NO_CALLER) - found) == []
        assert all(NO_CALLER.values())

    def test_a_planted_orphan_is_found_and_a_called_one_is_not(self, tmp_path):
        src = tmp_path / "src" / "pkg"
        src.mkdir(parents=True)
        (src / "__init__.py").write_text(
            "from pkg.mod import orphan, used\n__all__ = ['orphan', 'used']\n"
        )
        (src / "mod.py").write_text(
            "def used():\n    return Box().size()\n\n"
            "def orphan():\n    '''used() and Box.spare() in prose only'''\n\n"
            "class Box:\n"
            "    def size(self):\n        return 1\n\n"
            "    def spare(self):\n        return 'spare'\n\n"
            "    def _private(self):\n        return 0\n\n"
            "def main():\n    pass\n"
        )
        (tmp_path / "bench").mkdir()
        (tmp_path / "bench" / "run.py").write_text("from pkg.mod import used\nused()\n")
        tests = tmp_path / "bench" / "tests"
        tests.mkdir()
        (tests / "test_mod.py").write_text("from pkg.mod import orphan\norphan()\n")
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[project.scripts]\nx = "pkg.mod:main"\n')
        roots = [tmp_path / "src", tmp_path / "bench"]
        found = uncalled(tmp_path / "src", roots, pyproject)
        assert found == {"pkg.mod.orphan", "pkg.mod.Box.spare"}
        assert "pkg.mod.main" in uncalled(tmp_path / "src", roots)


# -- the docs ------------------------------------------------------------------

#: an inline code span that is a name: ``a``, ``a.b.c``, ``f()``, ``f(x, y)``
_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
#: an inline code span that is a file (a ``::test`` or ``:line`` may follow)
_FILE = re.compile(
    r"((?:[\w.-]+/)*[\w.-]+\.(?:py|md|json|toml|yml))(?:::[\w:]+|:\d+(?:[–-]\d+)?)?"
)
_SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
_FENCE = re.compile(r"^```.*?^```", re.S | re.M)


def code_names(roots) -> set[str]:
    """Every name the code under ``roots`` binds or uses, every module and
    package name, and every string constant shaped like a name (a dict
    key, a metric, a thread name)."""
    names = referenced(roots)
    for root in roots:
        for path in _code_files([root]):
            names.update(path.relative_to(root).with_suffix("").parts)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, _DEFS):
                    names.add(node.name)
                elif isinstance(node, ast.arg):
                    names.add(node.arg)
                elif isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, ast.alias) and node.asname:
                    names.add(node.asname)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names.update(node.module.split("."))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                        names.add(node.value)
                        names.update(node.value.split("."))
    return names


def unresolved(docs, resolves, files) -> set[tuple[str, str]]:
    """``(doc, span)`` for each inline code name in ``docs`` that
    ``resolves(name)`` rejects and that names no file in ``files``."""
    out = set()
    for path in docs:
        for span in _SPAN.findall(_FENCE.sub("", path.read_text())):
            span = span.strip()
            if m := _FILE.fullmatch(span):
                if m.group(1) not in files and not resolves(m.group(1)):
                    out.add((path.name, span))
            elif (m := _NAME.fullmatch(span)) and not resolves(m.group(1)):
                out.add((path.name, span))
    return out


def _repo_files() -> set[str]:
    """Every file of the repo, as every tail of its path: ``engine.py``,
    ``core/engine.py``, ``repro/core/engine.py``, ..."""
    out = set()
    for path in ROOT.rglob("*"):
        parts = path.relative_to(ROOT).parts
        if path.is_file() and not {".git", ".bench_work"} & set(parts):
            out |= {"/".join(parts[i:]) for i in range(len(parts))}
    return out


def _docs():
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


@functools.cache
def _names() -> frozenset[str]:
    return frozenset(code_names([ROOT / top for top in ("src", "bench", "benchmarks")]))


class TestDocsNameOnlyWhatExists:
    def _resolver(self):
        names = set(_names())
        names |= set(dir(builtins)) | set(dir(BaseException)) | set(keyword.kwlist)
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        whole = {w["name"] for w in bench["workloads"]}
        whole |= {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
        whole |= {v for k, v in vars(K).items() if k.isupper() and isinstance(v, str)}
        whole |= set(PAPER_NAMES) | set(PROSE)

        def resolves(name):
            return name in whole or all(p in names for p in name.split("."))

        return resolves

    def test_every_inline_code_name_resolves(self):
        assert sorted(unresolved(_docs(), self._resolver(), _repo_files())) == []

    def test_the_allowlists_are_used_and_the_paper_names_implemented(self):
        resolves = self._resolver()
        assert all(resolves(impl) for impl in PAPER_NAMES.values())
        text = "\n".join(p.read_text() for p in _docs())
        for word in (*PAPER_NAMES, *PROSE):
            assert f"`{word}" in text, f"{word} is in no doc: drop it"
        # a prose word that became a name of the code is no longer prose
        names = _names()
        assert [w for w in PROSE if all(p in names for p in w.split("."))] == []
        assert all(PROSE.values())

    def test_a_stale_name_and_a_missing_file_are_found(self, tmp_path):
        doc = tmp_path / "X.md"
        doc.write_text(
            "`Present.method()` `Gone` `gone(x)` `ok/file.py` `no/file.py:12`\n"
            "```\nGoneInFence\n```\n`not a name` `mpi.d.*`\n"
        )
        names = {"Present", "method"}
        found = unresolved(
            [doc], lambda n: all(p in names for p in n.split(".")), {"ok/file.py"}
        )
        assert found == {
            ("X.md", "Gone"), ("X.md", "gone(x)"), ("X.md", "no/file.py:12")
        }
