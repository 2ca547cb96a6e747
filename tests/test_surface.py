"""The library keeps no code that only tests call, or that nothing calls.

A top-level function or class of ``src/uttertune``, public or private, or a
public method of a public class, must be referenced somewhere in ``src/``
outside its own definition; only public entry points may be allowlisted.
A reference is a name (``generate``) or an attribute
(``model.fingerprint``) spelled like the definition; methods count
attributes only. Matching is by spelling, so a reference proves nothing
about the target, but a definition with none is certainly unused.
"""

import ast
import collections
import importlib.util
from pathlib import Path

import uttertune
from uttertune.eval import EvalReport, SampleResult

SRC = Path(uttertune.__file__).resolve().parent

# Entry points kept without a caller in src/, each with the reason.
ALLOWED = {
    "model.gradient_check": "acceptance check 4 calls it",
    "manifest.load_manifest": "check 9 and the README read manifests with it",
    "manifest.manifest_config_text": "check 9 and the README replay with it",
    "eval.load_report": "check 5 and perfbench read reports with it",
    "eval.load_leakage": "check 6 and perfbench read leakage.tsv with it",
    "eval.cer": "check 7 and perfbench distance call it",
    "model.ToyLM.forward": "the oracle of check 1 and of the decode tests",
    "model.ToyLM.loss": "perfbench measures the loss through it",
    "kernels.active_backend": "perfbench and check 7's verdict print it",
    "kernels.enumerate_strings": "check 7's route, also perfbench distance",
    "kernels.edit_move_graph": "check 7's route, also perfbench distance",
    "kernels.edit_distance_matrix": "check 7's route, also perfbench distance",
    "kernels.bfs_distance_matrix": "check 7's route, also perfbench distance",
}


def _spellings(node):
    names, attrs = collections.Counter(), collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def _definitions(module: str, tree):
    """(qualified name, node, is_top_level) per top-level function or class
    and per public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node, True
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        yield f"{module}.{node.name}.{member.name}", member, False


def _unreferenced() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    names, attrs = collections.Counter(), collections.Counter()
    for tree in trees.values():
        n, a = _spellings(tree)
        names += n
        attrs += a
    found = set()
    for module, tree in trees.items():
        for qualified, node, top_level in _definitions(module, tree):
            spelling = qualified.rsplit(".", 1)[1]
            own_names, own_attrs = _spellings(node)
            count = attrs[spelling] - own_attrs[spelling]
            if top_level:
                count += names[spelling] - own_names[spelling]
            if count == 0:
                found.add(qualified)
    return found


def _private(qualified: str) -> bool:
    return qualified.rsplit(".", 1)[1].startswith("_")


def test_public_code_has_a_caller_in_src():
    public = {q for q in _unreferenced() if not _private(q)}
    assert public - set(ALLOWED) == set()


def test_private_module_code_has_a_caller_in_src():
    assert {q for q in _unreferenced() if _private(q)} == set()


def test_allowlist_names_existing_definitions():
    defined = {
        qualified
        for path in SRC.glob("*.py")
        for qualified, _node, _top in _definitions(
            path.stem, ast.parse(path.read_text(encoding="utf-8")))
    }
    assert set(ALLOWED) <= defined


# -- the names perfbench wraps ---------------------------------------------

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


class _RecordingTracer:
    """Records what a workload asks to wrap and wraps nothing, so there is
    nothing to restore."""

    def __init__(self):
        self.patched = []

    def patch(self, owner, attr, name, observe=None):
        self.patched.append((owner, attr))


def test_perfbench_finds_every_name_it_wraps(tmp_path):
    """A traced benchmark run counts each name it cannot find to wrap as a
    failed operation; a rename in src/ must fail here first."""
    workloads = _workloads()
    for name, workload in workloads.WORKLOADS.items():
        tracer = _RecordingTracer()
        assert workload(0, tmp_path, {}).patch(tracer) == [], name
        assert all(attr in vars(owner) for owner, attr in tracer.patched)


def test_perfbench_reads_the_report_counts(tmp_path):
    """perfbench eval counts judged and kept items from each EvalReport; a
    renamed aggregate must fail here, not as a failed benchmark operation."""
    workloads = _workloads()
    report = EvalReport("tagged", (SampleResult(0, 0.0, True, "ア", "H"),
                                   SampleResult(1, 0.75, False, "", ""),
                                   SampleResult(2, 0.25, True, "キ", "L")))
    workload = workloads.EvalWorkload(0, tmp_path, {})
    workload._observe_report((), {}, report)
    assert workload.counts["items_judged"] == 3
    assert workload.counts["items_kept"] == 2
