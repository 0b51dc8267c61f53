"""Each kind of field has one rule, in ``mlrank.settings``, and every
site applies it: a command's settings, the dataset header, the
checkpoint loader and the functions that take a method or a mode.

``TestSameVerdict`` tries ten JSON values on every field whose check
moved into ``settings``: each is accepted or refused as the inline
checks it replaced decided, and each refusal names its key.
``TestNoInlineCopy`` scans the package for a rule written out again."""

import ast
import contextlib
import io
import json
import os
import re

import numpy as np
import pytest

import mlrank
from mlrank.baselines import crpc_loss
from mlrank.buckets import pair_mask
from mlrank.cli import main
from mlrank.dataio import read_dataset_jsonl, write_dataset_jsonl
from mlrank.model import FrontEnd, TrainConfig, head_width, init_model, load_checkpoint, save_checkpoint
from mlrank.synthgen import CanvasConfig

VALUES = [0, -1, 1, 1.0, 1.5, True, None, "1", [1], {}]
SMALL_CANVAS = {"canvas_size": 32, "glyph_size": 8, "setup": "S"}


def put(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


def checkpoint_site(front_end: bool, *keys):
    """Loads a one-class gmlr checkpoint with one hidden unit (a plain MLP
    on one input, or behind the front end on 32x32 gray images) whose
    ``keys`` path holds the value; no path puts the value for the whole
    document."""
    def site(tmp_path, value):
        fe = FrontEnd((32, 32, 1)) if front_end else None
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_model(fe.input_dim if fe else 1, 1, "gmlr", hidden=(1,), seed=0, front_end=fe))
        doc = json.loads(path.read_text())
        if keys:
            put(doc, keys, value)
        else:
            doc = value
        path.write_text(json.dumps(doc))
        load_checkpoint(path)
    return site


def header_site(*keys):
    """Reads a one-row dataset whose header {"k": 1, "d": 1} holds the
    value at ``keys``; no path puts the value for the whole header."""
    def site(tmp_path, value):
        header = {"k": 1, "d": 1, "image_shape": [1, 1, 1]} if keys[:1] == ("image_shape",) else {"k": 1, "d": 1}
        if keys:
            put(header, keys, value)
        else:
            header = value
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(header) + '\n{"features":[0.5],"ranks":[1]}\n')
        read_dataset_jsonl(path)
    return site


def command(*argv):
    """Runs the command; exit 0 accepts, and exit 2 (a data error) is a
    ValueError holding what it printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code in (0, 2), err.getvalue()
    if code:
        raise ValueError(err.getvalue())


def config(tmp_path, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    return path


def raw_site(tmp_path, value):
    ckpt, ds = tmp_path / "ckpt.json", tmp_path / "d.jsonl"
    save_checkpoint(ckpt, init_model(1, 1, "gmlr", hidden=(1,), seed=0))
    write_dataset_jsonl(ds, [[0.5], [1.5]], [[1], [0]])
    command("eval", "--config", config(tmp_path, {"raw": value}), "--checkpoint", ckpt, "--dataset", ds,
            "--out", tmp_path / "out")


def generate_site(kind, key, other=None):
    def site(tmp_path, value):
        cfg = {key: value, **(other or {})}
        command("generate", "--kind", kind, "--n", 1, "--seed", 0, "--config", config(tmp_path, cfg),
                "--out", tmp_path / "out")
    return site


def trained_on_site(*keys):
    """calib-exp on a checkpoint whose ``meta`` holds the value at ``keys``."""
    def site(tmp_path, value):
        for key in reversed(keys):
            value = {key: value}
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, init_model(32 * 32, 10, "gmlr", hidden=(4,), seed=0), meta=value)
        command("calib-exp", "--config", config(tmp_path, {"canvas": SMALL_CANVAS, "n": 2}), "--checkpoint", ckpt,
                "--seed", 1, "--out", tmp_path / "out")
    return site


# field: (site, a pattern of the key its refusal names, the values it
# accepts as JSON texts).  An object field takes {} and then refuses it
# for the first key it lacks.
FIELDS = {
    "checkpoint": (checkpoint_site(False), r"ckpt\.json'|'version'", []),
    "checkpoint version": (checkpoint_site(False, "version"), "'version'", ["1"]),
    "checkpoint num_classes": (checkpoint_site(False, "num_classes"), "'num_classes'", ["1"]),
    "checkpoint head": (checkpoint_site(False, "head"), "'head'", []),
    "checkpoint meta": (checkpoint_site(False, "meta"), "'meta'", ["{}"]),
    "checkpoint hidden": (checkpoint_site(False, "hidden"), "'hidden'", ["[1]"]),
    "checkpoint hidden width": (checkpoint_site(False, "hidden", 0), "'hidden'", ["1"]),
    "checkpoint input_dim": (checkpoint_site(False, "input_dim"), "'input_dim'", ["1"]),
    "checkpoint front_end": (checkpoint_site(True, "front_end"), "'front_end'|'image_shape'", []),
    "checkpoint image_shape": (checkpoint_site(True, "front_end", "image_shape"), "'image_shape'", []),
    "checkpoint image_shape size": (checkpoint_site(True, "front_end", "image_shape", 2), "'image_shape'", ["1"]),
    "header": (header_site(), "'header'|'k'", []),
    "header k": (header_site("k"), "'k'", ["1"]),
    "header d": (header_site("d"), "'d'", ["1"]),
    "header image_shape": (header_site("image_shape"), "'image_shape'", []),
    "header image_shape size": (header_site("image_shape", 2), "'image_shape'", ["1"]),
    "TrainConfig method": (lambda _, v: TrainConfig(method=v), "'method'", []),
    "TrainConfig mode": (lambda _, v: TrainConfig(mode=v), "'mode'", []),
    "CanvasConfig setup": (lambda _, v: CanvasConfig(setup=v), "'canvas.setup'", []),
    "CanvasConfig color_mode": (lambda _, v: CanvasConfig(color_mode=v), "'canvas.color_mode'", []),
    "CanvasConfig glyph_source": (lambda _, v: CanvasConfig(glyph_source=v), "'canvas.glyph_source'", []),
    "head_width method": (lambda _, v: head_width(v, 2), "'method'", []),
    "pair_mask mode": (lambda _, v: pair_mask(np.array([[1, 0]]), v), "'mode'", []),
    "crpc_loss mode": (lambda _, v: crpc_loss(np.zeros((1, 3)), np.array([[1, 0]]), v), "'mode'", []),
    "eval raw": (raw_site, "'raw'", ["true"]),
    "generate dump_images": (generate_site("feature", "dump_images"), "'dump_images'", ["true"]),
    "generate feature": (generate_site("feature", "feature"), "'feature'", ["{}"]),
    "generate canvas": (generate_site("canvas", "canvas"), "'canvas'", ["{}"]),
    "probe meta.trained_on": (trained_on_site("trained_on"), "'meta.trained_on'", ["{}"]),
    "probe meta.trained_on.canvas": (
        trained_on_site("trained_on", "canvas"), "'meta.trained_on.canvas'", ["{}"],
    ),
}


class TestSameVerdict:
    @pytest.mark.parametrize("value", VALUES, ids=json.dumps)
    @pytest.mark.parametrize("field", FIELDS)
    def test_a_value_is_accepted_or_refused_as_before_and_a_refusal_names_its_key(self, tmp_path, field, value):
        site, key, accepted = FIELDS[field]
        if json.dumps(value) in accepted:
            site(tmp_path, value)
        else:
            with pytest.raises(ValueError) as refused:
                site(tmp_path, value)
            assert re.search(key, str(refused.value))


def _scan(tree):
    """(enclosing function, node) for every node of ``tree``."""
    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else name
            yield inner, child
            yield from walk(child, inner)
    return walk(tree, "<module>")


def _type_is_int(node) -> bool:
    """``type(...) is int`` or ``is not``, ``==`` or ``!=``."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call) and getattr(node.left.func, "id", None) == "type"
        and any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops)
        and any(getattr(c, "id", None) == "int" for c in node.comparators)
    )


def _choice_check(node) -> bool:
    """``if x not in choices: raise ...``: an ``if`` whose whole test is a
    membership test and whose body raises."""
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare) and isinstance(node.test.ops[0], ast.NotIn)
        and any(isinstance(stmt, ast.Raise) for stmt in node.body)
    )


class TestNoInlineCopy:
    # The two row checks that stay, both on the dataset reader's hot path:
    # the per-value rank test of the line walk and the block's array checks
    # (which neither pattern matches).
    ALLOWED = {("dataio.py", "_read_row", "type is int")}

    def test_no_rule_is_written_outside_settings(self):
        package = os.path.dirname(mlrank.__file__)
        found = set()
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py") or name == "settings.py":
                continue
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            for where, node in _scan(tree):
                if _type_is_int(node):
                    found.add((name, where, "type is int"))
                if _choice_check(node):
                    found.add((name, where, "not in, then raise"))
        assert found == self.ALLOWED

    def test_the_scan_sees_both_patterns(self):
        tree = ast.parse(
            "def f(v, c):\n"
            "    if type(v) is not int:\n"
            "        raise ValueError\n"
            "    if v not in c:\n"
            "        raise ValueError\n"
        )
        nodes = list(_scan(tree))
        assert [type(n).__name__ for _, n in nodes if _type_is_int(n)] == ["Compare"]
        assert [(w, type(n).__name__) for w, n in nodes if _choice_check(n)] == [("f", "If")]
