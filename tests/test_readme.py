"""The README examples run: every `sirnet ...` line of its sh blocks (with its
config block as model.cfg) exits 0 with output, and every python block runs."""

import pathlib
import re
import shlex

import pytest

from sirnet.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def sirnet_lines():
    lines = []
    for lang, body in BLOCKS:
        if lang == "sh":
            joined = re.sub(r"\\\n\s*", " ", body)
            lines += [ln.strip() for ln in joined.splitlines() if ln.startswith("sirnet ")]
    return lines


def config_text():
    (text,) = [body for lang, body in BLOCKS if lang == "" and "geometry =" in body]
    return text


def test_readme_has_examples():
    assert len(sirnet_lines()) >= 15
    assert any("--config model.cfg" in ln for ln in sirnet_lines())


@pytest.mark.parametrize("line", sirnet_lines())
def test_readme_example_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.cfg").write_text(config_text())
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.strip() and not err


PYTHON = [body for lang, body in BLOCKS if lang == "python"]


@pytest.mark.parametrize("code", PYTHON, ids=[f"block{i}" for i in range(len(PYTHON))])
def test_readme_python_block_runs(code):
    exec(compile(code, "README.md", "exec"), {})


def test_config_section_gives_every_key_with_its_default():
    """The README's key table names each key parse_model accepts once, with its default."""
    from sirnet.model import _DEFAULTS, _KEYS

    section = README.split("## Config files", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    named = [(key, re.fullmatch(r" `(.+)` ", default)) for keys, _, default in rows
             for key in re.findall(r"`([\w.]+)`", keys)]
    assert sorted(key for key, _ in named) == sorted(_KEYS)
    for key, default in named:
        assert (default[1] if default else None) == _DEFAULTS.get(key), key
