"""The config reader: cli._read_ini against the configparser reference.

load_config reads its INI file in one pass of its own.  The reference,
tests/config_oracle.py, is the loader it replaced, on configparser.
Every file the reference turns into a RunConfig must give the same
RunConfig, and the reader refuses only what the reference refuses, plus
a [DEFAULT] section and text after a header's ']'.
"""

import configparser
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cavework import cli  # noqa: E402
from cavework.cli import load_config  # noqa: E402
from cavework.errors import ConfigError  # noqa: E402
from config_oracle import load_config_reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def _workloads():
    """perfbench/workloads.py, whose templates the benchmark writes."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _round_trip(path: Path) -> str:
    """path read and written back by configparser, as the benchmark's
    seed-drawn copies are."""
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    cp.read(path, encoding="utf-8")
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _texts() -> dict[str, str]:
    texts = {}
    for path in sorted(CONFIGS.glob("*.cfg")):
        texts[path.name] = path.read_text()
        texts[f"{path.name} written"] = _round_trip(path)
    workloads = _workloads()
    texts["coupled"] = workloads.COUPLED
    for size in (0.8, 1.0, 1.25):
        for name in ("CYLINDER", "SPHERE"):
            template = getattr(workloads, name)
            texts[f"{name} {size}"] = template.format(size=size, cutoff=40.0 / size)
    return texts


TEXTS = _texts()


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_every_reference_and_benchmark_config_loads_as_before(tmp_path, name):
    path = tmp_path / "run.cfg"
    path.write_text(TEXTS[name])
    assert load_config(str(path)) == load_config_reference(str(path))


@pytest.mark.parametrize(
    "text,why",
    [
        ("[geometry]\nkind = spherical\n[geometry]\n",
         "line 3: repeated section [geometry]"),
        ("[thermal]\nbeta = 1\n\nBETA: 2\n",
         "line 4: repeated key 'beta' in [thermal]"),
        ("[thermal]\n = 1\n", "line 2: empty key"),
        ("[thermal]\nbeta # 1\n", "line 2: no '=' or ':' in 'beta'"),
        ("\n# a comment\nbeta = 1\n[thermal]\n",
         "line 3: text before the first section"),
        ("[thermal]  ; c\n[geometry]x\n",
         "line 2: not a section header: '[geometry]x'"),
        ("[thermal]\r\n[]\r\n", "line 2: not a section header: '[]'"),
    ],
)
def test_malformed_ini_names_its_line(tmp_path, text, why):
    path = tmp_path / "run.cfg"
    path.write_bytes(text.encode())
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert str(exc.value) == f"cannot parse {path}: {why}"
    with pytest.raises(ConfigError):
        load_config_reference(str(path))


def test_the_two_narrowings_are_refused(tmp_path):
    # configparser takes both; the reader refuses them with exit 2
    base = (CONFIGS / "double_res.cfg").read_text()
    path = tmp_path / "run.cfg"
    for text, why in (
        ("[DEFAULT]\n" + base, "unknown section [DEFAULT]"),
        (base.replace("[thermal]", "[thermal] junk"), "not a section header"),
    ):
        path.write_text(text)
        assert load_config_reference(str(path)) == load_config(
            str(CONFIGS / "double_res.cfg")
        )
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert why in str(exc.value)


def test_lines_split_only_at_newlines(tmp_path):
    # str.splitlines would also split at \x0c, \x1c-\x1e, \x85, \u2028
    # and \u2029; a text file's lines end at \n, \r\n and \r alone
    path = tmp_path / "run.cfg"
    prefix = "a\x0cb\x1cc\x85d\u2028e\u2029f"
    path.write_bytes(
        "[geometry]\rkind = spherical\r\n[thermal]\nbeta = 1\n[output]\n"
        f"prefix = {prefix}\n".encode()
    )
    cfg = load_config(str(path))
    assert cfg.prefix == prefix
    assert cfg == load_config_reference(str(path))


def test_importing_the_cli_loads_no_configparser():
    code = "import cavework.cli, sys; print('configparser' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout == "False\n"
    for module in (ROOT / "src" / "cavework").glob("*.py"):
        assert "configparser" not in module.read_text(), module.name


# line atoms: every section's keys in the spellings the format allows
# (key: value, upper case, x = a = b, a ';' with no space before it,
# inline comments, indented keys and values continued on indented
# lines), and lines of any kind: comments, blank, indented, junk,
# [DEFAULT] and a header with text after its ']'
KEY_LINES = {
    "geometry": {
        "kind": [
            "kind = spherical", "KIND: Spherical", "kind = rectangular",
            " kind = spherical",
        ],
        "lx": ["lx = 0.9", "LX: 1.1 # c", "lx = 0.9\n  1"],
        "ly": ["ly: 1.0", "Ly = 1.0 ; c", "ly = 1.0;c"],
        "polarization": [
            "polarization = tm", "Polarization: TE", "  polarization = TM",
        ],
        "cutoff": ["cutoff = 5", "cutoff = 5;x", "cutoff = 4  # c", "  cutoff = 6"],
        "moving_wall": ["moving_wall = radial"],
    },
    "protocol": {
        "lambda0": ["lambda0 = 1.25", "lambda0 = 1 = 2"],
        "epsilon": ["epsilon: 0.02"],
        "omega_drive": ["omega_drive = 2*w(lowest)", "omega_drive = w(lowest) # c"],
        "tau": ["tau = 1", "TAU = 0.5 ;c"],
        "hbar": ["HBAR = 2", "hbar:"],
    },
    "thermal": {
        "beta": ["beta = 0.5", "BETA: 0.25 # c", "beta = 0.5;x", "beta = 1 2"],
    },
    "numerics": {"n_max": ["n_max = 7", "n_max: 3 ; c", "N_MAX = 2.5"]},
    "sweep": {
        "variable": ["variable = HBAR", "variable: beta"],
        "values": ["values = 0.5 1.0", "values =", "values = 0.5\n\n  # c\n\t1.0"],
    },
    "output": {
        "prefix": [
            "prefix = a = b", "prefix = a#b #c ;d", "prefix = p\x85q\u2028r",
            "prefix = a\n\n   b\n",
        ],
        "directory": [
            "directory: out # c", "directory = a\x0cb\x1cc", "directory =\n d",
        ],
    },
}
# lines that leave the sections as they are
ANY_LINES = ["", "   ", "# comment", "  ; comment", "\x0c"]
# lines that the reader may refuse, or that extend the value before them
JUNK_LINES = [
    "junk", "= x", "x = a = b", "  0.75", "  [thermal]", "[Geometry]", "[DEFAULT]",
    "[geometry] junk",
]
OTHER_HEADERS = ["[protocol]", "[numerics]", "[sweep]", "[output]"]
NARROWINGS = ("[DEFAULT]", "[geometry] junk")


@st.composite
def ini_texts(draw) -> str:
    """An INI text drawn line by line: [geometry], [thermal] and up to
    four more sections in any order, each with some of its keys and up
    to two more lines, and at most one junk line anywhere.  Every
    section but [protocol] holds its first key, so kind and beta are
    always there."""
    lines = []
    extra = draw(st.lists(st.sampled_from(OTHER_HEADERS), unique=True, max_size=4))
    thermal = draw(st.sampled_from(["[thermal]", "[thermal]  # c"]))
    for header in draw(st.permutations(["[geometry]", thermal, *extra])):
        spellings = KEY_LINES.get(header[1:].split("]")[0], {})
        keys = draw(st.lists(st.sampled_from(sorted(spellings)), unique=True))
        if header != "[protocol]":
            keys = [next(iter(spellings)), *keys]
        body = [draw(st.sampled_from(spellings[key])) for key in dict.fromkeys(keys)]
        body += draw(st.lists(st.sampled_from(ANY_LINES), max_size=2))
        lines += [header, *draw(st.permutations(body))]
    at = draw(st.integers(0, len(lines)))
    lines[at:at] = draw(st.lists(st.sampled_from(JUNK_LINES), max_size=1))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _load(loader, path):
    try:
        return loader(path)
    except ConfigError as exc:
        return exc


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(ini_texts())
# the comment starts at ';', the first prefix to qualify in its round
@example("[geometry]\nkind = spherical\n[thermal]\nbeta = 1\n[output]\nprefix = a#b #c ;d")
# an indented header continues a value, and so does a blank line
@example("[geometry]\nkind = spherical\n  [thermal]\n[thermal]\nbeta = 1\n\n  2 # c\n")
# a key line as deep as the one before it starts a key of its own
@example("[geometry]\n  kind = spherical\n  cutoff = 6\n[thermal]\n\tbeta: 1\n")
def test_the_reader_returns_the_reference_config(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        new = _load(load_config, path)
        ref = _load(load_config_reference, path)
    if isinstance(new, cli.RunConfig):
        assert new == ref
    elif isinstance(ref, cli.RunConfig):
        assert any(atom in text for atom in NARROWINGS), new
    elif str(ref).startswith("cannot parse"):
        assert str(new).startswith("cannot parse")
    elif not str(new).startswith("cannot parse") and "[DEFAULT]" not in text:
        # both read the same sections: the same check refused them
        assert str(new) == str(ref)
