import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exalg
from exalg import constructions as cons
from exalg import gmod, homalg, homology, modfile, verify
from exalg import linalg as la
from exalg.cli import cli_main
from test_constructions import change_basis

P = la.DEFAULT_PRIME


def run_cli(argv, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli_main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_subprocess(argv, timeout=None, env=None):
    """`python -m exalg.cli argv`, or `python -c code` when argv is ["-c",
    code], in a fresh interpreter that imports the same exalg as this test
    run, also when only pytest's pythonpath finds it."""
    src = str(Path(exalg.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    head = [] if argv[0] == "-c" else ["-m", "exalg.cli"]
    return subprocess.run(
        [sys.executable, *head, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def write_module(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(modfile.serialize(m), encoding="utf-8")
    return str(path)


@pytest.fixture
def point_file(tmp_path):
    m = cons.point_module(3, np.array([1, 0, 0]), P)
    return write_module(tmp_path, "point.json", m)


def test_roundtrip_bit_exact():
    fixtures = [
        cons.point_module(3, np.array([1, 2, 3]), P),
        gmod.free_module(2, P, [0, 1]),
        cons.filtration_projective(2, 3, P),
        gmod.zero_module(2, P),
        gmod.shift(cons.point_module(2, np.array([0, 1]), P), -2),
    ]
    for m in fixtures:
        text = modfile.serialize(m)
        again = modfile.parse(text)
        assert again == m
        assert modfile.serialize(again) == text


def test_parse_rejects_malformed():
    with pytest.raises(modfile.ModuleFileError, match="version"):
        modfile.parse(json.dumps({"version": "2"}))
    for p in (9, 94906297):  # composite; the first prime above MAX_PRIME
        with pytest.raises(modfile.ModuleFileError, match="prime"):
            modfile.parse(
                json.dumps({"version": "1", "p": p, "n_plus_1": 2, "dims": {}, "actions": [{}, {}]})
            )
    good = modfile.to_dict(cons.point_module(2, np.array([1, 0]), P))
    bad = json.loads(json.dumps(good))
    bad["actions"][0]["0"] = [1, 2, 3]
    with pytest.raises(modfile.ModuleFileError, match="expected"):
        modfile.parse_dict(bad)
    # wrong JSON types and oversized dimensions: an error, never a
    # traceback or a silent truncation
    mutations = [
        lambda d: d["actions"].__setitem__(0, [[1]]),  # block as a list
        lambda d: d["actions"][0].__setitem__("0", 5),  # entry not a list
        lambda d: d["actions"][0].__setitem__("0", [1.7]),
        lambda d: d["actions"][0].__setitem__("0", [True]),
        lambda d: d["actions"][0].__setitem__("zero", [1]),
        lambda d: d["dims"].__setitem__("01", 1),  # a second name for degree 1
        lambda d: d["dims"].__setitem__("None", 1),
        lambda d: d["dims"].__setitem__("0", 1.5),
        lambda d: d["dims"].__setitem__("0", True),
        lambda d: d["dims"].__setitem__("0", "1"),
        lambda d: d["dims"].__setitem__("7", 10**12),
        lambda d: d["dims"].__setitem__("7", modfile.MAX_DEGREE_DIM + 1),
        lambda d: d.__setitem__("dims", [1, 1]),
        lambda d: d.__setitem__("p", "32003"),
        lambda d: d.__setitem__("n_plus_1", 2.0),
    ]
    for mutate in mutations:
        bad = json.loads(json.dumps(good))
        mutate(bad)
        with pytest.raises(modfile.ModuleFileError):
            modfile.parse_dict(bad)
    with pytest.raises(modfile.ModuleFileError, match="JSON"):
        modfile.parse('{"p": 1' + "0" * 5000 + "}")  # beyond int conversion


FUZZ_BASES = [
    modfile.to_dict(cons.point_module(3, np.array([1, 2, 3]), P)),
    modfile.to_dict(gmod.free_module(2, P, [0, 1])),
    modfile.to_dict(gmod.zero_module(2, P)),
]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _json_slots(node):
    """Every (container, key) pair of a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _json_slots(child)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_fuzz_yields_module_or_module_file_error(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_BASES))))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_json_slots(doc))
        parent, key = data.draw(st.sampled_from(slots))
        how = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if how == "replace":
            parent[key] = data.draw(JSON_VALUES)
        elif how == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[data.draw(st.text(max_size=3))] = data.draw(JSON_VALUES)
        else:
            parent.insert(key, data.draw(JSON_VALUES))
    text = json.dumps(doc)
    if data.draw(st.booleans()):
        lo = data.draw(st.integers(0, len(text)))
        hi = data.draw(st.integers(lo, min(len(text), lo + 4)))
        text = text[:lo] + data.draw(st.text(max_size=3)) + text[hi:]
    try:
        m = modfile.parse(text)
    except modfile.ModuleFileError:
        return
    assert isinstance(m, gmod.GradedModule)


def test_parse_names_first_violated_invariant():
    # identity action for two different variables breaks anticommutation
    data = {
        "version": "1",
        "p": P,
        "n_plus_1": 2,
        "min_deg": 0,
        "max_deg": 2,
        "dims": {"0": 1, "1": 1, "2": 1},
        "actions": [{"0": [1], "1": [1]}, {"0": [1], "1": [1]}],
    }
    with pytest.raises(modfile.ModuleFileError, match="square-zero|anticommutation"):
        modfile.parse_dict(data)


def test_cli_validate_ok(point_file, capsys, monkeypatch):
    code, out, _ = run_cli(["validate", point_file], capsys=capsys)
    assert code == 0
    assert out.startswith("valid")


def test_cli_validate_rejects_bad_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.json"
    path.write_text("{}", encoding="utf-8")
    code, out, _ = run_cli(["validate", str(path)], capsys=capsys)
    assert code == 1
    assert out.startswith("invalid")


def test_cli_missing_file_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(["betti", "/nonexistent/file.json"], capsys=capsys)
    assert code == 2
    assert "error" in err


def test_cli_construct_pipes_into_betti(capsys, monkeypatch):
    code, out, _ = run_cli(["construct", "mxi", "--n", "2"], capsys=capsys)
    assert code == 0
    code, table, _ = run_cli(
        ["betti", "-", "--depth", "6"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    assert "total:     1     1     1     1     1     1     1" in table


def test_cli_pipe_equals_in_process(capsys, monkeypatch):
    code, out, _ = run_cli(["construct", "mxi", "--n", "2", "--xi", "1,2,3"], capsys=capsys)
    assert code == 0
    piped = modfile.parse(out)
    direct = cons.point_module(3, np.array([1, 2, 3]), P)
    assert piped == direct
    code, out2, _ = run_cli(
        ["syzygy", "-", "-k", "1"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    from exalg import homology

    assert modfile.parse(out2) == homology.syzygy(direct, 1)


def test_cli_ext_self_extension_count(point_file, capsys, monkeypatch):
    code, out, _ = run_cli(["ext", point_file, point_file, "-k", "1"], capsys=capsys)
    assert code == 0
    assert out.strip() == "2"


def test_cli_stablehom_and_hom(point_file, capsys, monkeypatch):
    code, out, _ = run_cli(["hom", point_file, point_file], capsys=capsys)
    assert code == 0
    assert "dim=1" in out and "stable=1" in out
    code, out, _ = run_cli(["stablehom", point_file, point_file], capsys=capsys)
    assert code == 0
    assert out.strip() == "1"


def test_cli_end_of_filtration_projective(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(["construct", "pd", "--n", "2", "--d", "2"], capsys=capsys)
    assert code == 0
    path = tmp_path / "p2.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(["end", str(path)], capsys=capsys)
    assert code == 0
    assert "dim=3" in out and "commutative=True" in out and "local=True" in out


def test_cli_construct_mu_and_complexity(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(
        ["construct", "mu", "--n", "2", "--forms", "1,0,0;0,1,0"], capsys=capsys
    )
    assert code == 0
    path = tmp_path / "mu.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(
        ["complexity", str(path), "--depth", "10", "--json"], capsys=capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["cx_regseq"] == 2
    assert data["cx_betti"] == 2
    assert data["p"] == P


def test_cli_tensor_and_shift(tmp_path, point_file, capsys, monkeypatch):
    code, out, _ = run_cli(["shift", point_file, "-i", "1"], capsys=capsys)
    assert code == 0
    shifted = modfile.parse(out)
    assert shifted.min_deg == -1
    code, out, _ = run_cli(["tensor", point_file, point_file], capsys=capsys)
    assert code == 0
    assert modfile.parse(out).total_dim == 16


def test_cli_filter_reports_point_layers(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(["construct", "xxi", "--n", "2"], capsys=capsys)
    assert code == 0
    path = tmp_path / "xxi.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(["filter", str(path), "--json"], capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["factors"] == [
        {"form": [1, 0, 0], "shift": 1},
        {"form": [1, 0, 0], "shift": 0},
    ]


def test_cli_filter_does_not_depend_on_the_basis(tmp_path, capsys):
    plain = cons.filtration_projective(2, 2, P)
    outs = []
    for name, m in (("plain.json", plain), ("changed.json", change_basis(plain, 0))):
        code, out, _ = run_cli(["filter", write_module(tmp_path, name, m), "--json"], capsys=capsys)
        outs.append((code, out))
    assert outs[0] == (0, '{"factors":[{"form":[1,0,0],"shift":0},{"form":[1,0,0],"shift":0},'
                          '{"form":[1,0,0],"shift":0}],"p":32003}\n')
    assert outs[1] == outs[0]


def test_cli_filter_rejects_simple(tmp_path, capsys, monkeypatch):
    s = gmod.simple_module(3, P, 0)
    path = write_module(tmp_path, "s.json", s)
    code, out, _ = run_cli(["filter", path], capsys=capsys)
    assert code == 1
    assert out.startswith("NOT_CX1")


def test_cli_filter_takes_no_depth(tmp_path, capsys):
    path = write_module(tmp_path, "m.json", cons.ar_sequence_middle(2, P).middle)
    with pytest.raises(SystemExit) as exc:
        run_cli(["filter", path, "--depth", "8"], capsys=capsys)
    assert exc.value.code == 2


# sha256 of `exalg complexity --json`, recorded before the complexity routes
# were split into regular_sequence and betti_complexity
COMPLEXITY_SHA256 = {
    ("mu", "--n", "2", "--forms", "1,0,0;0,1,0"): (
        ["--depth", "10"],
        "645a48e187b63093e75822f3e343f9c75fba3c97dcbea42bccad1a6659e0cf3a",
    ),
    ("xxi", "--n", "3"): (
        [],
        "2882f77e087e417d547e442c256815b0d168fecc59610f8721cd3afcf3c354f4",
    ),
}


@pytest.mark.parametrize("construct", sorted(COMPLEXITY_SHA256))
def test_cli_complexity_json_pinned(construct, tmp_path, capsys):
    opts, digest = COMPLEXITY_SHA256[construct]
    code, out, _ = run_cli(["construct", *construct], capsys=capsys)
    assert code == 0
    path = tmp_path / "m.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(["complexity", str(path), *opts, "--json"], capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `exalg construct` stdout, recorded before realize_ext built E -> X
# through gmod.induced_on_quotient
CONSTRUCT_SHA256 = {
    ("mxi", "--n", "2"): "99b7c65ae18865b5b7a0748188d3f16a51e6c1871a701c2ea055e38fa832d3f7",
    ("mu", "--n", "2", "--forms", "1,0,0;0,1,0"): (
        "c719af95f113f2c7dd36d02201f8e61dff9531bd588b008f77c2d29f0af6995b"
    ),
    ("mu", "--n", "2", "--forms", "1,0,0;0,1,0;0,0,1"): (
        "68cec7c57504b3064e8bb77d8430d993effae08eab71722facf3563d29ff0f98"
    ),
    ("mu", "--n", "3", "--forms", "1,0,0,0;0,1,0,0;0,0,1,0"): (
        "3bfd54baa8eca88c798f546202d140f3e2f3ac411a68a22c91d1631999fc1b5a"
    ),
    ("pd", "--n", "2", "--d", "3"): "97dc1b288f8466fb9f7cb4fcf4335b0d0dadd9fae29d283b00b3df7592d8d684",
    ("pd", "--n", "3", "--d", "2"): "8c71cc7037735fcf991ac03bae8e8498753841c4001e9872cd7ebed8bfcad2b2",
    ("pd-explicit", "--n", "2", "--d", "3"): (
        "3aadaae70d72bad120f75d97b4cd8851a61dd9856edaf85be4b6f74084c8313f"
    ),
    ("xxi", "--n", "2"): "fdff2b02d577a93732a292a292a0ee3ad7eee29289f49bf39df9cb35d33f0554",
    ("xxi", "--n", "3"): "f4e4ea0e173b1405b0214595b1049d2bdae1ba3fea54d790ac7180d8e840520f",
    ("kron", "--i", "2"): "e5dfaaaa92a0d2e3759c4a27bc1cc07d52d163264d8269b7f9285b18d29f0648",
    ("kron", "--i", "-2", "--j", "1"): "0866d0093b7ede6130e85257ddf9c88ae3ee4a635530644008fad55aaf88ae26",
    # recorded before the closed-form filtration projective was read off
    # E's multiplication table and the basis completion became one
    # elimination; these forms need a nontrivial completion
    ("pd-explicit", "--n", "1", "--d", "4"): (
        "73629f6f582c298b7cf77f57562810e9eeb02c2d308080bbb88f00aa4c36a51e"
    ),
    ("pd-explicit", "--n", "3", "--d", "3"): (
        "95b7c969377727d3e23a0ed780631dce33bc3e418171217c67ae94c90d6f78f0"
    ),
    ("pd-explicit", "--n", "4", "--d", "2"): (
        "d5febde114d85fe26e51be8808d6a735346080ffa2814c58225b063fdc0067c1"
    ),
    ("mu", "--n", "3", "--forms", "0,1,2,0;0,0,1,3"): (
        "59c6e2dab2a9d716692d6a8259400bb9d5a7985b6b58a7e8a2188b6451e673a1"
    ),
    ("mu", "--n", "2", "--forms", "0,1,1"): "7599a5ee09bf39e3bec2485feb1f32586a74455fe45de5177c06f33f311d9c71",
    ("mxi", "--n", "3", "--xi", "0,0,2,1"): "ca3702d947caa9ecbd485522bf02ffab0b99a860dc7f8138f14f5cb2320cb8ec",
    ("xxi", "--n", "3", "--xi", "0,1,0,5"): "f24b0ded6501ad85ca39f1da651be8b7b01f092d7084d243a1a701f2257d1de5",
}


@pytest.mark.parametrize("construct", sorted(CONSTRUCT_SHA256))
def test_cli_construct_pinned(construct, capsys):
    code, out, _ = run_cli(["construct", *construct], capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_SHA256[construct]


# sha256 of `exalg hom --json A B` and `exalg end --json A`, recorded before
# the Hom space became one RREF Subspace (gmod.hom_space)
HOM_MODULES = {
    "p3": (["pd", "--n", "2", "--d", "3"], 0),
    "mxi": (["mxi", "--n", "2"], 0),
    "mxi1": (["mxi", "--n", "2"], 1),
    "xxi": (["xxi", "--n", "2"], 0),
}
HOM_SHA256 = {
    ("hom", "p3", "p3"): "258be4e85a63e3a49f79c5461d35154c2dd1dc05905804677a450e266f8d7b65",
    ("hom", "p3", "mxi1"): "0145ec6ed4b1769c98eff2307ff2fbd728a3e073f0c84666a6c820ee055dd61c",
    ("hom", "mxi", "xxi"): "03ef8b62a8eadf3bf3c8d0fa58ef15383d289120806fd1d143fc6776662077ec",
    ("end", "p3"): "dc1cc01ca0777f7ac4446a83d28800f706bdf51f6c759ef19039fff5c9e7e8a5",
    ("end", "mxi"): "c08ef71be81798537df935c042ab7671677af6744d1ad094852ccb1962385de6",
    ("end", "mxi1"): "c08ef71be81798537df935c042ab7671677af6744d1ad094852ccb1962385de6",
    ("end", "xxi"): "108ea60c2a247496debb3dba8889204ad4b6683491645942dfa8d4c2c625eca0",
}


@pytest.mark.parametrize("argv", sorted(HOM_SHA256))
def test_cli_hom_and_end_json_pinned(argv, tmp_path, capsys):
    command, *names = argv
    paths = []
    for name in names:
        construct, i = HOM_MODULES[name]
        m = gmod.shift(modfile.parse(run_cli(["construct", *construct], capsys=capsys)[1]), i)
        paths.append(write_module(tmp_path, f"{name}.json", m))
    code, out, _ = run_cli([command, "--json", *paths], capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HOM_SHA256[argv]


# exit code and sha256 of the stdout of `exalg construct ... | command`,
# where " | " inside command chains one more command through a module
# file; tensor takes the module twice.  The syzygy, cosyzygy and tensor
# entries were recorded before exterior.generator_matrices became E's one
# multiplication table, the filter entries before cx1_filtration read each
# layer's point class in closed form.
MODULE_OP_SHA256 = {
    (("pd", "--n", "3", "--d", "3"), ("syzygy", "-k", "2")): (
        0, "5b6c52edb6ee52cab53d9e59685043164eb3efa76a3d89a04842facdea270549"
    ),
    (("pd", "--n", "2", "--d", "3"), ("cosyzygy", "-k", "2")): (
        0, "a2c07ffdc88114b851d7828a8908461e7d2b4bd4867422ee1d919ea06f5506a4"
    ),
    (("mu", "--n", "3", "--forms", "1,2,0,0;0,1,3,0"), ("syzygy", "-k", "3")): (
        0, "03f353b79c1b7856e568d740f80e8c6df281b2360652dfd856d7dfc6791c25c9"
    ),
    (("xxi", "--n", "2"), ("tensor",)): (
        0, "091780507421d98c031d7208b090cd6b2e0a4c59459425366de2e988737bb821"
    ),
    # ten factors [1,0,0,0] at shift 0
    (("pd", "--n", "3", "--d", "3"), ("filter", "--json")): (
        0, "5602ada2c38c84aa95aff080c61a8099439e5dfb9b6bb7aad0db111a7b03cdd8"
    ),
    (("xxi", "--n", "3", "--xi", "0,1,0,5"), ("filter", "--json")): (
        0, "d93f9dc5109f8c31ea4fb10dd215d7fab074f787a1ac3d910d926c20e06fb34b"
    ),
    # six factors [1,0,0] at shift 1
    (("pd", "--n", "2", "--d", "3"), ("cosyzygy", "|", "filter", "--json")): (
        0, "fe2ff4689b7365099b7ae4c7ff3f9ece5ea496aa30153b033c9b4c420315b5f2"
    ),
    # NOT_CX1: regular-sequence complexity is 2
    (("mu", "--n", "2", "--forms", "1,0,0;0,1,0"), ("filter",)): (
        1, "655c5c03817f7d620280c394ce8e246fd05c8fbeca36afde52878b98c3a1f659"
    ),
}


@pytest.mark.parametrize("construct, command", sorted(MODULE_OP_SHA256))
def test_cli_module_operations_pinned(construct, command, tmp_path, capsys):
    code, out, _ = run_cli(["construct", *construct], capsys=capsys)
    for k, (name, *options) in enumerate(s.split() for s in " ".join(command).split(" | ")):
        assert code == 0
        path = tmp_path / f"m{k}.json"
        path.write_text(out, encoding="utf-8")
        operands = [str(path)] * (2 if name == "tensor" else 1)
        code, out, _ = run_cli([name, *operands, *options], capsys=capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == MODULE_OP_SHA256[(construct, command)]


# exit code and sha256 of the stdout of `exalg argv`, each module name in
# argv standing for a file written from FILE_MODULES.  Recorded before the
# special cases for zero modules, empty matrices and zero-size blocks in
# linalg, gmod, homology, constructions and homalg were left to the general
# code paths; the last two are the text forms of complexity and filter.
FILE_MODULES = {
    "zero": lambda: gmod.zero_module(3, P),
    "point": lambda: cons.point_module(3, np.array([1, 0, 0]), P),
    "free02": lambda: gmod.free_module(3, P, [0, 2]),
    "xxi": lambda: cons.ar_sequence_middle(2, P).middle,
}
FILE_OP_SHA256 = {
    ("betti", "zero", "--json"): (
        0, "11d21aaeb955e5e063fe28dee43fb96c6579ae3d1295a300d173c67fd4b50fe6"
    ),
    ("complexity", "zero", "--json"): (
        0, "09787f7c9c30db234a392e9ac73361fa92a98e750de88a2b095eddc3d9a47e85"
    ),
    ("end", "zero", "--json"): (
        0, "89c07cf77aabfeeb33dcc99f8d363f26dea3e1b17c8e9bdc7643aa8f79d5c0d9"
    ),
    ("hom", "zero", "point", "--json"): (
        0, "a1ebba4fe457e7a4c635ab2248e262b985a280cd9fab55b16dbea3943babf280"
    ),
    ("hom", "point", "zero", "--json"): (
        0, "a1ebba4fe457e7a4c635ab2248e262b985a280cd9fab55b16dbea3943babf280"
    ),
    ("ext", "zero", "point"): (
        0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"
    ),
    ("ext", "point", "zero"): (
        0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"
    ),
    ("tensor", "zero", "point"): (
        0, "4a109c4d15fe611640184430caf765cf33c632d4e2db7350af18149de7e2e4f9"
    ),
    ("tensor", "point", "zero"): (
        0, "4a109c4d15fe611640184430caf765cf33c632d4e2db7350af18149de7e2e4f9"
    ),
    ("filter", "zero"): (
        1, "0df067796f2cb50d91385c7452309e89a5750862b561252565431048ec6871c8"
    ),
    ("syzygy", "free02", "-k", "2"): (
        0, "4a109c4d15fe611640184430caf765cf33c632d4e2db7350af18149de7e2e4f9"
    ),
    ("complexity", "xxi"): (
        0, "0177bd58e0191c641dde628161ab7ea00252571c4b580100dcb09e77f8d1440b"
    ),
    ("filter", "xxi"): (
        0, "139edea0862b954f2571fd409be9e2004cbc8da03c9af1ec725a76ac590fdd9a"
    ),
}


@pytest.mark.parametrize("argv", sorted(FILE_OP_SHA256))
def test_cli_file_operations_pinned(argv, tmp_path, capsys):
    args = [write_module(tmp_path, f"{a}.json", FILE_MODULES[a]()) if a in FILE_MODULES else a for a in argv]
    code, out, _ = run_cli(args, capsys=capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == FILE_OP_SHA256[argv]


@pytest.mark.parametrize("suite", ["pd", "eisenbud", "relative"])
def test_cli_verify_rejects_n_zero(suite, capsys):
    code, out, err = run_cli(["verify", "--suite", suite, "--n", "0"], capsys=capsys)
    assert code == 2 and not out
    assert err == "error: verify needs n >= 1, got 0\n"


def test_run_suite_rejects_n_below_one():
    for name in ("all", "pd"):
        with pytest.raises(ValueError, match="n >= 1"):
            verify.run_suite(name, n=0)


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "mxi", "--n", "-1"],
        ["construct", "xxi", "--n", "-1"],
        ["construct", "pd", "--n", "-1"],
        ["construct", "pd-explicit", "--n", "-1"],
        ["verify", "--suite", "pd", "--n", "-1"],
        ["construct", "mxi", "--xi", "1,0"],
        ["construct", "mu", "--n", "2", "--forms", "1,0,0;0,1"],
        ["construct", "mu"],
        ["construct", "mu", "--n", "2", "--forms", ""],
        ["construct", "mu", "--n", "2", "--forms", ";"],
        ["construct", "mu", "--n", "2", "--forms", " ; ;"],
    ],
)
def test_cli_usage_errors_exit_2(argv, capsys):
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 2 and not out
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["filter", "FILE", "--seed", "-1"], ["complexity", "FILE", "--seed", "-1"],
     ["verify", "--suite", "pd", "--n", "2", "--seed", "-1"]],
)
def test_cli_rejects_negative_seed(argv, point_file, capsys):
    code, out, err = run_cli([point_file if a == "FILE" else a for a in argv], capsys=capsys)
    assert code == 2 and not out
    assert err == "error: --seed must be nonnegative, got -1\n"


def test_cli_kron_construct(capsys, monkeypatch):
    code, out, _ = run_cli(["construct", "kron", "--i", "1", "--j", "-1"], capsys=capsys)
    assert code == 0
    m = modfile.parse(out)
    assert m.dims == {1: 2, 2: 1}


def test_cli_verify_unknown_suite(capsys, monkeypatch):
    code, _, err = run_cli(["verify", "--suite", "nope"], capsys=capsys)
    assert code == 2
    assert err.startswith("error: unknown suite")


def test_cli_verify_json_deterministic(capsys, monkeypatch):
    argv = ["verify", "--suite", "lemma2.7", "--n", "2", "--seed", "3", "--json"]
    code1, out1, _ = run_cli(argv, capsys=capsys)
    code2, out2, _ = run_cli(argv, capsys=capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["p"] == P
    assert all(c["wall_time"] is None for c in data["checks"])


def test_cli_modulus_mismatch(tmp_path, capsys, monkeypatch):
    m = cons.point_module(2, np.array([1, 0]), 101)
    path = write_module(tmp_path, "p101.json", m)
    code, _, err = run_cli(["betti", path], capsys=capsys)
    assert code == 2
    assert "modulus" in err


def test_cli_env_prime_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EXALG_PRIME", "101")
    code, out, _ = run_cli(["construct", "mxi", "--n", "1"], capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 101
    monkeypatch.setenv("EXALG_PRIME", "94906297")  # the first prime above MAX_PRIME
    code, out, err = run_cli(["construct", "mxi", "--n", "1"], capsys=capsys)
    assert code == 2 and not out
    assert "prime" in err


def test_cli_subprocess_entrypoint(point_file):
    proc = run_subprocess(["validate", point_file])
    assert proc.returncode == 0
    assert proc.stdout.startswith("valid")


def test_cli_verify_json_deterministic_across_processes():
    argv = ["verify", "--suite", "eisenbud", "--n", "2", "--seed", "0", "--json"]
    a = run_subprocess(argv)
    b = run_subprocess(argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout and a.stdout


FAR = 10**9


def _merged_dims(mods):
    out = {}
    for m in mods:
        for d, c in m.dims.items():
            out[d] = out.get(d, 0) + c
    return out


@pytest.mark.parametrize("command", ["hom", "ext", "stablehom", "end", "syzygy", "cosyzygy", "tensor"])
def test_cli_degrees_far_apart(command, tmp_path):
    # k in degree 0 plus k in degree 10^9: every loop must skip the empty
    # degrees between, and the answer is that of the two pieces taken apart
    pieces = [gmod.simple_module(2, P, 0), gmod.simple_module(2, P, FAR)]
    path = write_module(tmp_path, "far.json", gmod.direct_sum(*pieces)[0])
    pairs = [(a, b) for a in pieces for b in pieces]
    two = command in ("hom", "ext", "stablehom", "tensor")
    proc = run_subprocess([command, path, path] if two else [command, path], timeout=10)
    assert proc.returncode == 0, proc.stderr
    if command == "hom":
        dim = sum(homalg.hom_dim(a, b) for a, b in pairs)
        ptriv = sum(homalg.hom_basis(a, b).ptriv.dim for a, b in pairs)
        assert dim == 2
        assert proc.stdout == f"dim={dim} ptriv={ptriv} stable={dim - ptriv}\n"
    elif command == "ext":
        assert proc.stdout == f"{sum(homalg.ext_dim(a, b) for a, b in pairs)}\n"
    elif command == "stablehom":
        assert proc.stdout == f"{sum(homalg.stable_hom_dim(a, b) for a, b in pairs)}\n"
    elif command == "end":
        assert proc.stdout.startswith(f"dim={sum(homalg.hom_dim(a, b) for a, b in pairs)} ")
        assert "local=False" in proc.stdout
    else:
        step = {"syzygy": homology.syzygy, "cosyzygy": homology.cosyzygy}.get(command)
        outs = [step(m) for m in pieces] if step else [cons.tensor(a, b) for a, b in pairs]
        assert modfile.parse(proc.stdout).dims == _merged_dims(outs)


# -- start-up: a lazy package, one BLAS thread, per-command imports ----------

BLAS_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]

# exalg.__all__ before the package loaded its submodules on first use,
# grouped by the module each name came from
PUBLIC_NAMES = {
    "linalg": ["DEFAULT_PRIME"],
    "gmod": ["GradedModule", "ModuleMap", "direct_sum", "dual", "free_module", "iso_probable",
             "shift", "simple_module", "socle", "square_truncate", "sub_quotient", "validate",
             "zero_module"],
    "homology": ["BettiTable", "ComplexityEstimate", "ar_translate", "complexity", "cosyzygy",
                 "is_linear", "is_relative_sub", "is_weakly_koszul", "lowest_step",
                 "minimal_resolution", "projective_cover", "regular_element_test", "syzygy"],
    "homalg": ["FiniteAlgebra", "HomSpace", "end_algebra", "ext1_square_zero", "ext_dim",
               "hom_basis", "is_indecomposable", "stable_hom_dim", "truncated_poly_fingerprint"],
    "constructions": ["Extension", "ExtClass", "ar_sequence_middle", "cx1_filtration",
                      "filtration_projective", "filtration_projective_explicit",
                      "kronecker_family", "point_module", "realize_ext", "span_quotient",
                      "tensor", "universal_extension"],
}
ALIASES = {"parse_module_file": ["modfile", "parse"], "serialize_module": ["modfile", "serialize"]}
SUBMODULES = ["constructions", "exterior", "gmod", "homalg", "homology", "linalg", "modfile"]


def run_fresh(code, arg, **env):
    """Run `code` in a fresh interpreter, with `arg` as JSON in sys.argv[1]
    and no BLAS variable set beyond `env`; return what it prints as JSON."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = run_subprocess(["-c", code, json.dumps(arg)], timeout=60, env={**base, **env})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


IMPORT_EXALG = """
import json, os, sys
import exalg
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("exalg."))
print(json.dumps([loaded, [v for v in json.loads(sys.argv[1]) if v in os.environ]]))
"""


def test_import_exalg_loads_no_submodule_and_sets_no_blas_variable():
    assert run_fresh(IMPORT_EXALG, BLAS_VARS) == [[], []]


RESOLVE_NAMES = """
import importlib, json, sys
import exalg
expected = json.loads(sys.argv[1])
got = {name: getattr(exalg, name) for name in expected}
bad = []
for name, (mod, attr) in expected.items():
    module = importlib.import_module("exalg." + mod)
    if got[name] is not (module if attr is None else getattr(module, attr)):
        bad.append(name)
try:
    exalg.no_such_name
    unknown = None
except AttributeError as err:
    unknown = str(err)
print(json.dumps([bad, exalg.__all__, unknown]))
"""


def test_every_public_name_resolves_on_first_use():
    expected = {name: [mod, name] for mod, names in PUBLIC_NAMES.items() for name in names}
    expected.update(ALIASES)
    expected.update((name, [name, None]) for name in SUBMODULES)
    assert len(expected) == 57
    bad, public, unknown = run_fresh(RESOLVE_NAMES, expected)
    assert bad == []
    assert public == sorted(expected)
    assert unknown == "module 'exalg' has no attribute 'no_such_name'"


@pytest.mark.parametrize(
    "env, want",
    [({}, ["1", None]), ({"OPENBLAS_NUM_THREADS": "3"}, ["3", None]),
     ({"OMP_NUM_THREADS": "2"}, [None, "2"])],
)
def test_cli_import_sets_one_blas_thread_unless_the_user_chose(env, want):
    code = "import json, os, sys; import exalg.cli; " \
           "print(json.dumps([os.environ.get(v) for v in json.loads(sys.argv[1])]))"
    assert run_fresh(code, BLAS_VARS, **env) == want


RUN_COMMAND = """
import contextlib, io, json, sys
from exalg import cli
argv, absent = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.cli_main(argv)
print(json.dumps([code, [m for m in absent if "exalg." + m in sys.modules]]))
"""


@pytest.mark.parametrize(
    "argv, absent",
    [(["validate", "FILE"], ["constructions", "homalg", "verify"]),
     (["betti", "FILE", "--json"], ["constructions", "homalg", "verify"]),
     (["hom", "FILE", "FILE"], ["constructions", "verify"]),
     (["tensor", "FILE", "FILE"], ["verify"])],
)
def test_cli_command_imports_only_what_it_runs(argv, absent, point_file):
    argv = [point_file if a == "FILE" else a for a in argv]
    assert run_fresh(RUN_COMMAND, [argv, absent]) == [0, []]
