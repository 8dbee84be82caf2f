"""Golden outputs: the bytes the command line writes, pinned by sha256 prefix.

Every performance change promises byte-identical output.  The refine and
render digests and the first two verify reports were taken from the
command line as it stood before the split kernel was trimmed and exact
class keys were packed, and they match under Python 3.10, 3.11 and 3.12.
The upsilon and classes digests and the default-parameter verify report
were taken before nodes stopped carrying exact angles, and the compare
digests from the script that command replaced.  A change that moves
any of them changes what the tool reports.
"""

import hashlib

import pytest

from trirefine.cli import main


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# (input, procedure) -> digests of stdout, --json, --csv and --svg at 11
# iterations.  The numeric largest-angle digests were taken while that
# procedure still picked its split vertex from the numeric angles.
REFINE_GOLDEN = {
    (("--angles", "80,60,40"), "largest-angle"): (
        "db256e14876df1b1", "058d3dd7da190d4a", "04e56466eb45c17b",
        "d259ff176634dbe6"),
    (("--sides", "1.3,1.7,1.5"), "largest-angle"): (
        "452334225d4b06f5", "256bcaa9dee99a2f", "de240f146fb08b2f",
        "027c819fdb951cec"),
    (("--sides", "1.3,1.7,1.5"), "longest-edge"): (
        "0548386ad72b7951", "7fe224de6057b09e", "1deab2e4bc73e84c",
        "bc723e6f9147bd8e"),
    (("--sides", "1.3,1.7,1.5"), "shortest-altitude"): (
        "549790a5773415e4", "ea98b9aad506e5ab", "f5445477df225b54",
        "a205fc3e8f573a7b"),
}


def refine_id(source, procedure):
    """The case's procedure, and ``-sides`` for the one procedure pinned
    from both inputs."""
    if procedure == "largest-angle" and source[0] == "--sides":
        return f"{procedure}-sides"
    return procedure


@pytest.mark.parametrize("source, procedure", list(REFINE_GOLDEN),
                         ids=[refine_id(*case) for case in REFINE_GOLDEN])
def test_refine_outputs(tmp_path, capsys, source, procedure):
    outputs = [tmp_path / f"out.{ext}" for ext in ("json", "csv", "svg")]
    code = main(["refine", *source, "--procedure", procedure,
                 "--iterations", "11", "--json", str(outputs[0]),
                 "--csv", str(outputs[1]), "--svg", str(outputs[2])])
    assert code == 0
    stdout = capsys.readouterr().out.encode()
    got = (digest(stdout), *(digest(p.read_bytes()) for p in outputs))
    assert got == REFINE_GOLDEN[(source, procedure)]


# (input, procedure) -> digests of stdout, --json, --csv and --svg at the
# render limit, 2**14 polygons: the longest-edge digests were taken when a
# retaining run still kept every generation of the tree, the other two
# before SVG coordinates were formatted once per distinct value.
RENDER_LIMIT_GOLDEN = {
    (("--sides", "1.3,1.7,1.5"), "longest-edge"): (
        "3addfc6993aad894", "2325a66bebf8ba69", "b4467918c6d36120",
        "8ed442365e81c77d"),
    (("--sides", "1.3,1.7,1.5"), "shortest-altitude"): (
        "aebc0a918611a695", "1ae989de82e5a408", "b7fb873e44ec7dab",
        "faf80e5ff454d406"),
    (("--angles", "90,45,45"), "largest-angle"): (
        "4b757e22558d0dd4", "bc3f295efdf42905", "6895f2f8519f458f",
        "9666e3b69aaefee7"),
}


@pytest.mark.parametrize("source, procedure", list(RENDER_LIMIT_GOLDEN),
                         ids=[p for _, p in RENDER_LIMIT_GOLDEN])
def test_render_limit_outputs(tmp_path, capsys, source, procedure):
    outputs = [tmp_path / f"out.{ext}" for ext in ("json", "csv", "svg")]
    code = main(["refine", *source, "--procedure", procedure,
                 "--iterations", "14", "--json", str(outputs[0]),
                 "--csv", str(outputs[1]), "--svg", str(outputs[2])])
    assert code == 0
    stdout = capsys.readouterr().out.encode()
    got = (digest(stdout), *(digest(p.read_bytes()) for p in outputs))
    assert got == RENDER_LIMIT_GOLDEN[(source, procedure)]


@pytest.mark.parametrize("depth, sweep, seed, expected", [
    ("5", "40", "1", "b0cf694b29abc7d5"),
    ("8", "20", "0", "e717f1d3da21bfbf"),
    # The default parameters: one run, shared with the verifier's test
    # that every check passes there.
    pytest.param("8", "1000", "0", "9478c1e00e87a56d",
                 marks=pytest.mark.slow),
])
def test_verify_report(verify_report, depth, sweep, seed, expected):
    code, report = verify_report(depth, sweep, seed)
    assert code == 0
    assert digest(report) == expected


# argv -> digests of stdout and --json.
CARRIER_AND_CLASS_GOLDEN = {
    ("upsilon", "--angles", "80,60,40", "--iterations", "20"): (
        "557bb1a858a84e24", "ccecb31127934fc5"),
    # The thin base at the streaming limit, taken while upsilon still
    # walked the carrier split by split.
    ("upsilon", "--angles", "178,1,1", "--iterations", "40"): (
        "4243c08ca8e6e6b0", "daf8be85c110da90"),
    ("classes", "--angles", "80,60,40", "--iterations", "12"): (
        "e2c807a1938d9655", "db47e801333e2524"),
}


def carrier_and_class_id(argv):
    """The command, and ``-thin`` for the thin base."""
    return f"{argv[0]}-thin" if argv[2] == "178,1,1" else argv[0]


@pytest.mark.parametrize("argv", list(CARRIER_AND_CLASS_GOLDEN),
                         ids=[carrier_and_class_id(argv)
                              for argv in CARRIER_AND_CLASS_GOLDEN])
def test_carrier_and_class_outputs(tmp_path, capsys, argv):
    output = tmp_path / "out.json"
    assert main([*argv, "--json", str(output)]) == 0
    stdout = capsys.readouterr().out.encode()
    got = (digest(stdout), digest(output.read_bytes()))
    assert got == CARRIER_AND_CLASS_GOLDEN[argv]


# argv -> digests of stdout and --json for the numeric key path: class
# counts of numeric runs, one of them with a class per node, and a numeric
# run started from angles.  Taken before class keys had a single form.
NUMERIC_KEY_GOLDEN = {
    ("classes", "--sides", "1.3,1.7,1.5", "--procedure", "longest-edge",
     "--iterations", "12"): ("1a49cacfcbff22f2", "90c45624f588b38a"),
    ("classes", "--sides", "1.3,1.7,1.5", "--procedure", "largest-angle",
     "--iterations", "12"): ("9b5899d70aadd8a8", "db6ad72381801c93"),
    ("refine", "--angles", "80,60,40", "--procedure", "shortest-altitude",
     "--iterations", "8"): ("bdac07dcec2b5aff", "690dc3c204a80b42"),
}


@pytest.mark.parametrize("argv", list(NUMERIC_KEY_GOLDEN), ids=[
    f"{argv[0]}-{argv[4]}" for argv in NUMERIC_KEY_GOLDEN])
def test_numeric_key_outputs(tmp_path, capsys, argv):
    output = tmp_path / "out.json"
    assert main([*argv, "--json", str(output)]) == 0
    stdout = capsys.readouterr().out.encode()
    got = (digest(stdout), digest(output.read_bytes()))
    assert got == NUMERIC_KEY_GOLDEN[argv]


# compare argv -> digest of stdout, taken from the mesh-decay script that
# ``compare`` replaced, whose --depth is compare's --iterations.
COMPARE_GOLDEN = {
    ("--angles", "60,60,60", "--iterations", "6"): "e557b236fbb41871",
    ("--angles", "80,60,40", "--iterations", "12"): "9e789486df69d6f4",
}


@pytest.mark.parametrize("argv", list(COMPARE_GOLDEN),
                         ids=[argv[1] for argv in COMPARE_GOLDEN])
def test_compare_table(capsys, argv):
    assert main(["compare", *argv]) == 0
    assert digest(capsys.readouterr().out.encode()) == COMPARE_GOLDEN[argv]


def test_compare_csv(tmp_path, capsys):
    output = tmp_path / "decay.csv"
    assert main(["compare", "--sides", "3,4,5", "--iterations", "10",
                 "--csv", str(output)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {output}\n")
    assert digest(output.read_bytes()) == "ad669041e8e72a7e"


def test_thin_input_exit_message(capsys):
    code = main(["refine", "--angles", "178,1,1",
                 "--procedure", "shortest-altitude", "--iterations", "11"])
    assert code == 3
    assert capsys.readouterr().err == (
        "geometry error: shortest-altitude bisection produced a degenerate "
        "child at depth 11 (parent lineage '0000101010')\n")
