import base64
import contextlib
import io
import json
import math
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regioncd.cli import main
from regioncd.pgm import write_pgm
from regioncd.verification import _write_steer_artifacts, half_seg, reduction_image
from regioncd.weights import STEER_CONFIG, gen_fixture


SRC = Path(__file__).resolve().parents[1] / "src"

# what the CLI's catch-all handler prints for an exception it was not written for
CATCH_ALL = re.compile(r"^error: [A-Z]\w*(Error|Exception): ", re.MULTILINE)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_jsonl(text: str) -> list:
    """Parse JSON lines, rejecting NaN and Infinity."""
    return [json.loads(line, parse_constant=_reject_constant) for line in text.splitlines()]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_exit_2(argv: list[str], out=None, *fragments: str) -> None:
    """``argv`` exits 2 with one ``error: `` line that holds each fragment and writes no ``out``."""
    code, _, stderr = run_cli(argv)
    assert code == 2, stderr
    assert re.fullmatch(r"error: [^\n]*\n", stderr), stderr
    assert "usage:" not in stderr and not CATCH_ALL.search(stderr), stderr
    assert all(fragment in stderr for fragment in fragments), stderr
    assert out is None or not Path(out).exists()


def steer_argv(files: dict, command: str, *extra: str, seg: bool = True) -> list[str]:
    """``command`` on ``files``' image and weights with prompt 0, by default over the left
    half (``--seg``), then ``extra``."""
    region = ["--seg", files["seg_left"]] if seg else []
    return [command, "--image", files["image"], "--weights", files["weights"], "--prompt", "0",
            *region, *extra]


@pytest.fixture(scope="module")
def steer_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("steer")
    files = {k: str(v) for k, v in _write_steer_artifacts(root).items()}
    files["fuzz_out"] = root / "fuzz.jsonl"
    return files


@pytest.fixture(scope="module")
def rand_files(tmp_path_factory):
    """The default random-v1 fixture, the reduction image and its left half as files."""
    root = tmp_path_factory.mktemp("rand")
    files = {name: root / name for name in ("weights.json", "image.pgm", "left.pgm")}
    assert main(["fixture", "--kind", "random-v1", "--out", str(files["weights.json"])]) == 0
    write_pgm(files["image.pgm"], np.rint(reduction_image().intensities * 255).astype(np.uint8))
    write_pgm(files["left.pgm"], half_seg(16, 16, "left").pixels * 255)
    return {name: str(path) for name, path in files.items()}


class TestCmdMask:
    def test_zero_seg_reference_grid(self, tmp_path, capsys):
        seg = tmp_path / "zero.pgm"
        write_pgm(seg, np.zeros((24, 24), dtype=np.uint8))
        out = tmp_path / "mask.json"
        assert main(["mask", "--seg", str(seg), "--L", "12", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "length=313 positives=0"
        obj = json.loads(out.read_text())
        assert obj["length"] == 313
        assert sum(obj["values"]) == 0

    def test_full_image_bbox(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        write_pgm(img, np.zeros((24, 24), dtype=np.uint8))
        out = tmp_path / "mask.json"
        box = '{"x_min": 0, "y_min": 0, "x_max": 24, "y_max": 24}'
        code = main(["mask", "--bbox", box, "--image", str(img), "--L", "12",
                     "--out", str(out)])
        assert code == 0
        non_separators = 2 * 12 * 12
        assert capsys.readouterr().out.strip() == f"length=313 positives={non_separators}"

    def test_wide_seg_downsamples(self, tmp_path):
        seg = tmp_path / "wide.pgm"
        write_pgm(seg, np.ones((24, 48), dtype=np.uint8))
        out = tmp_path / "mask.json"
        assert main(["mask", "--seg", str(seg), "--L", "12", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["length"] == 313

    def test_requires_exactly_one_source(self, tmp_path):
        seg = tmp_path / "zero.pgm"
        write_pgm(seg, np.zeros((24, 24), dtype=np.uint8))
        out = tmp_path / "m.json"
        assert_exit_2(["mask", "--out", str(out)], out,
                      "one of the arguments --seg --bbox is required")
        box = '{"x_min":0,"y_min":0,"x_max":1,"y_max":1}'
        assert_exit_2(["mask", "--seg", str(seg), "--bbox", box, "--out", str(out)], out,
                      "argument --bbox: not allowed with argument --seg")

    def test_bbox_without_image(self, tmp_path):
        out = tmp_path / "m.json"
        box = '{"x_min":0,"y_min":0,"x_max":1,"y_max":1}'
        assert_exit_2(["mask", "--bbox", box, "--out", str(out)], out, "--bbox needs --image")

    @pytest.mark.parametrize("value", [
        "NaN", "Infinity", "1e400", '"3"', "true",
        pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
        pytest.param("1" * 5000, id="past-the-int-digit-limit"),
    ])
    def test_bad_bbox_coordinates(self, tmp_path, value):
        img = tmp_path / "img.pgm"
        write_pgm(img, np.zeros((24, 24), dtype=np.uint8))
        out = tmp_path / "mask.json"
        box = f'{{"x_min": 0, "y_min": 0, "x_max": {value}, "y_max": 24}}'
        assert_exit_2(["mask", "--bbox", box, "--image", str(img), "--L", "12",
                       "--out", str(out)], out)

    def test_bbox_unknown_keys_exit_validation(self, tmp_path):
        img = tmp_path / "img.pgm"
        write_pgm(img, np.zeros((24, 24), dtype=np.uint8))
        out = tmp_path / "mask.json"
        box = '{"x_min":0,"y_min":0,"x_max":24,"y_max":24,"y_maxx":4,"units":"mm"}'
        assert_exit_2(["mask", "--bbox", box, "--image", str(img), "--L", "12",
                       "--out", str(out)], out, "y_maxx", "units")

    def test_malformed_grid_exits_validation(self, steer_files, tmp_path):
        out = tmp_path / "m.json"
        assert_exit_2(["mask", "--seg", steer_files["seg_left"], "--L", "2", "--G", "2by2",
                       "--out", str(out)], out, "argument --G: invalid HxW grid value: '2by2'")

    def test_missing_file(self, tmp_path):
        out = tmp_path / "m.json"
        assert_exit_2(["mask", "--seg", str(tmp_path / "no.pgm"), "--out", str(out)], out)

    def test_p2_with_extra_samples_exits_validation(self, tmp_path):
        seg = tmp_path / "extra.pgm"
        seg.write_text("P2\n2 2\n9\n1 2 3 4 5 junk\n")
        out = tmp_path / "m.json"
        assert_exit_2(["mask", "--seg", str(seg), "--L", "1", "--out", str(out)], out)

    def test_idempotent_bytes(self, tmp_path):
        seg = tmp_path / "seg.pgm"
        rng = np.random.default_rng(1)
        write_pgm(seg, rng.integers(0, 2, size=(24, 24)).astype(np.uint8))
        out = tmp_path / "m.json"
        assert main(["mask", "--seg", str(seg), "--L", "6", "--G", "2x2",
                     "--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(["mask", "--seg", str(seg), "--L", "6", "--G", "2x2",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == first


class TestCmdDecode:
    def test_defaults_echoed_in_header(self, steer_files, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(steer_argv(steer_files, "decode", "--max-tokens", "1", "--out", str(out))) == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["params"]["alpha"] == 0.01
        assert header["params"]["beta"] == 5.0
        assert header["params"]["gamma"] == 1.5
        assert header["mode"] == "guided"
        assert len(header["fixture_digest"]) == 64
        assert len(header["mask_digest"]) == 64

    def test_steer_left_emits_token_two(self, steer_files, capsys):
        assert main(steer_argv(steer_files, "decode", "--beta", "9", "--max-tokens", "1")) == 0
        assert capsys.readouterr().out.strip() == "tokens: 2"

    def test_neutral_params_match_baseline(self, steer_files, capsys):
        assert main(steer_argv(steer_files, "decode", "--max-tokens", "3", "--alpha", "1",
                               "--beta", "1", "--gamma", "1")) == 0
        guided_out = capsys.readouterr().out
        assert main(steer_argv(steer_files, "decode", "--max-tokens", "3", "--baseline",
                               seg=False)) == 0
        baseline_out = capsys.readouterr().out
        assert guided_out == baseline_out

    def test_decode_without_region_source(self, steer_files):
        assert_exit_2(steer_argv(steer_files, "decode", seg=False), None,
                      "one of the arguments --seg --bbox --baseline is required")

    def test_invalid_guidance_values(self, steer_files):
        for flag, value in (("--alpha", "1.5"), ("--beta", "0.5"), ("--gamma", "-1")):
            assert_exit_2(steer_argv(steer_files, "decode", flag, value), None, flag[2:])

    @pytest.mark.parametrize("flag", ["--beta", "--gamma"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_guidance_values(self, steer_files, tmp_path, flag, value):
        out = tmp_path / "t.jsonl"
        assert_exit_2(steer_argv(steer_files, "decode", flag, value, "--out", str(out)), out)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400", '"8"', "true"])
    def test_bad_bbox_coordinates(self, steer_files, tmp_path, value):
        out = tmp_path / "t.jsonl"
        box = f'{{"x_min": 0, "y_min": 0, "x_max": 8, "y_max": {value}}}'
        assert_exit_2(steer_argv(steer_files, "decode", "--bbox", box, "--out", str(out),
                                 seg=False), out)

    def test_huge_beta_steers_without_overflow(self, steer_files, tmp_path):
        out = tmp_path / "t.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, _ = run_cli(steer_argv(steer_files, "decode", "--beta", "1e308",
                                                 "--max-tokens", "3", "--out", str(out)))
        assert code == 0
        assert stdout.strip() == "tokens: 2 2 2"
        strict_jsonl(out.read_text())

    @pytest.mark.parametrize("flags, ids, sampling", [
        ([], "0", {}),
        (["--temperature=1"], "10 4 0", {"temperature": 1.0, "seed": 0}),
        (["--temperature=1", "--seed=3"], "1 3 12 9 1 6 7 2", {"temperature": 1.0, "seed": 3}),
        (["--temperature=1", "--seed=4"], "15 8 15 1 9 6 12 2", {"temperature": 1.0, "seed": 4}),
    ], ids=["greedy", "--temperature=1", "--temperature=1 --seed=3", "--temperature=1 --seed=4"])
    def test_sampled_ids_and_header(self, rand_files, tmp_path, capsys, flags, ids, sampling):
        # golden ids of default_rng(seed) draws; the header records the sampling settings
        out = tmp_path / "t.jsonl"
        assert main(["decode", "--image", rand_files["image.pgm"], "--seg", rand_files["left.pgm"],
                     "--weights", rand_files["weights.json"], "--prompt", "1,2,3",
                     "--max-tokens", "8", "--out", str(out)] + flags) == 0
        assert capsys.readouterr().out.strip() == f"tokens: {ids}"
        params = strict_jsonl(out.read_text())[0]["params"]
        assert params == {"alpha": 0.01, "beta": 5.0, "gamma": 1.5, "tau": 0.0,
                          "max_tokens": 8, **sampling}

    @pytest.mark.parametrize("flags", [["--topk=-3"], ["--topk=0"],
                                       ["--temperature=nan"],
                                       ["--temperature=nan", "--seed=0"],
                                       ["--temperature=inf"],
                                       ["--temperature=0"],
                                       ["--temperature=1", "--seed=-1"],
                                       ["--seed=-1"],
                                       ["--seed=3"],
                                       ["--baseline", "--max-tokens=0"],
                                       ["--baseline", "--max-tokens=-3"],
                                       ["--baseline", "--topk=-3"],
                                       ["--prompt=1,a"],
                                       ["--prompt=0,,0"],
                                       ["--prompt=0,"],
                                       ["--prompt=0_0"],
                                       ["--prompt= 1"]], ids=" ".join)
    def test_bad_decode_options_are_input_errors(self, steer_files, tmp_path, flags):
        out = tmp_path / "t.jsonl"
        assert_exit_2(steer_argv(steer_files, "decode", "--out", str(out), *flags,
                                 seg="--baseline" not in flags), out)

    @pytest.mark.parametrize("flag", ["--seg", "--bbox", "--alpha", "--beta", "--gamma",
                                      "--tau", "--temperature", "--seed"])
    def test_baseline_rejects_guided_options(self, steer_files, tmp_path, flag):
        # each value is valid, or the library default, or the nan that used to exit 0
        value = {"--seg": [steer_files["seg_left"]],
                 "--bbox": ['{"x_min": 0, "y_min": 0, "x_max": 4, "y_max": 8}'],
                 "--alpha": ["1"], "--beta": ["5"], "--gamma": ["nan"], "--tau": ["0"],
                 "--temperature": ["0.0001"], "--seed": ["0"]}[flag]
        out = tmp_path / "t.jsonl"
        assert_exit_2(steer_argv(steer_files, "decode", "--baseline", "--out", str(out), flag,
                                 *value, seg=False), out, "--baseline", flag)

    def test_fused_overflow_is_numeric_error(self, steer_files, tmp_path):
        # fused scores, or sampling scores divided by a tiny temperature, that overflow
        out = tmp_path / "t.jsonl"
        for flags in (["--gamma", "1e308"], ["--temperature", "1e-308"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, _, stderr = run_cli(steer_argv(steer_files, "decode", "--out", str(out),
                                                     *flags))
            assert code == 3, flags
            assert stderr.startswith("numeric error: ")
            assert not out.exists()

    @settings(max_examples=100, deadline=None)
    @given(
        guidance=st.fixed_dictionaries({
            # mostly in range, so that some guided decodes get through to a trace
            name: st.integers(0, 9).flatmap(
                lambda i, lo=lo, hi=hi: st.floats(lo, hi) if i else st.sampled_from(
                    [math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, 1e-300, 1e308]))
            for name, (lo, hi) in {"alpha": (0.0, 1.0), "beta": (1.0, 50.0),
                                   "gamma": (0.0, 4.0), "tau": (0.0, 0.9),
                                   "temperature": (0.05, 5.0)}.items()
        }),
        topk=st.integers(-1, 6),
        max_tokens=st.integers(-1, 20),
        seed=st.none() | st.integers(-2, 3),
        sample=st.booleans(),
        baseline=st.booleans(),
    )
    def test_fuzz_exit_codes(self, steer_files, guidance, topk, max_tokens, seed, sample,
                             baseline):
        out = steer_files["fuzz_out"]
        out.unlink(missing_ok=True)
        argv = steer_argv(steer_files, "decode", f"--topk={topk}", f"--max-tokens={max_tokens}",
                          "--out", str(out), seg=not baseline)
        if baseline:  # --baseline rejects every guided-only option
            argv += ["--baseline"]
        else:
            argv += [f"--seed={seed}"] * (seed is not None)
            argv += [f"--{name}={value!r}" for name, value in guidance.items()
                     if sample or name != "temperature"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, _, stderr = run_cli(argv)
        assert code in (0, 2, 3), stderr
        assert not CATCH_ALL.search(stderr), stderr
        if code == 0:
            records = strict_jsonl(out.read_text())
            assert len(records) >= 2
        else:
            assert not out.exists()

    def test_nan_weights_exit_validation(self, steer_files, tmp_path):
        path = tmp_path / "nan.json"
        obj = json.loads(Path(steer_files["weights"]).read_text())
        raw = bytearray(base64.b64decode(obj["tensors"][0]["data"]))
        raw[0:4] = struct.pack("<f", float("nan"))
        obj["tensors"][0]["data"] = base64.b64encode(bytes(raw)).decode("ascii")
        path.write_text(json.dumps(obj))
        assert_exit_2(steer_argv({**steer_files, "weights": str(path)}, "decode"), None,
                      "non-finite")

    @pytest.mark.parametrize("field, value", [("eos_id", 1.9), ("eos_id", True),
                                              ("eos_id", "1"), ("n_heads", 1.0)])
    def test_non_integer_config_field_exits_validation(self, steer_files, tmp_path, field,
                                                       value):
        # int() would read each of these as the config's own value and load the file
        path = tmp_path / "cfg.json"
        obj = json.loads(Path(steer_files["weights"]).read_text())
        obj["config"][field] = value
        path.write_text(json.dumps(obj))
        assert_exit_2(steer_argv({**steer_files, "weights": str(path)}, "decode"), None, field)

    def test_unknown_config_keys_exit_validation(self, steer_files, tmp_path):
        # the digest covers the parsed config, so a dropped key would never reach it
        path = tmp_path / "cfg.json"
        obj = json.loads(Path(steer_files["weights"]).read_text())
        obj["config"].update(foo="bar", sep_embed_id=5)
        path.write_text(json.dumps(obj))
        assert_exit_2(steer_argv({**steer_files, "weights": str(path)}, "decode"), None,
                      "foo", "sep_embed_id")

    @pytest.mark.parametrize("field, raw", [("shape", "[4.7,1]"), ("shape", "[1e400,1]"),
                                            ("shape", "[4,true]"), ("shape", '"41"'),
                                            ("data", "5"),
                                            pytest.param("shape", '[4,1],"shape":[4,1]',
                                                         id="shape-repeated")])
    def test_mistyped_tensor_entry_exits_validation(self, steer_files, tmp_path, field, raw):
        # int() would read 4.7, true and "41" as the tensor's own shape, 1e400 and 5
        # would escape the format checks as OverflowError and AttributeError, and
        # json.loads alone would read a repeated key as its last value
        path = tmp_path / "tensor.json"
        obj = json.loads(Path(steer_files["weights"]).read_text())
        obj["tensors"][0][field] = "@"
        path.write_text(json.dumps(obj).replace('"@"', raw))
        assert_exit_2(steer_argv({**steer_files, "weights": str(path)}, "decode", "--baseline",
                                 seg=False), None, field)

    def test_edited_config_fails_digest_check(self, steer_files, tmp_path):
        # the digest covers the config, so an edit that keeps every tensor shape is caught
        path = tmp_path / "cfg.json"
        obj = json.loads(Path(steer_files["weights"]).read_text())
        obj["config"]["eos_id"] = 2
        path.write_text(json.dumps(obj))
        assert_exit_2(steer_argv({**steer_files, "weights": str(path)}, "decode", "--baseline",
                                 seg=False), None, "digest")

    def test_corrupt_weights_exit_validation(self, steer_files, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert_exit_2(steer_argv({**steer_files, "weights": str(path)}, "decode"))


class TestCmdSweep:
    def test_grid_size_and_determinism(self, steer_files, tmp_path):
        out = tmp_path / "s.csv"
        args = steer_argv(steer_files, "sweep", "--beta", "1,3,5,10", "--gamma", "1.0,1.1,1.3,1.5",
                          "--max-tokens", "1", "--out", str(out))
        assert main(args) == 0
        first = out.read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == "beta,gamma,output_ids,step1_margin"
        assert len(lines) == 1 + 16
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_single_neutral_row_matches_baseline(self, steer_files, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(steer_argv(steer_files, "sweep", "--alpha", "1", "--beta", "1", "--gamma", "1",
                               "--max-tokens", "2", "--out", str(out))) == 0
        capsys.readouterr()
        assert main(steer_argv(steer_files, "decode", "--max-tokens", "2", "--baseline",
                               seg=False)) == 0
        baseline_ids = capsys.readouterr().out.strip().removeprefix("tokens: ")
        row = out.read_text().splitlines()[1].split(",")
        assert row[2] == baseline_ids

    def test_bad_lists(self, steer_files, tmp_path):
        out = tmp_path / "s.csv"
        # an empty entry, also a trailing comma, is an error, not skipped; so is a
        # number that int() or float() would read past an underscore or a space
        for beta in ("abc", "1,,3", "1,3,", "1_0", "1, 3", " 5"):
            assert_exit_2(steer_argv(steer_files, "sweep", "--beta", beta, "--gamma", "1",
                                     "--out", str(out)), out,
                          f"argument --beta: invalid comma-separated float list value: {beta!r}")

    def test_sweep_without_region_source(self, steer_files, tmp_path):
        out = tmp_path / "s.csv"
        assert_exit_2(steer_argv(steer_files, "sweep", "--out", str(out), seg=False), out,
                      "one of the arguments --seg --bbox is required")

    @pytest.mark.parametrize("flags", [["--beta", "1", "--gamma", "nan,1.0"],
                                       ["--beta", "inf", "--gamma", "1"],
                                       ["--beta", "3,nan", "--gamma", "1,1.5"]])
    def test_nonfinite_cells_rejected(self, steer_files, tmp_path, flags):
        out = tmp_path / "s.csv"
        assert_exit_2(steer_argv(steer_files, "sweep", "--max-tokens", "1", "--out", str(out),
                                 *flags), out)

    def test_no_topk_option(self, steer_files, tmp_path):
        out = tmp_path / "s.csv"
        assert_exit_2(steer_argv(steer_files, "sweep", "--topk", "3", "--out", str(out)), out,
                      "unrecognized arguments: --topk 3")


class TestCmdFixture:
    def test_random_fixture_reproducible(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fixture", "--kind", "random-v1", "--seed", "7", "--out", str(out1)]) == 0
        line1 = capsys.readouterr().out
        assert main(["fixture", "--kind", "random-v1", "--seed", "7", "--out", str(out2)]) == 0
        line2 = capsys.readouterr().out
        assert line1 == line2
        assert line1.startswith("digest: ")
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "1"), ("--seed", "0"), ("--vocab-size", "16"), ("--embed-dim", "8"),
        ("--n-heads", "1"), ("--n-layers", "1"), ("--L", "2"), ("--G", "1x1"),
        ("--image-side", "8"), ("--max-seq", "64"), ("--eos-id", "0"),
    ])
    def test_steer_fixture_rejects_seed_and_shape_options(self, tmp_path, capsys, flag, value):
        # steer-v1 is one fixed model: a seed or a shape it would ignore is an error,
        # even one equal to the default or to the steer config
        out = tmp_path / "s.json"
        assert_exit_2(["fixture", "--kind", "steer-v1", flag, value, "--out", str(out)], out, flag)
        assert main(["fixture", "--kind", "steer-v1", "--out", str(out)]) == 0
        steer = gen_fixture("steer-v1", 0, STEER_CONFIG)
        assert capsys.readouterr().out == f"digest: {steer.digest()}\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 7), str(-(2**64))])
    def test_seed_outside_64_bits_is_rejected(self, tmp_path, seed):
        # the stream would reduce it mod 2^64 onto another seed's fixture
        out = tmp_path / "x.json"
        assert_exit_2(["fixture", "--kind", "random-v1", "--seed", seed, "--out", str(out)], out)

    def test_seed_range_ends_are_accepted(self, tmp_path, capsys):
        digests = set()
        for seed in ("0", str(2**64 - 1)):
            assert main(["fixture", "--kind", "random-v1", "--seed", seed,
                         "--out", str(tmp_path / f"{seed}.json")]) == 0
            digests.add(capsys.readouterr().out)
        assert len(digests) == 2

    def test_unknown_kind(self, tmp_path):
        out = tmp_path / "x.json"
        assert_exit_2(["fixture", "--kind", "nope", "--out", str(out)], out,
                      "argument --kind: invalid choice: 'nope'")

    def test_invalid_config(self, tmp_path):
        # an image side of 0 or -16 passes the divisibility check but fits no image
        out = tmp_path / "x.json"
        for flag, value in (("--vocab-size", "2"), ("--image-side", "0"),
                            ("--image-side", "-16")):
            assert_exit_2(["fixture", "--kind", "random-v1", f"{flag}={value}", "--out", str(out)],
                          out)

    def test_oversized_model_exits_validation(self, steer_files, tmp_path):
        # both used to build a list entry per layer until memory ran out
        out = tmp_path / "x.json"
        assert_exit_2(["fixture", "--kind", "random-v1", "--n-layers", "9223372036854775808",
                       "--out", str(out)], out)
        obj = json.loads(Path(steer_files["weights"]).read_text())
        obj["config"]["n_layers"] = 10**9
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(obj))
        assert_exit_2(steer_argv({**steer_files, "weights": str(path)}, "decode", "--baseline",
                                 seg=False))


class TestCmdVerify:
    def test_exit_codes_follow_report(self, tmp_path, capsys, monkeypatch):
        from regioncd import cli as cli_mod

        def fake_report(passed):
            return {
                "count": 10,
                "all_passed": passed,
                "criteria": [
                    {"id": 1, "name": "stub", "passed": passed, "detail": "stubbed"}
                ],
            }

        monkeypatch.setattr(cli_mod.verification, "run_all", lambda: fake_report(True))
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == 0
        assert "[PASS]" in capsys.readouterr().out
        assert json.loads(out.read_text())["all_passed"] is True

        monkeypatch.setattr(cli_mod.verification, "run_all", lambda: fake_report(False))
        assert main(["verify"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_reweight_mutation_is_caught(self, monkeypatch):
        # the oracle checks the kernel the decode runs: a kernel that drops the
        # bias, or a bias that ignores beta, must fail it (that the real kernel
        # passes is test_criterion[attention-reweight-oracle]'s check)
        from regioncd import model
        from regioncd.verification import check_reweight_oracle

        attention = model.attention
        mutants = [("attention", lambda scores, bias: attention(scores, np.zeros_like(bias))),
                   ("region_bias", lambda mask, beta: np.zeros(np.shape(mask)))]
        for name, mutant in mutants:
            with monkeypatch.context() as patch:
                patch.setattr(model, name, mutant)
                passed, _ = check_reweight_oracle()
            assert not passed, name


def bad_number(kind) -> st.SearchStrategy[str]:
    """NaN, an infinity or a negative value of ``kind`` (int, float or the HxW grid).

    A model ``"size"`` is an int that may also be far too large: 2^31 to past 2^63.
    """
    if kind == "size":
        return st.one_of(bad_number(int), st.integers(2**31, 2**65).map(str))
    negative = st.integers(max_value=-1).map(str)
    if kind is float:  # -0.0 is not negative
        negative = st.floats(max_value=-5e-324, allow_infinity=False).map(repr)
    if kind == "grid":
        return st.tuples(bad_number(int), st.booleans()).map(
            lambda p: f"{p[0]}x1" if p[1] else f"1x{p[0]}")
    return st.one_of(st.sampled_from(["nan", "inf", "-inf"]), negative)


# the numeric options of each command, by type
NUMERIC_OPTIONS = {
    "decode": {"alpha": float, "beta": float, "gamma": float, "tau": float, "max-tokens": int,
               "topk": int, "temperature": float},
    "mask": {"L": int, "G": "grid", "tau": float},
    "sweep": {"tau": float, "alpha": float, "max-tokens": int, "beta": float, "gamma": float},
    "fixture": {"seed": int, "vocab-size": "size", "embed-dim": "size", "n-heads": int,
                "n-layers": "size", "L": int, "G": "grid", "image-side": int,
                "max-seq": "size", "eos-id": int},
}


class TestExitCodeContract:
    @pytest.mark.parametrize("command", list(NUMERIC_OPTIONS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fuzz_bad_numeric_options(self, steer_files, command, data):
        # each base command exits 0; one numeric option set to NaN, an infinity, a
        # negative value or, for a fixture's size, a far too large one makes it exit 2
        # and write nothing
        out = steer_files["fuzz_out"]
        argv = {"mask": ["mask", "--seg", steer_files["seg_left"], "--L", "2"],
                "decode": steer_argv(steer_files, "decode", "--max-tokens", "1"),
                "sweep": steer_argv(steer_files, "sweep", "--max-tokens", "1"),
                "fixture": ["fixture", "--kind", "random-v1"]}[command] + ["--out", str(out)]
        out.unlink(missing_ok=True)
        assert run_cli(argv)[0] == 0 and out.exists()
        name, kind = data.draw(st.sampled_from(sorted(NUMERIC_OPTIONS[command].items())))
        value = data.draw(bad_number(kind))
        out.unlink()
        assert_exit_2(argv + [f"--{name}={value}"], out)

    @pytest.mark.parametrize("command", ["decode", "sweep", "mask"])
    def test_seg_of_another_size_than_the_image(self, steer_files, tmp_path, command):
        # a 16x16 seg over the 8x8 steering image, its top-left 8x8 block set
        pixels = np.zeros((16, 16), dtype=np.uint8)
        pixels[:8, :8] = 255
        seg, out = tmp_path / "big.pgm", tmp_path / "out"
        write_pgm(seg, pixels)
        region = ["--seg", str(seg), "--out", str(out)]
        argv = (["mask", "--image", steer_files["image"], *region] if command == "mask"
                else steer_argv(steer_files, command, *region, seg=False))
        assert_exit_2(argv, out, "16x16", "8x8")

    @pytest.mark.parametrize("command, option, value, kind", [
        ("decode", "--beta", "1_0", "float"),
        ("decode", "--topk", " 1_0 ", "int"),
        ("decode", "--temperature", "1_0", "float"),
        ("sweep", "--max-tokens", "1_0", "int"),
        ("mask", "--G", "1_0x2", "HxW grid"),
        ("mask", "--L", "\u0662", "int"),  # an Arabic-Indic 2, which int() reads as 2
        ("fixture", "--n-layers", "1_0", "int"),
    ])
    def test_number_syntax_is_plain(self, steer_files, command, option, value, kind):
        # argparse rejects the value before the command runs
        out = steer_files["fuzz_out"]
        out.unlink(missing_ok=True)
        argv = {"mask": ["mask", "--seg", steer_files["seg_left"], "--L", "2"],
                "fixture": ["fixture", "--kind", "random-v1"]}.get(
                    command, steer_argv(steer_files, command))
        assert_exit_2(argv + ["--out", str(out), f"{option}={value}"], out,
                      f"error: argument {option}: invalid {kind} value: {value!r}")

    @pytest.mark.parametrize("argv, fragment", [
        ("mask --seg {seg_left} --G 1x --out {out}", "argument --G: invalid HxW grid value: '1x'"),
        ("decode --baseline --image {image} --weights {tmp} --prompt 0 --out {out}",
         "cannot read weight file"),
        ("decode --baseline --image {image} --weights {latin1} --prompt 0 --out {out}",
         "cannot read weight file"),
        # a bad prompt is reported before the weight file is read
        ("decode --baseline --image {image} --weights {out} --prompt 0,a",
         "argument --prompt: invalid comma-separated int list value: '0,a'"),
        ("sweep --seg {seg_left} --baseline --image {image} --weights {weights} --prompt 0 "
         "--out {out}",
         "unrecognized arguments: --baseline"),
        ("fixture --out {out}", "the following arguments are required: --kind"),
        ("", "the following arguments are required: command"),
        # a 3,000-digit size fails the integer rule before any number derived from it is printed
        ("fixture --kind random-v1 --L {huge} --image-side {huge} --out {out}",
         "feature_side must be an int in [1, 9223372036854775808), got 1000"),
        ("fixture --kind random-v1 --embed-dim {huge} --out {out}",
         "embed_dim must be an int in [1, 9223372036854775808), got 1000"),
    ], ids=["grid", "weights-dir", "weights-non-utf8", "prompt-before-weights",
            "sweep-baseline", "fixture-kind", "no-command", "fixture-huge-grid",
            "fixture-huge-embed-dim"])
    def test_bad_command_line_exits_2(self, steer_files, tmp_path, argv, fragment):
        # one error: line, whichever of argparse or a command rejects the input
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"config": "\xe9"}')
        files = {**steer_files, "tmp": tmp_path, "latin1": latin1, "out": tmp_path / "out",
                 "huge": 10**2999}
        assert_exit_2([arg.format(**files) for arg in argv.split()], files["out"], fragment)

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["decode", "--help"]) == 0

    def test_unknown_command(self):
        assert_exit_2(["frobnicate"], None, "argument command: invalid choice: 'frobnicate'")

    def test_missing_required_flag(self):
        assert_exit_2(["decode"], None,
                      "the following arguments are required: --image, --weights, --prompt")

    def test_module_entry_point_runs_the_command(self, tmp_path):
        # python -m regioncd.cli runs main, so a weight file that is missing exits 2
        run = subprocess.run(
            [sys.executable, "-m", "regioncd.cli", "decode", "--baseline",
             "--image", str(tmp_path / "x"), "--weights", str(tmp_path / "y"), "--prompt", "0"],
            cwd=SRC, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 2, run.stdout + run.stderr
        assert run.stderr.startswith("error: ")
