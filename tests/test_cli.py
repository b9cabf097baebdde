import base64
import contextlib
import io
import json
import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regioncd import STEER_CONFIG, gen_fixture
from regioncd.cli import main
from regioncd.pgm import write_pgm
from regioncd.verification import _write_steer_artifacts


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


@pytest.fixture(scope="module")
def steer_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("steer")
    files = {k: str(v) for k, v in _write_steer_artifacts(root).items()}
    files["fuzz_out"] = root / "fuzz.jsonl"
    return files


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
        write_pgm(seg, np.ones((24, 48), dtype=np.uint8), maxval=1)
        out = tmp_path / "mask.json"
        assert main(["mask", "--seg", str(seg), "--L", "12", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["length"] == 313

    def test_requires_exactly_one_source(self, tmp_path):
        seg = tmp_path / "zero.pgm"
        write_pgm(seg, np.zeros((24, 24), dtype=np.uint8))
        out = tmp_path / "m.json"
        assert main(["mask", "--out", str(out)]) == 2
        box = '{"x_min":0,"y_min":0,"x_max":1,"y_max":1}'
        assert main(["mask", "--seg", str(seg), "--bbox", box, "--out", str(out)]) == 2

    def test_bbox_without_image(self, tmp_path):
        out = tmp_path / "m.json"
        box = '{"x_min":0,"y_min":0,"x_max":1,"y_max":1}'
        assert main(["mask", "--bbox", box, "--out", str(out)]) == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400", '"3"', "true"])
    def test_bad_bbox_coordinates(self, tmp_path, value):
        img = tmp_path / "img.pgm"
        write_pgm(img, np.zeros((24, 24), dtype=np.uint8))
        out = tmp_path / "mask.json"
        box = f'{{"x_min": 0, "y_min": 0, "x_max": {value}, "y_max": 24}}'
        code, stdout, stderr = run_cli(["mask", "--bbox", box, "--image", str(img),
                                        "--L", "12", "--out", str(out)])
        assert code == 2
        assert stderr.startswith("error: ") and not CATCH_ALL.search(stderr)
        assert not out.exists()

    def test_malformed_grid_exits_validation(self, steer_files, tmp_path):
        out = tmp_path / "m.json"
        assert main(["mask", "--seg", steer_files["seg_left"], "--L", "2", "--G", "2by2",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        assert main(["mask", "--seg", str(tmp_path / "no.pgm"),
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_p2_with_extra_samples_exits_validation(self, tmp_path):
        seg = tmp_path / "extra.pgm"
        seg.write_text("P2\n2 2\n9\n1 2 3 4 5 junk\n")
        out = tmp_path / "m.json"
        code, stdout, stderr = run_cli(["mask", "--seg", str(seg), "--L", "1",
                                        "--out", str(out)])
        assert code == 2
        assert stderr.startswith("error: ") and not CATCH_ALL.search(stderr)
        assert not out.exists()

    def test_idempotent_bytes(self, tmp_path):
        seg = tmp_path / "seg.pgm"
        rng = np.random.default_rng(1)
        write_pgm(seg, rng.integers(0, 2, size=(24, 24)).astype(np.uint8), maxval=1)
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
        code = main(["decode", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                     "--weights", steer_files["weights"], "--prompt", "0",
                     "--max-tokens", "1", "--out", str(out)])
        assert code == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["params"]["alpha"] == 0.01
        assert header["params"]["beta"] == 5.0
        assert header["params"]["gamma"] == 1.5
        assert header["mode"] == "guided"
        assert len(header["fixture_digest"]) == 64
        assert len(header["mask_digest"]) == 64

    def test_steer_left_emits_token_two(self, steer_files, capsys):
        code = main(["decode", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                     "--weights", steer_files["weights"], "--prompt", "0",
                     "--beta", "9", "--max-tokens", "1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "tokens: 2"

    def test_neutral_params_match_baseline(self, steer_files, capsys):
        args = ["decode", "--image", steer_files["image"], "--weights",
                steer_files["weights"], "--prompt", "0", "--max-tokens", "3"]
        assert main(args + ["--seg", steer_files["seg_left"], "--alpha", "1",
                            "--beta", "1", "--gamma", "1"]) == 0
        guided_out = capsys.readouterr().out
        assert main(args + ["--baseline"]) == 0
        baseline_out = capsys.readouterr().out
        assert guided_out == baseline_out

    def test_trace_bytes_idempotent(self, steer_files, tmp_path):
        out = tmp_path / "t.jsonl"
        args = ["decode", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                "--weights", steer_files["weights"], "--prompt", "0",
                "--max-tokens", "2", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_decode_without_region_source(self, steer_files):
        assert main(["decode", "--image", steer_files["image"],
                     "--weights", steer_files["weights"], "--prompt", "0"]) == 2

    def test_invalid_guidance_values(self, steer_files):
        base = ["decode", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                "--weights", steer_files["weights"], "--prompt", "0"]
        assert main(base + ["--alpha", "1.5"]) == 2
        assert main(base + ["--beta", "0.5"]) == 2
        assert main(base + ["--gamma", "-1"]) == 2

    @pytest.mark.parametrize("flag", ["--beta", "--gamma"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_guidance_values(self, steer_files, tmp_path, flag, value):
        out = tmp_path / "t.jsonl"
        assert main(["decode", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                     "--weights", steer_files["weights"], "--prompt", "0", flag, value,
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400", '"8"', "true"])
    def test_bad_bbox_coordinates(self, steer_files, tmp_path, value):
        out = tmp_path / "t.jsonl"
        box = f'{{"x_min": 0, "y_min": 0, "x_max": 8, "y_max": {value}}}'
        code, _, stderr = run_cli(["decode", "--image", steer_files["image"], "--bbox", box,
                                   "--weights", steer_files["weights"], "--prompt", "0",
                                   "--out", str(out)])
        assert code == 2
        assert stderr.startswith("error: ") and not CATCH_ALL.search(stderr)
        assert not out.exists()

    def test_huge_beta_steers_without_overflow(self, steer_files, tmp_path):
        out = tmp_path / "t.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, _ = run_cli([
                "decode", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                "--weights", steer_files["weights"], "--prompt", "0", "--beta", "1e308",
                "--max-tokens", "3", "--out", str(out)])
        assert code == 0
        assert stdout.strip() == "tokens: 2 2 2"
        strict_jsonl(out.read_text())

    @pytest.mark.parametrize("flags", [["--topk=-3"], ["--topk=0"],
                                       ["--sample", "--temperature=nan"],
                                       ["--sample", "--temperature=inf"],
                                       ["--sample", "--temperature=0"],
                                       ["--temperature=nan"],
                                       ["--sample", "--seed=-1"],
                                       ["--baseline", "--max-tokens=0"],
                                       ["--baseline", "--max-tokens=-3"],
                                       ["--baseline", "--topk=-3"],
                                       ["--prompt=1,a"]], ids=" ".join)
    def test_bad_decode_options_are_input_errors(self, steer_files, tmp_path, flags):
        out = tmp_path / "t.jsonl"
        region = [] if "--baseline" in flags else ["--seg", steer_files["seg_left"]]
        code, _, stderr = run_cli([
            "decode", "--image", steer_files["image"], "--weights", steer_files["weights"],
            "--prompt", "0", "--out", str(out)] + region + flags)
        assert code == 2
        assert stderr.startswith("error: ") and not CATCH_ALL.search(stderr)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seg", "--bbox", "--alpha", "--beta", "--gamma",
                                      "--tau", "--sample", "--temperature", "--seed"])
    def test_baseline_rejects_guided_options(self, steer_files, tmp_path, flag):
        # each value is valid, or the library default, or the nan that used to exit 0
        value = {"--seg": [steer_files["seg_left"]],
                 "--bbox": ['{"x_min": 0, "y_min": 0, "x_max": 4, "y_max": 8}'],
                 "--alpha": ["1"], "--beta": ["5"], "--gamma": ["nan"], "--tau": ["0"],
                 "--sample": [], "--temperature": ["0.0001"], "--seed": ["0"]}[flag]
        out = tmp_path / "t.jsonl"
        code, _, stderr = run_cli([
            "decode", "--image", steer_files["image"], "--weights", steer_files["weights"],
            "--prompt", "0", "--baseline", "--out", str(out), flag] + value)
        assert code == 2
        assert stderr.startswith("error: --baseline ") and flag in stderr
        assert not CATCH_ALL.search(stderr)
        assert not out.exists()

    def test_fused_overflow_is_numeric_error(self, steer_files, tmp_path):
        # fused scores, or sampling scores divided by a tiny temperature, that overflow
        out = tmp_path / "t.jsonl"
        for flags in (["--gamma", "1e308"], ["--sample", "--temperature", "1e-308"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, _, stderr = run_cli([
                    "decode", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                    "--weights", steer_files["weights"], "--prompt", "0", "--out", str(out)]
                    + flags)
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
        seed=st.integers(-2, 3),
        sample=st.booleans(),
        baseline=st.booleans(),
    )
    def test_fuzz_exit_codes(self, steer_files, guidance, topk, max_tokens, seed, sample,
                             baseline):
        out = steer_files["fuzz_out"]
        out.unlink(missing_ok=True)
        argv = ["decode", "--image", steer_files["image"], "--weights", steer_files["weights"],
                "--prompt", "0", f"--topk={topk}", f"--max-tokens={max_tokens}",
                "--out", str(out)]
        if baseline:  # --baseline rejects every guided-only option
            argv += ["--baseline"]
        else:
            argv += ["--seg", steer_files["seg_left"], f"--seed={seed}"]
            argv += [f"--{name}={value!r}" for name, value in guidance.items()]
            argv += ["--sample"] * sample
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

    def test_nan_weights_exit_numeric(self, steer_files, tmp_path):
        path = tmp_path / "nan.json"
        obj = json.loads(Path(steer_files["weights"]).read_text())
        raw = bytearray(base64.b64decode(obj["tensors"][0]["data"]))
        raw[0:4] = struct.pack("<f", float("nan"))
        obj["tensors"][0]["data"] = base64.b64encode(bytes(raw)).decode("ascii")
        path.write_text(json.dumps(obj))
        code = main(["decode", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                     "--weights", str(path), "--prompt", "0"])
        assert code == 3

    @pytest.mark.parametrize("field, value", [("eos_id", 1.9), ("eos_id", True),
                                              ("eos_id", "1"), ("n_heads", 1.0)])
    def test_non_integer_config_field_exits_validation(self, steer_files, tmp_path, field,
                                                       value):
        # int() would read each of these as the config's own value and load the file
        path = tmp_path / "cfg.json"
        obj = json.loads(Path(steer_files["weights"]).read_text())
        obj["config"][field] = value
        path.write_text(json.dumps(obj))
        code, _, stderr = run_cli(["decode", "--image", steer_files["image"],
                                   "--seg", steer_files["seg_left"], "--weights", str(path),
                                   "--prompt", "0"])
        assert code == 2
        assert field in stderr and not CATCH_ALL.search(stderr), stderr

    @pytest.mark.parametrize("field, raw", [("shape", "[4.7,1]"), ("shape", "[1e400,1]"),
                                            ("shape", "[4,true]"), ("shape", '"41"'),
                                            ("data", "5")])
    def test_mistyped_tensor_entry_exits_validation(self, steer_files, tmp_path, field, raw):
        # int() would read 4.7, true and "41" as the tensor's own shape, and 1e400
        # and 5 would escape the format checks as OverflowError and AttributeError
        path = tmp_path / "tensor.json"
        obj = json.loads(Path(steer_files["weights"]).read_text())
        obj["tensors"][0][field] = "@"
        path.write_text(json.dumps(obj).replace('"@"', raw))
        code, _, stderr = run_cli(["decode", "--baseline", "--image", steer_files["image"],
                                   "--weights", str(path), "--prompt", "0"])
        assert code == 2
        assert field in stderr and not CATCH_ALL.search(stderr), stderr

    def test_edited_config_fails_digest_check(self, steer_files, tmp_path):
        # the digest covers the config, so an edit that keeps every tensor shape is caught
        path = tmp_path / "cfg.json"
        obj = json.loads(Path(steer_files["weights"]).read_text())
        obj["config"]["eos_id"] = 2
        path.write_text(json.dumps(obj))
        code, _, stderr = run_cli(["decode", "--baseline", "--image", steer_files["image"],
                                   "--weights", str(path), "--prompt", "0"])
        assert code == 2
        assert "digest" in stderr and not CATCH_ALL.search(stderr), stderr

    def test_corrupt_weights_exit_validation(self, steer_files, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["decode", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                     "--weights", str(path), "--prompt", "0"])
        assert code == 2


class TestCmdSweep:
    def test_grid_size_and_determinism(self, steer_files, tmp_path):
        out = tmp_path / "s.csv"
        args = ["sweep", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                "--weights", steer_files["weights"], "--prompt", "0",
                "--beta", "1,3,5,10", "--gamma", "1.0,1.1,1.3,1.5",
                "--max-tokens", "1", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == "beta,gamma,output_ids,step1_margin"
        assert len(lines) == 1 + 16
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_single_neutral_row_matches_baseline(self, steer_files, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                     "--weights", steer_files["weights"], "--prompt", "0", "--alpha", "1",
                     "--beta", "1", "--gamma", "1", "--max-tokens", "2", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        assert main(["decode", "--image", steer_files["image"], "--weights",
                     steer_files["weights"], "--prompt", "0", "--max-tokens", "2",
                     "--baseline"]) == 0
        baseline_ids = capsys.readouterr().out.strip().removeprefix("tokens: ")
        row = out.read_text().splitlines()[1].split(",")
        assert row[2] == baseline_ids

    def test_margin_column_monotone(self, steer_files, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                     "--weights", steer_files["weights"], "--prompt", "0",
                     "--beta", "1,3,5,10", "--gamma", "1.3", "--max-tokens", "1",
                     "--out", str(out)]) == 0
        margins = [float(line.split(",")[3]) for line in out.read_text().splitlines()[1:]]
        assert margins == sorted(margins)

    def test_bad_lists(self, steer_files, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                     "--weights", steer_files["weights"], "--prompt", "0",
                     "--beta", "abc", "--gamma", "1", "--out", str(out)]) == 2

    def test_sweep_without_region_source(self, steer_files, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--image", steer_files["image"], "--weights",
                     steer_files["weights"], "--prompt", "0", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--beta", "1", "--gamma", "nan,1.0"],
                                       ["--beta", "inf", "--gamma", "1"],
                                       ["--beta", "3,nan", "--gamma", "1,1.5"]])
    def test_nonfinite_cells_rejected(self, steer_files, tmp_path, flags):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                     "--weights", steer_files["weights"], "--prompt", "0", "--max-tokens", "1",
                     "--out", str(out)] + flags) == 2
        assert not out.exists()

    def test_no_topk_option(self, steer_files, tmp_path):
        assert main(["sweep", "--image", steer_files["image"], "--seg", steer_files["seg_left"],
                     "--weights", steer_files["weights"], "--prompt", "0", "--topk", "3",
                     "--out", str(tmp_path / "s.csv")]) == 2


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
        assert main(["fixture", "--kind", "steer-v1", flag, value, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()
        assert main(["fixture", "--kind", "steer-v1", "--out", str(out)]) == 0
        steer = gen_fixture("steer-v1", 0, STEER_CONFIG)
        assert capsys.readouterr().out == f"digest: {steer.digest()}\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 7), str(-(2**64))])
    def test_seed_outside_64_bits_is_rejected(self, tmp_path, seed):
        # the stream would reduce it mod 2^64 onto another seed's fixture
        out = tmp_path / "x.json"
        assert main(["fixture", "--kind", "random-v1", "--seed", seed, "--out", str(out)]) == 2
        assert not out.exists()

    def test_seed_range_ends_are_accepted(self, tmp_path, capsys):
        digests = set()
        for seed in ("0", str(2**64 - 1)):
            assert main(["fixture", "--kind", "random-v1", "--seed", seed,
                         "--out", str(tmp_path / f"{seed}.json")]) == 0
            digests.add(capsys.readouterr().out)
        assert len(digests) == 2

    def test_unknown_kind(self, tmp_path):
        assert main(["fixture", "--kind", "nope", "--out", str(tmp_path / "x.json")]) == 2

    def test_invalid_config(self, tmp_path):
        # an image side of 0 or -16 passes the divisibility check but fits no image
        out = tmp_path / "x.json"
        for flag, value in (("--vocab-size", "2"), ("--image-side", "0"),
                            ("--image-side", "-16")):
            assert main(["fixture", "--kind", "random-v1", f"{flag}={value}",
                         "--out", str(out)]) == 2
            assert not out.exists()


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
        # bias, or a bias that ignores beta, must fail it
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
        assert check_reweight_oracle()[0]

    def test_report_lists_enough_criteria(self):
        from regioncd.verification import CRITERIA

        assert len(CRITERIA) >= 8


def bad_number(kind) -> st.SearchStrategy[str]:
    """NaN, an infinity or a negative value of ``kind`` (int, float or the HxW grid)."""
    negative = st.integers(max_value=-1).map(str)
    if kind is float:  # -0.0 is not negative
        negative = st.floats(max_value=-5e-324, allow_infinity=False).map(repr)
    if kind == "grid":
        return st.tuples(bad_number(int), st.booleans()).map(
            lambda p: f"{p[0]}x1" if p[1] else f"1x{p[0]}")
    return st.one_of(st.sampled_from(["nan", "inf", "-inf"]), negative)


# the numeric options of the commands besides decode (whose fuzz test is above), by type
NUMERIC_OPTIONS = {
    "mask": {"L": int, "G": "grid", "tau": float},
    "sweep": {"tau": float, "alpha": float, "max-tokens": int, "beta": float, "gamma": float},
    "fixture": {"seed": int, "vocab-size": int, "embed-dim": int, "n-heads": int,
                "n-layers": int, "L": int, "G": "grid", "image-side": int, "max-seq": int,
                "eos-id": int},
}


class TestExitCodeContract:
    @pytest.mark.parametrize("command", list(NUMERIC_OPTIONS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fuzz_bad_numeric_options(self, steer_files, command, data):
        # each base command exits 0; one numeric option set to NaN, an infinity or a
        # negative value makes it exit 2 and write nothing. No large positive value is
        # drawn: a fixture allocates in proportion to its shape options.
        out = steer_files["fuzz_out"]
        base = {"mask": ["--seg", steer_files["seg_left"], "--L", "2"],
                "sweep": ["--image", steer_files["image"], "--seg", steer_files["seg_left"],
                          "--weights", steer_files["weights"], "--prompt", "0",
                          "--max-tokens", "1"],
                "fixture": ["--kind", "random-v1"]}[command]
        argv = [command, "--out", str(out)] + base
        out.unlink(missing_ok=True)
        assert run_cli(argv)[0] == 0 and out.exists()
        name, kind = data.draw(st.sampled_from(sorted(NUMERIC_OPTIONS[command].items())))
        value = data.draw(bad_number(kind))
        out.unlink()
        code, _, stderr = run_cli(argv + [f"--{name}={value}"])
        assert code == 2, stderr
        assert not CATCH_ALL.search(stderr), stderr
        assert not out.exists()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["decode", "--help"]) == 0

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert main(["decode"]) == 2
