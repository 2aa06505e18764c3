"""Command-line behaviour: output bytes, exit codes, determinism."""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import segtool
from segtool import fixture_path, segmenters
from segtool.cli import run
from segtool.significance import MAX_TRIALS
from conftest import annotations_doc


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    rc = run(list(argv), stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


def process_env(**settings):
    """os.environ with segtool importable and the given variables set."""
    return {**os.environ, **settings, "PYTHONPATH": os.pathsep.join(
        [str(Path(segtool.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    )}


def invoke_process(*argv):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    done = subprocess.run(
        [sys.executable, "-m", "segtool.cli", *argv],
        capture_output=True, text=True, env=process_env(), timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A directory of input files the CLI can be pointed at."""
    root = tmp_path_factory.mktemp("cli-data")
    for name in (
        "pear9_excerpt_narrative.json",
        "pear9_excerpt_annotations.json",
        "three_link_tests_narrative.json",
        "three_link_tests_coding.json",
    ):
        shutil.copy(fixture_path(name), root / name)
    (root / "three_link_tests_annotations.json").write_text(json.dumps(
        annotations_doc("synthetic-links", [[0, 0, 1], [0, 1, 1], [1, 0, 1]])
    ))
    (root / "all_zero_annotations.json").write_text(json.dumps(
        annotations_doc("synthetic-links", [[0, 0, 0], [0, 0, 0]])
    ))
    (root / "maybe_cues.txt").write_text("# test lexicon\nmaybe\n")
    (root / "not_json.json").write_text("{ truncated")
    return root


def pear_args(data):
    return (
        "--narrative", str(data / "pear9_excerpt_narrative.json"),
        "--annotations", str(data / "pear9_excerpt_annotations.json"),
    )


def link_args(data):
    return (
        "--narrative", str(data / "three_link_tests_narrative.json"),
        "--annotations", str(data / "three_link_tests_annotations.json"),
    )


class TestAgree:
    def test_tsv_bytes(self, data):
        rc, out, err = invoke("agree", *pear_args(data))
        assert (rc, err) == (0, "")
        assert out == (
            "narrative\tclass\tobserved\tpossible\tpercent\n"
            "pear-09-excerpt\tall\t71\t77\t0.92\n"
            "pear-09-excerpt\tboundary\t13\t14\t0.93\n"
            "pear-09-excerpt\tnon_boundary\t58\t63\t0.92\n"
        )

    def test_json_full_precision(self, data):
        rc, out, _ = invoke("agree", "--json", *pear_args(data))
        assert rc == 0
        payload = json.loads(out)
        assert payload["narrative_id"] == "pear-09-excerpt"
        assert payload["threshold"] == 4
        assert payload["total"] == {
            "observed": 71,
            "possible": 77,
            "percent": 71 / 77,
        }
        assert payload["boundary"]["percent"] == 13 / 14

    def test_threshold_flag(self, data):
        rc, out, _ = invoke("agree", "--threshold", "1", *pear_args(data))
        assert rc == 0
        # With every marked site counted as a boundary, the boundary class
        # covers the six marked sites.
        assert "pear-09-excerpt\tboundary\t18\t42\t0.43" in out


class TestStrengths:
    def test_tsv(self, data):
        rc, out, _ = invoke("strengths", *pear_args(data))
        assert rc == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "strength\tkind\tcount\tsites"
        assert len(lines) == 15
        assert "1\texact\t3\t4.3→5.1,5.1→6.1,8.2→8.3" in lines
        assert "2\texact\t1\t6.1→7.1" in lines
        assert "3\texact\t0\t-" in lines
        assert "4\tcumulative\t2\t3.3→4.1,8.4→9.1" in lines
        assert "7\texact\t1\t8.4→9.1" in lines

    def test_json(self, data):
        rc, out, _ = invoke("strengths", "--json", *pear_args(data))
        assert rc == 0
        payload = json.loads(out)
        assert payload["subjects"] == 7
        by_strength = {row["strength"]: row for row in payload["strengths"]}
        assert by_strength[6]["exact"]["sites"] == ["3.3→4.1"]
        assert by_strength[4]["cumulative"]["count"] == 2


class TestCochran:
    def test_tsv(self, data):
        rc, out, _ = invoke("cochran", *pear_args(data))
        assert rc == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "statistic\tvalue"
        assert lines[1] == "q\t45.87"
        assert lines[2] == "df\t10"
        assert lines[3] == "p\t1.52e-06"
        assert lines[5] == "strength\tsites\tq\tdf\tp"
        rows = [line.split("\t") for line in lines[6:]]
        assert [r[:4] for r in rows] == [
            ["0", "5", "9.82", "5"],
            ["1", "3", "0.89", "3"],
            ["2", "1", "0.10", "1"],
            ["6", "1", "13.96", "1"],
            ["7", "1", "21.10", "1"],
        ]

    def test_component_df_flag(self, data):
        rc, out, _ = invoke(
            "cochran", "--component-df", "count-1", "--json", *pear_args(data)
        )
        assert rc == 0
        payload = json.loads(out)
        by_strength = {c["strength"]: c for c in payload["components"]}
        assert by_strength[0]["df"] == 4
        assert by_strength[7]["df"] == 0
        assert by_strength[7]["p"] is None

    def test_calibration_block(self, data):
        rc, out, _ = invoke(
            "cochran", "--calibrate", "1000", "--seed", "7", *pear_args(data)
        )
        assert rc == 0
        assert "# calibration trials=1000 seed=7" in out
        assert "level\tempirical_q\tchi_square_q" in out
        assert "rejection_rate_05\t" in out
        assert "empirical_p\t" in out
        assert "rejection_rate_05_se\t" in out
        assert "empirical_p_se\t" in out

    def test_seed_without_calibrate_refused(self, data):
        for seed in ("0", "5"):
            assert invoke("cochran", "--seed", seed, *pear_args(data)) == (
                1, "", "error: --seed only applies with --calibrate\n")
        default, seeded = (invoke("cochran", "--calibrate", "1000", *seed, *pear_args(data))
                           for seed in ((), ("--seed", "0")))
        assert default == seeded and default[0] == 0

    def test_degenerate_exit_code(self, data):
        rc, out, err = invoke(
            "cochran",
            "--narrative", str(data / "three_link_tests_narrative.json"),
            "--annotations", str(data / "all_zero_annotations.json"),
        )
        assert rc == 3
        assert out == ""
        assert "degenerate: no boundary variance" in err


class TestSegment:
    def test_np_with_trace(self, data):
        rc, out, _ = invoke(
            "segment", "--method", "np", "--trace",
            "--narrative", str(data / "three_link_tests_narrative.json"),
            "--coding", str(data / "three_link_tests_coding.json"),
        )
        assert rc == 0
        assert out == (
            "site\tpair\n"
            "2\t3.1→4.1\n"
            "\n"
            "# clause_boundaries\n"
            "left\tright\n"
            "3\t4\n"
            "\n"
            "# trace\n"
            "fic\ttests\tlinked_by\tclause_referents\tinferable\tpronouns\tsegment\n"
            "2\tcoreference:pass\tcoreference\t1\t2\t1\t1\n"
            "3\tcoreference:fail,inference:pass\tinference\t2\t1\t-\t1,2\n"
            "4\tcoreference:fail,inference:fail,pronoun:fail\tboundary\t3\t-\t-\t3\n"
        )

    def test_np_json_trace(self, data):
        rc, out, _ = invoke(
            "segment", "--method", "np", "--trace", "--json",
            "--narrative", str(data / "three_link_tests_narrative.json"),
            "--coding", str(data / "three_link_tests_coding.json"),
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["sites"] == [2]
        assert payload["clause_boundaries"] == [[3, 4]]
        assert [step["linked_by"] for step in payload["trace"]] == [
            "coreference",
            "inference",
            None,
        ]
        assert payload["trace"][2]["tests"] == [
            ["coreference", False],
            ["inference", False],
            ["pronoun", False],
        ]

    def test_untraced_np_builds_no_trace_step(self, data, monkeypatch):
        """segment and eval --method np without --trace never read the trace."""
        coding = ("--coding", str(data / "three_link_tests_coding.json"))
        argvs = [
            ("segment", "--method", "np", *coding,
             "--narrative", str(data / "three_link_tests_narrative.json")),
            ("segment", "--method", "np", "--json", *coding,
             "--narrative", str(data / "three_link_tests_narrative.json")),
            ("eval", "--method", "np", *coding, *link_args(data)),
        ]
        expected = [invoke(*argv) for argv in argvs]

        def refuse(*args, **kwargs):
            raise AssertionError("built an np trace step")

        monkeypatch.setattr(segmenters, "TraceStep", refuse)
        assert [invoke(*argv) for argv in argvs] == expected
        assert all(rc == 0 for rc, _, _ in expected)

    def test_cue_default_lexicon(self, data):
        rc, out, _ = invoke(
            "segment", "--method", "cue",
            "--narrative", str(data / "pear9_excerpt_narrative.json"),
        )
        assert rc == 0
        assert out == "site\tpair\n1\t4.1→4.2\n10\t8.4→9.1\n"

    def test_cue_custom_lexicon(self, data):
        rc, out, _ = invoke(
            "segment", "--method", "cue",
            "--cues", str(data / "maybe_cues.txt"),
            "--narrative", str(data / "pear9_excerpt_narrative.json"),
        )
        assert rc == 0
        assert out == "site\tpair\n9\t8.3→8.4\n"

    def test_cue_file_with_byte_order_mark(self, data, tmp_path):
        outputs = []
        for name, prefix in (("plain.txt", b""), ("marked.txt", b"\xef\xbb\xbf")):
            (tmp_path / name).write_bytes(prefix + b"and\nso\n")
            outputs.append(invoke(
                "segment", "--method", "cue", "--cues", str(tmp_path / name),
                "--narrative", str(data / "pear9_excerpt_narrative.json"),
            ))
        assert outputs[1] == outputs[0] == (0, "site\tpair\n1\t4.1→4.2\n10\t8.4→9.1\n", "")

    def test_pause(self, data):
        rc, out, _ = invoke(
            "segment", "--method", "pause", "--json",
            "--narrative", str(data / "pear9_excerpt_narrative.json"),
        )
        assert rc == 0
        assert json.loads(out)["sites"] == [0, 1, 3, 5, 6, 9, 10]

    def test_bad_cue_file(self, data, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a b\n")
        rc, out, err = invoke(
            "segment", "--method", "cue", "--cues", str(bad),
            "--narrative", str(data / "pear9_excerpt_narrative.json"),
        )
        assert (rc, out) == (1, "")
        assert err == f"error: {bad}:1: cue entries must be single words, got 'a b'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("segment", "--method", "np", "--narrative", "N"),
            ("segment", "--method", "pause", "--narrative", "N", "--cues", "C"),
            ("segment", "--method", "cue", "--narrative", "N", "--coding", "C"),
            ("segment", "--method", "pause", "--narrative", "N", "--trace"),
        ],
    )
    def test_flag_combinations_rejected(self, data, argv):
        argv = [
            str(data / "pear9_excerpt_narrative.json") if a == "N"
            else str(data / "three_link_tests_coding.json") if a == "C"
            else a
            for a in argv
        ]
        rc, out, err = invoke(*argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")


class TestEval:
    def test_cue_row(self, data):
        rc, out, _ = invoke("eval", "--method", "cue", *pear_args(data))
        assert rc == 0
        assert out == (
            "narrative\tmethod\ttarget\tunit\ta\tb\tc\td"
            "\trecall\tprecision\tfallout\terror\n"
            "pear-09-excerpt\tcue\tthreshold=4\talgorithm\t1\t1\t1\t8"
            "\t0.50\t0.50\t0.11\t0.18\n"
        )

    def test_np_row(self, data):
        rc, out, _ = invoke(
            "eval", "--method", "np",
            "--coding", str(data / "three_link_tests_coding.json"),
            *link_args(data),
        )
        assert rc == 0
        assert (
            "synthetic-links\tnp\tthreshold=2\talgorithm\t1\t0\t0\t2"
            "\t1.00\t1.00\t0.00\t0.00" in out
        )

    def test_exact_target(self, data):
        rc, out, _ = invoke(
            "eval", "--method", "pause", "--exact", "1", *pear_args(data)
        )
        assert rc == 0
        assert (
            "pear-09-excerpt\tpause\texact=1\talgorithm\t1\t6\t2\t2"
            "\t0.33\t0.14\t0.75\t0.73" in out
        )

    def test_humans_rows_and_summary(self, data):
        rc, out, _ = invoke("eval", "--method", "humans", *pear_args(data))
        assert rc == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 10
        assert lines[1].startswith(
            "pear-09-excerpt\thumans\tthreshold=4\ts1\t2\t0\t0\t9\t1.00\t1.00\t0.00\t0.00"
        )
        assert lines[7] == (
            "pear-09-excerpt\thumans\tthreshold=4\ts7\t1\t2\t1\t7"
            "\t0.50\t0.33\t0.22\t0.27"
        )
        assert lines[8] == (
            "pear-09-excerpt\thumans\tthreshold=4\tmean\t\t\t\t"
            "\t0.93\t0.76\t0.08\t0.08"
        )
        assert lines[9].startswith(
            "pear-09-excerpt\thumans\tthreshold=4\tvariance\t\t\t\t\t0.0306"
        )

    def test_humans_json_summary(self, data):
        rc, out, _ = invoke("eval", "--method", "humans", "--json", *pear_args(data))
        assert rc == 0
        payload = json.loads(out)
        assert payload["summary"]["recall"]["mean"] == 13 / 14
        assert payload["summary"]["recall"]["count"] == 7
        assert len(payload["subjects"]) == 7

    def test_leave_one_out(self, data):
        rc, out, _ = invoke(
            "eval", "--method", "humans", "--leave-one-out", "--json", *pear_args(data)
        )
        assert rc == 0
        assert json.loads(out)["target"].endswith("leave-one-out")

    def test_leave_one_out_needs_humans(self, data):
        rc, out, err = invoke(
            "eval", "--method", "cue", "--leave-one-out", *pear_args(data)
        )
        assert (rc, out) == (1, "")
        assert "leave-one-out" in err

    @pytest.mark.parametrize("method, source, target, message", [
        ("cue", "--cues", ("--threshold", "99"), "strength 99 outside [1, 7]"),
        ("np", "--coding", ("--exact", "0"), "strength 0 outside [1, 7]"),
    ])
    def test_target_is_checked_before_the_method_input_is_read(
        self, data, tmp_path, method, source, target, message
    ):
        """Reading the missing --cues or --coding file would exit 2; the bad target comes first."""
        rc, out, err = invoke(
            "eval", "--method", method, source, str(tmp_path / "missing"), *target,
            *pear_args(data),
        )
        assert (rc, out, err) == (1, "", f"error: {message}\n")

    def test_threshold_exact_conflict_is_usage_error(self, data):
        rc, out, err = invoke(
            "eval", "--method", "cue", "--threshold", "4", "--exact", "2",
            *pear_args(data),
        )
        assert (rc, out) == (1, "")
        assert "usage:" in err


class TestReport:
    @pytest.fixture()
    def manifest(self, data, tmp_path):
        doc = {
            "items": [
                {
                    "narrative": str(data / "pear9_excerpt_narrative.json"),
                    "annotations": str(data / "pear9_excerpt_annotations.json"),
                },
                {
                    "narrative": "three_link_tests_narrative.json",
                    "annotations": "three_link_tests_annotations.json",
                    "coding": "three_link_tests_coding.json",
                },
            ]
        }
        for name in (
            "three_link_tests_narrative.json",
            "three_link_tests_annotations.json",
            "three_link_tests_coding.json",
        ):
            shutil.copy(data / name, tmp_path / name)
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(doc))
        return path

    def test_tsv_blocks(self, manifest):
        rc, out, _ = invoke("report", "--batch", str(manifest))
        assert rc == 0
        blocks = out.split("\n\n")
        assert len(blocks) == 3
        assert blocks[0].startswith("# agreement")
        assert "# methods threshold=majority" in blocks[1]
        assert blocks[2].startswith("# strengths")

    def test_json_format(self, manifest):
        rc, out, _ = invoke("report", "--json", "--batch", str(manifest))
        assert rc == 0
        payload = json.loads(out)
        assert payload["agreement"]["summary"]["narratives"] == 2

    def test_manifest_format_and_cli_precedence(self, manifest):
        doc = json.loads(manifest.read_text())
        doc["format"] = "json"
        manifest.write_text(json.dumps(doc))
        rc, out, _ = invoke("report", "--batch", str(manifest))
        assert rc == 0
        json.loads(out)
        rc, out, _ = invoke("report", "--tsv", "--batch", str(manifest))
        assert rc == 0
        assert out.startswith("# agreement")

    def test_command_line_values_leave_bad_manifest_values_unread(self, manifest, data):
        doc = json.loads(manifest.read_text())
        doc.update(cues=5, format="xml")
        manifest.write_text(json.dumps(doc))
        rc, out, err = invoke("report", "--batch", str(manifest))
        assert (rc, out, err) == (1, "", "error: cues: expected a path string\n")
        cues = ("--cues", str(data / "maybe_cues.txt"))
        rc, out, err = invoke("report", *cues, "--batch", str(manifest))
        assert (rc, out) == (1, "")
        assert err == "error: manifest format must be 'tsv' or 'json', got 'xml'\n"
        rc, out, _ = invoke("report", *cues, "--tsv", "--batch", str(manifest))
        assert rc == 0
        assert out.startswith("# agreement")

    def test_out_file(self, manifest, tmp_path):
        target = tmp_path / "report.tsv"
        rc, out, _ = invoke("report", "--batch", str(manifest), "--out", str(target))
        assert rc == 0
        assert out == ""
        direct = invoke("report", "--batch", str(manifest))[1]
        assert target.read_text() == direct

    def test_bad_manifest(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"items": []}))
        rc, out, err = invoke("report", "--batch", str(path))
        assert (rc, out) == (1, "")
        assert "items" in err

    @pytest.mark.parametrize("value", [5, "", None])
    @pytest.mark.parametrize("key", ["narrative", "annotations", "coding", "cues"])
    def test_manifest_paths_must_be_strings(self, manifest, key, value):
        doc = json.loads(manifest.read_text())
        if key == "cues":
            doc["cues"] = value
        else:
            doc["items"][1][key] = value
        manifest.write_text(json.dumps(doc))
        rc, out, err = invoke_process("report", "--batch", str(manifest))
        where = "cues" if key == "cues" else f"items[1].{key}"
        assert (rc, out) == (1, "")
        assert f"error: {where}: expected a path string" in err
        assert "Traceback" not in err

    def test_threshold_error_names_the_narrative(self, data, tmp_path):
        # A threshold that fits the 7-subject panel but not a 3-subject copy.
        narrative = json.loads((data / "pear9_excerpt_narrative.json").read_text())
        annotations = json.loads((data / "pear9_excerpt_annotations.json").read_text())
        narrative["narrative_id"] = annotations["narrative_id"] = "small"
        annotations["subjects"] = annotations["subjects"][:3]
        annotations["matrix"] = annotations["matrix"][:3]
        (tmp_path / "small_narrative.json").write_text(json.dumps(narrative))
        (tmp_path / "small_annotations.json").write_text(json.dumps(annotations))
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"items": [
            {"narrative": str(data / "pear9_excerpt_narrative.json"),
             "annotations": str(data / "pear9_excerpt_annotations.json")},
            {"narrative": "small_narrative.json", "annotations": "small_annotations.json"},
        ]}))
        rc, out, err = invoke("report", "--threshold", "5", "--batch", str(path))
        assert (rc, out) == (1, "")
        assert err == "error: small: strength 5 outside [1, 3]\n"

    def test_manifest_not_utf8(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_bytes(b'{"items": ["\xff"]}')
        rc, out, err = invoke_process("report", "--batch", str(path))
        assert (rc, out) == (1, "")
        assert "not valid UTF-8" in err
        assert "Traceback" not in err


class TestExitCodes:
    def test_no_arguments(self):
        rc, out, err = invoke()
        assert (rc, out) == (1, "")
        assert err.startswith("usage:")

    def test_unknown_subcommand(self):
        rc, out, err = invoke("bogus")
        assert (rc, out) == (1, "")
        assert "usage:" in err

    def test_missing_file(self, data):
        rc, out, err = invoke(
            "agree",
            "--narrative", str(data / "does_not_exist.json"),
            "--annotations", str(data / "pear9_excerpt_annotations.json"),
        )
        assert (rc, out) == (2, "")
        assert "error:" in err

    def test_invalid_json_file(self, data):
        rc, out, err = invoke(
            "agree",
            "--narrative", str(data / "not_json.json"),
            "--annotations", str(data / "pear9_excerpt_annotations.json"),
        )
        assert (rc, out) == (1, "")

    @pytest.mark.parametrize("flag", ["--narrative", "--annotations", "--coding"])
    def test_top_level_not_an_object_names_the_file(self, data, tmp_path, flag):
        path = tmp_path / "n.json"
        path.write_text("[]")
        files = {
            "--narrative": str(data / "three_link_tests_narrative.json"),
            "--annotations": str(data / "three_link_tests_annotations.json"),
            "--coding": str(data / "three_link_tests_coding.json"),
            flag: str(path),
        }
        argv = (["segment", "--method", "np", "--coding", files["--coding"]] if flag == "--coding"
                else ["agree", "--annotations", files["--annotations"]])
        rc, out, err = invoke(*argv, "--narrative", files["--narrative"])
        assert (rc, out, err) == (1, "", f"error: {path}: expected an object, got list\n")

    @pytest.mark.parametrize("command", ["segment", "eval", "report"])
    def test_coding_fault_is_named(self, data, tmp_path, command):
        """Each command that reads a coding refuses one that breaks a clause rule, with the
        fault's located message."""
        doc = json.loads((data / "three_link_tests_coding.json").read_text())
        doc["fics"][2]["nps"][0]["inferential"][0][1] = "r6"
        bad = tmp_path / "unknown-tag.json"
        bad.write_text(json.dumps(doc))
        narrative = str(data / "three_link_tests_narrative.json")
        annotations = str(data / "three_link_tests_annotations.json")
        if command == "report":
            manifest = tmp_path / "batch.json"
            manifest.write_text(json.dumps({"items": [
                {"narrative": narrative, "annotations": annotations, "coding": str(bad)}]}))
            argv = ["report", "--batch", str(manifest)]
        else:
            argv = [command, "--method", "np", "--narrative", narrative, "--coding", str(bad)]
            if command == "eval":
                argv += ["--annotations", annotations]
        rc, out, err = invoke(*argv)
        assert (rc, out, err) == (
            1, "", "error: fics[2].nps[0]: fic 3 NP 'the engine': unknown relation tag 'r6'\n")

    def test_negative_calibration_seed(self, data):
        rc, out, err = invoke_process(
            "cochran", "--calibrate", "1000", "--seed", "-1", *pear_args(data)
        )
        assert (rc, out) == (1, "")
        assert "seed must be non-negative" in err
        assert "Traceback" not in err

    EDGES = (-1, 0, 999, 1000, MAX_TRIALS, MAX_TRIALS + 1, 10**21)

    @settings(max_examples=60, deadline=None)
    @given(
        calibrate=hst.sampled_from(EDGES),
        seed=hst.sampled_from(EDGES),
        annotations=hst.sampled_from(("pear9_excerpt", "all_zero")),
    )
    def test_calibration_fuzz(self, data, calibrate, seed, annotations):
        # Only calls that a check rejects may ask for more than 1000 trials.
        assume(calibrate <= 1000 or calibrate > MAX_TRIALS or seed < 0)
        narrative = "three_link_tests" if annotations == "all_zero" else annotations
        rc, out, _ = invoke(
            "cochran", f"--calibrate={calibrate}", f"--seed={seed}",
            "--narrative", str(data / f"{narrative}_narrative.json"),
            "--annotations", str(data / f"{annotations}_annotations.json"),
        )
        assert rc in (0, 1, 2, 3)
        assert (rc == 0) == (out != "")

    @pytest.mark.parametrize("trials", [10**21, MAX_TRIALS + 1])
    def test_calibration_trials_capped(self, data, trials):
        rc, out, err = invoke_process("cochran", "--calibrate", str(trials), *pear_args(data))
        assert (rc, out) == (1, "")
        assert f"at most {MAX_TRIALS} trials" in err
        assert "Traceback" not in err

    def test_bad_annotations_file_is_named(self, data):
        rc, out, err = invoke_process(
            "agree",
            "--narrative", str(data / "pear9_excerpt_narrative.json"),
            "--annotations", str(data / "not_json.json"),
        )
        assert (rc, out) == (1, "")
        assert f"error: {data / 'not_json.json'}: not valid JSON" in err
        assert "Traceback" not in err

    def test_cue_lexicon_not_utf8(self, data, tmp_path):
        path = tmp_path / "cues.txt"
        path.write_bytes(b"and\n\xff\n")
        rc, out, err = invoke_process(
            "segment", "--method", "cue", "--cues", str(path),
            "--narrative", str(data / "pear9_excerpt_narrative.json"),
        )
        assert (rc, out) == (1, "")
        assert f"{path}: not valid UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, field", [
        (("agree",), "narrative_id"),
        (("eval", "--method", "humans"), "subjects[0]"),
    ])
    def test_id_that_would_break_tsv(self, data, tmp_path, argv, field):
        narrative = json.loads((data / "pear9_excerpt_narrative.json").read_text())
        annotations = json.loads((data / "pear9_excerpt_annotations.json").read_text())
        if field == "narrative_id":
            narrative["narrative_id"] = annotations["narrative_id"] = "pear\t9\nx"
        else:
            annotations["subjects"][0] = "pear\t9\nx"
        (tmp_path / "n.json").write_text(json.dumps(narrative))
        (tmp_path / "a.json").write_text(json.dumps(annotations))
        rc, out, err = invoke(*argv, "--narrative", str(tmp_path / "n.json"),
                              "--annotations", str(tmp_path / "a.json"))
        assert (rc, out) == (1, "")
        assert err == f"error: {field}: expected no tab or line break\n"

    def test_help(self):
        rc = run(["--help"], stdout=io.StringIO(), stderr=io.StringIO())
        assert rc == 0

    def test_lone_surrogate_in_input(self, data, tmp_path, monkeypatch):
        # A strict UTF-8 stdout could not print it, so the loader rejects it.
        monkeypatch.setenv("PYTHONIOENCODING", "utf-8")
        doc = json.loads((data / "pear9_excerpt_narrative.json").read_text())
        doc["narrative_id"] = "\udcff"
        path = tmp_path / "narrative.json"
        path.write_text(json.dumps(doc))
        rc, out, err = invoke_process(
            "segment", "--method", "pause", "--narrative", str(path),
        )
        assert (rc, out) == (1, "")
        assert err == f"error: {path}: not valid UTF-8: lone surrogate '\\udcff'\n"

    def test_nul_byte_in_argument(self, data):
        rc, out, err = invoke("agree", "--narrative", "n\0.json", "--annotations", "a.json")
        assert (rc, out) == (1, "")
        assert err.startswith("usage: segtool")
        assert err.endswith("error: an argument contains a NUL byte\n")

    def test_nul_byte_in_manifest_path(self, data, tmp_path):
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"items": [{
            "narrative": "n\0.json",
            "annotations": str(data / "pear9_excerpt_annotations.json"),
        }]}))
        rc, out, err = invoke("report", "--batch", str(manifest))
        assert (rc, out, err) == (1, "", "error: items[0].narrative: expected a path string\n")


# Runs each argv of argv[1] (a JSON list) with every import of scipy failing,
# then prints one [exit code, stderr] pair per argv.
_WITHOUT_SCIPY = """
import io, json, sys
sys.modules["scipy"] = None
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was not blocked")
from segtool.cli import run
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    results.append([run(argv, out, err), err.getvalue()])
print(json.dumps(results))
"""


class TestProcessStdout:
    """The console entry point writes UTF-8 bytes and exits 2 when the write fails."""

    def test_closed_pipe(self, data):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails
        with os.fdopen(write_end, "wb") as closed_pipe:
            done = subprocess.run(
                [sys.executable, "-m", "segtool.cli", "strengths", *pear_args(data)],
                stdout=closed_pipe, stderr=subprocess.PIPE, text=True,
                env=process_env(), timeout=60,
            )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("setting", [
        {"PYTHONIOENCODING": "ascii"}, {"PYTHONIOENCODING": "latin-1"}, {"LC_ALL": "C"},
    ])
    @pytest.mark.parametrize("golden, argv", [
        ("strengths-pear9_excerpt.tsv", ("strengths", "{pear}")),
        ("segment-np-trace-three_link_tests.tsv", (
            "segment", "--method", "np", "--trace",
            "--narrative", "{d}/three_link_tests_narrative.json",
            "--coding", "{d}/three_link_tests_coding.json",
        )),
    ])
    def test_stdout_bytes_ignore_the_locale(self, data, setting, golden, argv):
        env = {k: v for k, v in process_env(**setting).items()
               if k in setting or k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL")}
        args = [part for arg in argv for part in (
            pear_args(data) if arg == "{pear}" else [arg.format(d=data)])]
        done = subprocess.run([sys.executable, "-m", "segtool.cli", *args],
                              capture_output=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (Path(__file__).with_name("golden") / golden).read_bytes()


class TestRuntimeDependencies:
    def test_commands_run_without_scipy(self, data, tmp_path):
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"items": [
            {"narrative": str(data / "pear9_excerpt_narrative.json"),
             "annotations": str(data / "pear9_excerpt_annotations.json")},
            {"narrative": str(data / "three_link_tests_narrative.json"),
             "annotations": str(data / "three_link_tests_annotations.json"),
             "coding": str(data / "three_link_tests_coding.json")},
        ]}))
        argvs = [
            ["agree", *pear_args(data)],
            ["cochran", "--calibrate", "1000", *pear_args(data)],
            ["eval", "--method", "humans", "--leave-one-out", *pear_args(data)],
            ["segment", "--method", "np", "--trace",
             "--narrative", str(data / "three_link_tests_narrative.json"),
             "--coding", str(data / "three_link_tests_coding.json")],
            ["report", "--batch", str(manifest)],
        ]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(segtool.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        )}
        done = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [[0, ""]] * len(argvs)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("agree",),
            ("agree", "--json"),
            ("strengths",),
            ("cochran",),
            ("cochran", "--json", "--calibrate", "1000", "--seed", "3"),
            ("eval", "--method", "humans"),
        ],
    )
    def test_repeat_runs_are_byte_identical(self, data, argv):
        first = invoke(*argv, *pear_args(data))
        second = invoke(*argv, *pear_args(data))
        assert first == second
        assert first[0] == 0


class TestSharedParser:
    """run() builds its parser once per process; no call may see another's options."""

    def test_subcommand_help_goes_to_the_given_stdout(self, capsys):
        out, err = io.StringIO(), io.StringIO()
        assert run(["agree", "--help"], stdout=out, stderr=err) == 0
        assert out.getvalue().startswith("usage: segtool agree")
        assert "--narrative NARRATIVE" in out.getvalue()
        assert err.getvalue() == ""
        assert capsys.readouterr() == ("", "")

    def test_sequence_matches_fresh_processes(self, data, tmp_path, monkeypatch):
        # Help text wraps at the terminal width; pin it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"format": "tsv", "items": [{
            "narrative": str(data / "pear9_excerpt_narrative.json"),
            "annotations": str(data / "pear9_excerpt_annotations.json"),
        }]}))
        humans = ("eval", "--method", "humans", *pear_args(data))
        sequence = [
            (*humans, "--threshold", "2"),
            humans,
            ("report", "--json", "--batch", str(manifest)),
            ("report", "--batch", str(manifest)),
            (*humans, "--threshold", "2", "--exact", "1"),
            ("cochran", "--calibrate", "1000", "--seed", "-1", *pear_args(data)),
            ("--help",),
            ("agree", "--help"),
            ("cochran", *pear_args(data)),
        ]
        for argv in sequence:
            assert invoke(*argv) == invoke_process(*argv), argv


# Symbolic argv values for the fuzz below; names of the files made by the
# fuzz_files fixture stand for their paths.
INTEGERS = ("-1", "0", "1", "2", "4", "7", "8", "1000", str(MAX_TRIALS + 1), str(10**21),
            str(-(10**21)), str(2**64), "2.5", "x", "")
VALUES = {
    "--narrative": ("pear_n", "link_n", "not_json", "not_utf8", "bool_narrative", "empty",
                    "missing", "directory", "pear_a", "\udcff.json", "nul\0.json",
                    "huge_pause", "lone_surrogate", "long_int", "deep"),
    "--annotations": ("pear_a", "link_a", "zero_a", "bool_annotations", "not_json",
                      "not_utf8", "missing", "pear_n", "long_int", "deep"),
    "--coding": ("link_c", "pear_a", "not_json", "not_utf8", "missing", "long_int", "deep"),
    "--cues": ("cues", "not_utf8", "missing", "directory"),
    "--batch": ("manifest", "manifest_json", "manifest_bad", "manifest_nul", "not_utf8",
                "missing", "long_int", "deep"),
    "--out": ("out_file", "directory", "no_such_dir/report.tsv"),
    "--method": ("np", "cue", "pause", "humans", "bogus"),
    "--component-df": ("count", "count-1", "bogus"),
    "--threshold": INTEGERS,
    "--exact": INTEGERS,
    "--seed": INTEGERS,
    # No valid count above 1000, so every example stays fast.
    "--calibrate": ("-1", "0", "999", "1000", str(MAX_TRIALS + 1), str(10**21), "1e3", "x"),
}
SWITCHES = ("--json", "--tsv", "--trace", "--leave-one-out", "--help", "-h", "--bogus")
PEAR = {"--narrative": "pear_n", "--annotations": "pear_a"}
LINK = {"--narrative": "link_n", "--annotations": "link_a"}
# A valid call of each subcommand, which the fuzz then mutates.
TEMPLATES = {
    "agree": (PEAR, LINK),
    "strengths": (PEAR, LINK),
    "cochran": (PEAR, {**LINK, "--annotations": "zero_a"}),
    "segment": ({"--method": "np", "--narrative": "link_n", "--coding": "link_c"},
                {"--method": "cue", "--narrative": "pear_n"},
                {"--method": "pause", "--narrative": "pear_n"}),
    "eval": ({"--method": "humans", **PEAR}, {"--method": "cue", **PEAR},
             {"--method": "np", **LINK, "--coding": "link_c"}),
    "report": ({"--batch": "manifest"}, {"--batch": "manifest_json"}),
}


# The flags each subcommand takes, so that most mutations get past parsing.
OWN_FLAGS = {
    "agree": ("--narrative", "--annotations", "--threshold", "--json", "--tsv"),
    "strengths": ("--narrative", "--annotations", "--json", "--tsv"),
    "cochran": ("--narrative", "--annotations", "--component-df", "--calibrate", "--seed",
                "--json", "--tsv"),
    "segment": ("--method", "--narrative", "--coding", "--cues", "--trace", "--json", "--tsv"),
    "eval": ("--method", "--narrative", "--annotations", "--coding", "--cues", "--threshold",
             "--exact", "--leave-one-out", "--json", "--tsv"),
    "report": ("--batch", "--out", "--cues", "--threshold", "--json", "--tsv"),
}
ALL_FLAGS = (*sorted(VALUES), *SWITCHES)


@hst.composite
def fuzz_argv(draw):
    command = draw(hst.sampled_from((*TEMPLATES, "bogus", "")))
    options = dict(draw(hst.sampled_from(TEMPLATES.get(command, ({},)))))
    groups = []
    flags = hst.sampled_from(OWN_FLAGS.get(command, ALL_FLAGS)) | hst.sampled_from(ALL_FLAGS)
    for flag in draw(hst.lists(flags, max_size=4)):
        if flag not in VALUES:
            groups.append([flag])
        elif draw(hst.integers(0, 9)):
            options[flag] = draw(hst.sampled_from(VALUES[flag]))
        else:
            options.pop(flag, None)
            if draw(hst.booleans()):
                groups.append([flag])  # its value left off
    groups += [[flag, value] for flag, value in options.items()]
    groups = draw(hst.permutations(groups))
    return [command] * bool(command) + [token for group in groups for token in group]


@pytest.fixture(scope="module")
def fuzz_files(data, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    pear_n = data / "pear9_excerpt_narrative.json"
    pear_a = data / "pear9_excerpt_annotations.json"
    bool_narrative = json.loads(pear_n.read_text())
    bool_narrative["phrases"][2]["pause_before"] = True
    bool_annotations = json.loads(pear_a.read_text())
    bool_annotations["matrix"][0][0] = True
    huge_pause = json.loads(pear_n.read_text())
    huge_pause["phrases"][2]["pause_before"] = 10**400
    lone_surrogate = {**json.loads(pear_n.read_text()), "narrative_id": "\udcff"}
    documents = {
        "bool_narrative": bool_narrative,
        "bool_annotations": bool_annotations,
        "manifest": {"items": [
            {"narrative": str(pear_n), "annotations": str(pear_a)},
            {"narrative": str(data / "three_link_tests_narrative.json"),
             "annotations": str(data / "three_link_tests_annotations.json"),
             "coding": str(data / "three_link_tests_coding.json")},
        ]},
        "manifest_json": {"format": "json", "cues": str(data / "maybe_cues.txt"),
                          "items": [{"narrative": str(pear_n), "annotations": str(pear_a)}]},
        "manifest_bad": {"format": "xml", "items": [{"narrative": 3}]},
        "manifest_nul": {"items": [{"narrative": "nul\0.json", "annotations": str(pear_a)}]},
        "huge_pause": huge_pause,
        "lone_surrogate": lone_surrogate,
    }
    files = {
        "pear_n": pear_n,
        "pear_a": pear_a,
        "link_n": data / "three_link_tests_narrative.json",
        "link_a": data / "three_link_tests_annotations.json",
        "link_c": data / "three_link_tests_coding.json",
        "zero_a": data / "all_zero_annotations.json",
        "cues": data / "maybe_cues.txt",
        "not_json": data / "not_json.json",
        "missing": root / "missing.json",
        "directory": root,
        "out_file": root / "report.out",
        "no_such_dir/report.tsv": root / "no_such_dir" / "report.tsv",
    }
    for name, document in documents.items():
        files[name] = root / f"{name}.json"
        files[name].write_text(json.dumps(document))
    files["not_utf8"] = root / "not_utf8.json"
    files["not_utf8"].write_bytes(b'{"narrative_id": "\xff\xfe"}')
    files["empty"] = root / "empty.json"
    files["empty"].write_bytes(b"")
    files["long_int"] = root / "long_int.json"  # past Python's int digit limit
    files["long_int"].write_bytes(b'{"narrative_id": 1' + b"0" * 5000 + b"}")
    files["deep"] = root / "deep.json"  # past the parser's nesting limit
    files["deep"].write_bytes(b"[" * 100_000 + b"]" * 100_000)
    return files


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=fuzz_argv())
    def test_exit_codes_and_streams(self, fuzz_files, argv):
        argv = [str(fuzz_files.get(token, token)) for token in argv]
        rc, out, err = invoke(*argv)
        assert rc in (0, 1, 2, 3)
        assert "Traceback" not in out + err
        if rc != 0:
            assert out == ""
            assert err
        elif out == "":  # the report went to its --out file instead
            assert argv[0] == "report" and "--out" in argv
