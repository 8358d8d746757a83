import hashlib
import json
import math
from pathlib import Path

import pytest

from densitometer import cli, scan
from densitometer.auxfn import LittleOReport, little_o_check
from densitometer.scan import sample_points
from densitometer.weights import WeightSequence


def run(args, *more):
    return cli.main(list(args) + list(more))


# -- sequence descriptors -------------------------------------------------------

def test_parse_seq_forms(tmp_path):
    assert cli.parse_seq('{"kind":"power","c":0.25,"p":2}') == WeightSequence.power(0.25, 2.0)
    assert cli.parse_seq("power:c=0.25,p=2") == WeightSequence.power(0.25, 2.0)
    assert cli.parse_seq("geometric:c=1,rho=0.5") == WeightSequence.geometric(1.0, 0.5)
    f = tmp_path / "seq.json"
    f.write_text('{"kind":"geometric","c":2,"rho":0.25}')
    assert cli.parse_seq(f"@{f}") == WeightSequence.geometric(2.0, 0.25)
    with pytest.raises(ValueError):
        cli.parse_seq("triangular:a=1")


# -- exit codes -------------------------------------------------------------------

def test_usage_error_is_exit_two():
    assert run(["indices", "--seq", "nonsense:x=1"]) == 2
    assert run(["dilate1d", "--in", "[[0,1]]", "--gamma", "0.5"]) == 2
    assert run(["indices", "--seq", "@/no/such/file.json"]) == 2
    assert run(["dilate1d", "--in", "not json", "--gamma", "2"]) == 2


def test_bad_flags_exit_two():
    assert run(["no-such-command"]) == 2
    assert run(["indices"]) == 2  # --seq required


def test_overlapping_set_is_exit_two(tmp_path):
    out = ["--out-dir", str(tmp_path)]
    seq = "power:c=0.25,p=2"
    assert run(out + ["build-set", "--seq", seq, "--n", "30", "--out", "set.json"]) == 0
    path = tmp_path / "set.json"
    payload = json.loads(path.read_text())
    payload["cubes"][1][:2] = payload["cubes"][0][:2]  # cube 2 placed on cube 1
    path.write_text(json.dumps(payload))
    # block 2 (cubes 4..26) is disjoint: only the load can see the overlap
    assert run(out + ["cover", "--set", str(path), "--m", "2", "--s-hi", "2", "--out", "c.json"]) == 2


@pytest.mark.parametrize(
    "cubes, message",
    [
        # one shelf row whose second cube overlaps the first
        ([[0.0, 0.0, 0.25], [0.125, 0.0, 0.25]], "cubes 1 and 2"),
        # the second cube starts a shelf below the first's top
        ([[0.25, 0.5, 0.25], [0.375, 0.375, 0.25]], "cubes 1 and 2"),
        # not in shelf order (cube 2 lies left of cube 1 on its shelf), and
        # cube 3 meets cube 1 on the last y-cell (0.125, 0.25) only
        ([[0.5, 0.0, 0.25], [0.0, 0.0, 0.25], [0.625, 0.125, 0.125]], "cubes 1 and 3"),
    ],
    ids=["shelf-row", "lower-shelf", "last-cell"],
)
def test_overlapping_set_names_the_pair(tmp_path, capsys, cubes, message):
    """The hand-written set.json files of the CI's overlapping-set job."""
    w2 = [0.0625, 0.0625, 0.015625][: len(cubes)]
    seq = {"kind": "explicit", "w2": w2}
    path = tmp_path / "set.json"
    payload = {"outer": [0.0, 1.0, 0.0, 1.0], "trunc": len(cubes), "seq": seq, "cubes": cubes}
    path.write_text(json.dumps(payload))
    assert run(["scan", "--set", str(path), "--m", "1", "--s-hi", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message} overlap\n"


def _short_row(payload):
    payload["cubes"][0] = [0.0, 0.0]
    return payload


def _long_row(payload):
    payload["cubes"][0] = payload["cubes"][0] + [0.0]
    return payload


def _nan_side(payload):
    payload["cubes"][0][2] = math.nan
    return payload


@pytest.mark.parametrize(
    "malform,named",
    [
        (_short_row, "'cubes'"),
        (_long_row, "'cubes'"),
        (lambda payload: {**payload, "cubes": 5}, "'cubes'"),
        (lambda payload: {**payload, "seq": "power"}, "sequence descriptor"),
        (lambda payload: {**payload, "seq": {"kind": "power", "c": None, "p": 2}}, "sequence descriptor"),
        (lambda payload: {**payload, "outer": 5}, "'outer'"),
        (lambda payload: {**payload, "trunc": None}, "'trunc'"),
        (lambda payload: [payload], "must hold an object"),
        (lambda payload: {k: v for k, v in payload.items() if k != "trunc"}, "lacks field 'trunc'"),
        (lambda payload: {**payload, "seq": {"kind": "power", "p": 2}}, "lacks field 'c'"),
        (_nan_side, "cube 1 side nan differs from weight"),
    ],
    ids=[
        "short-cube-row",
        "long-cube-row",
        "cubes-not-list",
        "seq-not-object",
        "seq-field-null",
        "outer-not-list",
        "trunc-not-integer",
        "top-level-list",
        "trunc-missing",
        "seq-lacks-c",
        "nan-side",
    ],
)
def test_malformed_set_is_exit_two(tmp_path, capsys, malform, named):
    out = ["--out-dir", str(tmp_path)]
    assert run(out + ["build-set", "--seq", "power:c=0.25,p=2", "--n", "30", "--out", "set.json"]) == 0
    path = tmp_path / "set.json"
    path.write_text(json.dumps(malform(json.loads(path.read_text()))))
    capsys.readouterr()
    assert run(out + ["cover", "--set", str(path), "--m", "2", "--s-hi", "2", "--out", "c.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "seq,named",
    [
        ('{"kind":"power","p":2}', "lacks field 'c'"),
        ("power:p=2", "lacks parameter 'c'"),
        ("geometric:c=1", "lacks parameter 'rho'"),
    ],
    ids=["json-power-lacks-c", "compact-power-lacks-c", "compact-geometric-lacks-rho"],
)
def test_missing_seq_field_is_named(capsys, seq, named):
    assert run(["indices", "--seq", seq]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "command",
    [
        ["dilate1d", "--in", "5", "--gamma", "2"],
        ["dilate1d", "--in", "[5]", "--gamma", "2"],
        ["dilate1d", "--in", "[[null, 1]]", "--gamma", "2"],
        ["dilate2d", "--in", '{"a": 1}', "--gamma", "2"],
        ["scan", "--set", "set.json", "--auxfn", "empty.csv", "--m", "2", "--s-hi", "2"],
        *(
            ["scan", "--set", "set.json", "--m", "2", "--s-hi", "2", "--points-at", f"0.5,0.95;{p}"]
            for p in ("1.5,0.5", "nan,0.5", "0,0.5")
        ),
    ],
    ids=[
        "dilate1d-number",
        "dilate1d-flat-list",
        "dilate1d-null",
        "dilate2d-object",
        "scan-empty-auxfn",
        "point-outside-box",
        "point-nan",
        "point-on-box-edge",
    ],
)
def test_malformed_input_is_exit_two(tmp_path, capsys, command):
    out = ["--out-dir", str(tmp_path)]
    assert run(out + ["build-set", "--seq", "power:c=0.25,p=2", "--n", "30", "--out", "set.json"]) == 0
    (tmp_path / "empty.csv").write_text("")
    command = [str(tmp_path / a) if a in ("set.json", "empty.csv") else a for a in command]
    capsys.readouterr()
    assert run(out + command) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("values", ["-inf,inf", "0.5,inf", "nan,nan"])
def test_non_finite_rate_row_is_exit_two(tmp_path, capsys, values):
    """A rate CSV row whose floor or deficit is not finite is a usage error
    (exit 2), not a crash."""
    out = ["--out-dir", str(tmp_path)]
    assert run(out + ["build-set", "--seq", "power:c=0.25,p=2", "--n", "30", "--out", "set.json"]) == 0
    rate = tmp_path / "rate.csv"
    rate.write_text(f"{cli.RATE_HEADER}\n-2.0,-1.0,{values}\n")
    capsys.readouterr()
    scan_args = ["scan", "--set", str(tmp_path / "set.json"), "--auxfn", str(rate), "--m", "2", "--s-hi", "2"]
    assert run(out + scan_args) == 2
    assert capsys.readouterr().err.startswith("error: floor and deficit must be finite")


@pytest.mark.parametrize("floor, deficit", [(1.0, 0.0), (1.5, -0.5)])
def test_rate_row_without_positive_deficit_is_refused(floor, deficit):
    """A deficit of 0 or below is no power of two 2^(2 - s): the row is
    refused as not dyadic, naming its values, not by log2's domain error."""
    text = f"{cli.RATE_HEADER}\n-2.0,-1.0,{floor},{deficit}\n"
    with pytest.raises(ValueError, match=f"not an exact dyadic pair: {floor}, {deficit}"):
        cli.rate_from_csv(text)


def test_zero_deficit_rate_row_is_exit_two(tmp_path, capsys):
    out = ["--out-dir", str(tmp_path)]
    assert run(out + ["build-set", "--seq", "power:c=0.25,p=2", "--n", "30", "--out", "set.json"]) == 0
    rate = tmp_path / "rate.csv"
    rate.write_text(f"{cli.RATE_HEADER}\n-2.0,-1.0,1.0,0.0\n")
    capsys.readouterr()
    scan_args = ["scan", "--set", str(tmp_path / "set.json"), "--auxfn", str(rate), "--m", "2", "--s-hi", "2"]
    assert run(out + scan_args) == 2
    assert capsys.readouterr().err.startswith("error: row values are not an exact dyadic pair: 1.0, 0.0")


@pytest.mark.parametrize(
    "command",
    [
        ["build-set", "--n", str(10**29)],
        ["build-set", "--n", str(2**31)],
        ["verify-all", "--level", "100"],
    ],
    ids=["build-set-1e29", "build-set-2^31", "verify-all-level-100"],
)
def test_truncation_beyond_cube_ids_is_exit_two(tmp_path, capsys, command):
    """Truncations past the largest int32 cube id stop before any area is
    computed, with exit 2 and a message that names the limit."""
    assert run(["--out-dir", str(tmp_path), *command, "--seq", "power:c=0.25,p=2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: truncation ") and "exceeds 2147483647" in err


@pytest.mark.parametrize(
    "command",
    [["build-set", "--n", "30"], ["verify-all", "--level", "2"]],
    ids=["build-set", "verify-all"],
)
def test_out_of_memory_is_exit_two(tmp_path, capsys, monkeypatch, command):
    """A packing that cannot be allocated ends with exit 2 and one error
    line, not a traceback and the findings code."""

    def exhausted(*args):
        raise MemoryError("Unable to allocate 16.0 GiB for an array")

    monkeypatch.setattr(cli, "build_packing", exhausted)
    assert run(["--out-dir", str(tmp_path), *command, "--seq", "power:c=0.25,p=2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: out of memory (MemoryError: Unable to allocate 16.0 GiB for an array)"
    assert not any(line.startswith("Traceback") for line in err)


def test_finding_is_exit_one():
    # terms of the quadrupling series rise for many blocks when p is barely > 1
    assert run(["diag", "series", "--seq", "power:c=1,p=1.05"]) == 1


# -- artifact commands ---------------------------------------------------------------

def test_indices_writes_json(tmp_path, capsys):
    code = run(["--out-dir", str(tmp_path), "indices", "--seq", "power:c=1,p=2", "--out", "idx.json"])
    assert code == 0
    payload = json.loads((tmp_path / "idx.json").read_text())
    assert payload["e_bt_est"] == pytest.approx(0.5)
    out = capsys.readouterr().out
    assert "e_bt" in out


def test_dilate1d_artifact(tmp_path):
    code = run(
        ["--out-dir", str(tmp_path), "dilate1d", "--in", "[[0,1]]", "--gamma", "2", "--out", "d.json"]
    )
    assert code == 0
    payload = json.loads((tmp_path / "d.json").read_text())
    assert payload["union"] == [[-2.0, 3.0]]
    assert payload["union_measure"] == 5.0
    assert payload["identity_rhs"] == 5.0


def test_dilate2d_artifact(tmp_path):
    code = run(
        ["--out-dir", str(tmp_path), "dilate2d", "--in", "[[0,1,0,1]]", "--gamma", "2", "--out", "d.json"]
    )
    assert code == 0
    payload = json.loads((tmp_path / "d.json").read_text())
    assert payload["measure"] == 25.0
    assert payload["rects"] == [[-2.0, 3.0, -2.0, 3.0]]


def test_auxfn_round_trip(tmp_path, canonical_ratefn):
    code = run(
        ["--out-dir", str(tmp_path), "auxfn", "--seq", "power:c=0.25,p=2", "--ell-max", "9", "--out", "rate.csv"]
    )
    assert code == 0
    text = (tmp_path / "rate.csv").read_text()
    assert text.splitlines()[0] == "t_lo_log,t_hi_log,floor,deficit"
    assert cli.rate_from_csv(text) == canonical_ratefn


def test_diag_littleo_artifact(tmp_path):
    code = run(
        ["--out-dir", str(tmp_path), "diag", "littleo", "--seq", "power:c=0.25,p=2", "--out", "lo.csv"]
    )
    assert code == 0
    lines = (tmp_path / "lo.csv").read_text().strip().splitlines()
    assert lines[0] == "ell,s_next,breakpoint_log,product"
    assert len(lines) == 9  # products for ell = 1..8


def test_diag_series_artifact(tmp_path):
    code = run(
        ["--out-dir", str(tmp_path), "diag", "series", "--seq", "geometric:c=1,rho=0.5", "--out", "s.csv"]
    )
    assert code == 0
    lines = (tmp_path / "s.csv").read_text().strip().splitlines()
    assert lines[0] == "series,s,term_lo_log,term_hi_log,ratio_to_prev"
    labels = {line.split(",")[0] for line in lines[1:]}
    assert labels == {"doubling_tail", "doubling_root_tail", "quadrupling_tail"}


# -- pipeline -------------------------------------------------------------------------

def test_build_scan_pipeline(tmp_path):
    base = ["--out-dir", str(tmp_path)]
    assert run(base, "build-set", "--seq", "power:c=0.25,p=2", "--n", "255", "--out", "set.json") == 0
    model = json.loads((tmp_path / "set.json").read_text())
    assert set(model) == {"outer", "cubes", "trunc", "seq"}
    assert run(base, "cover", "--set", str(tmp_path / "set.json"), "--m", "2", "--s-hi", "3", "--out", "cover.json") == 0
    cover = json.loads((tmp_path / "cover.json").read_text())
    assert [b["s"] for b in cover["blocks"]] == [2, 3]
    code = run(
        base,
        "scan",
        "--set", str(tmp_path / "set.json"),
        "--t", "0.25,0.05",
        "--points", "10",
        "--rects", "40",
        "--seed", "7",
        "--m", "2",
        "--s-hi", "3",
        "--out", "scan.csv",
        "--summary-out", "summary.json",
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True
    assert "runtime" not in json.dumps(summary)
    lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 10


def test_scan_adversarial_point_flagged(tmp_path):
    base = ["--out-dir", str(tmp_path)]
    assert run(base, "build-set", "--seq", "power:c=0.25,p=2", "--n", "255", "--out", "set.json") == 0
    code = run(
        base,
        "scan",
        "--set", str(tmp_path / "set.json"),
        "--t", "0.05",
        "--points", "1",
        "--rects", "50",
        "--m", "2",
        "--s-hi", "3",
        "--points-at", "0.25,0.25",
        "--out", "scan.csv",
    )
    assert code == 0
    row = (tmp_path / "scan.csv").read_text().strip().splitlines()[1]
    assert row.endswith("exceptional")


def test_scan_summary_counts_explicit_points(tmp_path):
    """With --points-at the summary's points field counts those points, not
    the unused --points default."""
    base = ["--out-dir", str(tmp_path)]
    assert run(base, "build-set", "--seq", "power:c=0.25,p=2", "--n", "255", "--out", "set.json") == 0
    code = run(
        base,
        "scan",
        "--set", str(tmp_path / "set.json"),
        "--t", "0.05",
        "--rects", "20",
        "--m", "2",
        "--s-hi", "3",
        "--points-at", "0.5,0.95;0.25,0.25",
        "--summary-out", "summary.json",
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["points"] == 2
    assert sum(summary["per_t"][0][k] for k in ("applicable", "deferred", "exceptional")) == 2


def test_verify_all_small(tmp_path):
    args = [
        "verify-all",
        "--seq", "power:c=0.25,p=2",
        "--level", "3",
        "--m", "2",
        "--points", "10",
        "--rects", "40",
        "--seed", "11",
    ]
    assert run(args, "--out-dir", str(tmp_path / "a")) == 0
    assert run(args, "--out-dir", str(tmp_path / "b")) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == [
        "cover.json",
        "envelope.csv",
        "indices.json",
        "littleo.csv",
        "rate.csv",
        "scan.csv",
        "scan_summary.json",
        "separation.csv",
        "series.csv",
        "set.json",
        "summary.csv",
    ]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    steps = (tmp_path / "a" / "summary.csv").read_text().strip().splitlines()
    assert steps[0] == "step,status,detail"
    assert all(line.split(",")[1] == "pass" for line in steps[1:])


def test_verify_all_names_the_first_degenerate_cube(tmp_path, capsys):
    """geometric rho = 1/2 has square sides that vanish against their
    float64 corners from cube 108 on: verify-all stops at build-set, exit 2,
    naming the cube by its global number."""
    code = run(
        ["verify-all", "--seq", "geometric:c=0.25,rho=0.5", "--level", "4", "--out-dir", str(tmp_path)]
    )
    assert code == 2
    assert "error: cube 108 is degenerate in float64" in capsys.readouterr().err
    assert (tmp_path / "littleo.csv").exists()
    assert not (tmp_path / "set.json").exists()


def test_verify_all_fails_on_diverging_littleo(tmp_path, monkeypatch):
    """A diverging little-o trace fails its verify-all step and the run."""

    def diverging(selection):
        return LittleOReport(little_o_check(selection).products, "diverging")

    monkeypatch.setattr(cli, "little_o_check", diverging)
    args = ["verify-all", "--seq", "power:c=0.25,p=2", "--level", "3", "--m", "2"]
    assert run(args, "--points", "10", "--rects", "40", "--out-dir", str(tmp_path)) == 1
    steps = (tmp_path / "summary.csv").read_text().splitlines()
    assert "diag-littleo,fail,verdict=diverging" in steps


def test_verify_all_samples_once(tmp_path, monkeypatch):
    """The scan's sampled points are handed to the separation check, so a
    verify-all run draws its points once."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return sample_points(*args, **kwargs)

    monkeypatch.setattr(scan, "sample_points", recording)
    args = ["verify-all", "--seq", "power:c=0.25,p=2", "--level", "4", "--seed", "42"]
    assert run(args, "--points", "10", "--rects", "40", "--out-dir", str(tmp_path)) == 0
    assert len(calls) == 1


def test_rate_csv_top_row_infinity(canonical_ratefn):
    text = cli.rate_to_csv(canonical_ratefn)
    top = text.splitlines()[1]
    assert top.split(",")[1] == "inf"
    assert math.isinf(cli.rate_from_csv(text).branches[-1].t_hi_log)


# -- pinned command bytes -------------------------------------------------------------

_SEQ = ["--seq", "power:c=0.25,p=2"]
_BUILD_SET = ["build-set", *_SEQ, "--n", "3124", "--out", "set.json"]
_SMALL_SCAN = ["scan", "--set", "out/set.json", "--points", "10", "--rects", "40", "--seed", "7"]

# Each run is a list of command lines, run in order with --out-dir out.
_COMMAND_RUNS = {
    "indices": [["indices", *_SEQ, "--out", "idx.json"]],
    "indices-onsets": [["indices", *_SEQ, "--theta", "0.9", "--delta", "0.9", "--out", "idx.json"]],
    "dilate1d": [["dilate1d", "--in", "[[0,1],[1,2],[3,3.5]]", "--gamma", "1.5", "--out", "d.json"]],
    "dilate2d": [
        ["dilate2d", "--in", "[[0,1,0,1],[1,2,0,1],[0,0.5,1,1.5]]", "--gamma", "2", "--out", "d.json"]
    ],
    "auxfn": [["auxfn", *_SEQ, "--out", "rate.csv"]],
    "auxfn-stdout": [["auxfn", *_SEQ]],
    "diag-series": [["diag", "series", *_SEQ, "--out", "series.csv"]],
    "diag-series-stdout": [["diag", "series", *_SEQ]],
    "diag-littleo": [["diag", "littleo", *_SEQ, "--out", "littleo.csv"]],
    "diag-littleo-stdout": [["diag", "littleo", *_SEQ]],
    "build-set": [_BUILD_SET],
    "cover": [_BUILD_SET, ["cover", "--set", "out/set.json", "--out", "cover.json"]],
    "scan": [
        _BUILD_SET,
        [
            *_SMALL_SCAN,
            "--out", "scan.csv",
            "--separation-out", "separation.csv",
            "--envelope-out", "envelope.csv",
            "--summary-out", "scan_summary.json",
        ],
    ],
    "scan-points-at": [
        _BUILD_SET,
        ["auxfn", *_SEQ, "--out", "rate.csv"],
        [
            *_SMALL_SCAN,
            "--auxfn", "out/rate.csv",
            "--points-at", "0.77,0.601;0.25,0.25;0.5,0.95",
            "--out", "scan.csv",
            "--separation-out", "separation.csv",
            "--envelope-out", "envelope.csv",
            "--summary-out", "scan_summary.json",
        ],
    ],
}


def _command_digests(argvs, capsys) -> dict:
    """Exit codes of the command lines, run in the current directory with
    the relative --out-dir out, and the sha256 of their joined stdout and
    of every file they write.  Stderr holds the scan's run time and is
    not read."""
    codes = [cli.main(["--out-dir", "out", *argv]) for argv in argvs]
    digests = {"codes": codes, "stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted(p for p in Path("out").rglob("*") if p.is_file()):
        digests[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


_PINNED_DIGESTS = {
    "auxfn": {
        "codes": [0],
        "stdout": "4f77237caab1a44b5b9763593976be643ca46da64648d0abfbefae2c2e19dbd5",
        "out/rate.csv": "5938b9d7368eafecd78186b396c0772b1afa3623aedea06d22c8ded5c0c66d1e",
    },
    "auxfn-stdout": {
        "codes": [0],
        "stdout": "5938b9d7368eafecd78186b396c0772b1afa3623aedea06d22c8ded5c0c66d1e",
    },
    "build-set": {
        "codes": [0],
        "stdout": "1a336db1725a7d0cf27c64bd99df6c0f6e9bfd5e76287eeed8ea81eeea707a30",
        "out/set.json": "9e400e3589bba6a265818fdcd1a1d59ee535fc10fa2ee2e84662406ea9f061b6",
    },
    "cover": {
        "codes": [0, 0],
        "stdout": "2a43c0b383beceaa5a658401340ba492211e7861f7982cb802b3ae1462f1944f",
        "out/cover.json": "8dfb5b0cbe93222d66f46ee493ed3d56edb2b466872e48d18cb559ef0e1e5365",
        "out/set.json": "9e400e3589bba6a265818fdcd1a1d59ee535fc10fa2ee2e84662406ea9f061b6",
    },
    "diag-littleo": {
        "codes": [0],
        "stdout": "1b8005b7659f83b2db5a18b08a303fbc21be3bb4c2be16fe3fa08e74a22107fa",
        "out/littleo.csv": "91594361ea204869a7346b26262dfff99245a0295eb1f9f417ccc0efe8879824",
    },
    "diag-littleo-stdout": {
        "codes": [0],
        "stdout": "1c615cab08a4150f04cf1d2a2c3331d8d16e59506bc34a53c094c013f6637374",
    },
    "diag-series": {
        "codes": [0],
        "stdout": "8488cb8a99cb4a0ab6b726034adb343604d5939c4495f47b2b54a0e8eca20310",
        "out/series.csv": "a690a9af9242f5a1fda828d9ff8965052287d3d9d88c3d136acc007f699f1fcd",
    },
    "diag-series-stdout": {
        "codes": [0],
        "stdout": "f4f73550b205f2a8c18a5dda6df847233d3e018cf076f2944d55ef497d51fdcc",
    },
    "dilate1d": {
        "codes": [0],
        "stdout": "cd4421332083a24df21ac65c0e4f3c98efa622b10734726e7cbcb1da75519c7a",
        "out/d.json": "0b06847ca69eeb5d55918d747b839389c56778f720c4dd8df830d1dc14b6c0c0",
    },
    "dilate2d": {
        "codes": [0],
        "stdout": "eaa607350ef22ea45fff29fd665592948773566b4fd127d86fe98eebbce17028",
        "out/d.json": "f3e996c633dab2ced9f21313c7778dc52c3431a512c56225ae55e4f9dc6f29d1",
    },
    "indices": {
        "codes": [0],
        "stdout": "2804830cc78673a616b72accc90df9cdb5f158da775bb683c252472c88e1d1c2",
        "out/idx.json": "32c9caa8b15d60e1569b94a4f38301ae12d6670f7d2c8954b0955c37b06ffc5e",
    },
    "indices-onsets": {
        "codes": [0],
        "stdout": "0e907b3933318203b24cc9ced465ab641a2c9e368b50dd2a23f308f5d2582875",
        "out/idx.json": "a856b617dd4e4920017325a13129cc902aabbca25b790abcb5e5ffad3e677e05",
    },
    "scan": {
        "codes": [0, 0],
        "stdout": "a7fce9d227cb31b2dffa27f230cb44b88af7ca3550030a92ae9b7f9eedabbc83",
        "out/envelope.csv": "e25c043f28ede2b87f10b76e5bd92d60ecda2eb124a43e1c3fd66072d9427e2c",
        "out/scan.csv": "ad0ad724c426485be8dca3f1633f42323e7acedbe2d6dcb46cc6957ad4ef966e",
        "out/scan_summary.json": "65f14735234454416a140a3e7df9ced4bc0233763509310ff3452eca3205d859",
        "out/separation.csv": "c76644e50f030974226916f9654a5529a06b544cda3c0d3a32611e8012f8cf37",
        "out/set.json": "9e400e3589bba6a265818fdcd1a1d59ee535fc10fa2ee2e84662406ea9f061b6",
    },
    "scan-points-at": {
        "codes": [0, 0, 0],
        "stdout": "7ec4c814e4f7852e971bb56a5ae3744618998cbe2b0e14d2a1f257b7a46dfeee",
        "out/envelope.csv": "24b06c1e5263539d2da4775dfff7fdf03e6cecf21246391aa632a32f9ee0acf0",
        "out/rate.csv": "5938b9d7368eafecd78186b396c0772b1afa3623aedea06d22c8ded5c0c66d1e",
        "out/scan.csv": "d09ea5c3be15636b8506efe465b43ff039cbfe9d63571d525618118b62fd4ee2",
        "out/scan_summary.json": "e86ac56560a58c55b0821428b22bee97ae3a9ee8a6d2f93f43c4202cda238488",
        "out/separation.csv": "21951eac4580b680d357f1bc94bf7e4379d796a43f2392b88c4588a0338b3373",
        "out/set.json": "9e400e3589bba6a265818fdcd1a1d59ee535fc10fa2ee2e84662406ea9f061b6",
    },
}


@pytest.mark.parametrize("name", sorted(_COMMAND_RUNS))
def test_command_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    """Golden digests of each single-purpose command's stdout and
    artifacts.  The cube sides, the rate function and the sampled points go
    through ``math.log`` and ``math.exp``, so, as for the verify-all
    digests, these are those of the libm they were recorded with (glibc on
    x86-64)."""
    monkeypatch.chdir(tmp_path)
    assert _command_digests(_COMMAND_RUNS[name], capsys) == _PINNED_DIGESTS[name]
