import json
import math

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
