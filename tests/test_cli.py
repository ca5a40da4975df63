import json
from fractions import Fraction

import pytest

import greedyaug as ga
from greedyaug import cli, verify
from greedyaug.families import FAMILIES, CriticalParams, _oracle_from_parts

F = Fraction


def run(args):
    return cli.main(args)


class TestTrace:
    def test_trace_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run(
            ["trace", "--family", "critical",
             "--params", '{"gamma": "1", "alpha": "1", "k": 2}',
             "--k", "4", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,pick,gain,value,ties"
        assert lines[1] == "1,a1,1/2,1/2,2"
        assert lines[4] == "4,b2,1/8,1,1"

    def test_trace_zero_k_header_only(self, tmp_path):
        out = tmp_path / "trace.csv"
        run(
            ["trace", "--family", "critical",
             "--params", '{"gamma": "1", "alpha": "1", "k": 2}',
             "--k", "0", "--out", str(out)]
        )
        assert out.read_text() == "step,pick,gain,value,ties\n"

    def test_trace_is_byte_deterministic(self, tmp_path):
        args = ["trace", "--family", "critical",
                "--params", '{"gamma": "1/2", "alpha": "1", "k": 3}']
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(first)])
        run(args + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_trace_from_instance_file(self, tmp_path):
        inst_path = tmp_path / "gk.json"
        run(["gen-instance", "--family", "gk", "--params", '{"alpha": 1, "k": 2}',
             "--out", str(inst_path)])
        out = tmp_path / "trace.csv"
        run(["trace", "--instance", str(inst_path), "--k", "2", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[1].startswith("1,t1,4,4")
        assert lines[2].startswith("2,t2,2,6")

    def test_bad_params_exit(self):
        with pytest.raises(SystemExit):
            run(["trace", "--family", "critical", "--params", "{not json"])

    def test_missing_descriptor_exit(self):
        with pytest.raises(SystemExit):
            run(["trace", "--k", "1"])


class TestAudit:
    def test_bundle_contents(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run(
            ["audit", "--family", "ratio_separator", "--params",
             '{"gamma": "1/2", "alphas": ["1", "2"]}', "--scope", "strong",
             "--out", str(out)]
        )
        assert code == 0
        bundle = json.loads(out.read_text())
        assert bundle["weak_ratio"]["value"] == "1/2"
        assert bundle["alpha_augmentable"]["1"]["verdict"] == "non-member"
        assert bundle["gamma_alpha"]["1"]["verdict"] == "member"
        assert bundle["min_alpha"] == "1/2"

    def test_modular_objective_is_member_everywhere(self, tmp_path):
        out = tmp_path / "audit.json"
        run(
            ["audit", "--family", "modular", "--params",
             '{"weights": ["3", "1", "2"], "gamma": "1", "alphas": ["1"]}',
             "--scope", "strong", "--out", str(out)]
        )
        bundle = json.loads(out.read_text())
        assert bundle["weak_ratio"]["value"] == "1"
        assert bundle["alpha_augmentable"]["1"]["verdict"] == "member"
        assert bundle["gamma_alpha"]["1"]["verdict"] == "member"
        assert bundle["min_alpha"] == "1"

    def test_rank_section_present_for_system_families(self, tmp_path):
        out = tmp_path / "audit.json"
        run(
            ["audit", "--family", "rank_separator", "--params",
             '{"q": "1/2", "alpha": "1", "m": 1, "n": 2, "gamma": "1", "alphas": ["2"]}',
             "--scope", "weak", "--tie", "high", "--out", str(out)]
        )
        bundle = json.loads(out.read_text())
        assert bundle["rank_quotient"]["quotient"] == "1/2"
        assert bundle["weak_ratio"]["value"] == "0"
        assert bundle["min_alpha"] == "2"


class TestRatioTable:
    def test_critical_rows(self, tmp_path):
        out = tmp_path / "table.csv"
        run(
            ["ratio-table", "--family", "critical",
             "--params", '{"gamma": "1", "alpha": "1"}',
             "--k", "2,4,8", "--out", str(out)]
        )
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == list(cli.RATIO_HEADER)
        by_k = {row[0]: row for row in rows[1:]}
        assert by_k["2"][1] == by_k["2"][2] == "4/3"
        assert by_k["4"][1] == by_k["4"][2]
        assert by_k["8"][1] == "" and by_k["8"][6] == "closed-form-only"
        assert by_k["4"][5] == by_k["8"][5] == "yes"  # gap to the limit shrinks

    def test_staircase_rows_and_gnuplot(self, tmp_path):
        out = tmp_path / "gk.csv"
        run(
            ["ratio-table", "--family", "gk", "--params", '{"alpha": 2}',
             "--k", "2,3", "--out", str(out), "--gnuplot"]
        )
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[1][2] == "32/15"
        assert rows[1][6] == "closed-form-only"
        assert (tmp_path / "gk.csv.gp").exists()

    def test_measured_column_within_guard(self, tmp_path):
        out = tmp_path / "gk.csv"
        run(
            ["ratio-table", "--family", "gk", "--params", '{"alpha": 1}',
             "--k", "2", "--out", str(out)]
        )
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[1][1] == rows[1][2] == "4/3"

    def test_empty_k_list_header_only(self, tmp_path):
        out = tmp_path / "table.csv"
        run(["ratio-table", "--family", "critical",
             "--params", '{"gamma": "1", "alpha": "1"}', "--out", str(out)])
        assert out.read_text() == ",".join(cli.RATIO_HEADER) + "\n"


class TestVerify:
    def test_default_run_passes(self, capsys, tmp_path):
        out = tmp_path / "summary.json"
        code = run(["verify-paper", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "FAIL" not in printed
        summary = json.loads(out.read_text())
        assert summary["failures"] == 0
        assert len(summary["checks"]) == len(verify.CHECKS)

    def test_filter_subset(self, capsys):
        code = run(["verify-paper", "--filter", "staircase"])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed == ["PASS staircase-family"]

    def test_empty_filter_runs_nothing(self, capsys):
        code = run(["verify-paper", "--filter", ""])
        assert code == 0
        assert capsys.readouterr().out.strip() == ""

    def test_corrupted_oracle_fails_pick_order(self):
        params = CriticalParams(F(1), F(1), 3)
        gains = params.step_gains()
        gains[1] *= 2  # fault injection: second gain doubled
        corrupted = _oracle_from_parts(params, gains)
        result = verify.critical_pick_order_check(oracle=corrupted, k=3)
        assert not result.ok
        assert result.detail.startswith("step ")  # names the first divergent step


class TestGenInstance:
    def test_flow_instance_round_trip(self, tmp_path):
        out = tmp_path / "two_sink.json"
        run(["gen-instance", "--family", "two_sink", "--params", '{"alpha": 2}',
             "--out", str(out)])
        inst = ga.FlowInstance.from_json(out.read_text())
        assert inst == ga.make_two_sink_instance(2)

    def test_family_descriptor_validated(self, tmp_path):
        out = tmp_path / "desc.json"
        run(["gen-instance", "--family", "critical",
             "--params", '{"gamma": "1/2", "alpha": "1", "k": 4}', "--out", str(out)])
        descriptor = json.loads(out.read_text())
        assert ga.oracle_from_descriptor(descriptor).oracle.n == 8
        with pytest.raises(SystemExit):
            run(["gen-instance", "--family", "critical", "--params", '{"gamma": "2"}'])


TWO_SINK_JSON = ga.make_two_sink_instance(2).to_json_dict()
# Source 1 between sinks 0 and 2, so a JSON true or 1.0 is a valid vertex once coerced.
THREE_VERTEX_JSON = {"vertices": 3, "source": 1, "sinks": [0, 2], "arcs": [[1, 0], [1, 2], [0, 2]],
                     "capacities": [["1", "2", "1/2"]]}
CRITICAL_1_1_2 = '{"gamma": "1", "alpha": "1", "k": 2}'


@pytest.mark.parametrize(
    "argv, instance, fragment",
    [
        pytest.param(["trace", "--family", "critical", "--params",
                      '{"gamma": "1", "alpha": "1", "k": null}'], None, "int()", id="null-k"),
        pytest.param(["gen-instance", "--family", "gk", "--params", '{"alpha": null, "k": 2}'],
                     None, "int()", id="null-alpha"),
        pytest.param(["trace"], {**TWO_SINK_JSON, "arcs": None}, "--instance", id="null-arcs"),
        pytest.param(["trace"], [TWO_SINK_JSON], "--instance", id="array-instance"),
        pytest.param(["trace", "--family", "critical", "--params", CRITICAL_1_1_2, "--k", "9"],
                     None, "k=9 outside 0..4", id="k-too-large"),
        pytest.param(["trace", "--family", "critical", "--params", CRITICAL_1_1_2, "--k", "x"],
                     None, "'x'", id="k-not-int"),
        pytest.param(["ratio-table", "--family", "critical", "--k", "2,x"], None, "'x'",
                     id="k-list-not-int"),
        pytest.param(["ratio-table", "--family", "critical", "--params", '{"alpha": "2"}',
                      "--k", "2"], None, "k must exceed alpha", id="k-not-above-alpha"),
        pytest.param(["trace", "--family", "critical", "--params", '{"gamma": "1"}'], None,
                     "missing key 'alpha'", id="missing-key"),
        pytest.param(["trace", "--family", "mystery"], None, "unknown family tag 'mystery'",
                     id="unknown-tag"),
        pytest.param(["ratio-table", "--family", "square", "--k", "2"], None, "not 'square'",
                     id="not-tabulable"),
        pytest.param(["audit", "--family", "modular", "--params",
                      '{"weights": ["1"], "alphas": "12"}'], None,
                     "alphas must be a JSON list", id="alphas-string"),
        pytest.param(["audit", "--family", "modular", "--params",
                      '{"weights": ["1"], "alphas": "3/2"}'], None,
                     "alphas must be a JSON list", id="alphas-rational-string"),
        pytest.param(["trace", "--family", "critical", "--params",
                      '{"gamma": "1", "alpha": "1", "k": 2.9}'], None,
                     "k must be a JSON integer, got 2.9", id="float-k"),
        pytest.param(["trace", "--family", "modular", "--params", '{"weights": "12"}'], None,
                     "weights must be a JSON list, got '12'", id="weights-string"),
        pytest.param(["trace", "--family", "square", "--params", '{"n": true}'], None,
                     "n must be a JSON integer, got True", id="bool-n"),
        pytest.param(["trace", "--family", "uniform_matroid", "--params",
                      '{"n": 3, "rank": 1.5}'], None,
                     "rank must be a JSON integer, got 1.5", id="float-rank"),
        pytest.param(["gen-instance", "--family", "two_sink", "--params", '{"alpha": 2.7}'],
                     None, "alpha must be a JSON integer, got 2.7", id="float-alpha"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "source": True}, "source must be a JSON "
                     "integer, got True", id="bool-source"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "arcs": [[1, 0], [1, 2], [0, True]]},
                     "arc endpoint must be a JSON integer, got True", id="bool-arc-endpoint"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "capacities": [["1", True, "1/2"]]},
                     'capacity must be a "p/q" string, a JSON integer or "inf", got True',
                     id="bool-capacity"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "capacities": [["1", "2", 0.1]]},
                     'capacity must be a "p/q" string, a JSON integer or "inf", got 0.1',
                     id="float-capacity"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "sinks": [0, 2.0]},
                     "sink must be a JSON integer, got 2.0", id="float-sink"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "labels": "abc"},
                     "labels must be a JSON list of strings, got 'abc'", id="labels-string"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "labels": [1, 2, 3]},
                     "labels must be a JSON list of strings, got [1, 2, 3]", id="labels-ints"),
        pytest.param(["trace", "--family", "critical", "--params",
                      '{"gamma": true, "alpha": "1", "k": 2}'], None,
                     'gamma must be a "p/q" string or a JSON integer, got True', id="bool-gamma"),
        pytest.param(["trace", "--family", "critical", "--params",
                      '{"gamma": "1", "alpha": 1.0, "k": 2}'], None,
                     'alpha must be a "p/q" string or a JSON integer, got 1.0',
                     id="float-alpha-rational"),
        pytest.param(["trace", "--family", "modular", "--params", '{"weights": [0.1, "1/3"]}'],
                     None, 'weights entry must be a "p/q" string or a JSON integer, got 0.1',
                     id="float-weight"),
        pytest.param(["trace", "--family", "modular", "--params", '{"weights": ["1", true]}'],
                     None, 'weights entry must be a "p/q" string or a JSON integer, got True',
                     id="bool-weight"),
        pytest.param(["audit", "--family", "modular", "--params",
                      '{"weights": ["1"], "alphas": [1.5]}'], None,
                     'alphas entry must be a "p/q" string or a JSON integer, got 1.5',
                     id="float-alphas-entry"),
    ],
)
def test_bad_input_exits_with_one_line(tmp_path, argv, instance, fragment):
    if instance is not None:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        argv = argv + ["--instance", str(path)]
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message
    assert fragment in message


# One sample descriptor per registered tag; a new tag needs a sample here.
SAMPLES = {
    "critical": {"gamma": "1/2", "alpha": "1", "k": 3, "method": "exhaustive"},
    "ratio_separator": {"gamma": "1/3"},
    "rank_separator": {"q": "1/2", "alpha": "1", "m": 1, "n": 2},
    "square": {"n": 3},
    "modular": {"weights": ["3", "1/2", "2"]},
    "uniform_matroid": {"n": 4, "rank": 2, "weights": ["1", "3", "2", "2"]},
    "gk": {"alpha": 1, "k": 2, "epsilon": "1/10"},
    "staircase": {"alpha": 1, "k": 2},
    "two_sink": {"alpha": 2},
    "zero_ratio": {},
    "flow": {"instance": TWO_SINK_JSON},
}


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_trace_matches_generated_instance(tmp_path, capsys, tag):
    params = json.dumps(SAMPLES[tag])
    assert run(["trace", "--family", tag, "--params", params]) == 0
    direct = capsys.readouterr().out
    written = tmp_path / "instance.json"
    run(["gen-instance", "--family", tag, "--params", params, "--out", str(written)])
    if FAMILIES[tag].flow is not None:
        run(["trace", "--instance", str(written)])
    else:
        descriptor = json.loads(written.read_text())
        run(["trace", "--family", descriptor["family"], "--params", written.read_text()])
    assert capsys.readouterr().out == direct
    assert direct.count("\n") > 1
