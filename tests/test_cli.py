import builtins
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

import greedyaug as ga
from greedyaug import cli, exactlp, verify
from greedyaug.families import FAMILIES, CriticalParams, _oracle_from_parts
from conftest import replace

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

    def test_sections_over_the_budget_report_the_refusal(self, capsys):
        """critical k = 8 is n = 16, past the strong budget: each strong section
        holds the refusal, the weak ratio is computed, and the command exits 0."""
        code = run(["audit", "--family", "critical", "--params",
                    '{"gamma": "1/2", "alpha": "1", "k": 8}', "--scope", "strong"])
        assert code == 0
        bundle = json.loads(capsys.readouterr().out)
        refusal = {"error": "strong-scope audit over n=16: 44095297 steps exceed the budget "
                            "of 16777216"}
        for section in ("alpha_augmentable", "gamma_alpha", "min_alpha"):
            assert bundle[section] == refusal
        assert bundle["weak_ratio"] == {"X": list(range(8)), "Y": list(range(8, 16)),
                                        "value": "5764801/180336136"}

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

    def test_longest_printable_closed_forms(self, capsys):
        # One k past each of these is refused: its closed form has too many digits to print.
        for family, params, k in (("critical", "{}", 1370), ("gk", '{"alpha": 2}', 748)):
            assert run(["ratio-table", "--family", family, "--params", params, "--k", str(k)]) == 0
            assert capsys.readouterr().out.splitlines()[1].startswith(f"{k},,")

    def test_huge_k_refused_without_computing_the_closed_form(self, monkeypatch):
        def never(*args):
            raise AssertionError("closed form computed")

        critical = replace(FAMILIES["critical"], ratio=never)
        monkeypatch.setitem(FAMILIES, "critical", critical)
        with pytest.raises(SystemExit, match="k=1000000000000: the exact closed form"):
            run(["ratio-table", "--family", "critical", "--k", str(10**12)])

    def test_empty_k_list_is_refused_before_writing(self, tmp_path):
        out = tmp_path / "table.csv"
        argv = ["ratio-table", "--family", "critical",
                "--params", '{"gamma": "1", "alpha": "1"}', "--out", str(out)]
        for k in ([], ["--k", ""], ["--k", " , "]):
            with pytest.raises(SystemExit, match="needs --k, a comma list of k values"):
                run(argv + k)
            assert not out.exists()


def _shifted_witness(side, shift):
    def corrupt(audit):
        def corrupted(f, alpha):
            report = audit(f, alpha)
            witness = replace(report.witness, **{side: getattr(report.witness, side) + shift})
            return replace(report, witness=witness)

        return corrupted

    return corrupt


def _constant(value):
    return lambda original: lambda *args, **kwargs: value


def _flows_with(**changes):
    """verify's ``flows`` module with ``changes`` to its names."""
    return lambda flows: SimpleNamespace(**{**vars(flows), **changes})


def _last_value_raised(greedy):
    def corrupted(f, k):
        trace = greedy(f, k)
        return replace(trace, values=trace.values[:-1] + (trace.values[-1] + 1,))

    return corrupted


REJECTED = SimpleNamespace(member=False)
ACCEPTED = SimpleNamespace(member=True)
UNIFORM = ga.uniform_matroid(4, 2, [3, 1, 2, 2])

# Faults pushed through the per-case functions of greedyaug.verify, one for each
# failure detail they return: (case, its arguments, the name replaced in verify's
# namespace, the replacement built from the original, a fragment of the detail the
# case must then return).  A builtin such as ``max`` is shadowed by a module global.
FAULTS = [
    pytest.param(verify.critical_ratio_case, (1, 1, 3), "critical_ratio_closed_form",
                 lambda orig: lambda g, a, k: orig(g, a, k) + 1, "closed form", id="ratio"),
    pytest.param(verify.critical_weak_case, (1, 1, 3), "make_critical_function",
                 lambda orig: lambda g, a, k: orig(g, a + 1, k), "rejected at X=", id="weak"),
    pytest.param(verify.critical_strong_case, (1, 2, 3, 2), "make_critical_function",
                 lambda orig: lambda g, a, k: orig(F(1, 2), a, k), "rejected at alpha=2",
                 id="strong-member"),
    pytest.param(verify.critical_strong_case, (F(1, 2), 1, 3, 1), "check_alpha_augmentable",
                 _shifted_witness("lhs", -1), "does not re-verify", id="strong-witness-lhs"),
    pytest.param(verify.critical_strong_case, (F(1, 2), 1, 3, 1), "check_alpha_augmentable",
                 _shifted_witness("rhs", 1), "does not re-verify", id="strong-witness-rhs"),
    pytest.param(verify.ratio_separator_case, (F(1, 2),), "make_ratio_separator",
                 lambda orig: lambda g: orig(g / 2), "weak ratio 1/4 != 1/2", id="ratio-separator"),
    pytest.param(verify.rank_separator_case, (), "rank_quotient",
                 _constant(SimpleNamespace(quotient=F(1, 3))), "rank quotient 1/3",
                 id="rank-separator"),
    pytest.param(verify.square_case, (), "make_square_cardinality",
                 lambda orig: lambda n: ga.make_modular([1] * n), "accepted at alpha=1/2",
                 id="square"),
    pytest.param(verify.two_sink_case, (), "check_alpha_augmentable", _constant(REJECTED),
                 "not augmentable", id="two-sink"),
    pytest.param(verify.zero_ratio_case, (), "weak_submodularity_ratio",
                 _constant(SimpleNamespace(value=F(1))), "weak ratio 1 != 0", id="zero-ratio"),
    pytest.param(verify.staircase_case, (1, 2), "approximation_ratio",
                 lambda orig: lambda f: (orig(f)[0], 1), "approximation_ratio", id="staircase"),
    pytest.param(verify.containment_case, ("modular", ga.make_modular([3, 1, 2]), None),
                 "check_gamma_alpha_augmentable", _constant(REJECTED),
                 "modular: strong alpha=1 but weak 1-1 fails", id="containment"),
    pytest.param(verify.containment_case, ("uniform", ga.weighted_rank_oracle(UNIFORM), UNIFORM),
                 "rank_quotient", _constant(SimpleNamespace(quotient=F(0))),
                 "rank quotient 0 is not positive", id="containment-quotient"),
    pytest.param(verify.independence_bound_case, (UNIFORM, 1), "check_exchange_equivalences",
                 _constant(SimpleNamespace(ok=False, violations=[SimpleNamespace(step=2)])),
                 "exchange equivalence broken at step 2", id="independence-bound"),
    pytest.param(verify.critical_pick_order_case, (), "CriticalParams",
                 lambda orig: lambda g, a, k: SimpleNamespace(
                     step_gains=lambda: [2 * x for x in orig(g, a, k).step_gains()]),
                 "step 1: gain 1/3 differs from geometric 2/3", id="pick-order-gain"),
    pytest.param(verify.critical_strong_case, (F(1, 2), 1, 3, 1), "check_alpha_augmentable",
                 _constant(ACCEPTED), "critical(gamma=1/2,alpha=1,k=3) accepted at alpha=1",
                 id="strong-non-member"),
    pytest.param(verify.ratio_separator_case, (F(1, 2),), "check_alpha_augmentable",
                 _constant(ACCEPTED), "gamma=1/2: accepted at alpha=1 despite the pair jump",
                 id="ratio-separator-alpha"),
    pytest.param(verify.ratio_separator_case, (F(1, 2),), "check_gamma_alpha_augmentable",
                 _constant(REJECTED), "not weakly 1/2-1/2-augmentable",
                 id="ratio-separator-weak"),
    pytest.param(verify.rank_separator_case, (), "weak_submodularity_ratio",
                 _constant(SimpleNamespace(value=F(1, 2))),
                 "weak ratio 1/2 != 0 under the saturating policy", id="rank-separator-ratio"),
    pytest.param(verify.rank_separator_case, (), "weak_submodularity_ratio",
                 _constant(SimpleNamespace(value=F(0), x_set=0, y_set=0b1)),
                 "weak ratio witness X=[], Y=['a1'], not X=['c'], Y=['b1', 'b2']",
                 id="rank-separator-witness"),
    pytest.param(verify.rank_separator_case, (), "min_alpha_for", _constant(F(3)),
                 "tightest alpha 3 != 1/q = 2", id="rank-separator-alpha"),
    pytest.param(verify.square_case, (), "check_gamma_alpha_augmentable",
                 _constant(SimpleNamespace(member=False, witness=SimpleNamespace(x_set=0b1))),
                 "expected the empty set as the violating X", id="square-witness"),
    pytest.param(verify.square_case, (), "approximation_ratio", _constant((F(2), 1)),
                 "greedy is supposed to be optimal, measured ratio 2", id="square-ratio"),
    pytest.param(verify.two_sink_case, (), "flows",
                 _flows_with(objective_oracle=lambda inst: ga.make_modular([2, 2])),
                 "values [Fraction(0, 1), Fraction(2, 1), Fraction(2, 1), Fraction(4, 1)] "
                 "!= [0, 2, 2, 3]", id="two-sink-values"),
    pytest.param(verify.two_sink_case, (), "max", lambda orig: lambda a, b: a + b - 1,
                 "values would admit a weighted rank representation", id="two-sink-rank"),
    pytest.param(verify.zero_ratio_case, (), "greedy_adaptive",
                 lambda orig: lambda f, k: orig(f, k, "high"), "first pick t3 != t2",
                 id="zero-ratio-pick"),
    pytest.param(verify.zero_ratio_case, (), "check_alpha_augmentable", _constant(REJECTED),
                 "rejected at the instance's commodity count", id="zero-ratio-rejected"),
    pytest.param(verify.zero_ratio_case, (), "check_alpha_augmentable", _constant(ACCEPTED),
                 "accepted at one commodity; separation lost", id="zero-ratio-accepted"),
    pytest.param(verify.staircase_case, (1, 2), "greedy_adaptive",
                 lambda orig: lambda f, k: orig(f, k, "high"), "pick order ['t4', 't3']",
                 id="staircase-picks"),
    pytest.param(verify.staircase_case, (1, 2), "greedy_adaptive", _last_value_raised,
                 "greedy value 7", id="staircase-greedy"),
    pytest.param(verify.staircase_case, (1, 2), "optimum_value",
                 lambda orig: lambda f, k, upper_bound: orig(f, k, upper_bound) + 1,
                 "optimum 9", id="staircase-optimum"),
    pytest.param(verify.staircase_case, (1, 2), "flows",
                 _flows_with(lower_bound_ratio_closed_form=lambda alpha, k: F(2)),
                 "ratio 4/3 != closed form 2", id="staircase-closed-form"),
    pytest.param(verify.staircase_case, (1, 2), "sum", lambda orig: lambda terms: orig(terms) + 1,
                 "geometric capacity identity fails at n=1", id="staircase-identity"),
    pytest.param(verify.containment_case, ("ratio-sep", ga.make_ratio_separator(F(1, 2)), None),
                 "check_gamma_alpha_augmentable", _constant(REJECTED),
                 "ratio-sep: weak ratio 1/2 but weak 1/2-1/2 fails", id="containment-ratio"),
    pytest.param(verify.containment_case, ("uniform", ga.weighted_rank_oracle(UNIFORM), UNIFORM),
                 "check_gamma_alpha_augmentable",
                 lambda orig: lambda f, g, a, scope: REJECTED if g == F(1, 2) else orig(
                     f, g, a, scope=scope),
                 "uniform: quotient 1 but weak 1/2-1/2 fails", id="containment-quotient-audit"),
    pytest.param(verify.independence_bound_case, (UNIFORM, 1), "min_alpha_for",
                 _constant(math.inf), "no finite alpha at gamma=1", id="independence-no-alpha"),
    pytest.param(verify.independence_bound_case, (UNIFORM, 1), "check_gamma_alpha_augmentable",
                 _constant(REJECTED), "audit fails at gamma=1, alpha=1",
                 id="independence-audit"),
    pytest.param(verify.independence_bound_case, (UNIFORM, 1), "_greedy_against_optimum",
                 lambda orig: lambda f, tie: [(k, F(0), *rest) for k, _, *rest in orig(f, tie)],
                 "k=1 greedy 0 below 1*3/1", id="independence-greedy"),
]


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
        detail = verify.critical_pick_order_case(oracle=corrupted)
        assert detail.startswith("step ")  # names the first divergent step

    @pytest.mark.parametrize("case, args, name, corrupt, fragment", FAULTS)
    def test_fault_surfaces_as_detail(self, monkeypatch, case, args, name, corrupt, fragment):
        assert case(*args) == ""
        original = getattr(verify, name) if hasattr(verify, name) else getattr(builtins, name)
        monkeypatch.setattr(verify, name, corrupt(original), raising=False)
        assert fragment in case(*args)

    def test_failing_case_fails_verify_paper(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(verify, "critical_ratio_closed_form", lambda gamma, alpha, k: F(0))
        detail = verify.critical_ratio_case(1, 1, 3)
        assert detail
        out = tmp_path / "summary.json"
        assert run(["verify-paper", "--out", str(out)]) == 1
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == f"FAIL critical-ratio-tightness: {detail}"
        assert printed[1:] == [f"PASS {check_id}" for check_id, _ in verify.CHECKS[1:]]
        summary = json.loads(out.read_text())
        assert summary["failures"] == 1
        assert summary["checks"]["critical-ratio-tightness"] == {"ok": False, "detail": detail}


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
# Sink 1 is fed without limit, so every selection holding it is unbounded.
UNBOUNDED_JSON = {"vertices": 3, "source": 0, "sinks": [1, 2], "arcs": [[0, 1], [0, 2]],
                  "capacities": [["inf", "1"]]}
CRITICAL_1_1_2 = '{"gamma": "1", "alpha": "1", "k": 2}'


@pytest.mark.parametrize(
    "argv, instance, fragment",
    [
        pytest.param(["trace", "--family", "critical", "--params",
                      '{"gamma": "1", "alpha": "1", "k": null}'], None, "int()", id="null-k"),
        pytest.param(["gen-instance", "--family", "gk", "--params", '{"alpha": null, "k": 2}'],
                     None, "int()", id="null-alpha"),
        pytest.param(["trace"], {**TWO_SINK_JSON, "arcs": None},
                     "arcs must be a JSON list of [tail, head] lists, got None", id="null-arcs"),
        pytest.param(["trace"], [TWO_SINK_JSON],
                     "a flow instance must be a JSON object, got list", id="array-instance"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "arcs": [[0, 1, 2]]},
                     "arcs must be a JSON list of [tail, head] lists, got [[0, 1, 2]]",
                     id="three-endpoint-arc"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "arcs": "ab"},
                     "arcs must be a JSON list of [tail, head] lists, got 'ab'", id="arcs-string"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "sinks": 1},
                     "sinks must be a JSON list, got 1", id="sinks-int"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "name": 5},
                     "name must be a JSON string, got 5", id="name-int"),
        pytest.param(["gen-instance", "--family", "flow", "--params", '{"instance": 5}'], None,
                     "greedyaug gen-instance: a flow instance must be a JSON object, got int",
                     id="int-instance-params"),
        pytest.param(["trace", "--family", "critical", "--params", CRITICAL_1_1_2, "--k", "9"],
                     None, "k=9 outside 0..4", id="k-too-large"),
        pytest.param(["trace", "--family", "critical", "--params", CRITICAL_1_1_2, "--k", "x"],
                     None, "greedyaug trace: --k must be an integer, got 'x'", id="k-not-int"),
        pytest.param(["ratio-table", "--family", "critical", "--k", "2,x"], None,
                     "greedyaug ratio-table: --k entry must be an integer, got 'x'",
                     id="k-list-not-int"),
        pytest.param(["ratio-table", "--family", "critical"], None,
                     "greedyaug ratio-table: needs --k, a comma list of k values", id="no-k"),
        pytest.param(["ratio-table", "--family", "critical", "--k", "2", "--gnuplot"], None,
                     "greedyaug ratio-table: --gnuplot writes its script beside --out and needs it",
                     id="gnuplot-without-out"),
        pytest.param(["ratio-table", "--family", "critical", "--k", ""], None,
                     "greedyaug ratio-table: needs --k, a comma list of k values", id="empty-k"),
        pytest.param(["ratio-table", "--family", "critical", "--k", "2,2"], None,
                     "greedyaug ratio-table: --k entries must increase: 2 follows 2",
                     id="k-repeated"),
        pytest.param(["ratio-table", "--family", "critical", "--k", "3,2"], None,
                     "greedyaug ratio-table: --k entries must increase: 2 follows 3",
                     id="k-descending"),
        pytest.param(["ratio-table", "--family", "critical", "--params", '{"alpha": "2"}',
                      "--k", "2"], None, "k must exceed alpha", id="k-not-above-alpha"),
        pytest.param(["ratio-table", "--family", "critical", "--k", "1371"], None,
                     "k=1371: the exact closed form has more than", id="closed-form-too-long"),
        pytest.param(["ratio-table", "--family", "gk", "--params", '{"alpha": 2}', "--k", "749"],
                     None, "k=749: the exact closed form has more than",
                     id="gk-closed-form-too-long"),
        pytest.param(["ratio-table", "--family", "critical", "--k", "1000000"], None,
                     "k=1000000: the exact closed form has more than", id="huge-k"),
        pytest.param(["ratio-table", "--family", "critical", "--params", '{"gamma": "0"}',
                      "--k", "3"], None, "gamma must be > 0, got 0", id="zero-gamma"),
        pytest.param(["ratio-table", "--family", "gk", "--params", '{"alpha": 0}', "--k", "3"],
                     None, "alpha must be > 0, got 0", id="gk-zero-alpha"),
        pytest.param(["ratio-table", "--family", "critical", "--params",
                      '{"gamma": "1/' + "7" * 4000 + '"}', "--k", "3"], None,
                     "put the large-k limit outside the float range", id="tiny-gamma"),
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
        pytest.param(["gen-instance", "--family", "gk", "--params", '{"alpha": 1, "k": 1000}'],
                     None, "1005000 variables exceed guard 5000", id="gk-too-large"),
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
        pytest.param(["audit", "--family", "critical", "--params",
                      '{"gamma": "1/0", "alpha": "1", "k": 3}'], None,
                     "gamma has a zero denominator, got '1/0'", id="zero-denominator-gamma"),
        pytest.param(["audit", "--family", "critical", "--params",
                      '{"gamma": "1e-1000000", "alpha": "1", "k": 3}'], None,
                     'gamma must be a "p/q" string or a JSON integer, got \'1e-1000000\'',
                     id="exponent-gamma"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "capacities": [["1", "1/0", "1/2"]]},
                     "capacity has a zero denominator, got '1/0'", id="zero-denominator-capacity"),
        pytest.param(["trace"], {**THREE_VERTEX_JSON, "arcs": [[1, 0], [1, 2]],
                                 "capacities": ["12"]},
                     "capacities must be a JSON list of JSON lists, got ['12']",
                     id="capacity-row-string"),
        pytest.param(["trace"], UNBOUNDED_JSON, "greedyaug trace: flow: unbounded objective",
                     id="trace-unbounded"),
        pytest.param(["audit", "--family", "modular", "--params", "[1, 2]"], None,
                     "--params must be a JSON object", id="params-list"),
        pytest.param(["audit", "--family", "modular", "--params", '{"weights": [3, -1]}'], None,
                     "greedyaug audit: weights must be nonnegative", id="negative-weight"),
        pytest.param(["audit"], UNBOUNDED_JSON, "greedyaug audit: flow: unbounded objective",
                     id="audit-unbounded"),
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


def test_certificate_failure_stays_loud(tmp_path, monkeypatch):
    """A failed LP certificate is a solver fault, not bad input: no one-line exit."""
    def faulty(*args, **kwargs):
        raise exactlp.CertificateError("value 1 failed its optimality certificate")

    monkeypatch.setattr(exactlp, "maximize", faulty)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(TWO_SINK_JSON))
    with pytest.raises(exactlp.CertificateError):
        run(["trace", "--instance", str(path)])


DEEP = "[" * 5000  # deeper than the JSON decoder's recursion limit


@pytest.mark.parametrize("argv, fragment", [
    (["audit", "--family", "flow", "--params", '{"instance": ' + DEEP + "}"], "--params"),
    (["gen-instance", "--family", "flow", "--params", '{"instance": ' + DEEP + "}"], "--params"),
    (["trace", "--instance"], "--instance"),
    (["audit", "--instance"], "--instance"),
], ids=["audit-params", "gen-instance-params", "trace-instance", "audit-instance"])
def test_deeply_nested_json_exits_with_one_line(tmp_path, argv, fragment):
    if argv[-1] == "--instance":
        path = tmp_path / "deep.json"
        path.write_text(DEEP)
        argv = argv + [str(path)]
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(fragment) and "recursion" in message


@pytest.mark.parametrize("argv", [
    ["ratio-table", "--family", "critical", "--instance", "x.json", "--k", "2"],
    ["gen-instance", "--family", "two_sink", "--tie", "high"],
], ids=["ratio-table-instance", "gen-instance-tie"])
def test_flag_the_command_does_not_read_is_refused(argv):
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    assert excinfo.value.code == 2  # argparse's usage error


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
