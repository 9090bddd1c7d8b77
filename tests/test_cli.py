import argparse
import json
from pathlib import Path

import pytest

import eulerclass.cli as cli
from eulerclass.cli import main, run_selftest
from eulerclass.fingroup import DEFAULT_CAP
from eulerclass.groupfile import GroupFileError, parse_group_dict, parse_group_text
from eulerclass.intmat import fixed_lattice_of_rank, mul


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


GROUPS = Path(__file__).resolve().parent.parent / "groups"
P4M = {"name": "p4m", "rank": 2, "generators": [[[0, -1], [1, 0]], [[0, 1], [1, 0]]]}
# every nontrivial element fixes an axis, no vector is fixed by all: no rule applies
KLEIN3 = {"rank": 3, "generators": [[[-1, 0, 0], [0, -1, 0], [0, 0, 1]], [[1, 0, 0], [0, -1, 0], [0, 0, -1]]]}


class TestGroupFile:
    def test_parse_roundtrip(self):
        gf = parse_group_dict(P4M)
        assert gf.to_dict() == P4M
        assert parse_group_dict(gf.to_dict()) == gf

    def test_rejects_ragged_rows(self):
        with pytest.raises(GroupFileError):
            parse_group_dict({"rank": 2, "generators": [[[1, 0], [0]]]})

    def test_rejects_non_integer_entries(self):
        with pytest.raises(GroupFileError):
            parse_group_dict({"rank": 2, "generators": [[[1.5, 0], [0, 1]]]})

    def test_rejects_missing_keys(self):
        with pytest.raises(GroupFileError):
            parse_group_text('{"rank": 2}')

    def test_rejects_wrong_size(self):
        with pytest.raises(GroupFileError):
            parse_group_dict({"rank": 3, "generators": [[[1, 0], [0, 1]]]})


class TestAnalyze:
    def test_p4m_at_two(self, tmp_path, capsys):
        path = _write(tmp_path, "p4m.json", P4M)
        assert main(["analyze", path, "--char", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "Known(4)"
        assert report["provenance"][-1] == "sec-5.3.3-p4m"
        assert report["point_group_order"] == 8
        assert report["sl_subgroup_order"] == 4
        assert report["lower_bound"] == 4
        assert report["upper_bound_p_part"] == 8

    def test_p4m_product_count(self, count_calls, capsys):
        products = count_calls(mul)
        assert main(["analyze", str(GROUPS / "p4m.json"), "--char", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["point_group_order"] == 8
        assert len(products) < 51

    def test_p4m_computes_fixed_sublattice_once(self, count_calls, capsys):
        lattices = count_calls(fixed_lattice_of_rank)
        assert main(["analyze", str(GROUPS / "p4m.json"), "--char", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["fixed_sublattice_rank"] == 0
        assert len(lattices) == 1

    def test_p4m_at_five_is_infinite(self, tmp_path, capsys):
        path = _write(tmp_path, "p4m.json", P4M)
        assert main(["analyze", path, "--char", "5", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "Infinite"
        assert report["provenance"] == ["thm-a"]

    def test_free_abelian_is_trivial(self, tmp_path, capsys):
        path = _write(tmp_path, "z2.json", {"rank": 2, "generators": []})
        assert main(["analyze", path, "--char", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "Trivial"
        assert "sec-5.1" in report["provenance"]

    def test_json_report_roundtrips_group(self, tmp_path, capsys):
        path = _write(tmp_path, "p4m.json", P4M)
        main(["analyze", path, "--char", "2", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert parse_group_dict(report["group"]) == parse_group_dict(P4M)

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert main(["analyze", str(path), "--char", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""  # no report on stdout for usage errors

    def test_nonfinite_exit_3(self, tmp_path, capsys):
        path = _write(tmp_path, "shear.json", {"rank": 2, "generators": [[[1, 1], [0, 1]]]})
        assert main(["analyze", str(path), "--char", "2", "--cap", "100"]) == 3

    def test_cap_below_order_exit_3_without_claiming_infinite(self, capsys):
        assert main(["analyze", str(GROUPS / "p4m.json"), "--char", "2", "--cap", "7"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "infinite or has more than 7 elements" in out.err
        assert "--cap" in out.err
        assert "not generate a finite group" not in out.err

    def test_non_unimodular_exit_3(self, tmp_path):
        path = _write(tmp_path, "bad.json", {"rank": 2, "generators": [[[2, 0], [0, 1]]]})
        assert main(["analyze", str(path), "--char", "2"]) == 3

    def test_invalid_char_exit_4(self, tmp_path, capsys):
        path = _write(tmp_path, "p4m.json", P4M)
        assert main(["analyze", path, "--char", "6"]) == 4
        assert capsys.readouterr().out == ""

    def test_klein_four_blocks_at_zero_are_undecided(self, tmp_path, capsys):
        path = _write(tmp_path, "klein3.json", KLEIN3)
        assert main(["analyze", path, "--char", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "Undecided"
        assert report["finite_order"] is True
        assert report["provenance"] == ["order finite, exact value outside the classification"]


class TestParserReuse:
    """main parses every call with one parser, and no call's options leak
    into the next."""

    def test_builds_parsers_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["analyze", str(GROUPS / "p4m.json"), "--char", "2", "--json"]) == 0
        assert main(["catalog", "--json"]) == 0
        capsys.readouterr()
        # the top-level parser and its three subcommands, once
        assert len(built) <= 4

    def test_cap_does_not_leak(self, monkeypatch, capsys):
        caps = []
        make_cryst = cli.make_cryst

        def recording(*args, cap):
            caps.append(cap)
            return make_cryst(*args, cap=cap)

        monkeypatch.setattr(cli, "make_cryst", recording)
        p4m = str(GROUPS / "p4m.json")
        assert main(["analyze", p4m, "--char", "2", "--cap", "7"]) == 3
        assert main(["analyze", p4m, "--char", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["point_group_order"] == 8
        assert caps == [7, DEFAULT_CAP]

    def test_usage_error_leaves_next_call_working(self, capsys):
        p4m = str(GROUPS / "p4m.json")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", p4m])
        assert exc.value.code == 2
        assert "--char" in capsys.readouterr().err
        assert main(["analyze", p4m, "--char", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "Known(4)"

    def test_catalog_char_defaults_to_zero_after_analyze(self, capsys):
        assert main(["analyze", str(GROUPS / "p3m1.json"), "--char", "5", "--json"]) == 0
        capsys.readouterr()
        assert main(["catalog", "p3m1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["characteristic"] == 0


class TestCatalogCommand:
    def test_table_has_thirteen_rows(self, capsys):
        assert main(["catalog", "--json"]) == 0
        table = json.loads(capsys.readouterr().out)["catalog"]
        assert len(table) == 13

    def test_named_entry_agrees(self, capsys):
        assert main(["catalog", "p3m1", "--char", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "Known(3)"
        assert report["expected_verdict"] == "Known(3)"
        assert report["agreement"] == "AGREE"

    def test_unknown_name_exit_2(self, capsys):
        assert main(["catalog", "pg", "--char", "3"]) == 2
        err = capsys.readouterr().err
        assert "p4m" in err


class TestSelftest:
    def test_all_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "53 checks run, 53 pass" in out

    def test_run_selftest_counts(self):
        checked, passed = run_selftest(quiet=True)
        assert checked == 53  # 13 entries x 4 characteristics + charpoly sample
        assert passed == checked

    def test_corrupted_catalog_fails(self, monkeypatch, capsys):
        import dataclasses

        import eulerclass.catalog as catalog_mod
        from eulerclass.euler import OrderResult

        good = catalog_mod.entries()
        bad_first = dataclasses.replace(
            good[0], expected={k: OrderResult.known(7, ("expected",)) for k in good[0].expected}
        )
        monkeypatch.setattr(catalog_mod, "entries", lambda: [bad_first] + good[1:])
        assert main(["selftest"]) == 1
        assert "FAIL" in capsys.readouterr().out
