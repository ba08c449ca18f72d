"""Tests for CSV persistence of relations."""

import pytest

from repro.core.scoring import SumScore
from repro.core.tuples import RankTuple
from repro.data.io import (
    load_csv,
    load_relation_csv,
    save_relation_csv,
    save_tables_csv,
)
from repro.data.tpch import TPCHConfig, generate_tpch
from repro.errors import InstanceError, WorkloadError
from repro.relation.relation import RankJoinInstance, Relation


@pytest.fixture
def relation():
    return Relation(
        "demo",
        [
            RankTuple(key=1, scores=(0.9, 0.1), payload={"city": 7, "name": "a"}),
            RankTuple(key=2, scores=(0.5, 0.5), payload={"city": 8, "name": "b"}),
            RankTuple(key=1, scores=(0.2, 0.8), payload=None),
        ],
    )


class TestRoundTrip:
    def test_roundtrip_preserves_tuples(self, relation, tmp_path):
        path = tmp_path / "demo.csv"
        save_relation_csv(relation, path)
        loaded = load_relation_csv(path)
        assert loaded.name == "demo"
        assert len(loaded) == 3
        assert loaded.dimension == 2
        assert loaded.tuples[0].key == 1
        assert loaded.tuples[0].scores == (0.9, 0.1)
        assert loaded.tuples[0].payload == {"city": 7, "name": "a"}

    def test_roundtrip_none_payload(self, relation, tmp_path):
        path = tmp_path / "demo.csv"
        save_relation_csv(relation, path)
        loaded = load_relation_csv(path)
        assert loaded.tuples[2].payload is None

    def test_loaded_relation_is_usable_in_instance(self, relation, tmp_path):
        path = tmp_path / "demo.csv"
        save_relation_csv(relation, path)
        loaded = load_relation_csv(path)
        instance = RankJoinInstance(loaded, relation, SumScore(), k=1)
        assert instance.join_size() > 0

    def test_custom_name(self, relation, tmp_path):
        path = tmp_path / "x.csv"
        save_relation_csv(relation, path)
        assert load_relation_csv(path, name="renamed").name == "renamed"

    def test_string_keys_preserved(self, tmp_path):
        rel = Relation("s", [RankTuple(key="paris", scores=(0.5,))])
        path = tmp_path / "s.csv"
        save_relation_csv(rel, path)
        assert load_relation_csv(path).tuples[0].key == "paris"

    def test_zero_score_relation(self, tmp_path):
        rel = Relation("z", [RankTuple(key=1, scores=())])
        path = tmp_path / "z.csv"
        save_relation_csv(rel, path)
        loaded = load_relation_csv(path)
        assert loaded.dimension == 0


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InstanceError):
            load_relation_csv(path)

    def test_missing_key_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InstanceError):
            load_relation_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("key,score_0\n1,0.5\n2\n")
        with pytest.raises(InstanceError):
            load_relation_csv(path)


    @pytest.mark.parametrize("cell,fragment", [
        ("nan", "must be finite"),
        ("inf", "must be finite"),
        ("abc", "not a number"),
    ])
    def test_bad_score_cell_is_a_one_line_error(self, tmp_path, cell, fragment):
        # The round-trip loader shares load_csv's score-cell parser: a
        # nan score used to load and come back as every operator's top
        # result; a non-number was a bare ValueError traceback.
        path = tmp_path / "scores.csv"
        path.write_text(f"key,score_0,score_1\n1,0.5,0.25\n2,0.5,{cell}\n")
        with pytest.raises(InstanceError) as err:
            load_relation_csv(path)
        message = str(err.value)
        assert f"scores.csv:3: score column 'score_1'" in message
        assert fragment in message and "\n" not in message


class TestTables:
    def test_save_tables_writes_all(self, tmp_path):
        tables = generate_tpch(TPCHConfig(scale=0.0002), seed=0)
        written = save_tables_csv(tables, tmp_path)
        assert {p.name for p in written} == {
            "customer.csv", "orders.csv", "lineitem.csv", "part.csv",
        }
        lineitem = load_relation_csv(tmp_path / "lineitem.csv")
        assert len(lineitem) == tables["lineitem"].size
        assert "partkey" in lineitem.tuples[0].payload


class TestLoadCSV:
    """The external-data loader (``score_col`` names the score columns)."""

    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_loads_scores_and_payload(self, tmp_path):
        path = self.write(
            tmp_path, "title,rating,year,key\nHeat,9.1,1995,1\nRonin,8.0,1998,2\n"
        )
        relation = load_csv(path, "rating")
        assert relation.name == "data"
        assert [t.scores for t in relation.tuples] == [(9.1,), (8.0,)]
        assert relation.tuples[0].payload == {"title": "Heat", "year": 1995}
        assert relation.tuples[0].key == 1

    def test_multiple_score_columns(self, tmp_path):
        path = self.write(tmp_path, "key,a,b\n1,0.5,0.25\n")
        relation = load_csv(path, ["a", "b"], name="scored")
        assert relation.name == "scored"
        assert relation.dimension == 2
        assert relation.tuples[0].scores == (0.5, 0.25)

    def test_custom_key_column(self, tmp_path):
        path = self.write(tmp_path, "orderkey,price\n7,0.9\n")
        relation = load_csv(path, "price", key_col="orderkey")
        assert relation.tuples[0].key == 7

    def test_loaded_relation_joins(self, tmp_path):
        left = load_csv(self.write(tmp_path, "key,s\n1,0.9\n2,0.5\n", "l.csv"), "s")
        right = load_csv(self.write(tmp_path, "key,s\n1,0.8\n", "r.csv"), "s")
        instance = RankJoinInstance(left, right, SumScore(), 1)
        assert instance.join_size() == 1

    def test_missing_file_is_one_line_workload_error(self, tmp_path):
        with pytest.raises(WorkloadError) as err:
            load_csv(tmp_path / "nope.csv", "s")
        assert "\n" not in str(err.value)
        assert "nope.csv" in str(err.value)

    @pytest.mark.parametrize("content,fragment", [
        ("title,rating\nHeat,9.1\n", "missing column"),
        ("key,rating\n1,high\n", "not a number"),
        ("key,rating\n1,nan\n", "must be finite"),
        ("key,rating\n1,inf\n", "must be finite"),
        ("key,rating\n1,9.1,extra\n", "expected 2 cells"),
        ("key,rating\n,9.1\n", "empty join key"),
        ("key,rating\n", "no data rows"),
        ("", "empty file"),
    ])
    def test_malformed_rows_are_one_line_errors(self, tmp_path, content, fragment):
        path = self.write(tmp_path, content)
        with pytest.raises(WorkloadError) as err:
            load_csv(path, "rating")
        message = str(err.value)
        assert fragment in message
        assert "\n" not in message

    def test_row_errors_carry_file_and_row(self, tmp_path):
        path = self.write(tmp_path, "key,rating\n1,0.5\n2,oops\n")
        with pytest.raises(WorkloadError, match=r"data\.csv:3"):
            load_csv(path, "rating")
