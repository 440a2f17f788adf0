import io

import pytest

from vocabrel.errors import ParseError
from vocabrel.mesh import convert_mesh, parse_mesh_records
from vocabrel.model import parse_vocabulary


def mesh_record(**fields) -> str:
    lines = ["*NEWRECORD"]
    for key, values in fields.items():
        if isinstance(values, str):
            values = [values]
        lines.extend(f"{key} = {v}" for v in values)
    return "\n".join(lines) + "\n"


DESCRIPTORS = (
    mesh_record(MH="Heart Diseases", UI="D006331", MN="C14.280")
    + mesh_record(MH="Pathologic Processes", UI="D010335", MN="C23.550")
    + mesh_record(
        MH="Heart Arrest", UI="D006323", MN=["C14.280.383", "C23.550.073"]
    )
    + mesh_record(MH="Cardiovascular Diseases", UI="D002318", MN="C14")
    + mesh_record(MH="Pathological Conditions", UI="D013568", MN="C23")
)

QUALIFIERS = mesh_record(SH="drug therapy", UI="Q000188") + mesh_record(
    SH="surgery", UI="Q000601"
)


def test_parse_mesh_records_groups_fields():
    records = parse_mesh_records(io.StringIO(DESCRIPTORS))
    assert len(records) == 5
    assert records[2]["MN"] == ["C14.280.383", "C23.550.073"]
    assert records[2]["MH"] == ["Heart Arrest"]


def test_parse_mesh_records_rejects_garbage():
    with pytest.raises(ParseError):
        parse_mesh_records(io.StringIO("*NEWRECORD\nnot a field\n"))
    with pytest.raises(ParseError):
        parse_mesh_records(io.StringIO("MH = orphan field\n"))


def test_convert_mesh_tree_number_parents(tmp_path):
    out = tmp_path / "vocab.jsonl"
    stats = convert_mesh(io.StringIO(DESCRIPTORS), out, io.StringIO(QUALIFIERS))
    assert stats == {"terms": 5, "edges": 4, "qualifiers": 2}
    vocab = parse_vocabulary(str(out))
    # two tree numbers, two distinct parents via prefix chopping
    assert vocab.parents_of("D006323") == frozenset({"D006331", "D010335"})
    # a top-level tree number contributes no parent
    assert vocab.parents_of("D002318") == frozenset()
    assert vocab.qualifiers == frozenset({"Q000188", "Q000601"})


def test_convert_mesh_missing_prefix_owner(tmp_path):
    bad = mesh_record(MH="Floating", UI="D1", MN="C14.280.383")
    with pytest.raises(ParseError):
        convert_mesh(io.StringIO(bad), tmp_path / "v.jsonl")


def test_convert_mesh_duplicate_tree_number(tmp_path):
    bad = mesh_record(MH="A", UI="D1", MN="C14") + mesh_record(
        MH="B", UI="D2", MN="C14"
    )
    with pytest.raises(ParseError):
        convert_mesh(io.StringIO(bad), tmp_path / "v.jsonl")


def test_convert_mesh_duplicate_ui(tmp_path):
    bad = mesh_record(MH="A", UI="D1") + mesh_record(MH="B", UI="D1")
    with pytest.raises(ParseError):
        convert_mesh(io.StringIO(bad), tmp_path / "v.jsonl")


@pytest.mark.parametrize(
    "descriptors, qualifiers, bad_file",
    [
        (mesh_record(UI="D1"), None, "d.bin"),
        (mesh_record(MH="A", UI="D1") + mesh_record(MH="B", UI="D1"), None, "d.bin"),
        (mesh_record(MH="A", UI="D1", MN="C14") + mesh_record(MH="B", UI="D2", MN="C14"),
         None, "d.bin"),
        (mesh_record(MH="Floating", UI="D1", MN="C14.280.383"), None, "d.bin"),
        (DESCRIPTORS, mesh_record(UI="Q1"), "q.bin"),
        (DESCRIPTORS, QUALIFIERS + mesh_record(SH="again", UI="Q000188"), "q.bin"),
    ],
    ids=["descriptor-field", "descriptor-ui", "tree-number", "parent-prefix",
         "qualifier-field", "qualifier-ui"],
)
def test_convert_mesh_errors_name_the_file(tmp_path, descriptors, qualifiers, bad_file):
    (tmp_path / "d.bin").write_text(descriptors)
    qualifier_path = None
    if qualifiers is not None:
        qualifier_path = tmp_path / "q.bin"
        qualifier_path.write_text(qualifiers)
    with pytest.raises(ParseError) as err:
        convert_mesh(tmp_path / "d.bin", tmp_path / "v.jsonl", qualifier_path)
    assert str(err.value).startswith(f"{tmp_path / bad_file}: ")


def test_convert_mesh_empty_input_writes_header_only(tmp_path):
    out = tmp_path / "empty.jsonl"
    stats = convert_mesh(io.StringIO(""), out)
    assert stats == {"terms": 0, "edges": 0, "qualifiers": 0}
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert '"header"' in lines[0]


def test_convert_mesh_round_trips_through_vocabulary(tmp_path):
    out = tmp_path / "vocab.jsonl"
    convert_mesh(io.StringIO(DESCRIPTORS), out)
    vocab = parse_vocabulary(str(out))
    assert len(vocab) == 5
    assert vocab.terms["D006331"].label == "Heart Diseases"
