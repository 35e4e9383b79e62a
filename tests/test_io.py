import numpy as np
import pytest

from prtrack.config import load_config
from prtrack.core import PartFeatureSet
from prtrack.embedder import EmbedderModel
from prtrack.motio import (FeatureTable, ParseError, load_model,
                           parse_features, parse_mot, save_model,
                           write_features, write_mot)

from oracles import (FeatureRow, MotRow, brute_parse_features,
                     brute_write_features, feature_table, mot_table)


def random_mot_records(rng, n=20):
    return [MotRow(frame=int(rng.integers(1, 50)),
                      id=int(rng.integers(1, 10)),
                      bb_left=float(rng.uniform(0, 1000)),
                      bb_top=float(rng.uniform(0, 1000)),
                      bb_width=float(rng.uniform(1, 200)),
                      bb_height=float(rng.uniform(1, 200)),
                      conf=float(rng.uniform(0, 1)))
            for _ in range(n)]


def random_feature_records(rng, n=10, k=3, d=4):
    out = []
    for i in range(n):
        vis = (rng.random(k + 1) < 0.8).astype(int)
        if not vis.any():
            vis[0] = 1
        pfs = PartFeatureSet(parts=rng.normal(size=(k, d)),
                             foreground=rng.normal(size=d),
                             visibility=vis)
        out.append(FeatureRow(frame=int(rng.integers(1, 30)), det_index=i,
                              features=pfs, role_logits=rng.normal(size=4)))
    return out


def test_mot_roundtrip_sorted(tmp_path, rng):
    path = tmp_path / "a.txt"
    records = random_mot_records(rng)
    write_mot(mot_table(records), path)
    parsed = parse_mot(path)
    assert list(zip(parsed.frame.tolist(), parsed.id.tolist())) == sorted(
        (r.frame, r.id) for r in records)
    path2 = tmp_path / "b.txt"
    write_mot(parsed, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_mot_parse_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1,2,3\n")
    with pytest.raises(ParseError) as err:
        parse_mot(p)
    assert err.value.line == 1
    assert str(err.value).startswith(f"{p}: line 1: ")
    p.write_text("1,2,a,b,c,d,e,1,1\n")
    with pytest.raises(ParseError) as err:
        parse_mot(p)
    assert str(err.value).startswith(f"{p}: line 1: ")
    good = "1,1,0,0,10,10,1,1,1\n"
    for bad in ("1,1,0,0,nan,10,1,1,1", "1,1,inf,0,10,10,1,1,1",
                "1,1,0,0,10,10,nan,1,1", "1,1,0,0,0,10,1,1,1",
                "1,1,0,0,10,-2,1,1,1"):
        p.write_text(good + bad + "\n")
        with pytest.raises(ParseError) as err:
            parse_mot(p)
        assert err.value.line == 2
        assert str(err.value).startswith(f"{p}: line 2: ")


def test_mot_non_monotone_warns(tmp_path):
    p = tmp_path / "m.txt"
    write_mot(mot_table([MotRow(2, 1, 0, 0, 5, 5)]), p)
    lines = p.read_text() + "1,1,0.000000,0.000000,5.000000,5.000000," \
        "1.000000,1,1.000000\n"
    p.write_text(lines)
    with pytest.warns(UserWarning):
        parse_mot(p)


def test_feature_roundtrip(tmp_path, rng):
    path = tmp_path / "f.txt"
    records = random_feature_records(rng)
    write_features(feature_table(records), path)
    parsed = parse_features(path)
    assert len(parsed) == len(records)
    path2 = tmp_path / "f2.txt"
    write_features(parsed, path2)
    assert path.read_bytes() == path2.read_bytes()
    by_key = {(r.frame, r.det_index): r for r in records}
    for i, key in enumerate(zip(parsed.frame.tolist(),
                                parsed.det_index.tolist())):
        orig = by_key[key]
        np.testing.assert_allclose(parsed.parts[i], orig.features.parts,
                                   rtol=1e-8)
        np.testing.assert_array_equal(parsed.visibility[i],
                                      orig.features.visibility)


def test_feature_writer_bytes_over_many_writes(tmp_path, rng):
    """More rows than one write formats, in shuffled order: the same bytes
    as the field-by-field writer."""
    records = random_feature_records(rng, n=2500)
    shuffled = [records[i] for i in rng.permutation(len(records))]
    write_features(feature_table(shuffled), tmp_path / "a.txt")
    brute_write_features(records, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == \
        (tmp_path / "b.txt").read_bytes()


def test_feature_reader_over_many_blocks(tmp_path, rng):
    """More lines than the reader converts at once: the per-line reader's
    values, and a bad line or a part count unlike the first row's in a
    later block fails at its own line."""
    path = tmp_path / "f.txt"
    brute_write_features(random_feature_records(rng, n=2500), path)
    got, want = parse_features(path), feature_table(brute_parse_features(path))
    for name in ("frame", "det_index", "parts", "foreground", "visibility",
                 "role_logits"):
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(want, name))
        assert getattr(got, name).dtype == getattr(want, name).dtype
    lines = path.read_text().splitlines(keepends=True)
    tok = lines[2099].split()
    bad = {"role logits must be finite": tok[:-1] + ["nan"],
           "parts shaped unlike the first row's":
               tok[:2] + ["2"] + tok[3:4 + 3 * 4] + tok[4 + 4 * 4:-5]
               + tok[-4:]}
    for message, tokens in bad.items():
        path.write_text("".join(lines[:2099] + [" ".join(tokens) + "\n"]
                                + lines[2100:]))
        with pytest.raises(ParseError) as err:
            parse_features(path)
        assert str(err.value) == f"{path}: line 2100: {message}"


def test_feature_table_checks(rng, tmp_path):
    table = feature_table(random_feature_records(rng, n=3))
    assert table.parts.shape == (3, 3, 4)
    good = {f: getattr(table, f) for f in ("frame", "det_index", "parts",
                                           "foreground", "visibility",
                                           "role_logits")}
    nan_parts = table.parts.copy()
    nan_parts[1, 2, 0] = np.nan
    inf_fg = table.foreground.copy()
    inf_fg[0, 1] = np.inf
    two = table.visibility.copy()
    two[2, 0] = 2
    for name, bad, message in (
            ("parts", nan_parts, "must be finite"),
            ("foreground", inf_fg, "must be finite"),
            ("visibility", two, "0 or 1"),
            ("role_logits", table.role_logits[:, :3], "role_logits has shape"),
            ("parts", np.zeros((3, 0, 4)), "K >= 1")):
        with pytest.raises(ValueError, match=message):
            FeatureTable(**{**good, name: bad})
    # Rows of mixed K make no table: the reader fails the file.
    mixed = random_feature_records(rng, n=2) + random_feature_records(
        rng, n=1, k=2)
    brute_write_features(mixed, tmp_path / "mixed.txt")
    with pytest.raises(ParseError, match="parts shaped unlike the first"):
        parse_features(tmp_path / "mixed.txt")
    assert FeatureTable.empty().parts.shape[0] == 0


def test_feature_parse_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 0 2 2 0.0\n")
    with pytest.raises(ParseError) as err:
        parse_features(p)
    assert str(err.value).startswith(f"{p}: line 1: ")
    # k=1, d=2: frame, det, k, d, foreground (2), parts (2), visibility (2),
    # role logits (4)
    good = "1 0 1 2 0.5 1.5 2.0 3.0 1 1 0.1 0.2 0.3 0.4"
    assert len(parse_features(_write(p, good))) == 1
    for bad in ("1 0 1 2 nan 1.5 2.0 3.0 1 1 0.1 0.2 0.3 0.4",
                "1 0 1 2 0.5 1.5 inf 3.0 1 1 0.1 0.2 0.3 0.4",
                "1 0 1 2 0.5 1.5 2.0 -inf 1 1 0.1 0.2 0.3 0.4",
                "1 0 1 2 0.5 1.5 2.0 3.0 1 1 0.1 0.2 inf nan"):
        with pytest.raises(ParseError) as err:
            parse_features(_write(p, good, bad))
        assert str(err.value).startswith(f"{p}: line 2: ")
        assert "finite" in str(err.value)


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"],
                         ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("read, line", [
    (parse_mot, b"1,1,0,0,10,10,1,1,1"),
    (parse_features, b"1 0 1 2 0.5 1.5 2.0 3.0 1 1 0.1 0.2 0.3 0.4"),
    (load_config, b"seed: 3")], ids=["mot", "features", "config"])
def test_non_utf8_byte_names_its_line(tmp_path, read, line, end):
    """A byte that is not UTF-8 is reported on its line, whichever line
    ends the file has."""
    p = tmp_path / "bad.txt"
    p.write_bytes(line + end + line + end + b"\xff" + end)
    with pytest.raises(ParseError) as err:
        read(p)
    assert str(err.value).startswith(f"{p}: line 3: not UTF-8")


def _write(path, *lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_model_checkpoint_exact_roundtrip(tmp_path):
    model = EmbedderModel.init(channels=6, num_parts=3, dim=4, n_ids=5,
                               seed=9)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    for name, p in model.params().items():
        np.testing.assert_array_equal(np.atleast_2d(p),
                                      np.atleast_2d(loaded.params()[name]))
    p2 = tmp_path / "model2.txt"
    save_model(loaded, p2)
    assert path.read_bytes() == p2.read_bytes()


def test_model_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("not a checkpoint\n")
    with pytest.raises(ParseError) as err:
        load_model(p)
    assert str(err.value).startswith(f"{p}: line 1: ")


def test_model_checkpoint_bad_rows(tmp_path):
    good = tmp_path / "model.txt"
    save_model(EmbedderModel.init(channels=6, num_parts=3, dim=4, n_ids=5),
               good)
    lines = good.read_text().splitlines(keepends=True)
    row = lines[2].split()                       # first row of w_pix (line 3)
    cases = {
        "non-numeric": " ".join(row[:-1] + ["abc"]) + "\n",
        "short": " ".join(row[:-1]) + "\n",
        "ragged": " ".join(row + ["1.0"]) + "\n",
        **{token: " ".join([token] + row[1:]) + "\n"
           for token in ("nan", "inf", "-inf")},
    }
    bad = tmp_path / "bad.txt"
    for name, text in cases.items():
        bad.write_text("".join(lines[:2] + [text] + lines[3:]))
        with pytest.raises(ParseError) as err:
            load_model(bad)
        assert err.value.line == 3, name
        assert str(err.value).startswith(f"{bad}: line 3: "), name
    bad.write_text("".join(lines[:4]))           # ends inside w_pix
    with pytest.raises(ParseError) as err:
        load_model(bad)
    assert err.value.line == 5
    assert str(err.value).startswith(f"{bad}: line 5: ")
    # A negative row or column count fails at its header, line 2: with
    # ``w_pix -2 4`` no rows were read and line 3 was taken for a header.
    for shape in ("-2 4", "6 -4", "-1 -1"):
        bad.write_text("".join(lines[:1] + [f"w_pix {shape}\n"] + lines[2:]))
        with pytest.raises(ParseError) as err:
            load_model(bad)
        assert str(err.value) == (f"{bad}: line 2: w_pix has a negative "
                                  f"shape ({shape.replace(' ', ', ')})")
    # Well-formed rows whose shapes disagree: b_pix of 3 next to w_pix 6x4.
    assert lines[8] == "b_pix 1 4\n"
    short = " ".join(lines[9].split()[:3]) + "\n"
    bad.write_text("".join(lines[:8] + ["b_pix 1 3\n", short] + lines[10:]))
    with pytest.raises(ParseError) as err:
        load_model(bad)
    assert str(err.value) == f"{bad}: b_pix has shape (3,), expected (4,)"
