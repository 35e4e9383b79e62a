import numpy as np
import pytest

from prtrack.core import PartFeatureSet
from prtrack.embedder import EmbedderModel
from prtrack.motio import (FeatureRecord, MotRecord, ParseError, load_model,
                           parse_features, parse_mot, save_model,
                           write_features, write_mot)


def random_mot_records(rng, n=20):
    return [MotRecord(frame=int(rng.integers(1, 50)),
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
        out.append(FeatureRecord(frame=int(rng.integers(1, 30)), det_index=i,
                                 features=pfs,
                                 role_logits=rng.normal(size=4)))
    return out


def test_mot_roundtrip_sorted(tmp_path, rng):
    path = tmp_path / "a.txt"
    records = random_mot_records(rng)
    write_mot(records, path)
    parsed = parse_mot(path)
    assert [(r.frame, r.id) for r in parsed] == sorted(
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
    write_mot([MotRecord(2, 1, 0, 0, 5, 5)], p)
    lines = p.read_text() + "1,1,0.000000,0.000000,5.000000,5.000000," \
        "1.000000,1,1.000000\n"
    p.write_text(lines)
    with pytest.warns(UserWarning):
        parse_mot(p)


def test_feature_roundtrip(tmp_path, rng):
    path = tmp_path / "f.txt"
    records = random_feature_records(rng)
    write_features(records, path)
    parsed = parse_features(path)
    assert len(parsed) == len(records)
    path2 = tmp_path / "f2.txt"
    write_features(parsed, path2)
    assert path.read_bytes() == path2.read_bytes()
    by_key = {(r.frame, r.det_index): r for r in records}
    for r in parsed:
        orig = by_key[(r.frame, r.det_index)]
        np.testing.assert_allclose(r.features.parts, orig.features.parts,
                                   rtol=1e-8)
        np.testing.assert_array_equal(r.features.visibility,
                                      orig.features.visibility)


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
                "1 0 1 2 0.5 1.5 2.0 -inf 1 1 0.1 0.2 0.3 0.4"):
        with pytest.raises(ParseError) as err:
            parse_features(_write(p, good, bad))
        assert str(err.value).startswith(f"{p}: line 2: ")
        assert "finite" in str(err.value)


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
