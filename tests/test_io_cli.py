import csv
import hashlib
import json
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsl.cli import run_cli
from drsl.data_model import FitConfig, SubjectData
from drsl.dataset_io import (
    _BLOCK,
    RunResult,
    _sha256,
    read_dataset,
    write_dataset,
    write_matrix_tsv,
    write_results,
)
from drsl.errors import DrslError, NonFinite, ParseError
from drsl.synth import SynthSpec, generate_dataset


@pytest.fixture()
def small_dataset(tmp_path):
    spec = SynthSpec(n_subjects=3, n_scans=120, n_voxels=10, n_conditions=3, seed=7)
    ds = generate_dataset(spec)
    path = str(tmp_path / "data")
    write_dataset(path, [(subj, ds.events) for subj in ds.subjects])
    return path, ds


class TestDatasetRoundTrip:
    def test_responses_and_designs_reproduced(self, small_dataset):
        path, ds = small_dataset
        loaded = read_dataset(path)
        assert len(loaded) == 3
        for (data, design), orig_subj, orig_design in zip(
            loaded, ds.subjects, ds.designs
        ):
            np.testing.assert_allclose(
                data.responses, orig_subj.responses, atol=1e-12
            )
            np.testing.assert_allclose(
                design.values, orig_design.values, atol=1e-12
            )
            assert design.conditions == orig_design.conditions

    def test_nan_in_bold_tsv_fails_the_read_naming_the_subject(self, small_dataset, capsys):
        path, _ = small_dataset
        bold = os.path.join(path, "sub-02_bold.tsv")
        lines = open(bold).read().split("\n")
        lines[0] = "\t".join(["nan", *lines[0].split("\t")[1:]])
        open(bold, "w").write("\n".join(lines))
        with pytest.raises(NonFinite) as exc:
            read_dataset(path)
        assert str(exc.value) == "responses of subject '02' contain NaN/Inf"
        assert run_cli(["fit", "--dataset", path, "--method", "glm"]) == 1
        assert capsys.readouterr().err == "error: responses of subject '02' contain NaN/Inf\n"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ParseError, match="no manifest.txt in"):
            read_dataset(str(tmp_path))

    def test_missing_bold_file(self, small_dataset):
        path, _ = small_dataset
        os.remove(os.path.join(path, "sub-01_bold.tsv"))
        with pytest.raises(ParseError, match="missing sub-01_bold.tsv"):
            read_dataset(path)

    def test_wrong_column_count_names_line(self, small_dataset):
        path, _ = small_dataset
        bold = os.path.join(path, "sub-01_bold.tsv")
        lines = open(bold).read().splitlines()
        lines[2] = "\t".join(lines[2].split("\t")[:-1])
        open(bold, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 3"):
            read_dataset(path)

    def test_non_numeric_field_names_position(self, small_dataset):
        path, _ = small_dataset
        bold = os.path.join(path, "sub-01_bold.tsv")
        lines = open(bold).read().splitlines()
        fields = lines[4].split("\t")
        fields[2] = "oops"
        lines[4] = "\t".join(fields)
        open(bold, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 5"):
            read_dataset(path)

    def test_python_only_float_spelling_rejected(self, small_dataset):
        path, _ = small_dataset
        bold = os.path.join(path, "sub-02_bold.tsv")
        lines = open(bold).read().splitlines()
        fields = lines[6].split("\t")
        fields[0] = "1_0"
        lines[6] = "\t".join(fields)
        open(bold, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="sub-02_bold.tsv: .*'1_0'"):
            read_dataset(path)

    def test_negative_onset_rejected(self, small_dataset):
        path, _ = small_dataset
        events = os.path.join(path, "sub-02_events.tsv")
        lines = open(events).read().splitlines()
        first = lines[1].split("\t")
        first[0] = "-4.0"
        lines[1] = "\t".join(first)
        open(events, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 2: onset must be >= 0, got -4.0"):
            read_dataset(path)

    @pytest.mark.parametrize("column,name", [(0, "onset"), (1, "duration")])
    def test_nan_event_time_names_the_line(self, small_dataset, column, name):
        path, _ = small_dataset
        events = os.path.join(path, "sub-02_events.tsv")
        lines = open(events).read().splitlines()
        fields = lines[3].split("\t")
        fields[column] = "nan"
        lines[3] = "\t".join(fields)
        open(events, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"sub-02_events.tsv line 4: {name} must be >= 0, got nan"):
            read_dataset(path)

    def test_nan_manifest_tr_rejected(self, small_dataset):
        path, _ = small_dataset
        manifest = os.path.join(path, "manifest.txt")
        lines = ["tr\tnan" if line.startswith("tr\t") else line
                 for line in open(manifest).read().splitlines()]
        open(manifest, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DrslError, match="tr must be > 0, got nan"):
            read_dataset(path)

    def test_row_count_mismatch(self, small_dataset):
        path, _ = small_dataset
        bold = os.path.join(path, "sub-03_bold.tsv")
        lines = open(bold).read().splitlines()
        open(bold, "w").write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError, match="sub-03_bold.tsv has 119 rows, manifest says 120"):
            read_dataset(path)

    @pytest.mark.parametrize("subjects, message", [
        ("01,01,02", "manifest.txt: subject '01' appears twice"),
        ("01,../02", "manifest.txt: subject '../02': an id must be"),
    ], ids=["duplicate", "path"])
    def test_manifest_subject_ids_follow_the_write_rule(self, small_dataset, subjects, message):
        # a repeated id would be fitted twice, and a CV fold would train on
        # the subject it holds out
        path, _ = small_dataset
        manifest = os.path.join(path, "manifest.txt")
        lines = [f"subjects\t{subjects}" if line.startswith("subjects\t") else line
                 for line in open(manifest).read().splitlines()]
        open(manifest, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(message)):
            read_dataset(path)

    def test_unknown_event_condition(self, small_dataset):
        path, _ = small_dataset
        events = os.path.join(path, "sub-01_events.tsv")
        lines = open(events).read().splitlines()
        first = lines[1].split("\t")
        first[2] = "mystery"
        lines[1] = "\t".join(first)
        open(events, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="condition 'mystery' not in manifest"):
            read_dataset(path)


def bold_copies(path):
    return sorted(name for name in os.listdir(path) if name.endswith(".npy"))


class TestBoldCopy:
    def test_one_copy_per_subject_named_by_the_tsv_hash(self, small_dataset):
        path, ds = small_dataset
        expected = []
        for subj in ds.subjects:
            tsv = open(os.path.join(path, f"sub-{subj.subject_id}_bold.tsv"), "rb").read()
            name = f"sub-{subj.subject_id}_bold.{hashlib.sha256(tsv).hexdigest()}.npy"
            np.testing.assert_array_equal(np.load(os.path.join(path, name)), subj.responses)
            expected.append(name)
        assert bold_copies(path) == sorted(expected)

    def test_copy_is_named_by_the_hash_a_read_takes(self, small_dataset):
        path, ds = small_dataset
        for subj in ds.subjects:
            tsv = os.path.join(path, f"sub-{subj.subject_id}_bold.tsv")
            name = f"sub-{subj.subject_id}_bold.{_sha256(tsv)}.npy"
            assert os.path.isfile(os.path.join(path, name))

    def test_copy_is_read_in_place_of_the_parse(self, small_dataset):
        path, ds = small_dataset
        (name,) = [n for n in bold_copies(path) if n.startswith("sub-02_")]
        np.save(os.path.join(path, name), ds.subjects[1].responses + 1.0)
        loaded = read_dataset(path)
        np.testing.assert_array_equal(loaded[1][0].responses, ds.subjects[1].responses + 1.0)

    def test_special_values_read_the_same_with_and_without_copy(self, small_dataset, tmp_path):
        _, ds = small_dataset
        responses = np.array(ds.subjects[0].responses)
        # finite specials only: no SubjectData holds inf or NaN
        specials = [
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
            1.7976931348623157e308, -1.7976931348623157e308,
        ]
        responses.flat[: len(specials)] = specials
        path = str(tmp_path / "specials")
        write_dataset(path, [(SubjectData("01", responses), ds.events)])
        cached = read_dataset(path)[0][0].responses.tobytes()
        for name in bold_copies(path):
            os.remove(os.path.join(path, name))
        parsed = read_dataset(path)[0][0].responses.tobytes()
        assert cached == parsed

    def test_fortran_ordered_subject_reads_back_c_ordered(self, small_dataset, tmp_path):
        _, ds = small_dataset
        subj = SubjectData("01", np.asfortranarray(ds.subjects[0].responses))
        assert not subj.responses.flags.c_contiguous
        path = str(tmp_path / "fortran")
        write_dataset(path, [(subj, ds.events)])
        cached = read_dataset(path)[0][0].responses
        assert cached.flags.c_contiguous
        for name in bold_copies(path):
            os.remove(os.path.join(path, name))
        parsed = read_dataset(path)[0][0].responses
        assert parsed.flags.c_contiguous and cached.tobytes() == parsed.tobytes()

    def test_dataset_without_copies_is_parsed_without_hashing(self, small_dataset,
                                                              monkeypatch):
        import drsl.dataset_io as dio

        path, ds = small_dataset
        for name in bold_copies(path):
            os.remove(os.path.join(path, name))

        def no_hash(_):
            raise AssertionError("hashed a TSV that has no copy")

        monkeypatch.setattr(dio, "_sha256", no_hash)
        for (data, _), subj in zip(read_dataset(path), ds.subjects):
            np.testing.assert_array_equal(data.responses, subj.responses)

    def test_tsv_nudged_by_one_ulp_reads_the_nudged_value(self, small_dataset):
        path, ds = small_dataset
        bold = os.path.join(path, "sub-01_bold.tsv")
        lines = open(bold).read().splitlines()
        fields = lines[3].split("\t")
        nudged = np.nextafter(float(fields[1]), np.inf)
        fields[1] = f"{nudged:.17g}"
        lines[3] = "\t".join(fields)
        open(bold, "w").write("\n".join(lines) + "\n")
        got = read_dataset(path)[0][0].responses
        assert got[3, 1] == nudged != ds.subjects[0].responses[3, 1]

    @pytest.mark.parametrize("corrupt", [
        lambda data: b"not a numpy file",
        lambda data: data[: len(data) // 2],
        lambda data: data[:40],
        lambda data: b"",
    ], ids=["garbage", "truncated-data", "truncated-header", "empty"])
    def test_unreadable_copy_falls_back_to_the_tsv(self, small_dataset, corrupt):
        path, ds = small_dataset
        for name in bold_copies(path):
            copy = os.path.join(path, name)
            data = open(copy, "rb").read()
            open(copy, "wb").write(corrupt(data))
        for (data, _), subj in zip(read_dataset(path), ds.subjects):
            np.testing.assert_array_equal(data.responses, subj.responses)

    def test_tsv_deleted_while_its_copy_remains(self, small_dataset):
        path, _ = small_dataset
        os.remove(os.path.join(path, "sub-01_bold.tsv"))
        assert any(name.startswith("sub-01_bold.") for name in bold_copies(path))
        with pytest.raises(ParseError, match="missing sub-01_bold.tsv"):
            read_dataset(path)

    def test_rewrite_in_place_leaves_one_copy_per_subject(self, small_dataset):
        path, ds = small_dataset
        doubled = [SubjectData(s.subject_id, s.responses * 2.0) for s in ds.subjects]
        write_dataset(path, [(subj, ds.events) for subj in doubled])
        copies = bold_copies(path)
        assert [name.split("_")[0] for name in copies] == ["sub-01", "sub-02", "sub-03"]
        for (data, _), subj in zip(read_dataset(path), doubled):
            np.testing.assert_array_equal(data.responses, subj.responses)

    def test_read_creates_no_file(self, small_dataset):
        path, _ = small_dataset
        before = sorted(os.listdir(path))
        read_dataset(path)
        assert sorted(os.listdir(path)) == before
        for name in bold_copies(path):
            os.remove(os.path.join(path, name))
        read_dataset(path)
        assert bold_copies(path) == []


class TestWriteDatasetRejects:
    @pytest.mark.parametrize("ids,voxels,message", [
        (["01", "02", "01"], [10, 10, 10], "subject '01' appears twice"),
        (["01", "02"], [10, 9], "subject '02' has 9 voxels, subject '01' has 10"),
        (["a,b"], [10], "subject 'a,b': an id must be"),
        (["a\tb"], [10], "subject 'a\\tb': an id must be"),
        (["a\nb"], [10], "subject 'a\\nb': an id must be"),
        (["../x"], [10], "subject '../x': an id must be"),
        ([""], [10], "subject '': an id must be"),
    ], ids=["duplicate", "voxels", "comma", "tab", "newline", "path", "empty"])
    def test_rejected_before_any_file_is_written(self, small_dataset, tmp_path, ids, voxels,
                                                 message):
        _, ds = small_dataset
        base = ds.subjects[0].responses
        pairs = [(SubjectData(sid, base[:, :v]), ds.events) for sid, v in zip(ids, voxels)]
        path = tmp_path / "out"
        with pytest.raises(ParseError, match=re.escape(message)):
            write_dataset(str(path), pairs)
        assert not path.exists()
        assert sorted(os.listdir(tmp_path)) == ["data"]


def reference_matrix_tsv(values) -> bytes:
    """The matrix format spelled out: 17 significant digits, tabs, one row a line."""
    rows = np.asarray(values, dtype=np.float64)
    return "".join("\t".join(f"{float(v):.17g}" for v in row) + "\n" for row in rows).encode()


class TestWriteMatrixTsv:
    @pytest.mark.parametrize(
        "values",
        [
            np.array([[0.0, -0.0, 5e-324, 1e300], [np.inf, -np.inf, np.nan, 0.1]]),
            np.array([[1.0 / 3.0, -2.5, 1e-17]]),
            np.random.default_rng(0).standard_normal((7, 5)) * 10.0 ** np.arange(-2, 3),
        ],
        ids=["specials", "one-row", "random"],
    )
    def test_bytes_match_reference_writer(self, tmp_path, values):
        path = tmp_path / "m.tsv"
        write_matrix_tsv(str(path), values)
        assert path.read_bytes() == reference_matrix_tsv(values)

    @settings(max_examples=200, deadline=None)
    @given(bits=st.lists(st.one_of(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.floats(allow_nan=False).map(lambda x: struct.unpack("<Q", struct.pack("<d", x))[0]),
    ), min_size=1, max_size=40))
    def test_any_bit_pattern_matches_reference_writer(self, tmp_path_factory, bits):
        # every float64: subnormals, NaN payloads of either sign, and the
        # fixed-notation window the vectorized path covers
        values = np.array([bits], dtype=np.uint64).view(np.float64)
        path = tmp_path_factory.getbasetemp() / "bits.tsv"
        write_matrix_tsv(str(path), values)
        assert path.read_bytes() == reference_matrix_tsv(values)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, np.inf, -np.inf, 5e-324, 1e-4, np.nextafter(1e-4, 0),
        *[near for power in (float(f"1e{e}") for e in range(-6, 19))
          for near in (np.nextafter(power, 0), power, np.nextafter(power, np.inf))],
        np.nextafter(1e17, 0), 1234567890123456.75, 1234567890123456.25,
    ])
    def test_edge_values_match_reference_writer(self, tmp_path, value):
        values = np.array([[value, -value]])
        path = tmp_path / "m.tsv"
        write_matrix_tsv(str(path), values)
        assert path.read_bytes() == reference_matrix_tsv(values)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)], ids=["1-d", "3-d"])
    def test_only_a_matrix_is_written(self, tmp_path, shape):
        with pytest.raises(ValueError, match="expected a 2-d array"):
            write_matrix_tsv(str(tmp_path / "m.tsv"), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(_BLOCK // 100 * 3 + 7, 100), (3, _BLOCK + 5), (4, 0)],
                             ids=["taller-than-a-block", "wider-than-a-block", "no-columns"])
    def test_blocks_join_into_the_reference_bytes(self, tmp_path, shape):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 19, shape)
        values.flat[::97] = 0.0
        path = tmp_path / "m.tsv"
        digest = write_matrix_tsv(str(path), values)
        assert path.read_bytes() == reference_matrix_tsv(values)
        assert digest == _sha256(str(path))


class TestWriteResults:
    def make_result(self):
        return RunResult(
            method="glm",
            config=FitConfig(),
            rho_max=0.125,
            mse_by_iterations=((1000, 0.25),),
            phase_ms=(("load", 1.5), ("fit", 20.0), ("eval", 3.0)),
            version="0.1.0",
        )

    def test_headers_byte_exact(self, tmp_path):
        write_results(self.make_result(), str(tmp_path))
        assert open(tmp_path / "correlation.csv").readline().rstrip("\n") == (
            "method,rho_max,rho_std_over_seeds"
        )
        assert open(tmp_path / "mse.csv").readline().rstrip("\n") == "iterations,mse"
        assert open(tmp_path / "runtime.csv").readline().rstrip("\n") == (
            "method,phase,ms"
        )

    def test_round_trip_with_generic_csv_reader(self, tmp_path):
        write_results(self.make_result(), str(tmp_path))
        with open(tmp_path / "correlation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["method"] == "glm"
        assert float(rows[0]["rho_max"]) == 0.125
        with open(tmp_path / "mse.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert int(rows[0]["iterations"]) == 1000
        assert float(rows[0]["mse"]) == 0.25

    def test_non_finite_rejected(self):
        with pytest.raises(DrslError, match="run result contains non-finite numbers"):
            RunResult(method="glm", config=FitConfig(), rho_max=float("nan"))


def run(argv):
    return run_cli(argv)


class TestCli:
    def test_synth_then_fit_glm_happy_path(self, tmp_path):
        out = str(tmp_path / "d")
        assert run(
            [
                "synth", "--subjects", "4", "--scans", "200", "--conditions", "4",
                "--snr", "2", "--seed", "7", "--out", out,
            ]
        ) == 0
        assert run(["fit", "--dataset", out, "--method", "glm"]) == 0
        results = os.path.join(out, "results-glm")
        for name in ("signatures.tsv", "correlation.csv", "mse.csv", "runtime.csv", "run.json"):
            assert os.path.isfile(os.path.join(results, name)), name
        # accuracy.csv comes from `drsl cv` only
        assert not os.path.exists(os.path.join(results, "accuracy.csv"))

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        # a flag the command does not have is a usage error like an unknown method
        for bad in (["--method", "unknown"], ["--method", "lrsl", "--regularizer", "off"]):
            assert run(["fit", "--dataset", str(tmp_path), *bad]) == 2
            assert "Traceback" not in capsys.readouterr().err

    def test_missing_dataset_is_compute_error(self, tmp_path):
        assert run(["fit", "--dataset", str(tmp_path / "nope"), "--method", "glm"]) == 1

    def test_gradcheck_passes(self):
        assert run(["gradcheck", "--seed", "1"]) == 0

    def test_gradcheck_passes_where_one_float32_centring_pass_failed(self):
        # seed 7 read 3.5e-3 against 1e-3 with one pass
        assert run(["gradcheck", "--seed", "7"]) == 0

    def test_gradcheck_fails_on_a_wrong_standardization_gradient(self, monkeypatch):
        import drsl.optimizer as opt

        def without_the_scale_term(grad_y, y, scale):
            # standardize_backward less its y * mean(g * y) term
            g = np.asarray(grad_y)
            return (g - g.mean(axis=0)) / scale

        monkeypatch.setattr(opt, "standardize_backward", without_the_scale_term)
        assert run(["gradcheck", "--seed", "1"]) == 1

    def test_gradcheck_fails_on_an_inexact_b_solve(self, monkeypatch):
        import drsl.cli as cli

        solve = cli.signature_step
        monkeypatch.setattr(cli, "signature_step", lambda *args: 1.01 * solve(*args))
        assert run(["gradcheck", "--seed", "1"]) == 1

    @pytest.mark.parametrize(
        "method",
        [["lasso"],
         # eval reads what the frozen kernels mapped from sub-*_mapped.tsv
         ["drsl", "--alpha", "1", "--m1", "1", "--m2", "5", "--batch", "20",
          "--layers", "8,6,4"]],
        ids=["lasso", "drsl"],
    )
    def test_eval_recomputes_fit_numbers(self, tmp_path, capsys, method):
        data_dir = str(tmp_path / "d")
        run(["synth", "--subjects", "3", "--scans", "120", "--voxels", "12",
             "--conditions", "3", "--seed", "3", "--out", data_dir])
        fit_out = str(tmp_path / "fit")
        assert run(["fit", "--dataset", data_dir, "--method", *method, "--out", fit_out]) == 0
        mapped = [name for name in os.listdir(fit_out) if name.endswith("_mapped.tsv")]
        assert len(mapped) == (3 if method[0] == "drsl" else 0)
        corr_before = open(os.path.join(fit_out, "correlation.csv")).read()
        mse_before = open(os.path.join(fit_out, "mse.csv")).read()
        eval_out = str(tmp_path / "eval")
        assert run(["eval", "--fit-output", fit_out, "--out", eval_out]) == 0
        assert open(os.path.join(eval_out, "correlation.csv")).read() == corr_before
        assert open(os.path.join(eval_out, "mse.csv")).read() == mse_before

    def test_eval_ignores_mapped_files_of_an_earlier_drsl_fit(self, tmp_path):
        # the drsl fit's output width equals the voxel count, so glm
        # signatures would score its stale mapped files without a shape error
        data_dir = str(tmp_path / "d")
        run(["synth", "--subjects", "3", "--scans", "80", "--voxels", "12",
             "--seed", "1", "--out", data_dir])
        fit_out = str(tmp_path / "fit")
        assert run(["fit", "--dataset", data_dir, "--method", "drsl", "--alpha", "1",
                    "--m1", "1", "--m2", "5", "--batch", "20", "--layers", "8,12",
                    "--out", fit_out]) == 0
        assert run(["fit", "--dataset", data_dir, "--method", "glm", "--out", fit_out]) == 0
        eval_out = str(tmp_path / "eval")
        assert run(["eval", "--fit-output", fit_out, "--out", eval_out]) == 0
        for table in ("correlation.csv", "mse.csv"):
            assert open(os.path.join(eval_out, table)).read() == open(
                os.path.join(fit_out, table)).read()

    def test_fit_of_another_method_removes_the_subjects_mapped_files(self, tmp_path):
        data_dir = str(tmp_path / "d")
        run(["synth", "--subjects", "2", "--scans", "80", "--voxels", "12",
             "--seed", "1", "--out", data_dir])
        fit_out = tmp_path / "fit"
        assert run(["fit", "--dataset", data_dir, "--method", "drsl", "--alpha", "1",
                    "--m1", "1", "--m2", "5", "--batch", "20", "--layers", "8,6,4",
                    "--out", str(fit_out)]) == 0
        assert sorted(p.name for p in fit_out.glob("*_mapped.tsv")) == [
            "sub-01_mapped.tsv", "sub-02_mapped.tsv"]
        (fit_out / "sub-03_mapped.tsv").write_text("1\n")  # not a subject of the dataset
        assert run(["fit", "--dataset", data_dir, "--method", "glm",
                    "--out", str(fit_out)]) == 0
        assert sorted(p.name for p in fit_out.glob("*_mapped.tsv")) == ["sub-03_mapped.tsv"]

    def test_eval_of_drsl_needs_the_mapped_files(self, tmp_path, capsys):
        data_dir = str(tmp_path / "d")
        run(["synth", "--subjects", "2", "--scans", "80", "--voxels", "12",
             "--seed", "1", "--out", data_dir])
        fit_out = str(tmp_path / "fit")
        assert run(["fit", "--dataset", data_dir, "--method", "drsl", "--alpha", "1",
                    "--m1", "1", "--m2", "5", "--batch", "20", "--layers", "8,6,4",
                    "--out", fit_out]) == 0
        os.remove(os.path.join(fit_out, "sub-02_mapped.tsv"))
        capsys.readouterr()
        assert run(["eval", "--fit-output", fit_out, "--out", str(tmp_path / "eval")]) == 1
        assert "missing sub-02_mapped.tsv" in capsys.readouterr().err

    def test_eval_runs_from_another_directory(self, tmp_path, monkeypatch):
        # run.json records the dataset as an absolute path, not as typed
        monkeypatch.chdir(tmp_path)
        run(["synth", "--subjects", "2", "--scans", "100", "--voxels", "8",
             "--conditions", "3", "--seed", "2", "--out", "d"])
        assert run(["fit", "--dataset", "d", "--method", "glm", "--out", "fit"]) == 0
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert run(["eval", "--fit-output", str(tmp_path / "fit"), "--out", "eval"]) == 0
        for table in ("correlation.csv", "mse.csv"):
            assert (tmp_path / "elsewhere" / "eval" / table).read_text() == (
                tmp_path / "fit" / table).read_text()

    @pytest.mark.parametrize(
        "corrupt, where",
        [
            (lambda fields: fields[:1] + ["oops"] + fields[2:], "line 2 column 2"),
            (lambda fields: fields[:-1], "line 2"),
        ],
        ids=["non-number", "ragged-row"],
    )
    def test_eval_malformed_signatures_exit_1(self, tmp_path, capsys, corrupt, where):
        data_dir = str(tmp_path / "d")
        run(["synth", "--subjects", "2", "--scans", "100", "--voxels", "8",
             "--conditions", "3", "--seed", "2", "--out", data_dir])
        fit_out = str(tmp_path / "fit")
        assert run(["fit", "--dataset", data_dir, "--method", "glm", "--out", fit_out]) == 0
        path = os.path.join(fit_out, "signatures.tsv")
        lines = open(path).read().splitlines()
        lines[1] = "\t".join(corrupt(lines[1].split("\t")))
        open(path, "w").write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["eval", "--fit-output", fit_out]) == 1
        err = capsys.readouterr().err
        assert f"signatures.tsv {where}" in err

    def test_config_echo_reproduces_run(self, tmp_path):
        data_dir = str(tmp_path / "d")
        run(["synth", "--subjects", "3", "--scans", "120", "--voxels", "10",
             "--conditions", "3", "--seed", "5", "--out", data_dir])
        out1 = str(tmp_path / "r1")
        run(["fit", "--dataset", data_dir, "--method", "lrsl", "--m1", "2",
             "--m2", "30", "--batch", "40", "--seed", "9", "--out", out1])
        echo = json.load(open(os.path.join(out1, "run.json")))
        out2 = str(tmp_path / "r2")
        argv = [
            "fit", "--dataset", echo["dataset"], "--method", echo["method"],
            "--alpha", str(echo["alpha"]), "--eta", str(echo["eta"]),
            "--m1", str(echo["m1"]), "--m2", str(echo["m2"]),
            "--batch", str(echo["batch"]), "--activation", echo["activation"],
            "--init", echo["init"], "--seed", str(echo["seed"]), "--out", out2,
        ]
        assert run(argv) == 0
        assert open(os.path.join(out1, "correlation.csv")).read() == open(
            os.path.join(out2, "correlation.csv")
        ).read()

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_run_json_records_every_config_flag(self, tmp_path, command):
        data_dir = str(tmp_path / "d")
        run(["synth", "--subjects", "2", "--scans", "100", "--voxels", "8",
             "--conditions", "2", "--seed", "2", "--out", data_dir])
        out = str(tmp_path / command)
        assert run([command, "--dataset", data_dir, "--method", "lasso",
                    "--lasso-alpha", "2", "--out", out]) == 0
        echo = json.load(open(os.path.join(out, "run.json")))
        assert sorted(echo) == [
            "activation", "alpha", "batch", "dataset", "eta", "init", "lasso_alpha",
            "lasso_iters", "layers", "m1", "m2", "method", "seed", "version",
        ]
        assert echo["dataset"] == os.path.abspath(data_dir)
        assert (echo["method"], echo["lasso_alpha"], echo["lasso_iters"]) == ("lasso", 2.0, 500)

    def test_cv_fits_every_lasso_fold_with_the_flags(self, tmp_path, monkeypatch):
        # a spy, not the accuracy: on this data every penalty that leaves
        # B nonzero classifies perfectly
        import drsl.evaluation as ev

        seen = []
        original = ev.fit_lasso

        def spy(data, design, alpha_lasso, iterations):
            seen.append((alpha_lasso, iterations))
            return original(data, design, alpha_lasso, iterations)

        monkeypatch.setattr(ev, "fit_lasso", spy)
        data_dir = str(tmp_path / "d")
        run(["synth", "--subjects", "3", "--scans", "80", "--voxels", "12",
             "--seed", "1", "--out", data_dir])
        assert run(["cv", "--dataset", data_dir, "--method", "lasso", "--lasso-alpha", "2",
                    "--lasso-iters", "7", "--out", str(tmp_path / "cv")]) == 0
        assert seen == [(2.0, 7)] * 6  # 3 folds of 2 training subjects

    def test_fit_and_cv_runtime_phases(self, tmp_path):
        data_dir = str(tmp_path / "d")
        run(["synth", "--subjects", "2", "--scans", "100", "--voxels", "8",
             "--conditions", "2", "--seed", "2", "--out", data_dir])
        phases = {}
        for command in ("fit", "cv"):
            out = str(tmp_path / command)
            assert run([command, "--dataset", data_dir, "--method", "glm", "--out", out]) == 0
            with open(os.path.join(out, "runtime.csv")) as fh:
                phases[command] = [r["phase"] for r in csv.DictReader(fh)]
        assert phases == {"fit": ["load", "fit", "eval"], "cv": ["load", "cv"]}

    def test_iters_schedule(self, tmp_path):
        data_dir = str(tmp_path / "d")
        run(["synth", "--subjects", "2", "--scans", "100", "--voxels", "8",
             "--conditions", "2", "--seed", "2", "--out", data_dir])
        out = str(tmp_path / "iters")
        assert run([
            "iters", "--dataset", data_dir, "--layers", "6,5,4",
            "--schedule", "40,80", "--m2", "20", "--batch", "30", "--out", out,
        ]) == 0
        with open(os.path.join(out, "mse.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["iterations"]) for r in rows] == [40, 80]

    def test_iters_rows_are_the_fits_of_their_schedule(self, tmp_path):
        # every flag but --m2 reaches each entry's fit as given; iters has no
        # --m1, and each entry's fit takes m1 = ceil(entry / m2)
        data_dir = str(tmp_path / "d")
        run(["synth", "--subjects", "2", "--scans", "80", "--voxels", "12",
             "--seed", "1", "--out", data_dir])
        flags = ["--dataset", data_dir, "--layers", "8,6,4", "--batch", "20", "--alpha", "1",
                 "--eta", "0.01", "--activation", "tanh", "--seed", "3"]
        assert run(["iters", *flags, "--schedule", "5,12", "--m2", "5",
                    "--out", str(tmp_path / "iters")]) == 0
        rows = open(tmp_path / "iters" / "mse.csv").read().splitlines()
        expected = [rows[0]]
        for m1 in ("1", "3"):  # 12 iterations at 5 a pass take 3 passes
            out = tmp_path / f"fit-{m1}"
            assert run(["fit", *flags, "--method", "drsl", "--m1", m1, "--m2", "5",
                        "--out", str(out)]) == 0
            expected.append((out / "mse.csv").read_text().splitlines()[1])
        assert rows == expected

    def test_iters_m1_is_usage_error(self, tmp_path, capsys):
        # iters derives m1 from each schedule entry, so it takes no --m1
        argv = ["iters", "--dataset", str(tmp_path), "--schedule", "5", "--m1", "3",
                "--out", str(tmp_path / "iters")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --m1 3" in err and "Traceback" not in err
        assert not (tmp_path / "iters").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["synth", "--tr", "nan"], "tr must be > 0 and finite, got nan"),
            (["synth", "--snr", "nan"], "snr must be > 0, got nan"),
            (["fit", "--method", "lasso", "--lasso-alpha", "nan"], "alpha_lasso must be >= 0"),
            (["fit", "--method", "glm", "--layers", "8,x"], "--layers must be comma-separated"),
            (["iters", "--schedule", "1,x"], "--schedule must be comma-separated"),
            (["iters", "--schedule", "0,-5"], "--schedule entries must be >= 1, got -5"),
            (["iters", "--schedule", "40", "--m2", "0"], "--m2 must be >= 1 for iters, got 0"),
            (["fit", "--method", "lasso", "--lasso-iters", "-5"],
             "lasso iterations must be >= 1, got -5"),
            (["fit", "--method", "drsl", "--m1", "0"], "drsl needs m1 >= 1 outer iterations"),
            (["cv", "--method", "lrsl", "--alpha", "inf"], "alpha must be >= 1 and finite, got inf"),
            (["fit", "--method", "drsl", "--eta", "inf"], "eta must be > 0 and finite, got inf"),
            (["fit", "--method", "lasso", "--lasso-alpha", "inf"],
             "alpha_lasso must be >= 0 and finite, got inf"),
            (["synth", "--tr", "inf"], "tr must be > 0 and finite, got inf"),
            (["fit", "--method", "glm", "--lasso-alpha", "nan"],
             "alpha_lasso must be >= 0 and finite, got nan"),
            (["fit", "--method", "glm", "--lasso-iters", "-5"],
             "lasso iterations must be >= 1, got -5"),
            (["cv", "--method", "lrsl", "--lasso-alpha", "-1"],
             "alpha_lasso must be >= 0 and finite, got -1.0"),
            (["synth", "--seed", "-1"], "seed must be non-negative, got -1"),
            (["gradcheck", "--seed", "-1"], "seed must be non-negative, got -1"),
        ],
        ids=["synth-tr", "synth-snr", "lasso-alpha", "layers", "schedule",
             "schedule-nonpositive", "iters-m2-zero", "lasso-iters", "drsl-m1-zero",
             "lrsl-alpha-inf", "drsl-eta-inf", "lasso-alpha-inf", "synth-tr-inf",
             "glm-lasso-alpha-nan", "glm-lasso-iters", "lrsl-cv-lasso-alpha",
             "synth-seed-negative", "gradcheck-seed-negative"],
    )
    def test_bad_value_exits_1_with_one_line(self, tmp_path, capsys, argv, message):
        data_dir = str(tmp_path / "d")
        if argv[0] not in ("synth", "gradcheck"):
            assert run(["synth", "--subjects", "2", "--scans", "80", "--voxels", "12",
                        "--seed", "1", "--out", data_dir]) == 0
            argv = [*argv, "--dataset", data_dir]
        if argv[0] != "gradcheck":
            argv = [*argv, "--out", str(tmp_path / "o")]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err

    @pytest.mark.parametrize(
        "content,message",
        [("{not json", "run.json is not JSON"), ('{"method": "glm"}', "run.json lacks dataset")],
        ids=["not-json", "no-dataset"],
    )
    def test_eval_bad_run_json_exits_1(self, tmp_path, capsys, content, message):
        fit_out = tmp_path / "fit"
        fit_out.mkdir()
        (fit_out / "run.json").write_text(content)
        assert run(["eval", "--fit-output", str(fit_out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("dataset", 123, "run.json: dataset must be a path, got 123"),
            ("m1", "3", "run.json: m1 must be an integer >= 0, got '3'"),
            ("method", None, "run.json: method must be one of"),
            ("m2", True, "run.json: m2 must be an integer >= 0, got True"),
        ],
        ids=["dataset-int", "m1-str", "method-null", "m2-bool"],
    )
    def test_eval_bad_run_json_value_exits_1(self, tmp_path, capsys, key, value, message):
        # each value is edited into a drsl fit's own run.json, one at a time
        data_dir, fit_out = str(tmp_path / "d"), tmp_path / "fit"
        assert run(["synth", "--subjects", "2", "--scans", "80", "--voxels", "12",
                    "--seed", "1", "--out", data_dir]) == 0
        assert run(["fit", "--dataset", data_dir, "--method", "drsl", "--alpha", "1",
                    "--m1", "1", "--m2", "5", "--batch", "20", "--layers", "8,6,4",
                    "--out", str(fit_out)]) == 0
        echo = json.loads((fit_out / "run.json").read_text())
        echo[key] = value
        (fit_out / "run.json").write_text(json.dumps(echo))
        capsys.readouterr()
        assert run(["eval", "--fit-output", str(fit_out), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {message}"), err
        assert not (tmp_path / "e").exists()

    def test_version_flag(self):
        assert run(["--version"]) == 0

    def test_every_public_name_resolves(self):
        import drsl

        for name in drsl.__all__:
            assert hasattr(drsl, name), name

    def test_cli_defaults_match_fit_config(self):
        from drsl.cli import build_parser

        args = build_parser().parse_args(["fit", "--dataset", "x", "--method", "glm"])
        cfg = FitConfig()
        assert args.alpha == cfg.alpha
        assert args.eta == cfg.eta
        assert args.m1 == cfg.m1
        assert args.m2 == cfg.m2
        assert args.batch == cfg.batch_size
        assert args.activation == cfg.activation.value
        assert args.init == cfg.init.value
        assert args.seed == cfg.seed
        assert args.lasso_alpha == cfg.lasso_alpha
        assert args.lasso_iters == cfg.lasso_iterations
