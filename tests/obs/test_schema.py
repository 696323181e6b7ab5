"""Write-time schema validation for run-telemetry artifacts."""

import json

from repro.obs import (
    validate_bench_serving,
    validate_manifest,
    validate_record,
    validate_run_dir,
    validate_summary,
)


class TestRecordSchema:
    def test_valid_records_pass(self):
        valid = [
            {"kind": "step", "step": 0, "lr": 1e-3, "step_seconds": 0.1,
             "total": 3.5, "elbo": 3.0, "warmup": True},
            {"kind": "validation", "step": 5, "score": 0.9, "best": True},
            {"kind": "final_weights", "source": "best-checkpoint"},
            {"kind": "note", "message": "hello"},
        ]
        for record in valid:
            assert validate_record(record) == []

    def test_non_object_rejected(self):
        assert validate_record([1, 2]) != []
        assert validate_record("x") != []

    def test_missing_kind_rejected(self):
        assert "kind" in validate_record({"step": 0})[0]

    def test_unknown_kind_rejected(self):
        (problem,) = validate_record({"kind": "mystery"})
        assert "mystery" in problem

    def test_missing_required_field(self):
        problems = validate_record({"kind": "step", "step": 0, "lr": 1e-3})
        assert any("step_seconds" in p for p in problems)

    def test_bool_rejected_in_numeric_slot(self):
        problems = validate_record({"kind": "step", "step": 0,
                                    "lr": True, "step_seconds": 0.1})
        assert any("lr" in p for p in problems)

    def test_numeric_rejected_in_bool_slot(self):
        problems = validate_record({"kind": "validation", "step": 0,
                                    "score": 0.5, "best": 1})
        assert any("best" in p for p in problems)

    def test_extra_fields_must_be_scalars(self):
        problems = validate_record({"kind": "note", "message": "m",
                                    "payload": {"nested": 1}})
        assert any("payload" in p for p in problems)


class TestManifestSchema:
    def _valid(self):
        return {
            "created": "2026-08-06T00:00:00",
            "train_config": {"steps": 5},
            "seeds": {"train": 0},
            "code": {"code_salt": "flow-v3", "git_sha": None},
            "versions": {"python": "3.x", "numpy": "1.x"},
        }

    def test_valid_manifest_passes(self):
        assert validate_manifest(self._valid()) == []

    def test_missing_dotted_field_named(self):
        manifest = self._valid()
        del manifest["code"]["code_salt"]
        (problem,) = validate_manifest(manifest)
        assert "code.code_salt" in problem

    def test_missing_top_level_field_named(self):
        manifest = self._valid()
        del manifest["seeds"]
        assert any("seeds" in p for p in validate_manifest(manifest))


class TestSummarySchema:
    def test_valid_summary_passes(self):
        summary = {"per_design": {"jpeg": {"r2": 0.9}},
                   "timings": {"flow.run": {"calls": 1, "seconds": 0.5}},
                   "mean_r2": 0.9}
        assert validate_summary(summary) == []

    def test_missing_keys_named(self):
        problems = validate_summary({})
        assert any("per_design" in p for p in problems)
        assert any("timings" in p for p in problems)

    def test_malformed_timing_entry_rejected(self):
        summary = {"per_design": {}, "timings": {"phase": {"calls": 1}}}
        assert any("phase" in p for p in validate_summary(summary))


class TestRunDirValidation:
    def _write_run(self, run_dir):
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "manifest.json").write_text(json.dumps({
            "created": "t", "train_config": {}, "seeds": {},
            "code": {"code_salt": "s"},
            "versions": {"python": "3", "numpy": "1"},
        }))
        (run_dir / "steps.jsonl").write_text(
            '{"kind": "step", "step": 0, "lr": 0.001, '
            '"step_seconds": 0.1}\n')
        (run_dir / "summary.json").write_text(
            json.dumps({"per_design": {}, "timings": {}}))

    def test_complete_run_dir_validates(self, tmp_path):
        self._write_run(tmp_path / "run")
        assert validate_run_dir(tmp_path / "run") == []

    def test_missing_artifacts_all_named(self, tmp_path):
        problems = validate_run_dir(tmp_path)
        assert any("manifest.json" in p for p in problems)
        assert any("steps.jsonl" in p for p in problems)
        assert any("summary.json" in p for p in problems)

    def test_bad_jsonl_line_located(self, tmp_path):
        # Mid-stream corruption stays an error with its line number; a
        # torn *final* line is a crash artifact and only warns (see
        # tests/obs/test_resume.py).
        self._write_run(tmp_path / "run")
        steps = tmp_path / "run" / "steps.jsonl"
        good = steps.read_text()
        steps.write_text(good + "not json\n" + good)
        problems = validate_run_dir(tmp_path / "run")
        assert any("steps.jsonl:2" in p for p in problems)


class TestBenchServingSchema:
    @staticmethod
    def _valid_payload():
        return {
            "coalesced": {
                "requests_per_second": 800.0, "p50_ms": 12.0,
                "p99_ms": 20.0, "clients": 12, "requests": 300,
                "batch_window_ms": 5.0, "max_batch": 12,
                "mean_batch_size": 10.0,
            },
            "uncoalesced": {
                "requests_per_second": 400.0, "p50_ms": 27.0,
                "p99_ms": 60.0, "clients": 12, "requests": 300,
            },
            "speedup": {"throughput_ratio": 2.0},
            "equivalence": {"max_abs_diff": 1e-18, "atol": 1e-10},
            "smoke": False,
        }

    def test_valid_payload_passes(self):
        assert validate_bench_serving(self._valid_payload()) == []

    def test_extra_fields_allowed(self):
        payload = self._valid_payload()
        payload["workload"] = {"mc_samples": 256}
        payload["coalesced"]["extra"] = "ok"
        assert validate_bench_serving(payload) == []

    def test_non_object_rejected(self):
        assert validate_bench_serving([1, 2]) \
            == ["bench payload is not an object"]

    def test_missing_section_named(self):
        payload = self._valid_payload()
        del payload["speedup"]
        assert validate_bench_serving(payload) \
            == ["bench missing section 'speedup'"]

    def test_missing_field_named(self):
        payload = self._valid_payload()
        del payload["coalesced"]["mean_batch_size"]
        assert validate_bench_serving(payload) \
            == ["bench coalesced.mean_batch_size missing"]

    def test_bool_rejected_in_numeric_slot(self):
        payload = self._valid_payload()
        payload["uncoalesced"]["p50_ms"] = True
        problems = validate_bench_serving(payload)
        assert problems and "uncoalesced.p50_ms" in problems[0]

    def test_missing_smoke_flag(self):
        payload = self._valid_payload()
        del payload["smoke"]
        assert validate_bench_serving(payload) \
            == ["bench missing boolean 'smoke' flag"]
