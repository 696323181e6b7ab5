"""Rule-by-rule tests for the repo-specific linter and its waivers."""

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.check import RULES, TENSOR_DATA_WHITELIST, run_lint
from repro.check.cli import main, run_check
from repro.check.lint import lint_file


def lint_source(tmp_path, source, name="snippet.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_file(path)


def rules_fired(findings):
    return {f.rule for f in findings}


class TestRules:
    def test_registry_is_populated(self):
        assert {"builtin-hash", "unseeded-rng", "bare-except",
                "mutable-default", "tensor-data-mutation", "rng-stream",
                "parallel-safety", "artifact-atomicity",
                "trace-safety"} <= set(RULES)

    def test_builtin_hash(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def design_seed(name):
                return hash(name) % 10_000
        """)
        assert rules_fired(findings) == {"builtin-hash"}
        assert findings[0].line == 2

    def test_object_hash_method_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import zlib

            def design_seed(name):
                return zlib.crc32(name.encode()) % 10_000
        """)
        assert findings == []

    def test_global_state_rng(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import numpy as np

            def sample():
                np.random.seed(0)
                return np.random.rand(3)
        """)
        assert [f.line for f in findings
                if f.rule == "unseeded-rng"] == [4, 5]

    def test_unseeded_default_rng(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import numpy as np
            from numpy.random import default_rng

            a = np.random.default_rng()
            b = default_rng()
            c = np.random.default_rng(0)
            d = default_rng(seed=3)
        """)
        assert [f.line for f in findings
                if f.rule == "unseeded-rng"] == [4, 5]
        # A module-level Generator is an rng-stream finding, seeded or not.
        assert [f.line for f in findings
                if f.rule == "rng-stream"] == [4, 5, 6, 7]
        assert rules_fired(findings) == {"unseeded-rng", "rng-stream"}

    def test_generator_annotations_not_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import numpy as np

            def init(rng: np.random.Generator) -> None:
                rng.standard_normal(3)
        """)
        assert findings == []

    def test_bare_and_broad_except(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def load(path):
                try:
                    return open(path)
                except:
                    return None

            def load2(path):
                try:
                    return open(path)
                except Exception:
                    return None

            def load3(path):
                try:
                    return open(path)
                except (OSError, ValueError):
                    return None
        """)
        assert [f.line for f in findings] == [4, 10]
        assert rules_fired(findings) == {"bare-except"}

    def test_mutable_default(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def a(x, acc=[]):
                acc.append(x)

            def b(x, table={}):
                pass

            def c(x, *, seen=set()):
                pass

            def d(x, names=None, count=0, word="ok"):
                pass
        """)
        assert [f.line for f in findings] == [1, 4, 7]
        assert rules_fired(findings) == {"mutable-default"}

    def test_tensor_data_mutation(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def scale(param):
                param.data *= 0.1
                param.data[...] = 0.0
                param.data = None
                value = param.data + 1.0
        """)
        assert [f.line for f in findings] == [2, 3, 4]
        assert rules_fired(findings) == {"tensor-data-mutation"}

    def test_tensor_data_whitelisted_modules(self, tmp_path):
        nested = tmp_path / "repro" / "nn"
        nested.mkdir(parents=True)
        path = nested / "optim.py"
        path.write_text("def step(p, g, lr):\n    p.data -= lr * g\n")
        assert lint_file(path) == []

    @pytest.mark.parametrize("entry", TENSOR_DATA_WHITELIST)
    def test_whitelisted_module_writes_data(self, tmp_path, entry):
        # An entry must exempt something: copied to a path off the list,
        # the module has tensor-data-mutation findings.
        source = Path(repro.__file__).resolve().parent.parent / entry
        copy = tmp_path / entry.replace("/", "_")
        copy.write_text(source.read_text())
        assert "tensor-data-mutation" in rules_fired(lint_file(copy))

    def test_syntax_error_is_reported(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert rules_fired(findings) == {"syntax-error"}


class TestWaivers:
    def test_justified_waiver_suppresses(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def scale(param):
                param.data *= 0.1  # repro-check: disable=tensor-data-mutation -- init-time, outside any graph
        """)
        assert findings == []

    def test_waiver_on_preceding_comment_line(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def scale(param):
                # repro-check: disable=tensor-data-mutation -- init-time, outside any graph
                param.data *= 0.1
        """)
        assert findings == []

    def test_unjustified_waiver_does_not_suppress(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def scale(param):
                param.data *= 0.1  # repro-check: disable=tensor-data-mutation
        """)
        assert rules_fired(findings) == {"tensor-data-mutation",
                                         "waiver-missing-justification"}

    def test_unused_waiver_reported(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def fine():
                return 1  # repro-check: disable=builtin-hash -- historical, nothing here anymore
        """)
        assert rules_fired(findings) == {"unused-waiver"}

    def test_unknown_rule_in_waiver(self, tmp_path):
        findings = lint_source(tmp_path, """\
            x = 1  # repro-check: disable=no-such-rule -- testing the validator
        """)
        assert "unknown-waiver-rule" in rules_fired(findings)

    def test_waiver_only_covers_named_rule(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def seedy(name):
                return hash(name)  # repro-check: disable=bare-except -- wrong rule on purpose
        """)
        fired = rules_fired(findings)
        assert "builtin-hash" in fired
        assert "unused-waiver" in fired

    def test_waiver_string_literal_is_ignored(self, tmp_path):
        findings = lint_source(tmp_path, """\
            PATTERN = "# repro-check: disable=builtin-hash -- not a comment"
        """)
        assert findings == []

    def test_trailing_comment_does_not_waive_next_line(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def two(param):
                x = 1  # repro-check: disable=tensor-data-mutation -- belongs to this line only
                param.data *= x
        """)
        assert "tensor-data-mutation" in rules_fired(findings)

    def test_one_waiver_multiple_rules(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def f(param, name):
                param.data = hash(name)  # repro-check: disable=tensor-data-mutation,builtin-hash -- exercising multi-rule waivers
        """)
        assert findings == []


class TestCli:
    def test_exit_nonzero_on_seeded_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("key = hash('design@7nm')\n")
        status = main([str(bad), "--no-gradcheck"])
        out = capsys.readouterr().out
        assert status == 1
        assert "builtin-hash" in out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("VALUE = 42\n")
        assert main([str(good), "--no-gradcheck"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_output_shape(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(1)\n")
        chunks = []
        status = run_check(paths=[bad], fmt="json", do_gradcheck=False,
                           emit=chunks.append)
        payload = json.loads("\n".join(chunks))
        assert status == 1
        assert payload["summary"]["total"] == 1
        assert payload["summary"]["by_rule"] == {"unseeded-rng": 1}
        (finding,) = payload["findings"]
        assert finding["rule"] == "unseeded-rng"
        assert finding["line"] == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in RULES:
            assert name in out

    def test_run_lint_walks_directories(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = hash('a')\n")
        (pkg / "b.py").write_text("y = 2\n")
        findings = run_lint([pkg])
        assert [f.rule for f in findings] == ["builtin-hash"]

    @pytest.mark.parametrize("argv", [["check", "--list-rules"]])
    def test_top_level_cli_has_check(self, argv, capsys):
        from repro.cli import main as repro_main

        assert repro_main(argv) == 0
        assert "builtin-hash" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Determinism and crash-safety rules (one function at a time)
# ----------------------------------------------------------------------
def with_pool_fan_out(source):
    """``source`` plus a function that submits its ``work`` to a pool."""
    return textwrap.dedent(source) + (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def fan_out(items):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return [pool.submit(work, i) for i in items]\n")


def findings_of(tmp_path, source, rule):
    return [f for f in lint_source(tmp_path, source) if f.rule == rule]


class TestRngStream:
    def test_unseeded_rng_in_pool_callback(self, tmp_path):
        # Reported by unseeded-rng wherever the call sits.
        findings = lint_source(tmp_path, with_pool_fan_out("""\
            import numpy as np
            def work(x):
                rng = np.random.default_rng()
                return rng.random()
        """))
        assert [(f.rule, f.line) for f in findings] == [("unseeded-rng", 3)]

    def test_seeded_rng_in_pool_callback_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, with_pool_fan_out("""\
            import numpy as np
            def work(x):
                rng = np.random.default_rng(x)
                return rng.random()
        """))
        assert findings == []

    def test_module_global_rng_draw_in_worker(self, tmp_path):
        found = findings_of(tmp_path, with_pool_fan_out("""\
            import numpy as np
            _RNG = np.random.default_rng(0)
            def work(x):
                return _RNG.random()
        """), "rng-stream")
        assert [f.line for f in found] == [2]
        assert "module-level Generator `_RNG`" in found[0].message

    def test_draw_inside_set_iteration(self, tmp_path):
        found = findings_of(tmp_path, """\
            import numpy as np
            def sample(items):
                rng = np.random.default_rng(0)
                out = []
                for item in set(items):
                    out.append(rng.random())
                return out
        """, "rng-stream")
        assert [f.line for f in found] == [6]
        assert "iteration over set in `sample`" in found[0].message

    def test_draw_over_sorted_set_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import numpy as np
            def sample(items):
                rng = np.random.default_rng(0)
                out = []
                for item in sorted(set(items)):
                    out.append(rng.random())
                return out
        """)
        assert findings == []

    def test_name_bound_to_set_earlier_in_the_function(self, tmp_path):
        found = findings_of(tmp_path, """\
            import numpy as np
            from concurrent.futures import as_completed
            def sample(items, futures, rng):
                names = {1, 2, 3}
                for n in names:
                    rng.integers(n)
                for fut in as_completed(futures):
                    rng.normal()
                names = sorted(names)
                for n in names:
                    rng.integers(n)
        """, "rng-stream")
        assert [f.line for f in found] == [6, 8]
        assert "as_completed" in found[1].message


class TestParallelSafety:
    def test_lambda_capturing_mutable_global(self, tmp_path):
        found = findings_of(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor
            STATE = {}
            def fan_out(items):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(lambda: STATE)
                            for i in items]
        """, "parallel-safety")
        assert [f.line for f in found] == [5]
        assert "captures mutable shared state `STATE`" in found[0].message

    def test_live_rng_submitted_across_process_boundary(self, tmp_path):
        found = findings_of(tmp_path, """\
            import numpy as np
            from concurrent.futures import ProcessPoolExecutor
            def work(x, rng):
                return x
            def fan_out(items):
                rng = np.random.default_rng(0)
                with ProcessPoolExecutor() as pool:
                    futs = [pool.submit(work, i, rng)
                            for i in items]
                return futs
        """, "parallel-safety")
        assert [f.line for f in found] == [8]
        assert "live Generator submitted" in found[0].message

    def test_open_file_submitted_across_process_boundary(self, tmp_path):
        found = findings_of(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor
            def work(x, handle):
                return x
            def fan_out(items):
                handle = open('log.txt')
                with ProcessPoolExecutor() as pool:
                    futs = [pool.submit(work, i, handle)
                            for i in items]
                return futs
        """, "parallel-safety")
        assert [f.line for f in found] == [7]
        assert "open file submitted" in found[0].message

    def test_worker_local_state_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, with_pool_fan_out("""\
            def work(x):
                local = {}
                local[x] = x
                return local
        """))
        assert findings == []

    def test_thread_pool_and_immutable_captures_are_clean(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import numpy as np
            from concurrent.futures import ThreadPoolExecutor
            LIMIT = 4
            def work(x, rng):
                return x
            def fan_out(items):
                rng = np.random.default_rng(0)
                with ThreadPoolExecutor() as pool:
                    futs = [pool.submit(work, i, rng) for i in items]
                    futs.append(pool.submit(lambda: LIMIT))
                return futs
        """)
        assert findings == []


class TestArtifactAtomicity:
    def test_raw_savez_is_flagged(self, tmp_path):
        found = findings_of(tmp_path, """\
            import numpy as np
            def save(path, arr):
                np.savez_compressed(path, x=arr)
        """, "artifact-atomicity")
        assert len(found) == 1
        assert "np.savez_compressed() in `save`" in found[0].message

    def test_raw_json_dump_is_flagged(self, tmp_path):
        found = findings_of(tmp_path, """\
            import json
            def save(obj):
                with open('out.json', 'w') as f:
                    json.dump(obj, f)
        """, "artifact-atomicity")
        assert [f.line for f in found] == [3, 4]
        assert all("run artifact" in f.message for f in found)

    def test_stage_then_replace_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import json
            import os
            def save(obj, path):
                tmp = path + '.tmp'
                with open('out.json.tmp', 'w') as f:
                    json.dump(obj, f)
                os.replace(tmp, path)
        """)
        assert findings == []

    def test_atomic_helper_is_clean(self, tmp_path):
        caller = lint_source(tmp_path, """\
            from .io import atomic_savez
            def save(path, arrays):
                atomic_savez(path, arrays)
        """, name="a.py")
        helper = lint_source(tmp_path, """\
            import os
            import numpy as np
            def atomic_savez(path, arrays):
                np.savez_compressed(str(path) + '.tmp', **arrays)
                os.replace(str(path) + '.tmp', path)
        """, name="io.py")
        assert caller == [] and helper == []

    def test_non_artifact_writes_are_ignored(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def save(text):
                with open('notes.txt', 'w') as f:
                    f.write(text)
        """)
        assert findings == []


class TestTraceSafety:
    def test_data_write_inside_trace_body(self, tmp_path):
        # tensor-data-mutation reports the write; trace-safety does not
        # report it a second time.
        findings = lint_source(tmp_path, """\
            def step(nc, model):
                with nc.trace():
                    model.w.data[0] = 1.0
        """)
        assert [(f.rule, f.line) for f in findings] == [
            ("tensor-data-mutation", 3)]

    def test_backward_under_no_grad(self, tmp_path):
        found = findings_of(tmp_path, """\
            from .ctx import no_grad
            def evaluate(loss):
                with no_grad():
                    loss.backward()
                loss.backward()
        """, "trace-safety")
        assert [f.line for f in found] == [4]
        assert "backward() under no_grad() in `evaluate`" in found[0].message

    def test_whitelist_covers_repro_modules_only(self, tmp_path):
        # repro's nn/optim.py is on TENSOR_DATA_WHITELIST (in-place
        # parameter updates are that module's whole job); the same
        # relative path in another package is not.
        nested = tmp_path / "pkg" / "nn"
        nested.mkdir(parents=True)
        path = nested / "optim.py"
        path.write_text("def step(p, g, lr):\n    p.data -= lr * g\n")
        assert rules_fired(lint_file(path)) == {"tensor-data-mutation"}

    def test_data_write_outside_trace_is_clean(self, tmp_path):
        found = findings_of(tmp_path, """\
            def reset(t):
                t.data[:] = 0.0
        """, "trace-safety")
        assert found == []
