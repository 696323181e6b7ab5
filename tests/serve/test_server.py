"""PredictionServer over real sockets: routes, errors, hot-reload.

The hot-reload invariant under test (DESIGN.md §13): a request served
concurrently with a model swap returns the old model's answer or the
new model's answer — never a mixture, never garbage — and a corrupt
checkpoint never takes down the old model."""

import http.client
import json
import socket
import threading

import numpy as np
import pytest

from repro.infer import save_predictor, weight_digest
from repro.model import TimingPredictor
from repro.serve import (
    ModelContainer,
    PredictionServer,
    PredictionService,
    ServerConfig,
    ServingClient,
    ServingError,
)
from repro.serve.server import MAX_BODY_BYTES, MAX_MC_SAMPLES, warm_up
from repro.util import blas_threads

ATOL = 1e-10


@pytest.fixture()
def server(designs, model):
    config = ServerConfig(port=0, batch_window_ms=2.0)
    with PredictionServer(designs, model, config=config) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServingClient(server.host, server.port) as c:
        yield c


class TestRoutes:
    def test_healthz(self, client, model):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["designs"] == 2
        assert body["generation"] == 1
        assert body["digest"] == weight_digest(model)

    def test_predict_matches_seed_path(self, client, designs,
                                       reference):
        for design in designs:
            body = client.predict(design.name)
            assert body["design"] == design.name
            assert body["node"] == design.node
            assert body["num_endpoints"] == design.num_endpoints
            assert body["std"] is None
            assert body["coalesced"] >= 1
            np.testing.assert_allclose(np.asarray(body["mean"]),
                                       reference[design.name],
                                       atol=ATOL)

    def test_predict_with_uncertainty(self, client, designs, model):
        body = client.predict(designs[1].name, mc_samples=16,
                              uncertainty=True)
        ref_mean, ref_std = model.predict_with_uncertainty(
            designs[1], mc_samples=16, seed=0)
        np.testing.assert_allclose(np.asarray(body["mean"]), ref_mean,
                                   atol=ATOL)
        np.testing.assert_allclose(np.asarray(body["std"]), ref_std,
                                   atol=ATOL)

    def test_stats_shape(self, client, designs):
        client.predict(designs[0].name)
        body = client.stats()
        assert body["requests"] >= 1
        assert body["latency"]["count"] >= 1
        assert body["latency"]["p99_ms"] >= body["latency"]["p50_ms"] >= 0
        assert "features" in body["engine"]
        assert "structs" in body["engine"]
        assert body["coalescer"]["requests"] >= 1
        assert body["model"]["generation"] == 1
        # An in-process server leaves the host's thread count alone.
        assert body["blas_threads"] == blas_threads()

    def test_window_zero_bypasses_coalescer(self, designs, model,
                                            reference):
        config = ServerConfig(port=0, batch_window_ms=0.0)
        with PredictionServer(designs, model, config=config) as srv:
            with ServingClient(srv.host, srv.port) as c:
                body = c.predict(designs[0].name)
                stats = c.stats()
        assert stats["coalescer"] is None
        assert body["coalesced"] == 1
        np.testing.assert_allclose(np.asarray(body["mean"]),
                                   reference[designs[0].name],
                                   atol=ATOL)


class TestErrors:
    def test_unknown_design_404(self, client):
        with pytest.raises(ServingError) as excinfo:
            client.predict("no_such_design")
        assert excinfo.value.status == 404
        assert "no_such_design" in str(excinfo.value)

    def test_unknown_route_404(self, server):
        with ServingClient(server.host, server.port) as c:
            with pytest.raises(ServingError) as excinfo:
                c._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_bad_json_400(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            conn.request("POST", "/predict", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "bad request body" in body["error"]

    def test_missing_design_field_400(self, client):
        with pytest.raises(ServingError) as excinfo:
            client._request("POST", "/predict", {"mc_samples": 3})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("window", [2.0, 0.0])
    def test_negative_seed_400_is_counted(self, designs, model, window):
        config = ServerConfig(port=0, batch_window_ms=window)
        with PredictionServer(designs, model, config=config) as srv:
            with ServingClient(srv.host, srv.port) as c:
                with pytest.raises(ServingError) as excinfo:
                    c.predict(designs[0].name, seed=-1)
                c.predict(designs[0].name)   # the connection survives
                stats = c.stats()
        assert excinfo.value.status == 400
        assert "seed" in str(excinfo.value)
        assert (stats["requests"], stats["errors"]) == (2, 1)

    @pytest.mark.parametrize("window", [2.0, 0.0])
    def test_engine_failure_is_a_counted_500(self, designs, model,
                                             monkeypatch, window):
        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        config = ServerConfig(port=0, batch_window_ms=window)
        with PredictionServer(designs, model, config=config) as srv:
            monkeypatch.setattr(srv.container.engine, "predict_many", boom)
            with ServingClient(srv.host, srv.port) as c:
                with pytest.raises(ServingError) as excinfo:
                    c.predict(designs[0].name)
                stats = c.stats()
        assert excinfo.value.status == 500
        assert "engine exploded" in str(excinfo.value)
        assert (stats["requests"], stats["errors"]) == (1, 1)

    @pytest.mark.parametrize("fields, error", [
        ({"mc_samples": -5}, "mc_samples"),
        ({"mc_samples": MAX_MC_SAMPLES + 1, "uncertainty": True},
         "mc_samples"),
        ({"uncertainty": "false"}, "uncertainty"),
        ({"mc_samples": float("inf")}, "integers"),
        ({"mc_samples": True}, "integers"),
        ({"mc_samples": 16.9}, "integers"),
        ({"mc_samples": "16"}, "integers"),
        ({"seed": 2.5}, "integers"),
        ({"seed": True}, "integers"),
    ], ids=["negative", "over-cap", "string-bool", "infinite",
            "bool-samples", "float-samples", "string-samples",
            "float-seed", "bool-seed"])
    def test_bad_sampling_field_is_a_400(self, designs, model, fields,
                                         error):
        """A sampling field that is out of range or of the wrong type is
        refused, not coerced, and the service keeps answering."""
        service = PredictionService(designs, ModelContainer(model))
        name = designs[0].name
        try:
            status, body = service.predict({"design": name, **fields})
            after, answer = service.predict({"design": name})
        finally:
            service.close()
        assert status == 400
        assert error in body["error"]
        assert after == 200
        assert answer["design"] == name

    def test_reload_without_model_path_400(self, client):
        with pytest.raises(ServingError) as excinfo:
            client.reload()
        assert excinfo.value.status == 400
        assert "without --model" in str(excinfo.value)


class TestRequestBody:
    """``Content-Length`` is checked before the body is read; a body that
    cannot be read in full is answered and its connection closed."""

    @staticmethod
    def _raw_predict(server, length, body=b""):
        """POST /predict over a raw socket, then shut the write side."""
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            sock.sendall(f"POST /predict HTTP/1.1\r\nHost: test\r\n"
                         f"Content-Length: {length}\r\n\r\n"
                         .encode("ascii") + body)
            sock.shutdown(socket.SHUT_WR)
            response = http.client.HTTPResponse(sock)
            response.begin()
            payload = json.loads(response.read())
            closed = sock.recv(1) == b""
        return response, payload, closed

    @pytest.mark.parametrize("length, body, status, error", [
        (100_000_000_000, b"", 413, f"{MAX_BODY_BYTES}-byte limit"),
        (-1, b"", 400, "Content-Length"),
        ("12abc", b"", 400, "Content-Length"),
        (1000, b'{"design": "usbf_device"}', 400, "truncated"),
    ], ids=["oversized", "negative", "non-integer", "truncated"])
    def test_unreadable_body_is_refused(self, server, length, body,
                                        status, error):
        response, payload, closed = self._raw_predict(server, length,
                                                      body)
        assert response.status == status
        assert error in payload["error"]
        assert response.getheader("Connection") == "close"
        assert closed
        with ServingClient(server.host, server.port) as c:
            assert c.healthz()["status"] == "ok"
            assert c.predict("usbf_device")["design"] == "usbf_device"


class TestHotReload:
    def _serve(self, designs, model, model_file, **config_kwargs):
        config = ServerConfig(port=0, batch_window_ms=2.0,
                              **config_kwargs)
        return PredictionServer(designs, model, model_path=model_file,
                                config=config)

    def test_reload_swaps_to_new_weights(self, designs, model,
                                         other_model, model_file):
        with self._serve(designs, model, model_file) as srv:
            with ServingClient(srv.host, srv.port) as c:
                before = c.predict(designs[0].name)
                save_predictor(other_model, model_file)
                status = c.reload()
                after = c.predict(designs[0].name)
        assert status["reloaded"] is True
        assert status["generation"] == 2
        assert status["digest"] == weight_digest(other_model)
        assert after["generation"] == 2
        ref = other_model.predict(designs[0])
        np.testing.assert_allclose(np.asarray(after["mean"]), ref,
                                   atol=ATOL)
        assert not np.allclose(np.asarray(before["mean"]),
                               np.asarray(after["mean"]))

    def test_corrupt_checkpoint_keeps_old_model(self, designs, model,
                                                model_file, reference):
        """A torn file, or a ``meta.init_config`` that does not build a
        predictor (an unknown key, or not a JSON object), is refused
        with a reply: the old model keeps serving and /stats counts
        each failure."""
        with np.load(model_file, allow_pickle=False) as archive:
            saved = {k: archive[k] for k in archive.files}

        def with_init_config(init_config):
            meta = json.loads(str(saved["meta"]))
            meta["init_config"] = init_config
            np.savez(model_file, **{**saved,
                                    "meta": np.array(json.dumps(meta))})

        corruptions = [
            lambda: model_file.write_bytes(b"garbage, not a zip archive"),
            lambda: with_init_config({**model.init_config, "dropout": 0.1}),
            lambda: with_init_config("not an object"),
        ]
        with self._serve(designs, model, model_file) as srv:
            with ServingClient(srv.host, srv.port) as c:
                for failed, corrupt in enumerate(corruptions, start=1):
                    corrupt()
                    with pytest.raises(ServingError) as excinfo:
                        c.reload()
                    # The old model must still serve, and /stats must
                    # report the failure.
                    body = c.predict(designs[0].name)
                    stats = c.stats()
                    assert excinfo.value.status == 500
                    assert excinfo.value.body["error_type"] == \
                        "CheckpointError"
                    if failed > 1:
                        assert "meta.init_config" in str(excinfo.value)
                    assert stats["model"]["failed_reloads"] == failed
                    assert stats["model"]["last_reload_error"]
                    assert stats["model"]["generation"] == 1
                    assert body["generation"] == 1
                    np.testing.assert_allclose(
                        np.asarray(body["mean"]),
                        reference[designs[0].name], atol=ATOL)

    def test_reload_refuses_a_model_the_designs_cannot_run(
            self, designs, model, model_file, reference):
        """A valid checkpoint whose input width differs from the served
        designs' is refused like a corrupt one: generation 1 keeps
        serving."""
        wide = TimingPredictor(designs[0].graph.features.shape[1] + 3,
                               seed=1)
        wide._population = model._population
        with self._serve(designs, model, model_file) as srv:
            with ServingClient(srv.host, srv.port) as c:
                save_predictor(wide, model_file)
                with pytest.raises(ServingError) as excinfo:
                    c.reload()
                body = c.predict(designs[0].name)
                stats = c.stats()
        assert excinfo.value.status == 500
        assert excinfo.value.body["error_type"] == "CheckpointError"
        assert "input features" in str(excinfo.value)
        assert stats["model"]["failed_reloads"] == 1
        assert stats["model"]["generation"] == 1
        assert body["generation"] == 1
        np.testing.assert_allclose(np.asarray(body["mean"]),
                                   reference[designs[0].name],
                                   atol=ATOL)

    def test_generation_is_published_after_its_digest(
            self, designs, model, other_model, model_file, monkeypatch):
        """A reader seeing the new generation must see the new digest:
        the digest is computed before the generation is bumped."""
        from repro.serve import server as server_mod

        with self._serve(designs, model, model_file) as srv:
            generations = []

            def digest(m):
                generations.append(srv.container.generation)
                return weight_digest(m)

            monkeypatch.setattr(server_mod, "weight_digest", digest)
            save_predictor(other_model, model_file)
            status = srv.container.reload()
        assert status["generation"] == 2
        assert generations == [1]

    def test_mtime_poll_triggers_reload(self, designs, model,
                                        other_model, model_file):
        import os
        import time

        with self._serve(designs, model, model_file,
                         poll_interval=0.05) as srv:
            with ServingClient(srv.host, srv.port) as c:
                assert c.healthz()["generation"] == 1
                save_predictor(other_model, model_file)
                # Make the mtime change unambiguous on coarse clocks.
                future = time.time() + 5
                os.utime(model_file, (future, future))
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if c.healthz()["generation"] == 2:
                        break
                    time.sleep(0.05)
                assert c.healthz()["generation"] == 2
                assert c.healthz()["digest"] == \
                    weight_digest(other_model)

    def test_reload_mid_traffic_old_or_new_never_garbage(
            self, designs, model, other_model, model_file):
        """Hammer predictions while the model is swapped back and forth;
        every answer must exactly match one of the two models."""
        ref_a = {d.name: model.predict(d) for d in designs}
        ref_b = {d.name: other_model.predict(d) for d in designs}
        errors = []
        stop = threading.Event()

        with self._serve(designs, model, model_file) as srv:
            warm_up(srv.service)

            def hammer(i):
                with ServingClient(srv.host, srv.port,
                                   timeout=60.0) as c:
                    k = 0
                    while not stop.is_set() and k < 200:
                        design = designs[(i + k) % len(designs)]
                        k += 1
                        try:
                            out = np.asarray(
                                c.predict(design.name)["mean"])
                        except ServingError as exc:
                            # A typed, reported failure is acceptable;
                            # garbage is not.
                            errors.append(("http", exc.status))
                            continue
                        ok_a = np.allclose(out, ref_a[design.name],
                                           atol=ATOL)
                        ok_b = np.allclose(out, ref_b[design.name],
                                           atol=ATOL)
                        if not (ok_a or ok_b):
                            errors.append(("garbage", design.name))

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            with ServingClient(srv.host, srv.port, timeout=60.0) as rc:
                for flip in range(6):
                    save_predictor(other_model if flip % 2 == 0
                                   else model, model_file)
                    status = rc.reload()
                    assert status["reloaded"] is True
            stop.set()
            for t in threads:
                t.join()
        assert errors == []


class TestWarmReload:
    """A reload extracts the served designs' features under the new
    weights while the old model keeps serving, and publishes weights
    and features together."""

    @staticmethod
    def _serve(designs, model, model_file, window=2.0):
        srv = PredictionServer(
            designs, model, model_path=model_file,
            config=ServerConfig(port=0, batch_window_ms=window))
        warm_up(srv.service)
        return srv

    @staticmethod
    def _no_extraction(monkeypatch):
        import repro.infer.engine as engine_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("extractor ran")

        monkeypatch.setattr(engine_mod, "cnn_forward", boom)

    def test_reload_publishes_a_warm_model(self, designs, model,
                                           other_model, model_file,
                                           monkeypatch):
        with self._serve(designs, model, model_file) as srv:
            save_predictor(other_model, model_file)
            status = srv.container.reload()
            self._no_extraction(monkeypatch)
            with ServingClient(srv.host, srv.port) as c:
                bodies = [c.predict(d.name) for d in designs]
                stats = c.stats()
        assert status["generation"] == 2
        for design, body in zip(designs, bodies):
            assert body["generation"] == 2
            np.testing.assert_allclose(np.asarray(body["mean"]),
                                       other_model.predict(design),
                                       atol=ATOL)
        assert stats["engine"]["features"]["misses"] == 0

    def test_reload_of_identical_weights_runs_no_extraction(
            self, designs, model, model_file, monkeypatch):
        with self._serve(designs, model, model_file) as srv:
            self._no_extraction(monkeypatch)
            status = srv.container.reload()
            out = srv.container.engine.predict_many(designs)
        assert status["reloaded"] is True
        assert status["generation"] == 2
        assert status["digest"] == status["old_digest"]
        assert {p.generation for p in out.values()} == {2}

    def test_request_during_the_warm_is_answered_by_the_old_model(
            self, designs, model, other_model, model_file, reference,
            monkeypatch):
        import repro.infer.engine as engine_mod

        warming, release = threading.Event(), threading.Event()
        original = engine_mod.cnn_forward

        def blocked(cnn, *args, **kwargs):
            if cnn is not model.extractor.cnn:   # the new model's warm
                warming.set()
                release.wait(30.0)
            return original(cnn, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "cnn_forward", blocked)
        with self._serve(designs, model, model_file) as srv:
            save_predictor(other_model, model_file)
            statuses = []
            reloader = threading.Thread(
                target=lambda: statuses.append(srv.container.reload()))
            reloader.start()
            try:
                assert warming.wait(30.0), "the reload never warmed"
                with ServingClient(srv.host, srv.port, timeout=5.0) as c:
                    body = c.predict(designs[0].name)
                    health = c.healthz()
            finally:
                release.set()
                reloader.join(30.0)
        assert body["generation"] == 1
        assert health["generation"] == 1
        np.testing.assert_allclose(np.asarray(body["mean"]),
                                   reference[designs[0].name], atol=ATOL)
        assert statuses[0]["generation"] == 2

    @pytest.mark.parametrize("window", [2.0, 0.0])
    def test_reply_names_the_generation_that_computed_it(
            self, designs, model, other_model, model_file, reference,
            monkeypatch, window):
        """A reload that publishes between a request's sweep and its
        reply does not relabel generation 1's values as generation 2."""
        with self._serve(designs, model, model_file, window) as srv:
            engine = srv.container.engine
            sweep = engine.predict_many
            reloads = []

            def sweep_then_reload(*args, **kwargs):
                out = sweep(*args, **kwargs)
                if not reloads:
                    save_predictor(other_model, model_file)
                    reloads.append(srv.container.reload())
                return out

            monkeypatch.setattr(engine, "predict_many", sweep_then_reload)
            status, body = srv.service.predict({"design": designs[0].name})
        assert status == 200
        assert reloads[0]["generation"] == 2
        assert body["generation"] == 1
        np.testing.assert_allclose(np.asarray(body["mean"]),
                                   reference[designs[0].name], atol=ATOL)

    def test_stats_answers_while_a_reload_loads(self, designs, model,
                                                other_model, model_file,
                                                monkeypatch):
        import time

        from repro.serve import server as server_mod

        loading, release = threading.Event(), threading.Event()
        load = server_mod.load_predictor

        def blocked(*args, **kwargs):
            loading.set()
            release.wait(30.0)
            return load(*args, **kwargs)

        monkeypatch.setattr(server_mod, "load_predictor", blocked)
        with self._serve(designs, model, model_file) as srv:
            save_predictor(other_model, model_file)
            reloader = threading.Thread(target=srv.container.reload)
            reloader.start()
            try:
                assert loading.wait(30.0), "the reload never loaded"
                with ServingClient(srv.host, srv.port, timeout=5.0) as c:
                    start = time.monotonic()
                    stats = c.stats()
                    elapsed = time.monotonic() - start
            finally:
                release.set()
                reloader.join(30.0)
            generation = srv.container.generation
        assert elapsed < 1.0
        assert stats["model"]["generation"] == 1
        assert generation == 2

    def test_reply_generation_matches_its_values_under_reloads(
            self, designs, model, other_model, model_file):
        """More request threads than cores, a short switch interval and
        reloads flipping between two models: every reply's values are
        those of the generation it names (odd: ``model``, even:
        ``other_model``)."""
        import sys

        refs = [{d.name: m.predict(d) for d in designs}
                for m in (model, other_model)]
        bad, stop = [], threading.Event()

        def hammer(i):
            with ServingClient(srv.host, srv.port, timeout=60.0) as c:
                k = 0
                while not stop.is_set():
                    name = designs[(i + k) % len(designs)].name
                    k += 1
                    try:
                        body = c.predict(name)
                    except ServingError as exc:
                        bad.append((name, exc.status))
                        continue
                    want = refs[(body["generation"] - 1) % 2][name]
                    if not np.allclose(body["mean"], want, atol=ATOL):
                        bad.append((name, body["generation"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self._serve(designs, model, model_file) as srv:
                threads = [threading.Thread(target=hammer, args=(i,))
                           for i in range(4)]
                for t in threads:
                    t.start()
                try:
                    for flip in range(6):
                        save_predictor(other_model if flip % 2 == 0
                                       else model, model_file)
                        assert srv.container.reload()["reloaded"]
                finally:
                    stop.set()
                    for t in threads:
                        t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_failed_warm_keeps_old_model(self, designs, model,
                                         other_model, model_file,
                                         reference, monkeypatch):
        """A model whose warm raises is a failed reload: answered with a
        500, counted, and generation 1 keeps serving."""
        import repro.infer.engine as engine_mod

        def boom(*args, **kwargs):
            raise RuntimeError("warm exploded")

        with self._serve(designs, model, model_file) as srv:
            save_predictor(other_model, model_file)
            monkeypatch.setattr(engine_mod, "cnn_forward", boom)
            with ServingClient(srv.host, srv.port) as c:
                with pytest.raises(ServingError) as excinfo:
                    c.reload()
                body = c.predict(designs[0].name)
                stats = c.stats()
        assert excinfo.value.status == 500
        assert excinfo.value.body["error_type"] == "RuntimeError"
        assert "warm exploded" in str(excinfo.value)
        assert stats["model"]["failed_reloads"] == 1
        assert stats["model"]["generation"] == 1
        assert body["generation"] == 1
        np.testing.assert_allclose(np.asarray(body["mean"]),
                                   reference[designs[0].name], atol=ATOL)


class TestConfigAndLifecycle:
    def test_port_zero_binds_ephemeral(self, server):
        assert server.port > 0

    def test_stop_is_idempotent(self, designs, model):
        srv = PredictionServer(designs, model,
                               config=ServerConfig(port=0))
        srv.start()
        srv.stop()
        srv.stop()

    def test_repeated_design_name_is_refused(self, designs, model):
        """Designs are served by name: a second design of one name (the
        same benchmark on another node) is refused, not shadowed."""
        import dataclasses

        twin = dataclasses.replace(designs[1], name=designs[0].name)
        container = ModelContainer(model, designs=[designs[0], twin])
        with pytest.raises(ValueError, match=repr(designs[0].name)):
            PredictionService([designs[0], twin], container,
                              ServerConfig(port=0))

    def test_warm_up_primes_cache(self, designs, model):
        config = ServerConfig(port=0, batch_window_ms=0.0)
        with PredictionServer(designs, model, config=config) as srv:
            warmed = warm_up(srv.service)
            stats = srv.container.engine.cache_stats()
        assert warmed == len(designs)
        assert stats["entries"] == len(designs)


class TestCommandLine:
    """`repro serve` refuses bad numeric flags before any work."""

    @pytest.mark.parametrize("argv", [
        ["--max-batch", "0"],
        ["--max-batch", "-3"],
        ["--port", "70000"],
        ["--port", "-1"],
        ["--batch-window-ms", "nan"],
        ["--batch-window-ms", "-1"],
        ["--batch-window-ms", "inf"],
        ["--poll-interval", "-1"],
        ["--poll-interval", "nan"],
    ])
    def test_bad_value_exits_2_before_building(self, argv, monkeypatch,
                                               capsys):
        import repro.experiments
        from repro.serve.__main__ import main

        def no_build(*args, **kwargs):
            raise AssertionError("build_dataset ran")

        monkeypatch.setattr(repro.experiments, "build_dataset", no_build)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--train-steps", "2"])
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err

    def test_zero_stays_valid(self):
        import argparse

        from repro.serve.__main__ import add_serve_arguments

        parser = argparse.ArgumentParser()
        add_serve_arguments(parser)
        args = parser.parse_args(["--port", "0", "--batch-window-ms", "0",
                                  "--poll-interval", "0",
                                  "--max-batch", "1"])
        assert (args.port, args.batch_window_ms, args.poll_interval,
                args.max_batch) == (0, 0.0, 0.0, 1)

    def test_one_blas_thread_after_the_model_before_the_warm(
            self, monkeypatch):
        """`repro serve` sets one BLAS thread once its model exists and
        before the start-up warm runs any BLAS call.  The order decides
        no bits: a model trained in the process ran its fit at one
        thread whatever the count (DESIGN.md §11)."""
        import repro.experiments
        import repro.serve.server as server_mod
        import repro.util
        from repro.serve import __main__ as entry

        calls = []

        class Dataset:
            train, test = [], []

        class Server:
            def __init__(self, *args, **kwargs):
                calls.append("server")
                self.service, self.host, self.port = None, "h", 1

            def start(self):
                calls.append("start")

            def serve_forever(self):
                calls.append("serve_forever")

        monkeypatch.setattr(repro.experiments, "build_dataset",
                            lambda **kwargs: Dataset())
        monkeypatch.setattr(entry, "load_or_train",
                            lambda args, dataset: calls.append("model")
                            or object())
        monkeypatch.setattr(repro.util, "set_blas_threads",
                            lambda count: calls.append(("blas", count)))
        monkeypatch.setattr(server_mod, "PredictionServer", Server)
        monkeypatch.setattr(server_mod, "warm_up",
                            lambda service: calls.append("warm") or 0)
        assert entry.main(["--port", "0"]) == 0
        assert calls == ["model", ("blas", 1), "server", "warm", "start",
                         "serve_forever"]
