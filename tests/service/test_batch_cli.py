"""The service front ends: ``repro.cli batch`` and ``serve``."""

import io
import json

import pytest

from repro.cli import main


def write_requests(tmp_path, lines):
    path = tmp_path / "requests.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


def read_responses(path):
    return [json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()]


REQUESTS = [
    {"id": "q1", "family": "figure1"},
    {"id": "q2", "family": "phil", "n": 3},
    {"id": "q3", "family": "figure1"},                     # duplicate
    {"id": "q4", "family": "phil", "n": 3,
     "spec": {"backend": "zdd"}},
]


class TestBatch:
    def test_batch_resolves_every_request(self, tmp_path, capsys):
        requests = write_requests(tmp_path, REQUESTS)
        out = tmp_path / "responses.jsonl"
        assert main(["batch", requests, "-o", str(out),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--workers", "2"]) == 0
        responses = read_responses(out)
        assert [r["id"] for r in responses] == ["q1", "q2", "q3", "q4"]
        assert all(r["status"] == "ok" for r in responses)
        by_id = {r["id"]: r for r in responses}
        assert by_id["q1"]["result"]["markings"] == 8
        assert by_id["q3"]["service"]["dedup"] is True
        assert by_id["q3"]["result"] == by_id["q1"]["result"]
        assert by_id["q4"]["result"]["spec"]["backend"] == "zdd"
        assert "cache hits 0" in capsys.readouterr().err

    def test_second_batch_is_all_cache_hits_and_bit_identical(
            self, tmp_path, capsys):
        requests = write_requests(tmp_path, REQUESTS)
        first_out = tmp_path / "first.jsonl"
        second_out = tmp_path / "second.jsonl"
        cache = str(tmp_path / "cache")
        assert main(["batch", requests, "-o", str(first_out),
                     "--cache-dir", cache, "--workers", "2"]) == 0
        assert main(["batch", requests, "-o", str(second_out),
                     "--cache-dir", cache, "--workers", "2"]) == 0
        first = read_responses(first_out)
        second = read_responses(second_out)
        for before, after in zip(first, second):
            assert after["service"]["cache"] == "hit"
            # Bit-identical result payloads: the cache hands back the
            # original solve's JSON, untouched by telemetry.
            assert after["result"] == before["result"]
        err = capsys.readouterr().err
        assert "cache hits 4" in err.splitlines()[-1]

    def test_kill_one_worker_batch_still_completes(self, tmp_path):
        # phil-6 twice plus friends: enough work that the SIGKILL lands
        # while the pool is busy, and the batch must still finish.
        requests = write_requests(tmp_path, [
            {"id": "k1", "family": "phil", "n": 6},
            {"id": "k2", "family": "phil", "n": 6},
            {"id": "k3", "family": "figure1"},
            {"id": "k4", "family": "slot", "n": 2},
        ])
        out = tmp_path / "responses.jsonl"
        assert main(["batch", requests, "-o", str(out),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--workers", "2", "--kill-worker-after", "0"]) == 0
        responses = read_responses(out)
        assert [r["status"] for r in responses] == ["ok"] * 4
        assert responses[0]["result"]["markings"] > 0

    def test_workers_zero_runs_serially(self, tmp_path):
        requests = write_requests(tmp_path,
                                  [{"id": "s1", "family": "figure1"}])
        out = tmp_path / "responses.jsonl"
        assert main(["batch", requests, "-o", str(out),
                     "--workers", "0"]) == 0
        (response,) = read_responses(out)
        assert response["service"]["mode"] == "serial"

    def test_bad_request_lines_fail_the_batch_but_not_the_rest(
            self, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"id": "ok", "family": "figure1"}\n'
            'this is not json\n'
            '{"id": "nosuch", "family": "klingon", "n": 2}\n'
            '{"id": "badspec", "family": "figure1", '
            '"spec": {"backend": "quantum"}}\n')
        out = tmp_path / "responses.jsonl"
        assert main(["batch", str(requests), "-o", str(out),
                     "--workers", "0"]) == 1
        responses = read_responses(out)
        assert [r["status"] for r in responses] \
            == ["ok", "error", "error", "error"]
        assert responses[1]["error"]["kind"] == "JSONDecodeError"
        assert "klingon" not in responses[2].get("result", {})
        assert responses[3]["error"]["kind"] == "SpecError"
        # Failures past the JSON parse keep the caller's id — only the
        # unparseable line falls back to its position.
        assert [r["id"] for r in responses] \
            == ["ok", "line-1", "nosuch", "badspec"]

    def test_retired_chain_order_line_gets_a_spec_error(self, tmp_path):
        """A request carrying the retired ``chain_order`` field gets a
        structured error naming it when it asks for net order; the one
        value that still loads runs as the default spec."""
        requests = write_requests(tmp_path, [
            {"id": "net", "family": "figure1",
             "spec": {"chain_order": "net"}},
            {"id": "support", "family": "figure1",
             "spec": {"chain_order": "support"}},
        ])
        out = tmp_path / "responses.jsonl"
        assert main(["batch", requests, "-o", str(out),
                     "--workers", "0"]) == 1
        retired, support = read_responses(out)
        assert retired["id"] == "net"
        assert retired["status"] == "error"
        assert retired["error"]["kind"] == "SpecError"
        assert "chain_order" in retired["error"]["detail"]
        assert support["status"] == "ok"
        assert support["result"]["markings"] == 8

    def test_retired_chaining_line_gets_a_spec_error(self, tmp_path):
        """A request naming the retired ``chaining`` strategy gets a
        structured error naming its replacement, not a traceback, and
        the batch goes on with the next line."""
        requests = write_requests(tmp_path, [
            {"id": "chaining", "family": "figure1",
             "spec": {"strategy": "chaining"}},
            {"id": "bfs", "family": "figure1",
             "spec": {"strategy": "bfs"}},
        ])
        out = tmp_path / "responses.jsonl"
        assert main(["batch", requests, "-o", str(out),
                     "--workers", "0"]) == 1
        retired, bfs = read_responses(out)
        assert retired["id"] == "chaining"
        assert retired["status"] == "error"
        assert retired["error"]["kind"] == "SpecError"
        assert "retired" in retired["error"]["detail"]
        assert "'saturation'" in retired["error"]["detail"]
        assert bfs["status"] == "ok"
        assert bfs["result"]["markings"] == 8

    def test_missing_net_file_error_keeps_request_id(self, tmp_path):
        requests = write_requests(
            tmp_path, [{"id": "lost", "net": "no/such/net.pnet"}])
        out = tmp_path / "responses.jsonl"
        assert main(["batch", requests, "-o", str(out),
                     "--workers", "0"]) == 1
        (response,) = read_responses(out)
        assert response["id"] == "lost"
        assert response["status"] == "error"

    def test_checkpoint_dir_leaves_resumable_state(self, tmp_path):
        requests = write_requests(tmp_path,
                                  [{"id": "c1", "family": "phil",
                                    "n": 3}])
        out = tmp_path / "responses.jsonl"
        ckpt = tmp_path / "ckpt"
        assert main(["batch", requests, "-o", str(out),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--checkpoint-dir", str(ckpt),
                     "--workers", "0"]) == 0
        assert list(ckpt.glob("*.ckpt"))
        # A fresh cache over the same checkpoint dir resumes.
        out2 = tmp_path / "responses2.jsonl"
        assert main(["batch", requests, "-o", str(out2),
                     "--cache-dir", str(tmp_path / "cache2"),
                     "--checkpoint-dir", str(ckpt),
                     "--workers", "0"]) == 0
        (response,) = read_responses(out2)
        assert response["result"]["extras"]["resume"]["status"] \
            == "resumed"


class TestServe:
    def run_serve(self, monkeypatch, capsys, lines, extra=()):
        stdin = io.StringIO(
            "".join(json.dumps(line) + "\n" for line in lines))
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["serve", "--workers", "0", *extra])
        captured = capsys.readouterr()
        return code, [json.loads(line)
                      for line in captured.out.splitlines()
                      if line.strip()], captured.err

    def test_serve_loop_answers_each_line(self, monkeypatch, capsys):
        code, responses, err = self.run_serve(
            monkeypatch, capsys,
            [{"id": "a", "family": "figure1"},
             {"id": "b", "family": "figure1"}])
        assert code == 0
        assert [r["id"] for r in responses] == ["a", "b"]
        # Within one serve session the second hit comes from memory.
        assert responses[1]["service"] == {
            "cache": "hit", "tier": "memory", "mode": "cache",
            "dedup": False, "key": responses[0]["service"]["key"]}
        assert responses[1]["result"] == responses[0]["result"]
        assert "cache hits 1" in err

    def test_serve_reports_errors_and_exits_nonzero(self, monkeypatch,
                                                    capsys):
        code, responses, _ = self.run_serve(
            monkeypatch, capsys,
            [{"id": "a", "family": "figure1"},
             {"id": "b", "family": "phil"}])  # missing size
        assert code == 1
        assert responses[0]["status"] == "ok"
        assert responses[1]["status"] == "error"
