"""Campaign service: protocol framing, job lifecycle, dedup, event streams."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.campaign import CampaignSpec, reduce_frame, run_campaign, stream_campaign
from repro.errors import CampaignError
from repro.service import CampaignService, ServiceClient, recv_message, send_message
from repro.service.protocol import MAX_LINE_BYTES, ProtocolError
from repro.service.server import read_service_address

FAST_BASE = {"load_levels": [1.0, 0.0], "measurement_noise": False}


def spec_payload(name="svc-test", seeds=(1, 2)) -> dict:
    return CampaignSpec(
        name=name,
        sweep={"cpu_model": ["EPYC 9654", "Xeon X5670"], "seed": list(seeds)},
        base=FAST_BASE,
    ).to_dict()


# --------------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_roundtrip_is_one_line(self):
        buffer = io.BytesIO()
        send_message(buffer, {"op": "ping", "n": 1})
        raw = buffer.getvalue()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        buffer.seek(0)
        assert recv_message(buffer) == {"op": "ping", "n": 1}

    def test_closed_stream_returns_none(self):
        assert recv_message(io.BytesIO(b"")) is None

    def test_malformed_line_raises(self):
        with pytest.raises(ProtocolError, match="malformed"):
            recv_message(io.BytesIO(b"{not json\n"))
        with pytest.raises(ProtocolError, match="JSON object"):
            recv_message(io.BytesIO(b"[1, 2]\n"))

    def test_oversized_line_rejected(self):
        line = b"x" * (MAX_LINE_BYTES + 10) + b"\n"
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_message(io.BytesIO(line))


# --------------------------------------------------------------------------- #
# Service end to end (one live service per module)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("service-root")
    service = CampaignService(root, shard_size=2)
    service.start()
    yield service
    service.stop()


@pytest.fixture(scope="module")
def client(service) -> ServiceClient:
    host, port = service.address
    return ServiceClient(host, port, timeout=120.0)


class TestServiceLifecycle:
    def test_ping_and_published_address(self, service, client):
        assert client.ping()
        assert read_service_address(service.root) == service.address

    def test_submit_runs_to_completion(self, client):
        job = client.submit(spec_payload(name="lifecycle"))
        assert job["state"] in {"queued", "running", "complete"}
        assert job["n_units"] == 4 and not job["deduped"]
        result = client.wait(job["job"])
        assert result["state"] == "complete"
        assert result["completed"] == 4 and not result["failures"]

    def test_result_matches_local_run_bit_for_bit(self, client, tmp_path):
        payload = spec_payload(name="identity", seeds=(5, 6))
        result = client.wait(client.submit(payload)["job"])
        local = stream_campaign(
            CampaignSpec.from_dict(payload), tmp_path / "local", shard_size=2
        )
        assert result["aggregate"] == local.aggregate.to_dict()
        unsharded = run_campaign(CampaignSpec.from_dict(payload), tmp_path / "flat")
        assert result["aggregate"] == reduce_frame(unsharded.frame).to_dict()

    def test_identical_submission_dedups_to_same_job(self, client):
        payload = spec_payload(name="dedup")
        first = client.submit(payload)
        second = client.submit(payload)
        assert second["job"] == first["job"]
        assert second["deduped"] and not first["deduped"]

    def test_overlapping_units_dedup_across_jobs(self, client):
        # Two *different* jobs (different names => different job ids) with
        # identical sweeps: the shared results/ cache means the second job
        # simulates nothing.
        seeds = (31, 32)
        first = client.wait(client.submit(spec_payload(name="warm-a", seeds=seeds))["job"])
        second = client.wait(client.submit(spec_payload(name="warm-b", seeds=seeds))["job"])
        assert first["simulated"] == 4
        assert second["simulated"] == 0 and second["cache_hits"] == 4
        assert second["aggregate"] == first["aggregate"]

    def test_status_reports_shard_progress(self, client):
        job = client.submit(spec_payload(name="status-probe"))
        status = client.wait(job["job"]) and client.status(job["job"])
        assert status["state"] == "complete"
        assert status["shards"]["complete"] == 2
        assert status["shards"]["rows_flushed"] == 4

    def test_events_stream_covers_campaign_lifecycle(self, client):
        job = client.submit(spec_payload(name="eventful"))
        client.wait(job["job"])
        names = [event["event"] for event in client.events(job["job"])]
        # The scheduler journals the job lifecycle around the campaign's own
        # telemetry: queued/started bracket the start, the serial finalize
        # pass closes with campaign_complete.
        assert names[0] == "job_queued"
        assert "campaign_start" in names
        assert "shard_flush" in names
        assert names[-1] == "campaign_complete"

    def test_jobs_listing_includes_submitted(self, client):
        client.wait(client.submit(spec_payload(name="listed"))["job"])
        listing = client.jobs()
        assert any(job["name"] == "listed" for job in listing)
        assert all(job["state"] != "failed" for job in listing)

    def test_errors_are_reported_not_dropped(self, client):
        with pytest.raises(CampaignError, match="unknown job"):
            client.status("no-such-job")
        with pytest.raises(CampaignError, match="invalid spec"):
            client.submit({"name": "bad"})  # no sweep axes
        with pytest.raises(CampaignError, match="unknown op"):
            client._checked(client._roundtrip({"op": "frobnicate"}))

    def test_result_before_completion_names_state(self, service):
        # Ask for the result of a job that is still queued: the error names
        # the state so clients know to poll rather than despair.
        payload = spec_payload(name="impatient", seeds=(71, 72))
        spec = CampaignSpec.from_dict(payload)
        job, _ = service.submit(spec)  # may start running immediately
        response = service._op_result({"op": "result", "job": job.job_id})
        if not response["ok"]:
            assert response["state"] in {"queued", "running"}
        host, port = service.address
        ServiceClient(host, port, timeout=120.0).wait(job.job_id)

    def test_worker_fanout_through_service(self, client, tmp_path):
        payload = spec_payload(name="svc-workers", seeds=(41, 42, 43))
        job = client.submit(payload, workers=2)
        result = client.wait(job["job"])
        # n_workers reports the shared pool size, not the per-job cap: the
        # job's shards ran on the scheduler's pool regardless of its cap.
        assert result["n_workers"] >= 2 and result["completed"] == 6
        local = stream_campaign(
            CampaignSpec.from_dict(payload), tmp_path / "serial", shard_size=2
        )
        assert result["aggregate"] == local.aggregate.to_dict()

    def test_finalize_reports_exact_quantiles_past_256_units(self, client, tmp_path):
        # The finalizer reads each column back from the job's shard
        # artifacts: its aggregate is the unsharded reduction, quantiles
        # included, even though no single shard holds every value.
        payload = CampaignSpec(
            name="svc-exact",
            sweep={"cpu_model": ["EPYC 9654", "Xeon X5670"], "seed": list(range(500, 650))},
            base={"load_levels": [1.0, 0.0]},
        ).to_dict()
        result = client.wait(client.submit(payload, shard_size=128)["job"])
        assert result["completed"] == 300
        unsharded = run_campaign(CampaignSpec.from_dict(payload), tmp_path / "flat")
        assert result["aggregate"] == reduce_frame(unsharded.frame).to_dict()
        column = unsharded.frame["overall_ssj_ops_per_watt"]
        values = column.values[~column.mask]
        row = result["aggregate"]["column"].index("overall_ssj_ops_per_watt")
        for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            assert result["aggregate"][label][row] == float(np.quantile(values, q))


class TestServiceShutdown:
    def test_shutdown_op_stops_service(self, tmp_path):
        service = CampaignService(tmp_path / "root", shard_size=2)
        host, port = service.start()
        client = ServiceClient(host, port)
        client.shutdown()
        service.wait()  # returns because the shutdown op fired stop()
        assert service._stopped.is_set()

    def test_read_address_missing_root_errors(self, tmp_path):
        with pytest.raises(CampaignError, match="no service address"):
            read_service_address(tmp_path / "nowhere")

    def test_service_json_contents(self, tmp_path):
        service = CampaignService(tmp_path / "root")
        host, port = service.start()
        try:
            data = json.loads(
                (service.root / "service.json").read_text(encoding="utf-8")
            )
            assert (data["host"], data["port"]) == (host, port)
            assert isinstance(data["pid"], int)
        finally:
            service.stop()
