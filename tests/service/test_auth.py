"""Keyed access control: keyfile parsing, header handling, live 401/403.

The contract under test: a server with a keyfile refuses anonymous and
wrong-role callers in the ``/v1`` error envelope (401 ``unauthorized``
/ 403 ``forbidden``, request ids included), keeps ``/healthz`` open for
probes, hot-reloads rotated keyfiles without a restart — and a server
*without* a keyfile behaves bit-identically to the pre-auth stack.
"""

import json
import os
import time

import pytest

from repro.runtime.errors import ConfigurationError
from repro.service import (
    BatchingConfig,
    GalleryIndex,
    ServiceClient,
    ServiceClientError,
    ServiceRunner,
    VerificationServer,
    parse_exposition,
    sample_value,
)
from repro.service.auth import (
    ANONYMOUS,
    ApiKeyAuthenticator,
    AuthenticationError,
    AuthorizationError,
    KEY_PREFIX,
    Principal,
    generate_key,
    load_keyfile,
    parse_auth_header,
    parse_keyfile,
    write_keyfile,
)
from repro.service.reqlog import RequestLog, iter_reqlog

FINGER = "right_index"

READ_KEY = "rk_reader_secret"
WRITE_KEY = "rk_writer_secret"
ADMIN_KEY = "rk_admin_secret"


def _keyfile(tmp_path, entries=None):
    path = tmp_path / "keys.json"
    write_keyfile(path, entries if entries is not None else [
        {"principal": "reader", "key": READ_KEY,
         "roles": ["read"], "limits": {}},
        {"principal": "writer", "key": WRITE_KEY,
         "roles": ["read", "write"], "limits": {}},
        {"principal": "operator", "key": ADMIN_KEY,
         "roles": ["read", "write", "admin"], "limits": {}},
    ])
    return path


def _server(gallery, matcher, **kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("batching", BatchingConfig())
    return VerificationServer(gallery, matcher=matcher, **kwargs)


class TestKeyfileParsing:
    def test_roundtrip(self, tmp_path):
        path = _keyfile(tmp_path)
        entries = load_keyfile(path)
        assert [e["principal"] for e in entries] == [
            "reader", "writer", "operator",
        ]
        assert entries[1]["roles"] == ["read", "write"]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_keyfile(tmp_path / "nope.json") == []

    def test_invalid_json_raises(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            parse_keyfile("{nope")

    def test_duplicate_principal_raises(self):
        text = json.dumps({"keys": [
            {"principal": "a", "key": "k1", "roles": ["read"]},
            {"principal": "a", "key": "k2", "roles": ["read"]},
        ]})
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_keyfile(text)

    def test_unknown_role_raises(self):
        text = json.dumps({"keys": [
            {"principal": "a", "key": "k", "roles": ["root"]},
        ]})
        with pytest.raises(ConfigurationError, match="roles"):
            parse_keyfile(text)

    def test_empty_key_raises(self):
        text = json.dumps({"keys": [
            {"principal": "a", "key": "", "roles": ["read"]},
        ]})
        with pytest.raises(ConfigurationError, match="key"):
            parse_keyfile(text)

    def test_generated_keys_are_prefixed_and_unique(self):
        keys = {generate_key() for _ in range(32)}
        assert len(keys) == 32
        assert all(k.startswith(KEY_PREFIX) for k in keys)

    def test_keyfile_written_private(self, tmp_path):
        path = _keyfile(tmp_path)
        assert (os.stat(path).st_mode & 0o777) == 0o600


class TestHeaderParsing:
    def test_bearer(self):
        assert parse_auth_header({"authorization": "Bearer abc"}) == "abc"

    def test_bearer_scheme_is_case_insensitive(self):
        assert parse_auth_header({"authorization": "bearer abc"}) == "abc"

    def test_x_api_key(self):
        assert parse_auth_header({"x-api-key": "abc"}) == "abc"

    def test_no_credential_is_none(self):
        assert parse_auth_header({}) is None

    @pytest.mark.parametrize("raw", [
        "Basic abc",        # wrong scheme
        "Bearer",           # no token
        "Bearer   ",        # blank token
        "abc",              # schemeless
    ])
    def test_malformed_authorization_raises(self, raw):
        with pytest.raises(AuthenticationError):
            parse_auth_header({"authorization": raw})

    def test_empty_x_api_key_raises(self):
        with pytest.raises(AuthenticationError):
            parse_auth_header({"x-api-key": "  "})


class TestAuthenticator:
    def test_resolves_each_key_to_its_principal(self, tmp_path):
        auth = ApiKeyAuthenticator(_keyfile(tmp_path))
        assert auth.authenticate(
            {"authorization": f"Bearer {READ_KEY}"}
        ).name == "reader"
        assert auth.authenticate({"x-api-key": WRITE_KEY}).name == "writer"

    def test_unknown_key_raises(self, tmp_path):
        auth = ApiKeyAuthenticator(_keyfile(tmp_path))
        with pytest.raises(AuthenticationError, match="unknown"):
            auth.authenticate({"authorization": "Bearer rk_wrong"})

    def test_missing_credential_raises(self, tmp_path):
        auth = ApiKeyAuthenticator(_keyfile(tmp_path))
        with pytest.raises(AuthenticationError, match="required"):
            auth.authenticate({})

    def test_lookup_sweeps_every_hash(self, tmp_path, monkeypatch):
        """The sweep is constant-shape: every stored hash is compared on
        every lookup, hit or miss, first entry or last — no early exit
        for a timing side channel to read."""
        import repro.service.auth as auth_mod

        auth = ApiKeyAuthenticator(_keyfile(tmp_path))
        comparisons = []
        real = auth_mod.hmac.compare_digest
        monkeypatch.setattr(
            auth_mod.hmac, "compare_digest",
            lambda a, b: comparisons.append(1) or real(a, b),
        )
        for token in (READ_KEY, ADMIN_KEY, "rk_wrong"):
            comparisons.clear()
            try:
                auth.authenticate({"x-api-key": token})
            except AuthenticationError:
                pass
            assert len(comparisons) == 3

    def test_authorize_by_role(self, tmp_path):
        auth = ApiKeyAuthenticator(_keyfile(tmp_path))
        reader = auth.authenticate({"x-api-key": READ_KEY})
        auth.authorize(reader, "verify")
        with pytest.raises(AuthorizationError, match="write"):
            auth.authorize(reader, "enroll")
        with pytest.raises(AuthorizationError, match="admin"):
            auth.authorize(reader, "metrics")

    def test_unknown_endpoint_fails_closed(self):
        assert ANONYMOUS.can("admin")
        with pytest.raises(AuthorizationError):
            ApiKeyAuthenticator.authorize(
                Principal("p", ("read", "write")), "mystery-endpoint"
            )

    def test_reload_picks_up_rotation(self, tmp_path):
        path = _keyfile(tmp_path)
        auth = ApiKeyAuthenticator(path)
        assert auth.principals == ["operator", "reader", "writer"]
        write_keyfile(path, [
            {"principal": "fresh", "key": "rk_new",
             "roles": ["read"], "limits": {}},
        ])
        assert auth.reload() == 1
        assert auth.principals == ["fresh"]
        auth.authenticate({"x-api-key": "rk_new"})
        with pytest.raises(AuthenticationError):
            auth.authenticate({"x-api-key": READ_KEY})

    def test_maybe_reload_follows_mtime(self, tmp_path):
        path = _keyfile(tmp_path)
        clock = [0.0]
        auth = ApiKeyAuthenticator(
            path, reload_interval_s=1.0, clock=lambda: clock[0]
        )
        write_keyfile(path, [
            {"principal": "late", "key": "rk_late",
             "roles": ["read"], "limits": {}},
        ])
        os.utime(path, (time.time() + 5, time.time() + 5))
        auth.maybe_reload()  # within the interval: stat is skipped
        assert "reader" in auth.principals
        clock[0] = 2.0
        auth.maybe_reload()
        assert auth.principals == ["late"]

    def test_vanished_keyfile_keeps_last_table(self, tmp_path):
        path = _keyfile(tmp_path)
        auth = ApiKeyAuthenticator(path)
        path.unlink()
        assert auth.reload() == 3
        auth.authenticate({"x-api-key": READ_KEY})

    def test_malformed_keyfile_raises_on_reload(self, tmp_path):
        path = _keyfile(tmp_path)
        auth = ApiKeyAuthenticator(path)
        path.write_text("{broken")
        with pytest.raises(ConfigurationError):
            auth.reload()


@pytest.fixture()
def keyed_service(tmp_path, tiny_collection, matcher):
    """A keyed server with one enrollment, plus the keyfile path."""
    path = _keyfile(tmp_path)
    gallery = GalleryIndex(tmp_path / "gallery")
    gallery.enroll(
        "subject-0",
        tiny_collection.get(0, FINGER, "D0", 0).template,
        device="D0",
    )
    reqlog = RequestLog(tmp_path / "requests.jsonl")
    # A huge reload interval pins the key table: only the explicit
    # /admin/keys/reload endpoint may pick up rotations mid-test.
    server = _server(
        gallery, matcher,
        auth=ApiKeyAuthenticator(path, reload_interval_s=3600.0),
        reqlog=reqlog,
    )
    with ServiceRunner(server) as (host, port):
        yield host, port, path, reqlog


class TestKeyedServer:
    def test_healthz_stays_open(self, keyed_service):
        host, port, _, _ = keyed_service
        with ServiceClient(host, port) as client:
            assert client.healthz()["status"] == "ok"

    def test_keyless_request_is_401_in_the_envelope(self, keyed_service):
        host, port, _, _ = keyed_service
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.stats()
            assert excinfo.value.status == 401
            assert excinfo.value.code == "unauthorized"
            assert excinfo.value.request_id
            assert client.last_headers.get("www-authenticate") == "Bearer"

    def test_malformed_header_is_401_not_anonymous(
        self, keyed_service, tiny_collection
    ):
        host, port, _, _ = keyed_service
        with ServiceClient(host, port, api_key="") as client:
            # "" renders as "Bearer " — a present-but-empty credential.
            probe = tiny_collection.get(0, FINGER, "D0", 1).template
            with pytest.raises(ServiceClientError) as excinfo:
                client.verify("subject-0", probe, device="D0")
            assert excinfo.value.status == 401
            assert excinfo.value.code == "unauthorized"

    def test_read_key_verifies_but_cannot_enroll(
        self, keyed_service, tiny_collection
    ):
        host, port, _, _ = keyed_service
        probe = tiny_collection.get(0, FINGER, "D0", 1).template
        with ServiceClient(host, port, api_key=READ_KEY) as client:
            reply = client.verify("subject-0", probe, device="D0")
            assert reply["decision"] == "accept"
            with pytest.raises(ServiceClientError) as excinfo:
                client.enroll("subject-9", probe, device="D0")
            assert excinfo.value.status == 403
            assert excinfo.value.code == "forbidden"
            assert excinfo.value.request_id
            with pytest.raises(ServiceClientError) as excinfo:
                client.delete("subject-0", device="D0")
            assert excinfo.value.status == 403

    def test_write_key_enrolls(self, keyed_service, tiny_collection):
        host, port, _, _ = keyed_service
        with ServiceClient(host, port, api_key=WRITE_KEY) as client:
            reply = client.enroll(
                "subject-1",
                tiny_collection.get(1, FINGER, "D0", 0).template,
                device="D0",
            )
            assert reply["identity"] == "subject-1"

    def test_admin_surface_needs_the_admin_role(self, keyed_service):
        host, port, _, _ = keyed_service
        with ServiceClient(host, port, api_key=READ_KEY) as client:
            for call in (client.stats, client.metrics):
                with pytest.raises(ServiceClientError) as excinfo:
                    call()
                assert excinfo.value.status == 403
        with ServiceClient(host, port, api_key=ADMIN_KEY) as client:
            auth_block = client.stats()["auth"]
            assert auth_block["enabled"] is True
            assert auth_block["outcomes"]["forbidden"] >= 1

    def test_metrics_count_auth_outcomes(self, keyed_service):
        host, port, _, _ = keyed_service
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceClientError):
                client.stats()  # one keyless refusal on the books
        with ServiceClient(host, port, api_key=ADMIN_KEY) as client:
            families = parse_exposition(client.metrics())
        assert sample_value(families, "repro_auth_enabled", {}) == 1
        assert sample_value(
            families, "repro_auth_requests_total", {"outcome": "unauthorized"}
        ) >= 1
        assert sample_value(
            families, "repro_auth_requests_total", {"outcome": "ok"}
        ) >= 1

    def test_reqlog_lines_carry_the_principal(
        self, keyed_service, tiny_collection
    ):
        host, port, _, reqlog = keyed_service
        probe = tiny_collection.get(0, FINGER, "D0", 1).template
        with ServiceClient(host, port, api_key=READ_KEY) as client:
            client.verify("subject-0", probe, device="D0")
            with pytest.raises(ServiceClientError):
                client.enroll("subject-9", probe, device="D0")
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceClientError):
                client.verify("subject-0", probe, device="D0")
        # The audit line lands just after the response goes out; give
        # the server a beat to flush all three lines.
        deadline = time.monotonic() + 5.0
        by_status = {}
        while time.monotonic() < deadline and set(by_status) != {200, 401, 403}:
            by_status = {
                record["status"]: record["principal"]
                for record in iter_reqlog(reqlog.path)
                if record["endpoint"] in ("verify", "enroll")
            }
        assert by_status[200] == "reader"
        # Authorization failed *after* authentication succeeded, so the
        # refusal is still attributed to the caller.
        assert by_status[403] == "reader"
        assert by_status[401] is None

    def test_keys_reload_endpoint(self, keyed_service, tiny_collection):
        host, port, path, _ = keyed_service
        write_keyfile(path, [
            {"principal": "rotated", "key": "rk_rotated",
             "roles": ["read", "admin"], "limits": {}},
        ])
        with ServiceClient(host, port, api_key=READ_KEY) as client:
            status, raw = client._exchange(
                "POST", "/v1/admin/keys/reload"
            )
            assert status == 403  # reload is an admin-only surface
        with ServiceClient(host, port, api_key=ADMIN_KEY) as client:
            status, raw = client._exchange(
                "POST", "/v1/admin/keys/reload"
            )
            assert status == 200
            assert json.loads(raw) == {"reloaded": True, "principals": 1}
        probe = tiny_collection.get(0, FINGER, "D0", 1).template
        with ServiceClient(host, port, api_key="rk_rotated") as client:
            assert client.verify(
                "subject-0", probe, device="D0"
            )["decision"] == "accept"
        with ServiceClient(host, port, api_key=READ_KEY) as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.verify("subject-0", probe, device="D0")
            assert excinfo.value.status == 401


class TestOpenServer:
    def test_no_keyfile_serves_open(self, tmp_path, tiny_collection, matcher):
        gallery = GalleryIndex(tmp_path / "gallery")
        gallery.enroll(
            "subject-0",
            tiny_collection.get(0, FINGER, "D0", 0).template,
            device="D0",
        )
        server = _server(gallery, matcher)
        assert server.auth is None and server.limits is None
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                probe = tiny_collection.get(0, FINGER, "D0", 1).template
                assert client.verify(
                    "subject-0", probe, device="D0"
                )["decision"] == "accept"
                assert client.stats()["auth"]["enabled"] is False
                families = parse_exposition(client.metrics())
                assert sample_value(families, "repro_auth_enabled", {}) == 0
                status, _ = client._exchange("POST", "/v1/admin/keys/reload")
                assert status == 404  # nothing to reload on an open server

    def test_auth_false_forces_open_despite_env(
        self, tmp_path, matcher, monkeypatch
    ):
        path = _keyfile(tmp_path)
        monkeypatch.setenv("REPRO_SERVE_KEYS", str(path))
        open_server = _server(
            GalleryIndex(tmp_path / "g1"), matcher, auth=False
        )
        assert open_server.auth is None
        keyed_server = _server(GalleryIndex(tmp_path / "g2"), matcher)
        assert keyed_server.auth is not None
        assert keyed_server.auth.path == path
