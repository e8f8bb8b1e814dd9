//! End-to-end endpoint coverage over a real measured scenario: each
//! route is exercised through an actual TCP connection against the
//! running server, and the payloads are checked against the engine's
//! own answers.

use ripki_serve::api::state_label;
use ripki_serve_testutil::{get, keep_alive_session, raw_roundtrip, serve_scenario};

#[test]
fn validity_endpoint_agrees_with_the_engine() {
    let fx = serve_scenario(300, 11);
    let addr = fx.server.addr();
    let snapshot = fx.engine.snapshot();
    let vrp = *snapshot.vrps().iter().next().expect("scenario has VRPs");

    // The VRP's own (prefix, asn) is valid by construction.
    let reply = get(
        addr,
        &format!("/api/v1/validity?asn={}&prefix={}", vrp.asn, vrp.prefix),
    );
    assert_eq!(reply.status, 200);
    let json = reply.json();
    let validated = json
        .as_object()
        .and_then(|o| o.get("validated_route"))
        .and_then(|v| v.as_object())
        .expect("validated_route object");
    let validity = validated
        .get("validity")
        .and_then(|v| v.as_object())
        .expect("validity object");
    assert_eq!(
        validity.get("state").and_then(|s| s.as_str()),
        Some("valid")
    );
    let matched = validity
        .get("VRPs")
        .and_then(|v| v.as_object())
        .and_then(|v| v.get("matched"))
        .and_then(|m| m.as_array())
        .expect("matched VRP list");
    assert!(!matched.is_empty());
    assert_eq!(
        json.as_object()
            .and_then(|o| o.get("epoch"))
            .and_then(serde_json::Value::as_u128),
        Some(1)
    );

    // Same prefix from a bogus origin: invalid, reason "as".
    let reply = get(
        addr,
        &format!("/api/v1/validity?asn=AS4200000000&prefix={}", vrp.prefix),
    );
    let json = reply.json();
    let validity = json
        .as_object()
        .and_then(|o| o.get("validated_route"))
        .and_then(|v| v.as_object())
        .and_then(|v| v.get("validity"))
        .and_then(|v| v.as_object())
        .expect("validity object");
    assert_eq!(
        validity.get("state").and_then(|s| s.as_str()),
        Some("invalid")
    );
    assert_eq!(validity.get("reason").and_then(|r| r.as_str()), Some("as"));

    // Path form (Routinator style) answers identically.
    let reply2 = get(
        addr,
        &format!("/api/v1/validity/AS4200000000/{}", vrp.prefix),
    );
    assert_eq!(reply2.status, 200);
    assert_eq!(reply2.body, reply.body);

    // A handful of announcements from the measured RIB: the endpoint
    // must agree with the snapshot's own verdict every time.
    let results = fx.engine.run(&fx.scenario.ranking);
    let mut checked = 0;
    for d in results.domains.iter().take(40) {
        for p in d.bare.pairs.iter().chain(&d.www.pairs) {
            let reply = get(
                addr,
                &format!("/api/v1/validity?asn={}&prefix={}", p.origin, p.prefix),
            );
            let json = reply.json();
            let got = json
                .as_object()
                .and_then(|o| o.get("validated_route"))
                .and_then(|v| v.as_object())
                .and_then(|v| v.get("validity"))
                .and_then(|v| v.as_object())
                .and_then(|v| v.get("state"))
                .and_then(|s| s.as_str())
                .expect("state string")
                .to_string();
            let expected = state_label(snapshot.validity(&p.prefix, p.origin).state);
            assert_eq!(got, expected, "{} from {}", p.prefix, p.origin);
            checked += 1;
        }
    }
    assert!(checked > 10, "expected real pairs to check, got {checked}");
}

#[test]
fn vrp_exports_stream_the_full_epoch_set() {
    let fx = serve_scenario(250, 3);
    let addr = fx.server.addr();
    let vrps: Vec<_> = fx.engine.snapshot().vrps().iter().copied().collect();
    assert!(!vrps.is_empty());

    let reply = get(addr, "/vrps.json");
    assert_eq!(reply.status, 200);
    let json = reply.json();
    let root = json.as_object().expect("object");
    let metadata = root.get("metadata").and_then(|m| m.as_object()).unwrap();
    assert_eq!(
        metadata.get("epoch").and_then(serde_json::Value::as_u128),
        Some(1)
    );
    assert_eq!(
        metadata
            .get("vrp_count")
            .and_then(serde_json::Value::as_u128),
        Some(vrps.len() as u128)
    );
    let roas = root.get("roas").and_then(|r| r.as_array()).unwrap();
    assert_eq!(roas.len(), vrps.len());
    let first = roas[0].as_object().unwrap();
    assert_eq!(
        first.get("asn").and_then(|a| a.as_str()),
        Some(vrps[0].asn.to_string().as_str())
    );
    assert_eq!(
        first.get("prefix").and_then(|p| p.as_str()),
        Some(vrps[0].prefix.to_string().as_str())
    );

    let reply = get(addr, "/vrps.csv");
    assert_eq!(reply.status, 200);
    let mut lines = reply.body.lines();
    assert_eq!(lines.next(), Some("ASN,IP Prefix,Max Length,Trust Anchor"));
    assert_eq!(lines.count(), vrps.len());
    assert!(reply.body.contains(&format!(
        "{},{},{},sim",
        vrps[0].asn, vrps[0].prefix, vrps[0].max_length
    )));
}

#[test]
fn domain_endpoint_serves_measurements_and_exposure() {
    let fx = serve_scenario(200, 21);
    let addr = fx.server.addr();
    let listed = fx.scenario.ranking[0].clone();

    let reply = get(addr, &format!("/api/v1/domain/{listed}"));
    assert_eq!(reply.status, 200, "{}", reply.body);
    let json = reply.json();
    let root = json.as_object().unwrap();
    assert_eq!(
        root.get("rank").and_then(serde_json::Value::as_u128),
        Some(0)
    );
    assert_eq!(
        root.get("listed").and_then(|l| l.as_str()),
        Some(listed.as_str())
    );
    for form in ["www", "bare"] {
        let m = root.get(form).and_then(|m| m.as_object()).expect(form);
        assert!(m.get("pairs").and_then(|p| p.as_array()).is_some());
        assert!(m.get("coverage").is_some());
    }
    // The scenario provides a topology, so exposure is an object or an
    // explicit null (unsimulable), never absent.
    assert!(root.get("exposure").is_some());

    // The www form resolves to the same measurement.
    let www = get(
        addr,
        &format!("/api/v1/domain/www.{}", listed.without_www()),
    );
    assert_eq!(www.status, 200);
    assert_eq!(
        www.json().as_object().unwrap().get("rank"),
        root.get("rank")
    );

    let missing = get(addr, "/api/v1/domain/never-ranked.example");
    assert_eq!(missing.status, 404);
}

#[test]
fn domain_exposure_memo_serves_identical_bytes() {
    let fx = serve_scenario(120, 33);
    let addr = fx.server.addr();

    // The first request per domain computes the hijack exposure and
    // seeds the per-epoch memo; the repeat must be answered from the
    // memo with byte-identical JSON.
    let mut simulated = 0usize;
    for listed in fx.scenario.ranking.iter().take(10) {
        let path = format!("/api/v1/domain/{listed}");
        let first = get(addr, &path);
        assert_eq!(first.status, 200, "{}", first.body);
        let second = get(addr, &path);
        assert_eq!(second.status, 200);
        assert_eq!(
            first.body, second.body,
            "memo changed the reply for {listed}"
        );
        let json = first.json();
        let exposure = json.as_object().and_then(|r| r.get("exposure"));
        if exposure.is_some_and(|e| e.as_object().is_some()) {
            simulated += 1;
        }
    }
    // At least one domain must have exercised the computed (non-null)
    // memo path, or the assertion above proves nothing about it.
    assert!(simulated > 0, "no domain produced a simulated exposure");
}

#[test]
fn metrics_and_status_expose_the_epoch() {
    let fx = serve_scenario(150, 5);
    let addr = fx.server.addr();
    let vrp_count = fx.engine.snapshot().vrps().len();

    // Generate some traffic first so counters are non-zero.
    get(addr, "/status");
    get(addr, "/api/v1/validity?asn=AS1&prefix=192.0.2.0/24");
    get(addr, "/nonexistent");

    let reply = get(addr, "/metrics");
    assert_eq!(reply.status, 200);
    let text = &reply.body;
    assert!(text.contains("ripki_serve_epoch 1"), "{text}");
    assert!(
        text.contains(&format!("ripki_serve_vrps {vrp_count}")),
        "{text}"
    );
    assert!(
        text.contains("ripki_http_requests_total{endpoint=\"validity\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("ripki_http_errors_total{endpoint=\"other\"} 1"),
        "{text}"
    );
    assert!(
        text.contains(
            "ripki_http_request_duration_seconds_bucket{endpoint=\"validity\",le=\"+Inf\"} 1"
        ),
        "{text}"
    );

    let status = get(addr, "/status");
    let json = status.json();
    let root = json.as_object().unwrap();
    assert_eq!(
        root.get("epoch").and_then(serde_json::Value::as_u128),
        Some(1)
    );
    assert_eq!(
        root.get("vrps").and_then(serde_json::Value::as_u128),
        Some(vrp_count as u128)
    );
    assert_eq!(
        root.get("domains").and_then(serde_json::Value::as_u128),
        Some(150)
    );
    let workers = root
        .get("worker_threads")
        .and_then(serde_json::Value::as_u128)
        .expect("worker_threads reported");
    assert!(workers > 0, "effective pool size must be non-zero");
    assert_eq!(
        root.get("epoch_lag").and_then(serde_json::Value::as_u128),
        Some(0),
        "served view is the newest epoch known"
    );

    // Announcing a newer upstream epoch (validated but not yet built
    // into a view) surfaces as lag until the publish catches up.
    fx.view.announce_epoch(4);
    let json = get(addr, "/status").json();
    let root = json.as_object().unwrap().clone();
    assert_eq!(
        root.get("epoch_lag").and_then(serde_json::Value::as_u128),
        Some(3),
        "serving epoch 1 while epoch 4 exists upstream"
    );
}

#[test]
fn protocol_errors_are_well_formed_responses() {
    let fx = serve_scenario(120, 9);
    let addr = fx.server.addr();

    // Unknown path.
    assert_eq!(get(addr, "/api/v2/everything").status, 404);
    // Missing query parameters.
    assert_eq!(get(addr, "/api/v1/validity").status, 400);
    // Unparseable operands.
    assert_eq!(
        get(addr, "/api/v1/validity?asn=banana&prefix=10.0.0.0/24").status,
        400
    );
    assert_eq!(
        get(addr, "/api/v1/validity?asn=AS1&prefix=banana").status,
        400
    );
    // Non-GET method.
    let reply = raw_roundtrip(addr, "POST /status HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(reply.status, 405);
    // Garbage request line.
    let reply = raw_roundtrip(addr, "GARBAGE\r\n\r\n");
    assert_eq!(reply.status, 400);
    assert!(reply.body.contains("error"), "{}", reply.body);
    // Wrong protocol version.
    let reply = raw_roundtrip(addr, "GET /status SPDY/3\r\n\r\n");
    assert_eq!(reply.status, 505);
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let fx = serve_scenario(120, 13);
    let request = "GET /status HTTP/1.1\r\nhost: t\r\n\r\n".to_string();
    let replies = keep_alive_session(
        fx.server.addr(),
        &[request.clone(), request.clone(), request],
    );
    assert_eq!(replies.len(), 3, "the connection stays open for all three");
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply.status, 200, "req {i}");
        assert_eq!(reply.header("connection"), Some("keep-alive"), "req {i}");
        assert!(reply.body.contains("\"epoch\""), "req {i}: {}", reply.body);
    }
}

#[test]
fn vrp_exports_answer_conditional_requests_with_304() {
    let fx = serve_scenario(250, 3);
    let addr = fx.server.addr();

    // Every export advertises the same epoch-keyed strong ETag.
    let json_reply = get(addr, "/vrps.json");
    assert_eq!(json_reply.status, 200);
    let etag = json_reply
        .header("etag")
        .expect("vrps.json ETag")
        .to_string();
    assert_eq!(etag, "\"ripki-epoch-1\"");
    let csv_reply = get(addr, "/vrps.csv");
    assert_eq!(csv_reply.header("etag"), Some(etag.as_str()));

    // Revalidating with the current tag: 304, empty body, nothing
    // streamed, and the connection stays reusable (keep-alive framing).
    for path in ["/vrps.json", "/vrps.csv"] {
        let reply = raw_roundtrip(
            addr,
            &format!(
                "GET {path} HTTP/1.1\r\nhost: t\r\nif-none-match: {etag}\r\n\
                 connection: close\r\n\r\n"
            ),
        );
        assert_eq!(reply.status, 304, "{path}");
        assert!(reply.body.is_empty(), "{path}: {}", reply.body);
        assert_eq!(reply.header("etag"), Some(etag.as_str()), "{path}");
        assert_eq!(reply.header("content-length"), Some("0"), "{path}");
    }

    // List-form and weak-compare forms match too; a stale tag does not.
    let reply = raw_roundtrip(
        addr,
        &format!(
            "GET /vrps.json HTTP/1.1\r\nhost: t\r\n\
             if-none-match: \"other\", W/{etag}\r\nconnection: close\r\n\r\n"
        ),
    );
    assert_eq!(reply.status, 304);
    let reply = raw_roundtrip(
        addr,
        "GET /vrps.json HTTP/1.1\r\nhost: t\r\n\
         if-none-match: \"ripki-epoch-0\"\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(reply.status, 200);
    assert!(!reply.body.is_empty());

    // A new published epoch rotates the tag: the old one stops matching
    // and the fresh response advertises the successor.
    let results = fx.engine.run(&fx.scenario.ranking);
    let mut stream = ripki_websim::churn::ChurnStream::new(
        &fx.scenario,
        ripki_websim::churn::ChurnConfig::default(),
    );
    let mut results = results;
    let batch = stream.next_epoch();
    fx.engine.apply_events(&batch, &mut results);
    fx.view.publish(ripki_serve::EpochView::new(
        fx.engine.snapshot(),
        std::sync::Arc::new(results.clone()),
        None,
        Default::default(),
    ));
    let reply = raw_roundtrip(
        addr,
        &format!(
            "GET /vrps.json HTTP/1.1\r\nhost: t\r\nif-none-match: {etag}\r\n\
             connection: close\r\n\r\n"
        ),
    );
    assert_eq!(reply.status, 200, "stale epoch tag must refetch");
    assert_eq!(reply.header("etag"), Some("\"ripki-epoch-2\""));
}
