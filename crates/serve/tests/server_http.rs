//! End-to-end tests over real loopback TCP: routing, batched
//! prediction bit-identity, keep-alive reuse, malformed-input handling,
//! version invalidation, and graceful shutdown.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use env2vec::config::Env2VecConfig;
use env2vec::dataframe::Dataframe;
use env2vec::model::Env2VecModel;
use env2vec::serialize::save_model;
use env2vec::vocab::EmVocabulary;
use env2vec_linalg::Matrix;
use env2vec_serve::http::HttpConn;
use env2vec_serve::loadgen::{self, LoadgenOptions, Pacing};
use env2vec_serve::server::{Server, ServerOptions};
use env2vec_serve::{PredictRequest, PredictResponse, PredictRow};
use env2vec_telemetry::registry::RegistryHub;

const EM: [&str; 4] = ["tb", "s", "tc", "b"];

fn trained_model(seed: usize) -> Env2VecModel {
    let mut vocab = EmVocabulary::telecom();
    let cf = Matrix::from_fn(40, 3, |i, j| ((i * 3 + j + seed) % 11) as f64);
    let ru: Vec<f64> = (0..40).map(|i| 25.0 + ((i + seed) % 9) as f64).collect();
    let df = Dataframe::from_series(&cf, &ru, &EM, 2, &mut vocab).expect("dataframe");
    Env2VecModel::new(Env2VecConfig::fast(), vocab, &df).expect("model")
}

fn served(env: &str) -> (Server, Env2VecModel, Arc<RegistryHub>) {
    let model = trained_model(1);
    let hub = Arc::new(RegistryHub::new());
    hub.registry(env)
        .publish("test", save_model(&model).into_bytes());
    let server = Server::start(Arc::clone(&hub), ServerOptions::default()).expect("server");
    (server, model, hub)
}

fn connect(server: &Server) -> HttpConn<TcpStream> {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    HttpConn::new(stream)
}

fn send_raw(conn: &mut HttpConn<TcpStream>, bytes: &[u8]) {
    conn.get_mut().write_all(bytes).expect("write");
    conn.get_mut().flush().expect("flush");
}

fn post_predict(conn: &mut HttpConn<TcpStream>, request: &PredictRequest) -> (u16, Vec<u8>) {
    let body = serde_json::to_string(request).expect("serialise");
    let head = format!(
        "POST /predict HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    send_raw(conn, head.as_bytes());
    send_raw(conn, body.as_bytes());
    let response = conn.read_response().expect("response");
    (response.status, response.body)
}

fn row(i: usize) -> PredictRow {
    PredictRow {
        cf: vec![i as f64, (i % 5) as f64, (i % 3) as f64],
        history: vec![26.0 + (i % 4) as f64, 27.0 + (i % 6) as f64],
    }
}

fn request(env: &str, rows: Vec<PredictRow>) -> PredictRequest {
    PredictRequest {
        env: env.to_string(),
        em: EM.iter().map(|s| s.to_string()).collect(),
        rows,
    }
}

fn solo_predict(model: &Env2VecModel, r: &PredictRow) -> f64 {
    let df = Dataframe {
        cf: Matrix::from_rows(std::slice::from_ref(&r.cf)).expect("cf"),
        history: Matrix::from_rows(std::slice::from_ref(&r.history)).expect("history"),
        em: vec![model.vocab().encode(&EM)],
        target: vec![0.0],
    };
    model.predict(&df).expect("solo predict")[0]
}

#[test]
fn predict_over_tcp_is_bit_identical_to_solo_prediction() {
    let (server, model, _hub) = served("edge");
    let mut conn = connect(&server);
    let (status, body) = post_predict(&mut conn, &request("edge", vec![row(0), row(1), row(2)]));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let parsed: PredictResponse =
        serde_json::from_str(std::str::from_utf8(&body).expect("utf8")).expect("json");
    assert_eq!(parsed.model_version, 1);
    assert_eq!(parsed.predictions.len(), 3);
    for (i, &p) in parsed.predictions.iter().enumerate() {
        assert_eq!(
            solo_predict(&model, &row(i)).to_bits(),
            p.to_bits(),
            "row {i}: server answer differs from solo predict"
        );
    }
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (server, _model, _hub) = served("edge");
    let mut conn = connect(&server);
    for i in 0..5 {
        let (status, body) = post_predict(&mut conn, &request("edge", vec![row(i)]));
        assert_eq!(
            status,
            200,
            "request {i}: {}",
            String::from_utf8_lossy(&body)
        );
    }
    // Mixed traffic on the same connection.
    send_raw(&mut conn, b"GET /healthz HTTP/1.1\r\n\r\n");
    let health = conn.read_response().expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");
    send_raw(&mut conn, b"GET /metrics HTTP/1.1\r\n\r\n");
    let metrics = conn.read_response().expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).expect("utf8");
    assert!(
        text.contains("serve_requests_total"),
        "metrics must include server counters:\n{text}"
    );
    server.shutdown();
}

#[test]
fn publish_invalidates_the_served_model_between_requests() {
    let (server, first_model, hub) = served("edge");
    let mut conn = connect(&server);
    let (_, body) = post_predict(&mut conn, &request("edge", vec![row(7)]));
    let v1: PredictResponse =
        serde_json::from_str(std::str::from_utf8(&body).expect("utf8")).expect("json");
    assert_eq!(v1.model_version, 1);

    let second_model = trained_model(2);
    hub.registry("edge")
        .publish("v2", save_model(&second_model).into_bytes());

    let (_, body) = post_predict(&mut conn, &request("edge", vec![row(7)]));
    let v2: PredictResponse =
        serde_json::from_str(std::str::from_utf8(&body).expect("utf8")).expect("json");
    assert_eq!(v2.model_version, 2, "publish must invalidate the cache");
    assert_eq!(
        solo_predict(&second_model, &row(7)).to_bits(),
        v2.predictions[0].to_bits(),
        "post-publish answers must come from the new model"
    );
    assert_ne!(
        solo_predict(&first_model, &row(7)).to_bits(),
        v2.predictions[0].to_bits(),
        "the two model versions should disagree on this row"
    );
    server.shutdown();
}

#[test]
fn error_paths_are_clean_http_statuses() {
    let (server, _model, _hub) = served("edge");

    // Unknown environment → 404.
    let mut conn = connect(&server);
    let (status, _) = post_predict(&mut conn, &request("nowhere", vec![row(0)]));
    assert_eq!(status, 404);

    // Shape mismatch → 400 (and the connection survives: same conn).
    let bad_shape = PredictRequest {
        env: "edge".to_string(),
        em: EM.iter().map(|s| s.to_string()).collect(),
        rows: vec![PredictRow {
            cf: vec![1.0],
            history: vec![1.0, 2.0],
        }],
    };
    let (status, _) = post_predict(&mut conn, &bad_shape);
    assert_eq!(status, 400);

    // Malformed JSON → 400.
    send_raw(
        &mut conn,
        b"POST /predict HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json",
    );
    let response = conn.read_response().expect("response");
    assert_eq!(response.status, 400);

    // Wrong method → 405; unknown route → 404 (fresh connections; the
    // 400 above closed this one is not guaranteed — predict errors keep
    // the connection open, JSON parse failures answer-and-keep too).
    let mut conn2 = connect(&server);
    send_raw(&mut conn2, b"GET /predict HTTP/1.1\r\n\r\n");
    assert_eq!(conn2.read_response().expect("405").status, 405);
    send_raw(&mut conn2, b"GET /nope HTTP/1.1\r\n\r\n");
    assert_eq!(conn2.read_response().expect("404").status, 404);

    // Malformed request line → 400 and close.
    let mut conn3 = connect(&server);
    send_raw(&mut conn3, b"BROKEN\r\n\r\n");
    assert_eq!(conn3.read_response().expect("400").status, 400);

    // Oversized claimed body → 413.
    let mut conn4 = connect(&server);
    send_raw(
        &mut conn4,
        b"POST /predict HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
    );
    assert_eq!(conn4.read_response().expect("413").status, 413);

    server.shutdown();
}

#[test]
fn deeply_nested_body_is_a_400_and_the_server_keeps_serving() {
    let (server, _model, _hub) = served("edge");
    let body = format!("{{\"env\":{}", "[".repeat(20_000));
    let mut conn = connect(&server);
    send_raw(
        &mut conn,
        format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    send_raw(&mut conn, body.as_bytes());
    let response = conn.read_response().expect("response");
    assert_eq!(response.status, 400);
    assert!(
        String::from_utf8_lossy(&response.body).contains("recursion limit exceeded"),
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    let mut fresh = connect(&server);
    let (status, body) = post_predict(&mut fresh, &request("edge", vec![row(0)]));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    server.shutdown();
}

#[test]
fn conflicting_content_lengths_cannot_smuggle_a_second_request() {
    let (server, _model, _hub) = served("edge");
    let mut conn = connect(&server);
    // Framed by the first length, the body is `abc` and a GET follows;
    // framed by the second, the GET is body. Either reading is a 400.
    send_raw(
        &mut conn,
        b"POST /predict HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 10\r\n\r\n\
          abcGET /healthz HTTP/1.1\r\n\r\n",
    );
    let mut statuses = Vec::new();
    while let Ok(response) = conn.read_response() {
        statuses.push(response.status);
    }
    assert_eq!(statuses, vec![400], "one response, then the server closes");
    server.shutdown();
}

#[test]
fn mid_request_disconnects_leave_the_server_serviceable() {
    let (server, _model, _hub) = served("edge");
    // Drop a connection halfway through a request head...
    {
        let mut conn = connect(&server);
        send_raw(&mut conn, b"POST /predict HTTP/1.1\r\nContent-");
    }
    // ...and another mid-body.
    {
        let mut conn = connect(&server);
        send_raw(
            &mut conn,
            b"POST /predict HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"par",
        );
    }
    // The server must still answer fresh traffic.
    let mut conn = connect(&server);
    let (status, _) = post_predict(&mut conn, &request("edge", vec![row(3)]));
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn loadgen_closed_loop_storm_returns_bit_identical_rows() {
    let (server, model, _hub) = served("edge");
    let opts = LoadgenOptions {
        addr: server.addr(),
        env: "edge".to_string(),
        em: EM.iter().map(|s| s.to_string()).collect(),
        connections: 4,
        requests_per_connection: 10,
        rows_per_request: 8,
        num_cf: 3,
        history_window: 2,
        pacing: Pacing::ClosedLoop,
        trace_every: None,
    };
    let report = loadgen::run(&opts);
    assert_eq!(report.errors, 0, "storm must be error-free: {report:?}");
    assert_eq!(report.requests, 40);
    assert_eq!(report.predictions, 320);
    assert!(report.predictions_per_sec > 0.0);
    assert!(report.p99_ms >= report.p50_ms);

    // Golden check: re-run one storm request and compare every row
    // against a solo prediction.
    let golden = loadgen::deterministic_request(&opts, 2, 5);
    let mut conn = connect(&server);
    let (status, body) = post_predict(&mut conn, &golden);
    assert_eq!(status, 200);
    let parsed: PredictResponse =
        serde_json::from_str(std::str::from_utf8(&body).expect("utf8")).expect("json");
    for (r, &p) in golden.rows.iter().zip(&parsed.predictions) {
        assert_eq!(solo_predict(&model, r).to_bits(), p.to_bits());
    }
    server.shutdown();
}

#[test]
fn loadgen_open_loop_storm_completes() {
    let (server, _model, hub) = served("edge");
    let opts = LoadgenOptions {
        addr: server.addr(),
        env: "edge".to_string(),
        em: EM.iter().map(|s| s.to_string()).collect(),
        connections: 2,
        requests_per_connection: 20,
        rows_per_request: 4,
        num_cf: 3,
        history_window: 2,
        pacing: Pacing::OpenLoop { rate: 2000.0 },
        trace_every: None,
    };
    // Publish under fire: v2 is trained up front so that the publish
    // itself lands a few milliseconds into the ~20 ms paced storm. The
    // assertions below hold whichever requests see v1 or v2; the sleep
    // only aims the publish at the middle of the storm.
    let v2 = trained_model(2);
    let (report, version) = std::thread::scope(|scope| {
        let storm = scope.spawn(|| loadgen::run(&opts));
        let publisher = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(5));
            hub.registry("edge")
                .publish("v2", save_model(&v2).into_bytes())
        });
        (
            storm.join().expect("storm thread"),
            publisher.join().expect("publisher thread"),
        )
    });
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.requests, 40);
    assert_eq!(version, 2);

    // The publish is live, and a replayed storm request is answered by
    // v2 bit for bit.
    let golden = loadgen::deterministic_request(&opts, 1, 3);
    let mut conn = connect(&server);
    let (status, body) = post_predict(&mut conn, &golden);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let parsed: PredictResponse =
        serde_json::from_str(std::str::from_utf8(&body).expect("utf8")).expect("json");
    assert_eq!(parsed.model_version, 2, "publish under load must go live");
    assert_eq!(parsed.predictions.len(), golden.rows.len());
    for (r, &p) in golden.rows.iter().zip(&parsed.predictions) {
        assert_eq!(solo_predict(&v2, r).to_bits(), p.to_bits());
    }
    server.shutdown();
}

#[test]
fn loadgen_latency_sum_is_observed_not_bucket_upper_bounds() {
    let (server, _model, _hub) = served("edge");
    let report = loadgen::run(&LoadgenOptions {
        addr: server.addr(),
        env: "edge".to_string(),
        em: EM.iter().map(|s| s.to_string()).collect(),
        connections: 2,
        requests_per_connection: 20,
        rows_per_request: 4,
        num_cf: 3,
        history_window: 2,
        pacing: Pacing::ClosedLoop,
        trace_every: None,
    });
    assert_eq!(report.errors, 0, "{report:?}");
    server.shutdown();
    // Charging every request at its bucket's upper bound is the most the
    // `_sum` could be; real latencies sit inside their buckets, so the
    // exported sum must come in clearly below that ceiling.
    let h = env2vec_obs::metrics().histogram("loadgen_request_seconds");
    assert!(h.count() >= 40, "storm requests observed: {}", h.count());
    let ceiling: f64 = h
        .bucket_counts()
        .iter()
        .zip(h.bounds())
        .map(|(&n, &upper)| n as f64 * upper)
        .sum();
    assert!(
        h.sum() < 0.99 * ceiling,
        "sum {} is not below the bucket-upper-bound total {ceiling}",
        h.sum()
    );
}

fn post_predict_traced(
    conn: &mut HttpConn<TcpStream>,
    request: &PredictRequest,
    traceparent: &str,
) -> (u16, Vec<u8>) {
    let body = serde_json::to_string(request).expect("serialise");
    let head = format!(
        "POST /predict HTTP/1.1\r\nContent-Type: application/json\r\n\
         Traceparent: {traceparent}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    send_raw(conn, head.as_bytes());
    send_raw(conn, body.as_bytes());
    let response = conn.read_response().expect("response");
    (response.status, response.body)
}

fn get(conn: &mut HttpConn<TcpStream>, path: &str) -> (u16, String) {
    send_raw(conn, format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes());
    let response = conn.read_response().expect("response");
    (
        response.status,
        String::from_utf8(response.body).expect("utf8"),
    )
}

#[test]
fn malformed_traceparent_is_ignored_never_rejected() {
    let (server, _model, _hub) = served("edge");
    let mut conn = connect(&server);
    for garbage in [
        "zz-not-a-trace",
        "00-short-short-01",
        "00-gggggggggggggggggggggggggggggggg-hhhhhhhhhhhhhhhh-01",
        "",
    ] {
        let (status, body) =
            post_predict_traced(&mut conn, &request("edge", vec![row(1)]), garbage);
        assert_eq!(
            status,
            200,
            "traceparent {garbage:?} must fall back to a fresh context, \
             not reject the request: {}",
            String::from_utf8_lossy(&body)
        );
    }
    server.shutdown();
}

#[test]
fn sampled_traceparent_round_trips_through_the_trace_endpoints() {
    let (server, _model, _hub) = served("edge");
    let ctx = env2vec_obs::TraceContext::from_seed(42, true);
    let mut conn = connect(&server);
    let (status, _) = post_predict_traced(&mut conn, &request("edge", vec![row(0)]), &ctx.format());
    assert_eq!(status, 200);

    // The request was explicitly sampled, so the buffer must retain it
    // under the propagated trace id (child spans keep the trace id).
    let id = ctx.trace_id_hex();
    let (status, body) = get(&mut conn, &format!("/trace/{id}"));
    assert_eq!(status, 200, "retained trace must be resolvable: {body}");
    assert!(body.contains(&id), "trace body must echo its id: {body}");
    assert!(
        body.contains("\"batch_role\""),
        "trace record carries batch metadata: {body}"
    );

    // Unknown ids are a clean 404, not an error.
    let (status, _) = get(&mut conn, "/trace/00000000000000000000000000000000");
    assert_eq!(status, 404);

    // The slow-trace listing is JSON with a retained count.
    let (status, body) = get(&mut conn, "/traces/slow");
    assert_eq!(status, 200);
    assert!(body.contains("\"retained\""), "{body}");
    serde_json::parse_value(&body).expect("slow listing must be valid JSON");
    server.shutdown();
}

#[test]
fn metrics_expose_batcher_occupancy_and_exemplars() {
    let (server, _model, _hub) = served("edge");
    let ctx = env2vec_obs::TraceContext::from_seed(7, true);
    let mut conn = connect(&server);
    let (status, _) = post_predict_traced(&mut conn, &request("edge", vec![row(0)]), &ctx.format());
    assert_eq!(status, 200);
    let (status, text) = get(&mut conn, "/metrics");
    assert_eq!(status, 200);
    for needle in [
        "serve_batch_rows_bucket",
        "serve_batch_window_fill_ratio",
        "serve_batch_leader_total",
        "serve_uptime_seconds",
    ] {
        assert!(
            text.contains(needle),
            "metrics must expose {needle}:\n{text}"
        );
    }
    // The sampled request's trace id must surface as an exemplar on the
    // request-latency histogram.
    assert!(
        text.contains(&format!("# {{trace_id=\"{}\"}}", ctx.trace_id_hex())),
        "sampled trace id must appear as an exemplar:\n{text}"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_connections_and_stops_accepting() {
    let (server, _model, _hub) = served("edge");
    let mut conn = connect(&server);
    let (status, _) = post_predict(&mut conn, &request("edge", vec![row(0)]));
    assert_eq!(status, 200);
    let addr = server.addr();
    server.shutdown();
    assert_eq!(server.open_connections(), 0);
    // New connections must no longer be served: either refused outright
    // or never answered.
    if let Ok(stream) = TcpStream::connect(addr) {
        stream
            .set_read_timeout(Some(Duration::from_millis(300)))
            .expect("timeout");
        let mut dead = HttpConn::new(stream);
        let _ = dead.get_mut().write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let _ = dead.get_mut().flush();
        assert!(
            dead.read_response().is_err(),
            "a shut-down server must not answer"
        );
    }
}
