//! Serving records no spans. The span collector is process-wide and
//! keeps up to a million records for the life of the process, and no
//! serving path exports them, so connections, sampled requests, batches
//! and model reloads must leave it as they found it. This is a test
//! binary of its own, so no other test's spans land in the count.

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
use env2vec_obs::TraceContext;
use env2vec_serve::http::HttpConn;
use env2vec_serve::server::{Server, ServerOptions};
use env2vec_serve::{PredictRequest, PredictRow};
use env2vec_telemetry::registry::RegistryHub;

const EM: [&str; 4] = ["tb", "s", "tc", "b"];

fn model_blob() -> Vec<u8> {
    let mut vocab = EmVocabulary::telecom();
    let cf = Matrix::from_fn(40, 3, |i, j| ((i * 3 + j) % 11) as f64);
    let ru: Vec<f64> = (0..40).map(|i| 25.0 + (i % 9) as f64).collect();
    let df = Dataframe::from_series(&cf, &ru, &EM, 2, &mut vocab).expect("dataframe");
    let model = Env2VecModel::new(Env2VecConfig::fast(), vocab, &df).expect("model");
    save_model(&model).into_bytes()
}

/// Sends `head` (and `body`) on a fresh connection and returns the
/// response status.
fn round_trip(server: &Server, head: &str, body: &str) -> u16 {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut conn = HttpConn::new(stream);
    conn.get_mut()
        .write_all(format!("{head}{body}").as_bytes())
        .expect("write");
    conn.read_response().expect("response").status
}

#[test]
fn connections_and_sampled_predictions_leave_the_span_collector_unchanged() {
    let hub = Arc::new(RegistryHub::new());
    hub.registry("edge").publish("v1", model_blob());
    let server = Server::start(Arc::clone(&hub), ServerOptions::default()).expect("server");
    let before = env2vec_obs::collector().len();

    let body = serde_json::to_string(&PredictRequest {
        env: "edge".to_string(),
        em: EM.iter().map(|s| s.to_string()).collect(),
        rows: vec![PredictRow {
            cf: vec![1.0, 2.0, 0.0],
            history: vec![26.0, 27.0],
        }],
    })
    .expect("serialise");
    for seed in 0..16 {
        if seed == 8 {
            // A new version makes the next batch reload the model.
            hub.registry("edge").publish("v2", model_blob());
        }
        let ctx = TraceContext::from_seed(seed, true);
        let head = format!(
            "POST /predict HTTP/1.1\r\nConnection: close\r\nTraceparent: {}\r\n\
             Content-Length: {}\r\n\r\n",
            ctx.format(),
            body.len()
        );
        assert_eq!(round_trip(&server, &head, &body), 200);
        let healthz = "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert_eq!(round_trip(&server, healthz, ""), 200);
    }
    server.shutdown();
    assert_eq!(server.open_connections(), 0);

    // The sampled requests were traced the way serving exports traces...
    assert_eq!(server.traces().len(), 16);
    // ...and left no span record behind.
    assert_eq!(env2vec_obs::collector().len(), before);
}
