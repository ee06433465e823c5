//! A served `/synth` whose permutation traffic maps every signal onto
//! shortcuts (no ring waveguide at all) once panicked in PDN design; it
//! must answer 200 without tripping the handler-panic counter.

use xring_serve::{client, ServeConfig, Server};

#[test]
fn shortcut_only_permutation_traffic_is_served() {
    let mut server = Server::start(ServeConfig::default()).expect("daemon starts");
    let body = r#"{"net": {"positions": [[3100, 1200], [1500, 5200], [1000, 1700],
        [4300, 5400], [3000, 4500], [500, 3900]]},
        "options": {"max_wavelengths": 8, "traffic": {"permutation": {"seed": 13}}}}"#;
    let (status, reply) =
        client::http_request(server.addr(), "POST", "/synth", body).expect("request");
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"audit\":{\"clean\":true"), "{reply}");
    let (_, metrics) = client::http_request(server.addr(), "GET", "/metrics", "").expect("metrics");
    assert!(
        metrics.contains("xring_serve_handler_panics_total 0"),
        "{metrics}"
    );
    server.shutdown();
}
