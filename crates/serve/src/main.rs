//! The `mudi-serve` binary: boots a live cluster session behind the
//! HTTP control plane.
//!
//! Configuration is environment-driven (all parsed via
//! [`simcore::env`]):
//!
//! | Variable           | Default          | Meaning                            |
//! |--------------------|------------------|------------------------------------|
//! | `MUDI_SERVE_ADDR`  | `127.0.0.1:7878` | listen address                     |
//! | `MUDI_SERVE_PACE`  | `60`             | simulated secs per wall sec; `0` = virtual clock (advance via `POST /admin/clock`) |
//! | `MUDI_SERVE_PRESET`| `tiny`           | cluster preset: `tiny` or `physical` |
//! | `MUDI_SERVE_SEED`  | `7`              | simulation seed                    |
//! | `MUDI_SERVE_LLM`   | `0`              | `1` = extend the zoo with the generative services (Llama-7B, OPT-13B); `POST /v1/infer` with a `"tokens"` field returns per-token verdicts |
//!
//! Quickstart (see README.md for curl walkthroughs):
//!
//! ```text
//! cargo run --release -p serve --bin mudi-serve
//! curl -s localhost:7878/healthz
//! curl -s -X POST localhost:7878/v1/infer -d '{"service":"ResNet50"}'
//! ```

use std::sync::Arc;
use std::time::Duration;

use cluster::engine::ClusterConfig;
use cluster::engine::ClusterSession;
use cluster::systems::SystemKind;
use serve::{App, ServeClock, Server};

fn main() {
    let addr = simcore::env::string_or("MUDI_SERVE_ADDR", "127.0.0.1:7878");
    let pace = simcore::env::parse_or::<f64>("MUDI_SERVE_PACE", 60.0);
    if !pace.is_finite() {
        eprintln!("MUDI_SERVE_PACE must be a finite number, got {pace}");
        std::process::exit(2);
    }
    let seed = simcore::env::parse_or::<u64>("MUDI_SERVE_SEED", 7);
    let preset = simcore::env::string_or("MUDI_SERVE_PRESET", "tiny");

    let llm = simcore::env::parse_or::<u8>("MUDI_SERVE_LLM", 0) != 0;

    let mut config = match preset.as_str() {
        "physical" => ClusterConfig::physical(SystemKind::Mudi, seed),
        "tiny" => ClusterConfig::tiny(SystemKind::Mudi, seed),
        other => {
            eprintln!("MUDI_SERVE_PRESET must be tiny|physical, got {other:?}");
            std::process::exit(2);
        }
    };
    config.llm_services = llm;
    let devices = config.devices;
    let clock = if pace > 0.0 {
        ServeClock::wall(pace)
    } else {
        ServeClock::frozen()
    };
    let virtual_clock = clock.is_virtual();
    let app = App::new(ClusterSession::new(config), clock);

    let server = match Server::start(Arc::clone(&app), &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mudi-serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "mudi-serve listening on http://{} ({} devices, seed {}, {})",
        server.addr(),
        devices,
        seed,
        if virtual_clock {
            "virtual clock — advance via POST /admin/clock".to_string()
        } else {
            format!("{pace}x wall pace")
        }
    );
    eprintln!(
        "endpoints: GET /healthz /admin/slo /metrics /events — POST /v1/infer /admin/services /admin/faults /admin/clock"
    );

    if !virtual_clock {
        // Pacer: keep simulated time tracking the wall even when no
        // requests arrive.
        let pacer_app = Arc::clone(&app);
        std::thread::Builder::new()
            .name("mudi-serve-pacer".into())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_millis(100));
                pacer_app.pace();
            })
            .expect("spawn pacer");
    }
    server.join();
}
