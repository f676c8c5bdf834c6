//! The `groupsa-serve` binary: freeze a model and serve NDJSON over
//! TCP.
//!
//! ```text
//! groupsa-serve [--port N] [--workers N] [--queue N]
//!               [--deadline-ms N] [--shed true|false]
//!               [--rate-limit N] [--rate-burst N]
//!               [--obs-sample 1/N]
//!               [--dataset tiny|yelp|douban]
//!               [--seed N] [--checkpoint PATH]
//!               [--snapshot-export DIR]
//! ```
//!
//! A flag not listed above is a usage error.
//!
//! `--port 0` (the default) binds an ephemeral port; the chosen
//! address is announced on stdout as `LISTENING 127.0.0.1:<port>` so
//! scripts (e.g. the tier-1 smoke test) can discover it. Without
//! `--checkpoint`, an untrained model is frozen — scores are then
//! only useful for protocol/throughput testing, which is exactly what
//! the smoke test and load generator need.
//!
//! `--snapshot-export DIR` writes the freshly-frozen model as a
//! `groupsa-snapshot` directory before serving — the artifact a
//! client's `Reload` request can later hot-swap in (announced as
//! `SNAPSHOT <dir>` on stdout). `--rate-limit`/`--rate-burst` bound
//! each connection's request rate; `--shed false` disables
//! deadline-aware load shedding (on by default).
//!
//! `--obs-sample 1/N` turns on request-lifecycle telemetry (stage
//! records for every Nth request plus slow-request capture, and the
//! slow-request samples on the `MetricsDump` page). It is the one
//! telemetry switch: without it, telemetry is off and the serve path
//! pays one boolean load per request. The page's lifetime counters
//! and histograms are live either way.

use groupsa_core::{DataContext, GroupSa, GroupSaConfig};
use groupsa_data::synthetic::{self, SyntheticConfig};
use groupsa_obs::TelemetryConfig;
use groupsa_serve::engine::{Engine, EngineConfig};
use groupsa_serve::frozen::FrozenModel;
use std::collections::HashMap;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: groupsa-serve [--port N] [--workers N] [--queue N] [--deadline-ms N] \
[--shed true|false] [--rate-limit N] [--rate-burst N] [--obs-sample 1/N] \
[--dataset tiny|yelp|douban] [--seed N] [--checkpoint PATH] [--snapshot-export DIR]";

/// Every flag the server understands.
const FLAGS: &[&str] = &[
    "port",
    "workers",
    "queue",
    "deadline-ms",
    "shed",
    "rate-limit",
    "rate-burst",
    "obs-sample",
    "dataset",
    "seed",
    "checkpoint",
    "snapshot-export",
];

/// Parses `--key value` pairs, refusing any flag not in [`FLAGS`].
fn parse_flags(args: impl IntoIterator<Item = String>) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut args = args.into_iter();
    while let Some(key) = args.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("unexpected argument `{key}` (flags are --key value)\n{USAGE}"));
        };
        if !FLAGS.contains(&name) {
            return Err(format!("unknown flag --{name}\n{USAGE}"));
        }
        let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

fn num<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`")),
    }
}

fn tiny_dataset(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        name: format!("serve-tiny-{seed}"),
        seed,
        num_users: 60,
        num_items: 40,
        num_groups: 25,
        num_topics: 4,
        latent_dim: 4,
        avg_items_per_user: 8.0,
        avg_friends_per_user: 5.0,
        avg_items_per_group: 1.5,
        mean_group_size: 3.5,
        zipf_exponent: 0.8,
        homophily: 0.8,
        social_influence: 0.3,
        expertise_sharpness: 2.0,
        taste_temperature: 0.3,
        consensus_blend: 0.5,
        connectedness_boost: 1.0,
    }
}

fn run() -> Result<(), String> {
    let flags = parse_flags(std::env::args().skip(1))?;
    let port: u16 = num(&flags, "port", 0)?;
    let cfg = EngineConfig {
        workers: num(&flags, "workers", 2)?,
        queue_capacity: num(&flags, "queue", 256)?,
        default_deadline_ms: num(&flags, "deadline-ms", 0)?,
        shed: num(&flags, "shed", true)?,
        // No flag means `None`: telemetry off.
        telemetry: flags
            .get("obs-sample")
            .map(|spec| TelemetryConfig::sampling(TelemetryConfig::parse_sample(spec))),
    };
    let server_cfg = groupsa_serve::ServerConfig {
        rate_limit: num(&flags, "rate-limit", 0)?,
        rate_burst: num(&flags, "rate-burst", 0)?,
    };
    let seed: u64 = num(&flags, "seed", 1)?;
    let dataset_name = flags.get("dataset").map(String::as_str).unwrap_or("tiny");
    let (syn, model_cfg) = match dataset_name {
        "tiny" => (tiny_dataset(seed), GroupSaConfig::tiny()),
        "yelp" => (synthetic::yelp_sim(), GroupSaConfig::paper()),
        "douban" => (synthetic::douban_sim(), GroupSaConfig::paper()),
        other => return Err(format!("--dataset: unknown `{other}` (tiny|yelp|douban)")),
    };

    eprintln!("generating dataset `{}`...", syn.name);
    let dataset = synthetic::generate(&syn);
    let model = match flags.get("checkpoint") {
        Some(path) => {
            eprintln!("loading checkpoint {path}...");
            GroupSa::load(path).map_err(|e| format!("--checkpoint {path}: {e}"))?
        }
        None => GroupSa::new(model_cfg, dataset.num_users, dataset.num_items),
    };
    let ctx = DataContext::from_train_view(&dataset, model.config());

    eprintln!(
        "freezing model ({} users, {} items, {} groups)...",
        ctx.num_users,
        ctx.num_items,
        ctx.num_groups()
    );
    let frozen = Arc::new(FrozenModel::freeze(model, ctx));
    if let Some(dir) = flags.get("snapshot-export") {
        frozen
            .write_snapshot(dir, 1, groupsa_snapshot::Quant::F32)
            .map_err(|e| format!("--snapshot-export {dir}: {e}"))?;
        // Announced on stdout like the address, so a smoke test can
        // round-trip the directory straight into a `Reload` request.
        println!("SNAPSHOT {dir}");
    }
    let engine = Engine::start(frozen, cfg);
    // A run marker at the head of any `GROUPSA_TRACE` capture, so
    // serve-path traces identify themselves to `trace_check` readers.
    groupsa_obs::emit("run", &[("label", groupsa_obs::to_json(&"groupsa_serve"))]);

    let listener =
        TcpListener::bind(("127.0.0.1", port)).map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Announced on stdout (diagnostics go to stderr) so callers can
    // `awk` the ephemeral port out of the log.
    println!("LISTENING {addr}");

    groupsa_serve::server::run_with(listener, Arc::clone(&engine), server_cfg)
        .map_err(|e| e.to_string())?;
    let stats = engine.stats();
    println!("{}", groupsa_json::to_string_pretty(&stats));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("groupsa-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HashMap<String, String>, String> {
        parse_flags(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        for flag in ["--batch", "--typo"] {
            let err = parse(&["--workers", "2", flag, "8"]).unwrap_err();
            assert!(err.contains(&format!("unknown flag {flag}")) && err.contains("usage:"), "{err}");
        }
        assert!(parse(&["workers", "2"]).unwrap_err().contains("usage:"));
        assert!(parse(&["--port"]).unwrap_err().contains("--port needs a value"));
        let flags = parse(&["--port", "0", "--obs-sample", "1/1", "--snapshot-export", "d"]).unwrap();
        assert_eq!(flags.get("obs-sample").map(String::as_str), Some("1/1"));
        assert_eq!(flags.len(), 3);
    }
}
