//! Standalone cache-server binary — the unit a cloud image would launch on
//! boot ("the cache server is automatically fetched from a remote location
//! on the startup of a new Cloud instance", paper §III-A).
//!
//! ```text
//! cargo run --release -p ecc-net --bin cache_server -- \
//!     [--port 4117] [--capacity-mb 64] [--btree-order 64]
//! ```
//!
//! Serves the elastic-cache wire protocol (GET/PUT/GET_MANY/PUT_MANY/
//! EVICT_MANY/KEYS/STATS/OBS_DUMP) until its process is killed: like a
//! cloud instance, the node is stopped by whoever started it.

use std::process::ExitCode;

use ecc_net::server::{CacheServer, DEFAULT_MAX_CONNECTIONS};

struct Args {
    port: u16,
    capacity_mb: u64,
    btree_order: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 4117,
        capacity_mb: 64,
        btree_order: 64,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--port" => {
                args.port = take("--port")?
                    .parse()
                    .map_err(|e| format!("bad port: {e}"))?
            }
            "--capacity-mb" => {
                args.capacity_mb = take("--capacity-mb")?
                    .parse()
                    .map_err(|e| format!("bad capacity: {e}"))?
            }
            "--btree-order" => {
                args.btree_order = take("--btree-order")?
                    .parse()
                    .map_err(|e| format!("bad order: {e}"))?
            }
            "--help" | "-h" => {
                return Err(
                    "usage: cache_server [--port N] [--capacity-mb N] [--btree-order N]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.btree_order < 4 {
        return Err("--btree-order must be at least 4".to_string());
    }
    if args.capacity_mb == 0 {
        return Err("--capacity-mb must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let server = match CacheServer::spawn_with(
        ("0.0.0.0", args.port),
        args.capacity_mb * 1024 * 1024,
        args.btree_order,
        DEFAULT_MAX_CONNECTIONS,
        None,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind port {}: {e}", args.port);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "cache server listening on {} ({} MiB capacity, B+-tree order {})",
        server.addr(),
        args.capacity_mb,
        args.btree_order
    );

    // The reactors serve; this thread only keeps `server` alive until the
    // process is killed.
    loop {
        std::thread::park();
    }
}
