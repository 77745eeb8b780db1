//! The live coordinator's decision stream, frozen. Every live-family
//! schedule of seeds 0..200 runs through a [`LiveCoordinator`] with
//! buffered placement (no audit or totals between events), and what it
//! decided must match `tests/golden/live_decisions.txt` line for line:
//! its structural events with their times dropped (split bucket and
//! destination, `SweepMigrate` records / bytes / `allocated`, merge pairs,
//! evicted keys), which calls failed, and every node's keys after each
//! step close. simtest's live family checks contents against a model; this
//! test also pins *how* the fleet got there, so a wrong but valid split
//! bucket or merge pair shows.
//!
//! To bless a new golden after an intentional change:
//!
//! ```text
//! ECC_BLESS_GOLDEN=1 cargo test -p ecc-simtest --test decision_stream
//! ```

use std::fmt::Write;

use ecc_net::client::RemoteNode;
use ecc_net::coordinator::LiveCoordinator;
use ecc_simtest::event::record_bytes;
use ecc_simtest::{generate, Family, SimEvent};

const GOLDEN_PATH: &str = "tests/golden/live_decisions.txt";
const SEEDS: u64 = 200;

/// Every node's keys, by node id, listed over a test-side connection.
fn key_sets(coord: &LiveCoordinator, conns: &mut Vec<Option<RemoteNode>>) -> String {
    let mut out = String::new();
    conns.resize_with(coord.nodes_spawned, || None);
    for (id, conn) in conns.iter_mut().enumerate() {
        let Some(addr) = coord.node_addr(id) else {
            *conn = None;
            continue;
        };
        let conn = conn.get_or_insert_with(|| RemoteNode::connect(addr).expect("connect"));
        let keys = conn.keys(0, u64::MAX).expect("keys");
        write!(out, " n{id}={keys:?}").expect("write to a String");
    }
    out
}

/// One seed's decisions as text: a line per failed call, per structural
/// event and per step close's key sets.
fn decisions(seed: u64) -> String {
    let s = generate(Family::Live, seed);
    let cfg = &s.cfg;
    let mut coord = LiveCoordinator::start(cfg.ring, cfg.cap).expect("coordinator start");
    coord.contraction_epsilon = cfg.eps.max(1);
    if cfg.m > 0 {
        coord.enable_window(cfg.m, cfg.alpha(), cfg.threshold());
    }
    let mut conns = Vec::new();
    let mut out = String::new();
    for (step, ev) in s.events.iter().enumerate() {
        let result = match *ev {
            SimEvent::Put { key, len } => {
                let key = key % cfg.ring;
                coord.put(key, record_bytes(key, len, step))
            }
            SimEvent::Get { key } => coord.get(key % cfg.ring).map(drop),
            SimEvent::EndStep => coord.end_time_step(),
            other => panic!("event {other:?} is not part of the live family"),
        };
        if result.is_err() {
            writeln!(out, "seed {seed} event {step}: error").expect("write to a String");
        }
        if matches!(ev, SimEvent::EndStep) {
            let keys = key_sets(&coord, &mut conns);
            writeln!(out, "seed {seed} event {step}:{keys}").expect("write to a String");
        }
    }
    if coord.shutdown().is_err() {
        writeln!(out, "seed {seed} shutdown: error").expect("write to a String");
    }
    for (_, event) in coord.obs().events_since(0) {
        if let Some(event) = event.untimed() {
            writeln!(out, "seed {seed} {event:?}").expect("write to a String");
        }
    }
    out
}

#[test]
fn live_decisions_match_the_golden_stream() {
    let fresh: String = (0..SEEDS).map(decisions).collect();
    if std::env::var_os("ECC_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("golden dir");
        std::fs::write(GOLDEN_PATH, &fresh).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing golden file; bless with ECC_BLESS_GOLDEN=1");
    for (line, (got, want)) in fresh.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "decision stream diverges at golden line {}",
            line + 1
        );
    }
    assert_eq!(
        fresh.lines().count(),
        golden.lines().count(),
        "decision stream length differs from the golden"
    );
}
