//! Both engines' decision streams, frozen.
//!
//! Every live-family schedule of seeds 0..200 runs through a
//! [`LiveCoordinator`] with buffered placement (no audit or totals between
//! events), and what it decided must match `tests/golden/live_decisions.txt`
//! line for line: its structural events with their times dropped (split
//! bucket and destination, `SweepMigrate` records / bytes / `allocated`,
//! merge pairs, evicted keys), which calls failed, and every node's keys
//! after each step close.
//!
//! Every elastic-family schedule of seeds 0..200 runs through an
//! [`ElasticCache`], and `tests/golden/sim_decisions.txt` holds a line per
//! step close (and one at the end) that changed the ring, the active
//! nodes, the split / merge / eviction / insert-error counters or the
//! virtual clock. The family draws proactive splits and boot latency on
//! small fleets, which no figure covers at those sizes.
//!
//! simtest's families check contents against a model; these tests also
//! pin *how* the fleet got there, so a wrong but valid split bucket or
//! merge pair shows.
//!
//! To bless new goldens after an intentional change:
//!
//! ```text
//! ECC_BLESS_GOLDEN=1 cargo test -p ecc-simtest --test decision_stream
//! ```

use std::fmt::Write;

use ecc_core::{ElasticCache, Record};
use ecc_net::client::RemoteNode;
use ecc_net::coordinator::LiveCoordinator;
use ecc_simtest::elastic_sim::cache_config;
use ecc_simtest::event::record_bytes;
use ecc_simtest::{generate, Family, SimEvent};

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

/// What a step close of the simulator can change: the ring's buckets,
/// the active nodes, the structural counters and the virtual clock.
fn sim_state(cache: &ElasticCache) -> String {
    let ring: Vec<(u64, u32)> = cache.ring().buckets().map(|(b, n)| (b, n.0)).collect();
    let nodes: Vec<u32> = cache.nodes().map(|(id, _)| id.0).collect();
    let m = cache.metrics();
    format!(
        "ring={ring:?} nodes={nodes:?} splits={} alloc_splits={} merges={} evictions={} \
         insert_errors={} clock={}",
        m.splits,
        m.splits_with_allocation,
        m.merges,
        m.evictions,
        m.insert_errors,
        cache.clock().now_us()
    )
}

/// One elastic-family seed's decisions as text: a line after each step
/// close, and one at the end, whenever [`sim_state`] changed. Independent
/// of the order of events within a step.
fn sim_decisions(seed: u64) -> String {
    let s = generate(Family::Elastic, seed);
    let ring = s.cfg.ring;
    let mut cache = ElasticCache::new(cache_config(&s.cfg));
    let mut last = sim_state(&cache);
    let mut out = String::new();
    let mut note = |at: &str, cache: &ElasticCache| {
        let state = sim_state(cache);
        if state != last {
            writeln!(out, "seed {seed} {at}: {state}").expect("write to a String");
            last = state;
        }
    };
    for (step, ev) in s.events.iter().enumerate() {
        match *ev {
            SimEvent::Query { key, len } => {
                let key = key % ring;
                let rec = Record::from_vec(record_bytes(key, len, step));
                cache.query(key, 1_000, move || rec);
            }
            SimEvent::Insert { key, len } => {
                let key = key % ring;
                let rec = Record::from_vec(record_bytes(key, len, step));
                drop(cache.insert(key, rec));
            }
            SimEvent::Lookup { key } => drop(cache.lookup(key % ring)),
            SimEvent::EndStep => {
                cache.end_time_step();
                note(&format!("event {step}"), &cache);
            }
            SimEvent::AdvanceClock { us } => {
                cache.clock_mut().advance_us(us);
            }
            other => panic!("event {other:?} is not part of the elastic family"),
        }
    }
    note("end", &cache);
    out
}

/// `fresh` equals the golden file at `path` line for line, or becomes it
/// under `ECC_BLESS_GOLDEN`.
fn matches_golden(path: &str, fresh: &str) {
    if std::env::var_os("ECC_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("golden dir");
        std::fs::write(path, fresh).expect("bless golden");
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("missing golden file; bless with ECC_BLESS_GOLDEN=1");
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

#[test]
fn live_decisions_match_the_golden_stream() {
    let fresh: String = (0..SEEDS).map(decisions).collect();
    matches_golden("tests/golden/live_decisions.txt", &fresh);
}

#[test]
fn sim_decisions_match_the_golden_stream() {
    let fresh: String = (0..SEEDS).map(sim_decisions).collect();
    matches_golden("tests/golden/sim_decisions.txt", &fresh);
}
