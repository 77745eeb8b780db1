//! Seeded schedule generation: `(family, seed) -> Schedule`, fully
//! deterministic — the same pair always yields the same schedule, on any
//! machine, so a bare seed number is as replayable as a SIMSEED string.

use ecc_workload::driver::Op;
use ecc_workload::keys::KeyDist;
use ecc_workload::scenario::Scenario;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event::{Family, Fault, Schedule, SimConfig, SimEvent, WireOp};

/// Derive the family-specific RNG for a seed (distinct streams per family).
fn rng_for(family: Family, seed: u64) -> SmallRng {
    let tag = match family {
        Family::Elastic => 0x45u64,
        Family::Static => 0x53,
        Family::Proto => 0x50,
        Family::Live => 0x4C,
        Family::Workload => 0x57,
    };
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

/// One of the workload key distributions, chosen per schedule.
fn key_dist(rng: &mut SmallRng, space: u64) -> KeyDist {
    match rng.gen_range(0u32..3) {
        0 => KeyDist::uniform(space),
        1 => KeyDist::zipf(space, 1.0),
        _ => KeyDist::hotspot(space, (space / 16).max(1), 0.8),
    }
}

/// Generate the schedule for `(family, seed)`.
pub fn generate(family: Family, seed: u64) -> Schedule {
    let mut rng = rng_for(family, seed);
    match family {
        Family::Elastic => gen_elastic(&mut rng),
        Family::Static => gen_static(&mut rng),
        Family::Proto => gen_proto(&mut rng),
        Family::Live => gen_live(&mut rng),
        Family::Workload => gen_workload(&mut rng),
    }
}

fn gen_elastic(rng: &mut SmallRng) -> Schedule {
    let mut cfg = SimConfig::base();
    cfg.ring = 1024;
    cfg.cap = rng.gen_range(600u64..=4000);
    cfg.m = if rng.gen_bool(0.5) {
        0
    } else {
        rng.gen_range(1usize..=4)
    };
    cfg.alpha_pct = rng.gen_range(50u32..=99);
    cfg.eps = rng.gen_range(1u64..=4);
    // Once the warm pool's size; still drawn so no later draw shifts.
    if !rng.gen_bool(0.75) {
        rng.gen_range(1usize..=2);
    }
    cfg.pf_pct = if rng.gen_bool(0.7) {
        0
    } else {
        rng.gen_range(50u32..=90)
    };
    cfg.boot_us = if rng.gen_bool(0.5) {
        0
    } else {
        rng.gen_range(1_000u64..=200_000)
    };

    let dist = key_dist(rng, 256);
    let n = rng.gen_range(40usize..=160);
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let len = record_len(rng, cfg.cap);
        let roll = rng.gen_range(0u32..100);
        events.push(if roll < 45 {
            SimEvent::Query {
                key: dist.sample(rng),
                len,
            }
        } else if roll < 60 {
            SimEvent::Insert {
                key: dist.sample(rng),
                len,
            }
        } else if roll < 75 {
            SimEvent::Lookup {
                key: dist.sample(rng),
            }
        } else if roll < 90 {
            SimEvent::EndStep
        } else {
            SimEvent::AdvanceClock {
                us: rng.gen_range(10_000u64..=500_000),
            }
        });
    }
    Schedule {
        family: Family::Elastic,
        cfg,
        events,
    }
}

/// Mostly in-range record sizes, with a 2% tail of oversized ones (larger
/// than a whole node) to exercise the rejection paths.
fn record_len(rng: &mut SmallRng, cap: u64) -> u32 {
    if rng.gen_bool(0.02) {
        rng.gen_range(cap + 1..=cap + 200) as u32
    } else {
        rng.gen_range(20u32..=300)
    }
}

/// Replay a deterministic slice of a zoo scenario's op stream through the
/// elastic event grammar: reads become full cached-service queries, writes
/// become bare inserts, scenario step boundaries close time slices. The
/// differential flat-map oracle then audits the cache under realistic
/// skew/burst shapes (shifting hot sets, flash crowds, tenant mixes) that
/// the uniform per-event rolls of `gen_elastic` never produce.
fn gen_workload(rng: &mut SmallRng) -> Schedule {
    let mut cfg = SimConfig::base();
    cfg.ring = 1024;
    cfg.cap = rng.gen_range(1_000u64..=6_000);
    cfg.m = if rng.gen_bool(0.25) {
        0
    } else {
        rng.gen_range(1usize..=4)
    };
    cfg.alpha_pct = rng.gen_range(50u32..=99);
    cfg.eps = rng.gen_range(1u64..=4);

    let scenarios = Scenario::all();
    let sc = &scenarios[rng.gen_range(0..scenarios.len())];
    let scen_seed = rng.gen::<u64>();
    let steps = rng.gen_range(2u64..=5);
    // Scenario rates run to thousands of ops per step; cap the schedule so
    // the battery stays fast and the shrinker's budget stays meaningful.
    const MAX_OPS: usize = 240;
    let mut events = Vec::new();
    let mut last_step = 0u64;
    for (step, op, key) in sc.events(scen_seed, steps).take(MAX_OPS) {
        while last_step < step {
            events.push(SimEvent::EndStep);
            last_step += 1;
        }
        let len = record_len(rng, cfg.cap);
        events.push(match op {
            Op::Read => SimEvent::Query { key, len },
            Op::Write => SimEvent::Insert { key, len },
        });
    }
    events.push(SimEvent::EndStep);
    Schedule {
        family: Family::Workload,
        cfg,
        events,
    }
}

fn gen_static(rng: &mut SmallRng) -> Schedule {
    let mut cfg = SimConfig::base();
    cfg.ring = 1024;
    cfg.cap = rng.gen_range(400u64..=2000);
    cfg.nodes = rng.gen_range(1usize..=4);

    let dist = key_dist(rng, 256);
    let n = rng.gen_range(60usize..=200);
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let len = record_len(rng, cfg.cap);
        let roll = rng.gen_range(0u32..100);
        events.push(if roll < 50 {
            SimEvent::Query {
                key: dist.sample(rng),
                len,
            }
        } else if roll < 80 {
            SimEvent::Insert {
                key: dist.sample(rng),
                len,
            }
        } else {
            SimEvent::Lookup {
                key: dist.sample(rng),
            }
        });
    }
    Schedule {
        family: Family::Static,
        cfg,
        events,
    }
}

fn gen_proto(rng: &mut SmallRng) -> Schedule {
    let mut cfg = SimConfig::base();
    cfg.cap = rng.gen_range(400u64..=2000);

    let n = rng.gen_range(30usize..=80);
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = rng.gen_range(0u32..100);
        let fault = if roll < 45 {
            Fault::None
        } else if roll < 60 {
            Fault::Corrupt {
                pos: rng.gen_range(0u32..=40),
                xor: rng.gen_range(1u32..=255) as u8,
            }
        } else if roll < 70 {
            Fault::Truncate {
                len: rng.gen_range(0u32..=20),
            }
        } else if roll < 82 {
            Fault::Fragment {
                pos: rng.gen_range(0u32..=200),
            }
        } else if roll < 91 {
            Fault::Duplicate
        } else {
            Fault::Drop
        };
        let key = rng.gen_range(0u64..=64);
        let roll = rng.gen_range(0u32..100);
        let op = if roll < 30 {
            WireOp::Get { key }
        } else if roll < 70 {
            WireOp::Put {
                key,
                len: rng.gen_range(10u32..=120),
            }
        } else if roll < 80 {
            // A single-key delete.
            WireOp::EvictMany { lo: key, hi: key }
        } else if roll < 84 {
            // Bounds drawn independently: inverted ranges are fair game.
            WireOp::GetMany {
                lo: key,
                hi: rng.gen_range(0u64..=64),
            }
        } else if roll < 88 {
            WireOp::EvictMany {
                lo: key,
                hi: rng.gen_range(0u64..=64),
            }
        } else if roll < 94 {
            WireOp::Keys {
                lo: key,
                hi: rng.gen_range(0u64..=64),
            }
        } else {
            WireOp::Stats
        };
        events.push(SimEvent::Frame { fault, op });
    }
    Schedule {
        family: Family::Proto,
        cfg,
        events,
    }
}

fn gen_live(rng: &mut SmallRng) -> Schedule {
    let mut cfg = SimConfig::base();
    cfg.ring = 4096;
    cfg.cap = rng.gen_range(600u64..=2000);
    cfg.m = if rng.gen_bool(0.5) {
        0
    } else {
        rng.gen_range(1usize..=3)
    };
    cfg.alpha_pct = rng.gen_range(50u32..=99);
    cfg.eps = rng.gen_range(1u64..=2);

    let dist = key_dist(rng, 128);
    let max_len = (cfg.cap / 4).min(200) as u32;
    let n = rng.gen_range(20usize..=60);
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = rng.gen_range(0u32..100);
        events.push(if roll < 45 {
            SimEvent::Put {
                key: dist.sample(rng),
                len: rng.gen_range(20u32..=max_len),
            }
        } else if roll < 85 {
            SimEvent::Get {
                key: dist.sample(rng),
            }
        } else {
            SimEvent::EndStep
        });
    }
    Schedule {
        family: Family::Live,
        cfg,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for family in Family::ALL {
            for seed in [0u64, 1, 42, u64::MAX] {
                let a = generate(family, seed);
                let b = generate(family, seed);
                assert_eq!(a, b, "{family}/{seed} not deterministic");
                assert_eq!(a.encode(), b.encode());
            }
        }
    }

    #[test]
    fn generated_schedules_roundtrip_through_simseed() {
        for family in Family::ALL {
            for seed in 0..20u64 {
                let sched = generate(family, seed);
                let enc = sched.encode();
                let dec = Schedule::decode(&enc).expect("own encoding decodes");
                assert_eq!(dec, sched, "{family}/{seed} did not roundtrip");
            }
        }
    }

    #[test]
    fn families_draw_distinct_streams() {
        let a = generate(Family::Elastic, 7);
        let b = generate(Family::Static, 7);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn workload_schedules_stay_inside_the_elastic_grammar() {
        for seed in 0..30u64 {
            let sched = generate(Family::Workload, seed);
            assert_eq!(sched.family, Family::Workload);
            assert!(
                matches!(sched.events.last(), Some(SimEvent::EndStep)),
                "seed {seed} does not close its final slice"
            );
            for ev in &sched.events {
                assert!(
                    matches!(
                        ev,
                        SimEvent::Query { .. } | SimEvent::Insert { .. } | SimEvent::EndStep
                    ),
                    "seed {seed} produced non-workload event {ev:?}"
                );
            }
        }
    }

    #[test]
    fn workload_schedules_cover_reads_and_writes() {
        // Across a handful of seeds the zoo must surface both op kinds
        // (write_heavy / multi_tenant carry writes; the rest are reads).
        let (mut reads, mut writes) = (0usize, 0usize);
        for seed in 0..40u64 {
            for ev in generate(Family::Workload, seed).events {
                match ev {
                    SimEvent::Query { .. } => reads += 1,
                    SimEvent::Insert { .. } => writes += 1,
                    _ => {}
                }
            }
        }
        assert!(reads > 0 && writes > 0, "reads={reads} writes={writes}");
    }
}
