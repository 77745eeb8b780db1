//! The schedule grammar and the `SIMSEED` codec.
//!
//! A [`Schedule`] is a fully explicit description of one simulation case: a
//! [`Family`] (which harness runs it), a [`SimConfig`] (the cache/cluster
//! tunables) and an ordered list of [`SimEvent`]s. Schedules serialize to a
//! compact ASCII `SIMSEED` string:
//!
//! ```text
//! SIMSEED/1/<family>/<k=v,...>/<event,event,...>
//! ```
//!
//! The codec is lossless ([`Schedule::encode`] / [`Schedule::decode`] round
//! trip exactly), so a printed SIMSEED — including one produced by the
//! shrinker — replays the same schedule byte-for-byte on any machine.

use std::fmt;

/// Which harness executes a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// [`ecc_core::ElasticCache`] vs. a flat `BTreeMap` + window model.
    Elastic,
    /// [`ecc_net::coordinator::LiveCoordinator`], on local links and over
    /// real sockets, vs. the same model.
    Live,
    /// Frame-level fault injection against one [`ecc_net::server::CacheServer`]
    /// vs. a wire-semantics model.
    Proto,
    /// [`ecc_core::StaticCache`] vs. a reference per-node LRU model.
    Static,
    /// A zoo scenario's op stream (`ecc_workload::scenario`) replayed
    /// through the elastic harness and its flat-map oracle — realistic
    /// skew/burst shapes instead of uniform event rolls.
    Workload,
}

impl Family {
    /// Stable name used inside SIMSEED strings.
    pub fn name(self) -> &'static str {
        match self {
            Family::Elastic => "elastic",
            Family::Live => "live",
            Family::Proto => "proto",
            Family::Static => "static",
            Family::Workload => "workload",
        }
    }

    /// Parse a family name.
    pub fn parse(s: &str) -> Option<Family> {
        Some(match s {
            "elastic" => Family::Elastic,
            "live" => Family::Live,
            "proto" => Family::Proto,
            "static" => Family::Static,
            "workload" => Family::Workload,
            _ => return None,
        })
    }

    /// All families, in the order the multi-seed runner executes them.
    pub const ALL: [Family; 5] = [
        Family::Elastic,
        Family::Workload,
        Family::Static,
        Family::Proto,
        Family::Live,
    ];
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cluster/cache tunables of one schedule. A superset across families;
/// each harness reads the fields that apply to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// `r` — hash-line range.
    pub ring: u64,
    /// Node capacity in bytes.
    pub cap: u64,
    /// B+-tree order.
    pub ord: usize,
    /// Window slices `m`; `0` disables eviction.
    pub m: usize,
    /// Decay `α` as an integer percentage (99 ⇒ 0.99).
    pub alpha_pct: u32,
    /// Contraction cadence `ε`.
    pub eps: u64,
    /// Contraction floor.
    pub min_nodes: usize,
    /// Warm-pool standbys.
    pub warm: usize,
    /// Proactive-split fill as an integer percentage; `0` disables.
    pub pf_pct: u32,
    /// Fixed node boot latency, µs.
    pub boot_us: u64,
    /// Fixed fleet size (static family only).
    pub nodes: usize,
}

impl SimConfig {
    /// `α` as a float.
    pub fn alpha(&self) -> f64 {
        self.alpha_pct as f64 / 100.0
    }

    /// The baseline eviction threshold `T_λ = α^(m-1)` for this config.
    pub fn threshold(&self) -> f64 {
        self.alpha().powi(self.m as i32 - 1)
    }

    /// A neutral default every generator starts from.
    pub fn base() -> Self {
        Self {
            ring: 1024,
            cap: 2000,
            ord: 8,
            m: 0,
            alpha_pct: 99,
            eps: 1,
            min_nodes: 1,
            warm: 0,
            pf_pct: 0,
            boot_us: 0,
            nodes: 2,
        }
    }

    fn encode(&self) -> String {
        format!(
            "ring={},cap={},ord={},m={},a={},eps={},min={},wp={},pf={},boot={},n={}",
            self.ring,
            self.cap,
            self.ord,
            self.m,
            self.alpha_pct,
            self.eps,
            self.min_nodes,
            self.warm,
            self.pf_pct,
            self.boot_us,
            self.nodes,
        )
    }

    fn decode(s: &str) -> Result<Self, String> {
        let mut cfg = SimConfig::base();
        for kv in s.split(',').filter(|kv| !kv.is_empty()) {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("config entry `{kv}` is not k=v"))?;
            let n: u64 = v
                .parse()
                .map_err(|_| format!("config value `{v}` for `{k}` is not an integer"))?;
            match k {
                "ring" => cfg.ring = n,
                "cap" => cfg.cap = n,
                "ord" => cfg.ord = n as usize,
                "m" => cfg.m = n as usize,
                "a" => cfg.alpha_pct = n as u32,
                "eps" => cfg.eps = n,
                "min" => cfg.min_nodes = n as usize,
                "wp" => cfg.warm = n as usize,
                "pf" => cfg.pf_pct = n as u32,
                "boot" => cfg.boot_us = n,
                "n" => cfg.nodes = n as usize,
                _ => return Err(format!("unknown config key `{k}`")),
            }
        }
        Ok(cfg)
    }
}

/// One well-formed wire operation (proto family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOp {
    /// `GET key`.
    Get {
        /// Key to look up.
        key: u64,
    },
    /// `PUT key value` (payload generated deterministically from the
    /// event's position).
    Put {
        /// Key to store.
        key: u64,
        /// Payload length.
        len: u32,
    },
    /// `GET_MANY` of every key in `[lo, hi]` (none when inverted): the
    /// migration's copy read.
    GetMany {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// `EVICT_MANY` of every key in `[lo, hi]` (none when inverted): the
    /// migration's delete and the slice-expiry eviction.
    EvictMany {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// `KEYS [lo, hi]`.
    Keys {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// `STATS`.
    Stats,
}

/// A frame-level fault applied to one wire operation before it is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Deliver the frame unmodified.
    None,
    /// XOR the payload byte at `pos % payload.len()` with `xor` (≠ 0).
    Corrupt {
        /// Byte position (reduced modulo the payload length).
        pos: u32,
        /// XOR mask.
        xor: u8,
    },
    /// Truncate the payload to at most `len` bytes.
    Truncate {
        /// Maximum payload length after truncation.
        len: u32,
    },
    /// Send the frame twice.
    Duplicate,
    /// Never send the frame.
    Drop,
    /// Deliver the frame's wire bytes (length prefix included) in two
    /// separate writes split at `pos`, with a pause between them, so the
    /// server observes a partial frame on one wakeup and the remainder
    /// on a later one. Semantically a no-op: the server must reassemble
    /// and answer exactly as for [`Fault::None`].
    Fragment {
        /// Split position (reduced to `1 + pos % (wire_len - 1)`, so both
        /// halves are non-empty).
        pos: u32,
    },
}

/// One step of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// Full cached-service query (elastic/static): lookup, miss runs the
    /// service and caches a `len`-byte record.
    Query {
        /// Key queried.
        key: u64,
        /// Record size on miss.
        len: u32,
    },
    /// Bare insert (elastic/static): no window query is recorded.
    Insert {
        /// Key inserted.
        key: u64,
        /// Record size.
        len: u32,
    },
    /// Bare lookup (elastic/static): records a window query, caches nothing.
    Lookup {
        /// Key looked up.
        key: u64,
    },
    /// Close the current time slice (eviction + contraction may run).
    EndStep,
    /// Advance the cache's virtual clock (boot-delay interleaving).
    AdvanceClock {
        /// Microseconds to advance.
        us: u64,
    },
    /// Coordinator put (live family).
    Put {
        /// Key stored.
        key: u64,
        /// Payload length.
        len: u32,
    },
    /// Coordinator get (live family).
    Get {
        /// Key fetched.
        key: u64,
    },
    /// One (possibly faulted) protocol frame (proto family).
    Frame {
        /// The fault to inject.
        fault: Fault,
        /// The underlying well-formed operation.
        op: WireOp,
    },
}

impl SimEvent {
    fn encode(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimEvent::Query { key, len } => write!(out, "q{key}.{len}"),
            SimEvent::Insert { key, len } => write!(out, "i{key}.{len}"),
            SimEvent::Lookup { key } => write!(out, "l{key}"),
            SimEvent::EndStep => write!(out, "t"),
            SimEvent::AdvanceClock { us } => write!(out, "c{us}"),
            SimEvent::Put { key, len } => write!(out, "p{key}.{len}"),
            SimEvent::Get { key } => write!(out, "g{key}"),
            SimEvent::Frame { fault, op } => {
                match fault {
                    Fault::None => {}
                    Fault::Corrupt { pos, xor } => write!(out, "x{pos}.{xor}!")?,
                    Fault::Truncate { len } => write!(out, "u{len}!")?,
                    Fault::Duplicate => out.write_str("2!")?,
                    Fault::Drop => out.write_str("d!")?,
                    Fault::Fragment { pos } => write!(out, "s{pos}!")?,
                }
                match op {
                    WireOp::Get { key } => write!(out, "G{key}"),
                    WireOp::Put { key, len } => write!(out, "P{key}.{len}"),
                    WireOp::GetMany { lo, hi } => write!(out, "M{lo}.{hi}"),
                    WireOp::EvictMany { lo, hi } => write!(out, "E{lo}.{hi}"),
                    WireOp::Keys { lo, hi } => write!(out, "K{lo}.{hi}"),
                    WireOp::Stats => write!(out, "T"),
                }
            }
        }
    }

    fn decode(s: &str) -> Result<SimEvent, String> {
        let bad = || format!("unparseable event `{s}`");
        // Optional fault prefix terminated by `!` (proto frames only).
        let (fault, rest) = match s.split_once('!') {
            Some((f, rest)) => {
                let fault = if f == "2" {
                    Fault::Duplicate
                } else if f == "d" {
                    Fault::Drop
                } else if let Some(args) = f.strip_prefix('x') {
                    let (pos, xor) = parse_pair(args).ok_or_else(bad)?;
                    Fault::Corrupt {
                        pos: pos as u32,
                        xor: xor as u8,
                    }
                } else if let Some(arg) = f.strip_prefix('u') {
                    Fault::Truncate {
                        len: arg.parse().map_err(|_| bad())?,
                    }
                } else if let Some(arg) = f.strip_prefix('s') {
                    Fault::Fragment {
                        pos: arg.parse().map_err(|_| bad())?,
                    }
                } else {
                    return Err(bad());
                };
                (Some(fault), rest)
            }
            None => (None, s),
        };
        let mut chars = rest.chars();
        let tag = chars.next().ok_or_else(bad)?;
        let args = chars.as_str();
        let ev = match tag {
            'q' => {
                let (key, len) = parse_pair(args).ok_or_else(bad)?;
                SimEvent::Query {
                    key,
                    len: len as u32,
                }
            }
            'i' => {
                let (key, len) = parse_pair(args).ok_or_else(bad)?;
                SimEvent::Insert {
                    key,
                    len: len as u32,
                }
            }
            'l' => SimEvent::Lookup {
                key: args.parse().map_err(|_| bad())?,
            },
            't' if args.is_empty() => SimEvent::EndStep,
            'c' => SimEvent::AdvanceClock {
                us: args.parse().map_err(|_| bad())?,
            },
            'p' => {
                let (key, len) = parse_pair(args).ok_or_else(bad)?;
                SimEvent::Put {
                    key,
                    len: len as u32,
                }
            }
            'g' => SimEvent::Get {
                key: args.parse().map_err(|_| bad())?,
            },
            'G' | 'P' | 'M' | 'E' | 'K' | 'T' => {
                let op = match tag {
                    'G' => WireOp::Get {
                        key: args.parse().map_err(|_| bad())?,
                    },
                    'P' => {
                        let (key, len) = parse_pair(args).ok_or_else(bad)?;
                        WireOp::Put {
                            key,
                            len: len as u32,
                        }
                    }
                    'M' => {
                        let (lo, hi) = parse_pair(args).ok_or_else(bad)?;
                        WireOp::GetMany { lo, hi }
                    }
                    'E' => {
                        let (lo, hi) = parse_pair(args).ok_or_else(bad)?;
                        WireOp::EvictMany { lo, hi }
                    }
                    'K' => {
                        let (lo, hi) = parse_pair(args).ok_or_else(bad)?;
                        WireOp::Keys { lo, hi }
                    }
                    'T' if args.is_empty() => WireOp::Stats,
                    _ => return Err(bad()),
                };
                SimEvent::Frame {
                    fault: fault.unwrap_or(Fault::None),
                    op,
                }
            }
            _ => return Err(bad()),
        };
        if fault.is_some() && !matches!(ev, SimEvent::Frame { .. }) {
            return Err(format!("fault prefix on non-frame event `{s}`"));
        }
        Ok(ev)
    }
}

fn parse_pair(s: &str) -> Option<(u64, u64)> {
    let (a, b) = s.split_once('.')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

/// SIMSEED format version emitted by this build.
pub const SIMSEED_VERSION: u32 = 1;

/// One fully explicit simulation case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Which harness runs it.
    pub family: Family,
    /// Cluster tunables.
    pub cfg: SimConfig,
    /// Ordered event list.
    pub events: Vec<SimEvent>,
}

impl Schedule {
    /// Serialize to a replayable `SIMSEED` string.
    pub fn encode(&self) -> String {
        self.to_string()
    }

    /// Parse a `SIMSEED` string.
    pub fn decode(s: &str) -> Result<Schedule, String> {
        let s = s.trim();
        let mut parts = s.splitn(5, '/');
        if parts.next() != Some("SIMSEED") {
            return Err("SIMSEED strings start with `SIMSEED/`".into());
        }
        let version: u32 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("missing SIMSEED version")?;
        if version != SIMSEED_VERSION {
            return Err(format!("unsupported SIMSEED version {version}"));
        }
        let family = parts
            .next()
            .and_then(Family::parse)
            .ok_or("unknown SIMSEED family")?;
        let cfg = SimConfig::decode(parts.next().ok_or("missing config section")?)?;
        let events_str = parts.next().ok_or("missing events section")?;
        let mut events = Vec::new();
        for e in events_str.split(',').filter(|e| !e.is_empty()) {
            events.push(SimEvent::decode(e)?);
        }
        Ok(Schedule {
            family,
            cfg,
            events,
        })
    }

    /// A copy containing only the events whose index is flagged in `keep`
    /// (the shrinker's subset operation).
    pub fn subset(&self, keep: &[bool]) -> Schedule {
        Schedule {
            family: self.family,
            cfg: self.cfg.clone(),
            events: self
                .events
                .iter()
                .zip(keep)
                .filter_map(|(e, &k)| k.then_some(*e))
                .collect(),
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SIMSEED/{SIMSEED_VERSION}/{}/{}/",
            self.family.name(),
            self.cfg.encode()
        )?;
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            e.encode(f)?;
        }
        Ok(())
    }
}

/// Deterministic record payload for event `step` of a schedule: the bytes a
/// harness stores and its model predicts. Distinct `(key, step)` pairs give
/// distinct contents, so stale values after a replacement are detectable.
pub fn record_bytes(key: u64, len: u32, step: usize) -> Vec<u8> {
    let mut x = key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(step as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simseed_roundtrips_every_event_kind() {
        let sched = Schedule {
            family: Family::Elastic,
            cfg: SimConfig {
                ring: 1024,
                cap: 1234,
                ord: 8,
                m: 3,
                alpha_pct: 97,
                eps: 2,
                min_nodes: 1,
                warm: 2,
                pf_pct: 70,
                boot_us: 1000,
                nodes: 3,
            },
            events: vec![
                SimEvent::Query { key: 5, len: 100 },
                SimEvent::Insert { key: 7, len: 60 },
                SimEvent::Lookup { key: 9 },
                SimEvent::EndStep,
                SimEvent::AdvanceClock { us: 500_000 },
                SimEvent::Put { key: 11, len: 40 },
                SimEvent::Get { key: 12 },
                SimEvent::Frame {
                    fault: Fault::None,
                    op: WireOp::Put { key: 1, len: 30 },
                },
                SimEvent::Frame {
                    fault: Fault::Corrupt { pos: 3, xor: 77 },
                    op: WireOp::Get { key: 2 },
                },
                SimEvent::Frame {
                    fault: Fault::Truncate { len: 4 },
                    op: WireOp::GetMany { lo: 1, hi: 9 },
                },
                SimEvent::Frame {
                    fault: Fault::None,
                    op: WireOp::EvictMany { lo: 9, hi: 1 },
                },
                SimEvent::Frame {
                    fault: Fault::Duplicate,
                    op: WireOp::Keys { lo: 0, hi: 64 },
                },
                SimEvent::Frame {
                    fault: Fault::Drop,
                    op: WireOp::EvictMany { lo: 3, hi: 3 },
                },
                SimEvent::Frame {
                    fault: Fault::Fragment { pos: 6 },
                    op: WireOp::Put { key: 8, len: 25 },
                },
                SimEvent::Frame {
                    fault: Fault::None,
                    op: WireOp::Stats,
                },
            ],
        };
        let enc = sched.encode();
        let dec = Schedule::decode(&enc).expect("decode own encoding");
        assert_eq!(dec, sched);
        // Encoding is canonical: decode(encode(x)).encode() == encode(x).
        assert_eq!(dec.encode(), enc);
    }

    #[test]
    fn empty_event_list_roundtrips() {
        let sched = Schedule {
            family: Family::Static,
            cfg: SimConfig::base(),
            events: vec![],
        };
        let dec = Schedule::decode(&sched.encode()).expect("decode");
        assert_eq!(dec, sched);
    }

    #[test]
    fn malformed_simseeds_are_rejected() {
        for bad in [
            "",
            "SIMSEED",
            "SIMSEED/9/elastic/cap=1/q1.1",
            "SIMSEED/1/bogus/cap=1/q1.1",
            "SIMSEED/1/elastic/cap=x/q1.1",
            "SIMSEED/1/elastic/cap=1/z9",
            "SIMSEED/1/elastic/cap=1/q1",
            "SIMSEED/1/elastic/cap=1/x1.1!q1.1",
            "SIMSEED/1/elastic/notkv/t",
        ] {
            assert!(Schedule::decode(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn subset_keeps_flagged_events() {
        let sched = Schedule {
            family: Family::Elastic,
            cfg: SimConfig::base(),
            events: vec![
                SimEvent::EndStep,
                SimEvent::Lookup { key: 1 },
                SimEvent::EndStep,
            ],
        };
        let sub = sched.subset(&[true, false, true]);
        assert_eq!(sub.events, vec![SimEvent::EndStep, SimEvent::EndStep]);
    }

    #[test]
    fn record_bytes_vary_by_key_and_step() {
        let a = record_bytes(1, 16, 0);
        let b = record_bytes(1, 16, 1);
        let c = record_bytes(2, 16, 0);
        assert_eq!(a.len(), 16);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, record_bytes(1, 16, 0));
    }
}
