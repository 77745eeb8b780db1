//! The proto-family harness: frame-level fault injection against one real
//! [`CacheServer`] over a loopback socket, with a [`ModelServer`] oracle
//! predicting the exact response — status *and* body — for every frame.
//!
//! The trick that makes faults checkable: the oracle decodes the *mutated*
//! bytes in-process with the production [`Request::decode`], so it knows
//! precisely what the server will see (a corrupt byte may turn a `Put` into
//! a `Keys`, or into garbage ⇒ `BadRequest`).

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use ecc_net::protocol::{
    decode_with_trace, encode_traced, read_frame, write_frame, Request, Response, TraceContext,
};
use ecc_net::server::{CacheServer, DEFAULT_MAX_CONNECTIONS};
use ecc_obs::ObsRegistry;

use crate::event::{record_bytes, Fault, Schedule, SimEvent, WireOp};
use crate::model::ModelServer;
use crate::runner::SimFailure;

/// Build the well-formed request for a wire op at schedule position
/// `step`; a `Put`'s value is generated into `value`.
fn request_for(op: WireOp, step: usize, value: &mut Vec<u8>) -> Request<'_> {
    match op {
        WireOp::Get { key } => Request::Get { key },
        WireOp::Put { key, len } => {
            *value = record_bytes(key, len, step);
            Request::Put { key, value }
        }
        WireOp::GetMany { lo, hi } => Request::GetMany {
            keys: (lo..=hi).collect(),
        },
        WireOp::EvictMany { lo, hi } => Request::EvictMany {
            keys: (lo..=hi).collect(),
        },
        WireOp::Keys { lo, hi } => Request::Keys { lo, hi },
        WireOp::Stats => Request::Stats,
    }
}

/// Apply a fault to an encoded payload. Returns `None` when the frame is
/// dropped entirely, otherwise the (possibly mutated) payload and how many
/// times to send it.
fn apply_fault(fault: Fault, payload: &[u8]) -> Option<(Vec<u8>, usize)> {
    match fault {
        Fault::None => Some((payload.to_vec(), 1)),
        Fault::Corrupt { pos, xor } => {
            let mut p = payload.to_vec();
            if !p.is_empty() {
                let i = pos as usize % p.len();
                p[i] ^= xor;
            }
            Some((p, 1))
        }
        Fault::Truncate { len } => {
            let mut p = payload.to_vec();
            p.truncate(len as usize);
            Some((p, 1))
        }
        Fault::Duplicate => Some((payload.to_vec(), 2)),
        Fault::Drop => None,
        // Fragmentation is a delivery-schedule fault, not a byte fault: the
        // payload reaches the server intact, just across two wakeups.
        Fault::Fragment { .. } => Some((payload.to_vec(), 1)),
    }
}

/// Send one frame's wire bytes (length prefix + payload) in two writes split
/// at `pos`, pausing in between so the reactor observes the partial frame on
/// one readiness wakeup and must hold it in its assembler until the rest
/// arrives.
fn send_fragmented(stream: &mut TcpStream, payload: &[u8], pos: u32) -> std::io::Result<()> {
    let mut wire = Vec::with_capacity(4 + payload.len());
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload);
    // Both halves non-empty: wire.len() >= 4, so the divisor is >= 3.
    let cut = 1 + pos as usize % (wire.len() - 1);
    stream.write_all(&wire[..cut])?;
    stream.flush()?;
    std::thread::sleep(Duration::from_micros(300));
    stream.write_all(&wire[cut..])
}

/// Run one proto-family schedule to completion or first divergence.
pub fn run(s: &Schedule) -> Result<(), SimFailure> {
    let cfg = &s.cfg;

    let mut server = CacheServer::spawn_with(
        ("127.0.0.1", 0),
        cfg.cap,
        cfg.ord.max(4),
        DEFAULT_MAX_CONNECTIONS,
        None,
    )
    .map_err(|e| SimFailure::infra(format!("server spawn failed: {e}")))?;
    server.obs().set_origin(1);
    // Client recorder and server share one clock epoch so the final span
    // oracle can check cross-recorder interval nesting.
    let client_obs = ObsRegistry::new(server.obs().time());
    client_obs.set_origin(2);
    let mut stream = TcpStream::connect(server.addr())
        .map_err(|e| SimFailure::infra(format!("connect failed: {e}")))?;
    drop(stream.set_nodelay(true));
    let mut model = ModelServer::new(cfg.cap);
    let mut traced_sent = 0u64;

    for (step, ev) in s.events.iter().enumerate() {
        let fail = |what: String| SimFailure::at(step, what);
        let SimEvent::Frame { fault, op } = *ev else {
            return Err(fail(format!(
                "event {ev:?} is not part of the proto family"
            )));
        };
        let mut value = Vec::new();
        let req = request_for(op, step, &mut value);
        let payload = req.encode();
        let Some((mutated, copies)) = apply_fault(fault, &payload) else {
            continue; // dropped frame: neither side sees anything
        };
        // Trace a deterministic subset of the intact-delivery steps: faults
        // that mutate bytes would scramble the extension's span ids into
        // unverifiable parentage, but Duplicate and Fragment deliver the
        // extension bit-exact — Fragment may even cut *inside* it, which
        // is precisely the reassembly path worth exercising.
        let traced = step % 2 == 0
            && matches!(
                fault,
                Fault::None | Fault::Duplicate | Fault::Fragment { .. }
            );
        for _ in 0..copies {
            // One root span per delivered copy, dropped once the response
            // is fully read so the server's spans nest inside it.
            let span = traced.then(|| client_obs.span_root("req"));
            let wire_bytes = match &span {
                Some(root) => {
                    traced_sent += 1;
                    let ctx = TraceContext {
                        trace_id: root.trace_id(),
                        span_id: root.id(),
                        parent_span_id: 0,
                        sampled: true,
                    };
                    encode_traced(&ctx, &req).to_vec()
                }
                None => mutated.clone(),
            };
            // The oracle sees exactly what the server will decode —
            // trace extension included.
            let decoded = decode_with_trace(&wire_bytes).map(|(_, r)| r);
            // A corrupt opcode can land on ObsDump; its body is a live
            // observability snapshot the model cannot predict, so compare
            // status only and require that the body decodes as a dump.
            let is_obs_dump = matches!(decoded, Some(Request::ObsDump));
            let want = model.respond(decoded);
            match fault {
                Fault::Fragment { pos } => send_fragmented(&mut stream, &wire_bytes, pos),
                _ => write_frame(&mut stream, &wire_bytes),
            }
            .map_err(|e| fail(format!("send failed: {e}")))?;
            let raw = read_frame(&mut stream)
                .map_err(|e| fail(format!("server stopped answering: {e}")))?;
            let got =
                Response::decode(raw).ok_or_else(|| fail("undecodable response frame".into()))?;
            if is_obs_dump {
                if got.status != want.status {
                    return Err(fail(format!(
                        "obs-dump status diverged under {fault:?}: server said {:?}, \
                         model predicts {:?}",
                        got.status, want.status
                    )));
                }
                if ecc_obs::decode_dump(&got.body).is_none() {
                    return Err(fail(format!(
                        "obs-dump body ({}B) failed to decode as a versioned snapshot",
                        got.body.len()
                    )));
                }
                continue;
            }
            if got != want {
                return Err(fail(format!(
                    "response diverged for {op:?} under {fault:?}: server said \
                     ({:?}, {}B body), model predicts ({:?}, {}B body)",
                    got.status,
                    got.body.len(),
                    want.status,
                    want.body.len()
                )));
            }
        }
    }

    // Final accounting handshake on the same connection.
    let payload = Request::Stats.encode();
    let want = model.respond(Some(Request::Stats));
    write_frame(&mut stream, &payload)
        .map_err(|e| SimFailure::end(format!("final stats send failed: {e}")))?;
    let raw = read_frame(&mut stream)
        .map_err(|e| SimFailure::end(format!("final stats read failed: {e}")))?;
    let got = Response::decode(raw)
        .ok_or_else(|| SimFailure::end("undecodable final stats response".into()))?;
    if got != want {
        return Err(SimFailure::end(format!(
            "final stats diverged: server {:?}, model {:?} (used={} records={})",
            got.body,
            want.body,
            model.used(),
            model.len()
        )));
    }

    // Span oracle: dump the server's recorder, merge it with the
    // client's, and demand a well-formed forest — every start ended,
    // zero orphans, child intervals nested — with exactly one root per
    // traced frame delivered. Only sound while nothing fell out of
    // either ring.
    let payload = Request::ObsDump.encode();
    write_frame(&mut stream, &payload)
        .map_err(|e| SimFailure::end(format!("final obs dump send failed: {e}")))?;
    let raw = read_frame(&mut stream)
        .map_err(|e| SimFailure::end(format!("final obs dump read failed: {e}")))?;
    let got = Response::decode(raw)
        .ok_or_else(|| SimFailure::end("undecodable final obs dump response".into()))?;
    let server_snap = ecc_obs::decode_dump(&got.body)
        .ok_or_else(|| SimFailure::end("final obs dump body failed to decode".into()))?;
    let mut merged = client_obs.snapshot();
    merged.merge(&server_snap);
    if merged.dropped == 0 {
        let stats = ecc_obs::verify_spans(&merged.events)
            .map_err(|e| SimFailure::end(format!("span oracle: {e}")))?;
        if stats.roots as u64 != traced_sent || stats.traces as u64 != traced_sent {
            return Err(SimFailure::end(format!(
                "span oracle: {traced_sent} traced frames delivered but the \
                 merged stream holds {} roots / {} traces",
                stats.roots, stats.traces
            )));
        }
    }
    drop(stream);
    server.stop();
    Ok(())
}
