//! The flight recorder keeps the cluster's structural history through
//! request traffic: serving frames emits nothing, so an event recorded
//! before ten thousand GETs is still in the dump after them and nothing
//! was dropped from the 4096-slot ring.

use std::time::Duration;

use ecc_net::client::{IoStats, PipelinedConn, RemoteNode};
use ecc_net::protocol::{Request, Status};
use ecc_net::server::CacheServer;
use ecc_obs::ObsEvent;

const GETS: u64 = 10_000;
const WINDOW: usize = 16;

#[test]
fn structural_events_survive_ten_thousand_pipelined_gets() {
    let mut server = CacheServer::spawn(1 << 20, 16).unwrap();
    let alloc = ObsEvent::NodeAlloc {
        at_us: server.obs().now_us(),
        node: 7,
    };
    server.obs().emit(alloc.clone());

    let mut conn = PipelinedConn::connect(server.addr(), Duration::from_secs(10)).unwrap();
    for key in 0..GETS {
        conn.enqueue(&Request::Get { key }).unwrap();
        if conn.in_flight() == WINDOW {
            while conn.in_flight() > 0 {
                assert_eq!(conn.recv().unwrap().0, Status::NotFound);
            }
        }
    }
    assert_eq!(conn.in_flight(), 0, "GETS is a whole number of windows");

    // A GET is 4 + 1 + 8 bytes on the wire, a miss 4 + 1; one write per
    // window. How many reads the replies took is the kernel's business.
    let io = conn.io_stats();
    assert!((1..=GETS).contains(&io.reads), "{io:?}");
    assert_eq!(
        IoStats { reads: 0, ..io },
        IoStats {
            reads: 0,
            writes: GETS / WINDOW as u64,
            frames_tx: GETS,
            frames_rx: GETS,
            bytes_tx: GETS * 13,
            bytes_rx: GETS * 5,
        }
    );

    let snap = RemoteNode::connect(server.addr())
        .unwrap()
        .obs_dump()
        .unwrap();
    assert_eq!(snap.hist("server_op_us:get").map(|h| h.count()), Some(GETS));
    assert_eq!(snap.events, vec![alloc]);
    assert_eq!(snap.dropped, 0);
    server.stop();
}
