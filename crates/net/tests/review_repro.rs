//! Review repro: peer that dies mid-frame (graceful FIN after a partial
//! frame body) should free its connection slot.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use ecc_net::client::RemoteNode;
use ecc_net::server::CacheServer;

#[test]
fn partial_frame_then_eof_frees_slot() {
    // Bound of 1: if the dead connection's slot leaks, the next connect
    // is refused with Busy.
    let mut server = CacheServer::spawn_with(("127.0.0.1", 0), 1 << 20, 8, 1, None).unwrap();
    let addr = server.addr();

    {
        let mut raw = TcpStream::connect(addr).unwrap();
        // Length prefix claims 100 bytes, only 10 arrive, then FIN.
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 10]).unwrap();
        raw.flush().unwrap();
    } // drop = graceful close

    // Give the reactor ample time to observe EOF and (ideally) close.
    std::thread::sleep(Duration::from_millis(200));

    let mut c = RemoteNode::connect(addr).expect("connect after dead peer");
    c.stats().expect("slot should have been freed");
    server.stop();
}
