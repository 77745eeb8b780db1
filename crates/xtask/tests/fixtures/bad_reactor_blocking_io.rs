// Fixture: blocking primitives inside a reactor event loop — each call
// parks the reactor thread, stalling every connection it owns.
pub fn drain_blocking(&mut self, stream: &mut TcpStream) {
    let mut hdr = [0u8; 4];
    stream.read_exact(&mut hdr).unwrap();
    let frame = read_frame(stream).unwrap();
    stream.write_all(&frame).unwrap();
    let job = self.jobs.recv().unwrap();
    std::thread::park_timeout(Duration::from_micros(30));
    std::thread::sleep(Duration::from_millis(1));
    let ready = sys::wait(&mut self.pollfds, 1).unwrap();
}
