// Fixture: the blessed idioms — guard dropped before I/O, justified
// SeqCst, and per-field consistent orderings. Must produce zero findings.
pub fn respond(&self, stream: &mut TcpStream) {
    let state = self.inner.lock();
    let body = state.render();
    drop(state);
    write_frame(stream, &body);
}

pub fn publish(&self) {
    // seqcst: epoch handoff must stay totally ordered with the drain flag.
    self.epoch.store(1, Ordering::SeqCst);
    self.hits.fetch_add(1, Ordering::Relaxed);
}
