//! Seeded span-discipline bug: `let _ =` drops a span guard on the line
//! that made it, so the trace records a zero-duration span for real work.
//! (A guard dropped in statement position is rustc's `unused_must_use`.)
//! (Fixture — analyzed textually by the corpus test, never compiled.)

fn split(&mut self) -> Result<(), NetError> {
    let _ = self.obs.span_root("elastic_split");
    self.do_split()
}

fn serve(&self, trace: u64, parent: u64) {
    // Correct idiom for contrast: underscore-prefixed names own the
    // guard until end of scope.
    let _srv = self.obs.span_start("srv", trace, parent);
    self.execute();
}
