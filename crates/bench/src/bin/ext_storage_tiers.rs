//! Extension E4: persistent overflow tiers (paper §IV-D).
//!
//! "We have also assessed the various cost aspects of the Cloud's
//! persistent storage, such as Amazon S3 and Elastic Block Storage (EBS)
//! … we discuss our findings of cost benefits and performance tradeoffs
//! among the varying Amazon Cloud storage types in a related paper."
//!
//! This harness runs that comparison here: the eviction workload with no
//! overflow tier (paper configuration — every re-miss re-runs the 23 s
//! service), with an S3-class tier, and with an EBS-class tier. Evicted
//! records spill to storage; memory misses check the tier first.
//!
//! ```text
//! cargo run --release -p ecc-bench --bin ext_storage_tiers
//! ```

use ecc_bench::{paper_cfg, scale_arg, write_csv, PaperService};
use ecc_cloudsim::StorageTier;
use ecc_core::{ElasticCache, WindowConfig};
use ecc_workload::driver::QueryStream;
use ecc_workload::keys::KeyDist;
use ecc_workload::schedule::RateSchedule;

fn main() {
    let scale = scale_arg();
    let steps: u64 = ((600f64 * scale) as u64).max(60);
    println!("Extension: storage-tier sweep, {steps} time steps, m = 100 window (scale {scale})\n");

    let service = PaperService::new(2010);
    let key_space = 32 * 1024u64;

    println!(
        "{:>10} {:>9} {:>10} {:>10} {:>11} {:>12} {:>12}",
        "tier", "speedup", "svc calls", "tier hits", "tier cost $", "compute $", "avg query s"
    );
    let mut rows = Vec::new();
    let mut run = |name: &str, tier: Option<StorageTier>| {
        let mut cfg = paper_cfg(key_space, Some(WindowConfig::paper(100)));
        cfg.overflow_tier = tier;
        // Run inline (not via the shared runner) so the cache — and its
        // tier state — survives for the cost report.
        let mut cache = ElasticCache::new(cfg);
        let stream = QueryStream::new(
            RateSchedule::paper_eviction_phases(),
            KeyDist::uniform(key_space),
            7,
        );
        let mut cur = 0u64;
        for (step, key) in stream.take_steps(steps) {
            while cur < step {
                cache.end_time_step();
                cur += 1;
            }
            let uncached = service.uncached_us(key);
            cache.query(key, uncached, || service.record(key));
        }
        let m = cache.metrics();
        let tier_cost = cache.tier_cost_microdollars() as f64 / 1e6;
        let compute = cache.cloud().billing(cache.clock().now_us()).dollars();
        println!(
            "{name:>10} {:>9.2} {:>10} {:>10} {:>11.3} {:>12.2} {:>12.2}",
            m.speedup(),
            m.misses - m.tier_hits,
            m.tier_hits,
            tier_cost,
            compute,
            m.avg_query_secs()
        );
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", m.speedup()),
            (m.misses - m.tier_hits).to_string(),
            m.tier_hits.to_string(),
            format!("{tier_cost:.6}"),
            format!("{compute:.4}"),
            format!("{:.4}", m.avg_query_secs()),
        ]);
    };

    run("none", None);
    run("s3", Some(StorageTier::s3_2010()));
    run("ebs", Some(StorageTier::ebs_2010()));

    let csv_path = write_csv(
        "ext_storage_tiers.csv",
        "tier,speedup,service_calls,tier_hits,tier_cost_dollars,compute_dollars,avg_query_secs",
        &rows,
    )
    .expect("write results");
    println!("wrote {}", csv_path.display());

    println!("\nreading it: a tier turns every re-miss of an evicted record (23 s of service");
    println!("time) into a storage fetch (ms) for cents of storage — the §IV-D trade-off.");
    println!("EBS fetches are faster and requests cheaper; S3 charges more per request but");
    println!("is simpler to share. Either dominates re-derivation for this service.");
}
