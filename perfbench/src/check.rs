//! The correctness gate: invariants every sealed report must satisfy,
//! and equality between reports of the same workload and seed.

use avmem_scenario::{ScenarioReport, ScenarioSpec};

/// Operations the report saw scheduled: fired anycasts and multicasts
/// plus those skipped for want of an online initiator.
pub fn ops_attempted(report: &ScenarioReport) -> u64 {
    report.anycast.sent + report.multicast.sent + report.skipped_ops
}

/// Every broken invariant of `report`, as readable lines.
pub fn invariants(spec: &ScenarioSpec, report: &ScenarioReport) -> Vec<String> {
    let mut broken = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            broken.push(what);
        }
    };
    let any = &report.anycast;
    let mc = &report.multicast;
    require(
        any.delivered <= any.sent,
        format!("anycast delivered {} > sent {}", any.delivered, any.sent),
    );
    require(
        any.delivered_in_truth <= any.delivered,
        format!(
            "anycast delivered in range by truth {} > delivered {}",
            any.delivered_in_truth, any.delivered
        ),
    );
    require(
        mc.entered <= mc.sent,
        format!("multicast entered {} > sent {}", mc.entered, mc.sent),
    );
    let reliability = mc.mean_reliability();
    require(
        (0.0..=1.0).contains(&reliability),
        format!("multicast reliability {reliability} outside [0,1]"),
    );
    for sample in &report.health {
        require(
            (0.0..=1.0).contains(&sample.largest_component),
            format!(
                "health sample at {} min: largest component {} outside [0,1]",
                sample.at_mins, sample.largest_component
            ),
        );
    }
    let expected_drawn = report.health.len() as u64 * spec.report.estimator_samples;
    require(
        report.estimator.drawn == expected_drawn,
        format!(
            "estimator drew {} samples, expected {} health samples x {}",
            report.estimator.drawn,
            report.health.len(),
            spec.report.estimator_samples
        ),
    );
    let counted: u64 = report.health.iter().map(|h| h.ops_since_last).sum();
    require(
        counted == ops_attempted(report),
        format!(
            "health series counts {counted} operations, the totals {}",
            ops_attempted(report)
        ),
    );
    require(
        ops_attempted(report) > 0,
        "no operation was scheduled".into(),
    );
    broken
}

/// Why two reports of the same workload and seed differ, if they do.
/// `ScenarioReport`'s `==` ignores timings, finalize counters and memory.
pub fn same_report(what: &str, a: &ScenarioReport, b: &ScenarioReport) -> Option<String> {
    (a != b).then(|| {
        format!(
            "{what}: reports differ (anycast {:?} vs {:?}, multicast sent {} vs {}, \
             health samples {} vs {})",
            (a.anycast.sent, a.anycast.delivered),
            (b.anycast.sent, b.anycast.delivered),
            a.multicast.sent,
            b.multicast.sent,
            a.health.len(),
            b.health.len()
        )
    })
}
