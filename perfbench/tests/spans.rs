//! Span bookkeeping, self-time arithmetic and the tracing-overhead
//! ratio.

use perfbench::outcome::Outcome;
use perfbench::span::{covered, self_time, trace_overhead, Span, Tracer};

fn span(name: &'static str, id: u64, parent: Option<usize>, start: u64, end: u64) -> Span {
    Span {
        name,
        id,
        parent,
        start,
        end,
    }
}

#[test]
fn covered_counts_overlaps_and_nesting_once() {
    assert_eq!(covered(&[]), 0);
    assert_eq!(covered(&[(0, 10), (20, 25)]), 15);
    // Overlapping, nested, touching and empty intervals.
    assert_eq!(covered(&[(0, 10), (5, 15), (6, 7), (15, 18), (30, 30)]), 18);
    // Order does not matter.
    assert_eq!(covered(&[(15, 18), (6, 7), (0, 10), (5, 15)]), 18);
}

#[test]
fn self_time_is_parent_minus_the_covered_union_of_children() {
    // A 100 ns parent with children [10, 40) and [30, 60): union 50.
    assert_eq!(self_time(100, &[(10, 40), (30, 60)]), 50);
    // Children replayed after the parent still count as its layer time.
    assert_eq!(self_time(100, &[(200, 230), (240, 260)]), 50);
    // Children covering more than the parent floor the self time at 0.
    assert_eq!(self_time(10, &[(0, 50)]), 0);
    assert_eq!(self_time(42, &[]), 42);
}

#[test]
fn tracer_self_time_uses_only_the_spans_own_children() {
    let mut t = Tracer::new();
    let step = t.push(span("core.step", 7, None, 0, 1_000));
    let other = t.push(span("core.step", 8, None, 1_000, 1_500));
    t.push(span("esd.discharge", 7, Some(step), 1_600, 1_700));
    t.push(span("esd.charge", 7, Some(step), 1_650, 1_800));
    t.push(span("esd.idle", 8, Some(other), 2_000, 2_100));
    assert_eq!(t.self_time(step, 0), 1_000 - 200);
    assert_eq!(t.self_time(other, 0), 400);
    // The floor shortens each child before the union is taken.
    assert_eq!(
        t.self_time(step, 50),
        1_000 - (1_600..1_650).len() as u64 - 100
    );
    assert_eq!(t.self_times("core.step", 0), vec![800.0, 400.0]);
    assert_eq!(t.mean_self_time("core.step", 0), 600.0);
    // Spans without children have no self time to report.
    let lone = t.push(span("core.step", 9, None, 3_000, 3_100));
    assert_eq!(t.self_times("core.step", 0).len(), 2);
    assert_eq!(t.mean_self_time("core.step", 0), 600.0);
    assert_eq!(t.self_time(lone, 0), 100);
}

#[test]
fn mean_self_time_floors_only_the_mean() {
    let mut t = Tracer::new();
    // Two 100 ns steps: children covering 150 ns (-50) and 20 ns (+80).
    let a = t.push(span("core.step", 0, None, 0, 100));
    let b = t.push(span("core.step", 1, None, 100, 200));
    t.push(span("powersys.drive", 0, Some(a), 300, 450));
    t.push(span("powersys.drive", 1, Some(b), 500, 520));
    assert_eq!(t.self_times("core.step", 0), vec![0.0, 80.0]);
    assert_eq!(t.mean_self_time("core.step", 0), 15.0);
    // A mean below zero reads zero; no spans with children read NaN.
    t.push(span("powersys.drive", 1, Some(b), 600, 800));
    assert_eq!(t.mean_self_time("core.step", 0), 0.0);
    assert!(t.mean_self_time("serve.round_trip", 0).is_nan());
}

#[test]
fn nested_spans_record_parents_and_shared_ids() {
    let mut t = Tracer::new();
    let outer = t.begin("fleet.scenario", 3, None);
    let inner = t.span("core.content_hash", 3, Some(outer), || {
        std::hint::black_box(5)
    });
    assert_eq!(inner, 5);
    t.end(outer);
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(outer));
    assert!(spans.iter().all(|s| s.id == 3));
    // The child lies inside its parent.
    assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    assert_eq!(t.children(outer).count(), 1);
    assert_eq!(t.durations("core.content_hash").len(), 1);
}

#[test]
fn spans_are_written_once_as_json_lines() {
    let mut t = Tracer::new();
    let p = t.push(span("core.step", 0, None, 1, 9));
    t.push(span("esd.idle", 0, Some(p), 10, 12));
    let dir = std::env::temp_dir().join(format!("perfbench-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("spans.jsonl");
    t.write_jsonl(&path).expect("write spans");
    let text = std::fs::read_to_string(&path).expect("read spans");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        text,
        "{\"name\":\"core.step\",\"id\":0,\"parent\":null,\"start_ns\":1,\"end_ns\":9}\n\
         {\"name\":\"esd.idle\",\"id\":0,\"parent\":0,\"start_ns\":10,\"end_ns\":12}\n"
    );
}

#[test]
fn trace_overhead_is_traced_over_untraced_wall_time() {
    assert_eq!(trace_overhead(1.5, 1.0), 1.5);
    assert_eq!(trace_overhead(0.9, 1.0), 0.9);
    // No untraced time: no ratio, and a result carrying it is refused.
    let ratio = trace_overhead(1.0, 0.0);
    assert!(ratio.is_nan());
    let mut out = Outcome::default();
    out.metric("telemetry.trace_overhead", ratio, "ratio");
    assert!(!out.correct());
}
