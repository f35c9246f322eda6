//! Parity of every parallel execution layer against its serial reference,
//! on real recorded traces of both bundled applications.
//!
//! The parallelism issue's acceptance criterion: lane- and
//! segment-parallel execution must be **proven identical** to the serial
//! pass — curves point for point, sidecars byte for byte, replay counters
//! field for field — not merely statistically close. Four claims are
//! pinned here, each on tiny MPEG-2 *and* tiny JPEG+Canny:
//!
//! * **Profiling lanes**: [`profile_trace_windowed_lanes`] on four
//!   workers equals the serial [`profile_trace_windowed`] for the
//!   whole-run curves and for access-count windows, point for point.
//! * **Sidecar byte-identity**: the sidecar written by the lane-parallel
//!   pass is byte-identical to the serially written one.
//! * **Segment-parallel L1 filtering composes**: a trace filtered on
//!   three per-processor workers profiles (serially and on lanes) to
//!   exactly the serial filter's curves.
//! * **Replay lanes under all four organisations**: laned replays match
//!   the serial replay on every cache-side counter, with the documented
//!   [`LaneDecision`] per organisation — a real split for the
//!   set-partitioned scenario, a reported fallback for the other three —
//!   and *requiring* lanes on an ineligible scenario is a typed error.
//!
//! A fifth claim pins the serial filter pass itself: streaming the
//! encoded records straight into the L1s yields exactly the refills and
//! L1 statistics of the runs-based per-processor pass, on a generated zoo
//! mix (tiny runs, every access L2-bound), on a trace whose runs cross
//! segment seams, and on both tiny recordings.

use std::fs;
use std::sync::Arc;

use compmem::experiment::{
    run_replay, Experiment, ExperimentConfig, ReplayParallelism, ScenarioSpec,
};
use compmem::{CoreError, WindowConfig};
use compmem_cache::{
    CacheConfig, CacheSizeLattice, OrganizationSpec, PartitionKey, PartitionMap, WayAllocation,
};
use compmem_platform::PlatformConfig;
use compmem_platform::{
    profile_trace, profile_trace_windowed, profile_trace_windowed_lanes,
    profile_trace_with_sidecar, profile_trace_with_sidecar_lanes, LaneIneligibility, PlatformError,
    PreparedTrace, SidecarOutcome,
};
use compmem_trace::codec::{EncodedTrace, TraceWriter};
use compmem_trace::gen::{generate, GenKind, GenSpec, GenTask};
use compmem_trace::{Access, Addr, RegionId, RegionKind, RegionTable, TaskId};
use compmem_workloads::apps::{
    jpeg_canny_app, mpeg2_app, Application, JpegCannyParams, Mpeg2Params,
};

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        l2: CacheConfig::with_size_bytes(64 * 1024, 4).unwrap(),
        sets_per_unit: 4,
        ..ExperimentConfig::default()
    }
}

fn mpeg2_experiment() -> Experiment<impl Fn() -> Application> {
    let params = Mpeg2Params::tiny();
    Experiment::new(tiny_config(), move || {
        mpeg2_app(&params).expect("valid parameters")
    })
}

fn jpeg_experiment() -> Experiment<impl Fn() -> Application> {
    let params = JpegCannyParams::tiny();
    Experiment::new(tiny_config(), move || {
        jpeg_canny_app(&params).expect("valid parameters")
    })
}

fn recorded_shared_trace(experiment: &Experiment<impl Fn() -> Application>) -> Arc<PreparedTrace> {
    let (_, trace) = experiment
        .record_trace(&experiment.shared_spec())
        .expect("recording the shared baseline succeeds");
    trace
}

/// The four organisations exactly as the CLI builds them, each with the
/// lane fallback a four-worker request must resolve to. Way partitioning
/// is ineligible here because an equal split of more keys than ways
/// necessarily shares ways between keys — asserted, not assumed.
fn four_organisations(
    l2: CacheConfig,
    table: &RegionTable,
) -> Vec<(&'static str, OrganizationSpec, Option<LaneIneligibility>)> {
    let keys = PartitionKey::distinct_keys(table);
    assert!(
        keys.len() > l2.geometry().ways() as usize,
        "expected more partition keys than ways so the equal way split overlaps"
    );
    vec![
        (
            "shared",
            OrganizationSpec::Shared,
            Some(LaneIneligibility::SharedOrganization),
        ),
        (
            "set-partitioned",
            OrganizationSpec::SetPartitioned(
                PartitionMap::equal_split(l2.geometry(), &keys).unwrap(),
            ),
            None,
        ),
        (
            "way-partitioned",
            OrganizationSpec::WayPartitioned(WayAllocation::equal_split(l2.geometry(), &keys)),
            Some(LaneIneligibility::OverlappingWayMasks),
        ),
        (
            "profiling",
            OrganizationSpec::Profiling(CacheSizeLattice::new(l2.geometry(), 4)),
            Some(LaneIneligibility::ProfilingOrganization),
        ),
    ]
}

fn assert_lane_profiling_parity(experiment: &Experiment<impl Fn() -> Application>, app_name: &str) {
    let trace = recorded_shared_trace(experiment);
    let platform = &experiment.config().platform;
    let resolution = experiment.curve_resolution();

    // Whole-run curves and access-count windows: the lane merge must
    // reproduce the serial pass point for point, not approximately.
    for (window_name, window) in [
        ("whole-run", WindowConfig::whole_run()),
        ("400-access windows", WindowConfig::accesses(400).unwrap()),
    ] {
        let serial = profile_trace_windowed(platform, &trace, resolution, window)
            .expect("serial profiling succeeds");
        let laned = profile_trace_windowed_lanes(platform, &trace, resolution, window, 4)
            .expect("lane profiling succeeds");
        assert_eq!(
            serial, laned,
            "{app_name}: lane-parallel {window_name} curves diverged from serial"
        );
    }

    // Sidecar byte-identity: the lane-measured sidecar encodes to exactly
    // the bytes of the serially measured one.
    let dir = std::env::temp_dir();
    let serial_path = dir.join(format!(
        "compmem-parity-{}-{app_name}-serial.curves",
        std::process::id()
    ));
    let laned_path = dir.join(format!(
        "compmem-parity-{}-{app_name}-lanes.curves",
        std::process::id()
    ));
    for path in [&serial_path, &laned_path] {
        let _ = fs::remove_file(path);
    }
    let window = WindowConfig::accesses(400).unwrap();
    let (_, serial_outcome) =
        profile_trace_with_sidecar(platform, &trace, resolution, window, &serial_path)
            .expect("serial sidecar write succeeds");
    let (_, laned_outcome) =
        profile_trace_with_sidecar_lanes(platform, &trace, resolution, window, &laned_path, 4)
            .expect("laned sidecar write succeeds");
    assert!(matches!(serial_outcome, SidecarOutcome::Written));
    assert!(matches!(laned_outcome, SidecarOutcome::Written));
    let serial_bytes = fs::read(&serial_path).expect("serial sidecar readable");
    let laned_bytes = fs::read(&laned_path).expect("laned sidecar readable");
    assert_eq!(
        serial_bytes, laned_bytes,
        "{app_name}: lane-written sidecar is not byte-identical to the serial one"
    );
    for path in [&serial_path, &laned_path] {
        let _ = fs::remove_file(path);
    }
}

#[test]
fn lane_profiling_matches_serial_on_tiny_mpeg2() {
    assert_lane_profiling_parity(&mpeg2_experiment(), "mpeg2");
}

#[test]
fn lane_profiling_matches_serial_on_tiny_jpeg_canny() {
    assert_lane_profiling_parity(&jpeg_experiment(), "jpeg_canny");
}

fn assert_filter_compose_parity(experiment: &Experiment<impl Fn() -> Application>, app_name: &str) {
    let trace = recorded_shared_trace(experiment);
    let platform = &experiment.config().platform;
    let resolution = experiment.curve_resolution();

    // Two independent PreparedTraces of the same recording, so each owns
    // an empty filter cache: one filters serially, the other on three
    // per-processor workers. Everything downstream — the serial profile
    // and the lane-parallel profile — must be identical on top of either.
    let serial_prep = PreparedTrace::from(trace.trace().clone());
    let parallel_prep = PreparedTrace::from(trace.trace().clone());
    parallel_prep
        .filtered_for_jobs(platform, 3)
        .expect("parallel L1 filtering succeeds");

    let serial_curves =
        profile_trace(platform, &serial_prep, resolution).expect("profiling succeeds");
    let composed_curves =
        profile_trace(platform, &parallel_prep, resolution).expect("profiling succeeds");
    assert_eq!(
        serial_curves, composed_curves,
        "{app_name}: curves behind the parallel L1 filter diverged from serial"
    );

    let window = WindowConfig::accesses(400).unwrap();
    let serial_windows = profile_trace_windowed(platform, &serial_prep, resolution, window)
        .expect("serial windowed profiling succeeds");
    let composed_windows =
        profile_trace_windowed_lanes(platform, &parallel_prep, resolution, window, 4)
            .expect("laned windowed profiling succeeds");
    assert_eq!(
        serial_windows, composed_windows,
        "{app_name}: lane profiling composed with the parallel filter diverged from serial"
    );
}

#[test]
fn parallel_l1_filter_composes_with_lane_profiling_on_tiny_mpeg2() {
    assert_filter_compose_parity(&mpeg2_experiment(), "mpeg2");
}

#[test]
fn parallel_l1_filter_composes_with_lane_profiling_on_tiny_jpeg_canny() {
    assert_filter_compose_parity(&jpeg_experiment(), "jpeg_canny");
}

fn assert_laned_replay_parity(experiment: &Experiment<impl Fn() -> Application>, app_name: &str) {
    let trace = recorded_shared_trace(experiment);
    let platform = &experiment.config().platform;
    let l2 = experiment.config().l2;
    let keys = PartitionKey::distinct_keys(trace.table());

    for (org_name, organization, expected_fallback) in four_organisations(l2, trace.table()) {
        let serial_spec = ScenarioSpec::replay(l2, organization.clone(), trace.clone());
        let laned_spec = ScenarioSpec::replay(l2, organization, trace.clone())
            .with_parallelism(ReplayParallelism::lanes(4).with_segment_jobs(2));

        let serial = run_replay(platform, &serial_spec).expect("serial replay succeeds");
        let laned = run_replay(platform, &laned_spec).expect("laned replay succeeds");

        // Cache-side counters are lane-exact under every organisation —
        // a real split where eligible, a reported serial lane otherwise.
        assert_eq!(
            serial.report.l1, laned.report.l1,
            "{app_name}/{org_name}: L1"
        );
        assert_eq!(
            serial.report.l2, laned.report.l2,
            "{app_name}/{org_name}: L2"
        );
        assert_eq!(
            serial.report.l2_by_task, laned.report.l2_by_task,
            "{app_name}/{org_name}: per-task L2"
        );
        assert_eq!(
            serial.report.l2_by_region, laned.report.l2_by_region,
            "{app_name}/{org_name}: per-region L2"
        );
        assert_eq!(
            serial.report.dram_accesses, laned.report.dram_accesses,
            "{app_name}/{org_name}: DRAM accesses"
        );
        assert_eq!(
            serial.report.dram_writebacks, laned.report.dram_writebacks,
            "{app_name}/{org_name}: DRAM writebacks"
        );
        assert_eq!(
            serial.report.bus_bytes, laned.report.bus_bytes,
            "{app_name}/{org_name}: bus bytes"
        );
        assert_eq!(
            serial.by_key, laned.by_key,
            "{app_name}/{org_name}: per-key attribution"
        );

        // Lanes do not reconstruct the global timing interleaving.
        assert_eq!(laned.report.makespan_cycles, 0, "{app_name}/{org_name}");
        assert!(serial.report.makespan_cycles > 0, "{app_name}/{org_name}");

        // The decision is reported, never silent: serial replays carry
        // none, laned replays say what was requested, what ran, and why
        // a fallback happened when it did.
        assert_eq!(serial.lane_decision, None, "{app_name}/{org_name}");
        let decision = laned
            .lane_decision
            .unwrap_or_else(|| panic!("{app_name}/{org_name}: laned replay reported no decision"));
        assert_eq!(decision.requested, 4, "{app_name}/{org_name}");
        assert_eq!(
            decision.fallback, expected_fallback,
            "{app_name}/{org_name}"
        );
        let expected_lanes = if expected_fallback.is_none() {
            keys.len()
        } else {
            1
        };
        assert_eq!(decision.lanes, expected_lanes, "{app_name}/{org_name}");
    }
}

#[test]
fn laned_replays_match_serial_under_all_four_organisations_on_tiny_mpeg2() {
    assert_laned_replay_parity(&mpeg2_experiment(), "mpeg2");
}

#[test]
fn laned_replays_match_serial_under_all_four_organisations_on_tiny_jpeg_canny() {
    assert_laned_replay_parity(&jpeg_experiment(), "jpeg_canny");
}

#[test]
fn requiring_lanes_on_an_ineligible_scenario_is_a_typed_error() {
    let experiment = mpeg2_experiment();
    let trace = recorded_shared_trace(&experiment);
    let l2 = experiment.config().l2;

    let spec = ScenarioSpec::replay(l2, OrganizationSpec::Shared, trace)
        .with_parallelism(ReplayParallelism::required_lanes(4));
    match run_replay(&experiment.config().platform, &spec) {
        Err(CoreError::Platform(PlatformError::LanesIneligible { requested, reason })) => {
            assert_eq!(requested, 4);
            assert!(
                reason.contains("shared organisation"),
                "unexpected ineligibility reason: {reason}"
            );
        }
        other => panic!("expected a LanesIneligible error, got {other:?}"),
    }
}

/// The streamed serial filter pass (`filtered_for`: records decoded
/// straight into the L1s, no materialised runs) against the runs-based
/// per-processor pass (`filtered_for_jobs(…, 3)`), refill for refill and
/// counter for counter, on two independent preparations of one trace.
fn assert_streamed_filter_matches_runs_based(trace: &EncodedTrace, name: &str) {
    assert!(
        trace.processors() > 1,
        "{name}: the runs-based pass needs several processors to split"
    );
    let platform = PlatformConfig::default();
    let streamed = PreparedTrace::from(trace.clone())
        .filtered_for(&platform)
        .expect("streamed filtering succeeds");
    let runs_based = PreparedTrace::from(trace.clone())
        .filtered_for_jobs(&platform, 3)
        .expect("runs-based filtering succeeds");
    assert_eq!(
        streamed.runs.len() as u64,
        trace.summary().runs,
        "{name}: the streamed pass must follow the decoder's run rule"
    );
    assert_eq!(
        streamed.l1_aggregate, runs_based.l1_aggregate,
        "{name}: L1 aggregate statistics"
    );
    assert_eq!(streamed.runs, runs_based.runs, "{name}: filtered runs");
    assert_eq!(*streamed, *runs_based, "{name}");
}

#[test]
fn streamed_filter_matches_runs_based_on_a_generated_zoo_mix() {
    // The `zoo_mix` shape in miniature: a pointer chase larger than the L1
    // interleaved with four times as many streaming-scan accesses, so
    // runs are a handful of accesses long and nearly every access misses
    // the L1.
    let trace = generate(&GenSpec::mix(
        vec![
            GenTask {
                kind: GenKind::Chase {
                    working_set_bytes: 24 * 1024,
                },
                accesses: 3_000,
            },
            GenTask {
                kind: GenKind::Scan {
                    footprint_bytes: 256 * 1024,
                },
                accesses: 12_000,
            },
        ],
        42,
    ))
    .expect("valid zoo spec generates");
    assert!(
        trace.summary().runs * 3 > trace.accesses(),
        "runs average under three accesses"
    );
    assert_streamed_filter_matches_runs_based(&trace, "zoo mix");
    let filtered = PreparedTrace::from(trace.clone())
        .filtered_for(&PlatformConfig::default())
        .unwrap();
    let refills: u64 = filtered.runs.iter().map(|r| r.refills.len() as u64).sum();
    assert!(
        refills * 10 > trace.accesses() * 9,
        "nearly every access of the mix is L2-bound"
    );
}

#[test]
fn streamed_filter_matches_runs_based_across_segment_seams() {
    // Three processors issuing runs of 5–40 accesses into segments of 16
    // accesses: most runs straddle at least one seam, where the segment
    // reset must not split them.
    let mut table = RegionTable::new();
    for p in 0..3u32 {
        table
            .insert(
                format!("p{p}.data"),
                RegionKind::TaskData {
                    task: TaskId::new(p),
                },
                64 * 1024,
            )
            .unwrap();
    }
    let mut writer = TraceWriter::with_segment_accesses(Vec::new(), &table, 3, 16).unwrap();
    let mut cycle = 0u64;
    for run in 0..120u64 {
        let processor = (run % 3) as u32;
        let task = TaskId::new(processor);
        let base = table.region(RegionId::new(processor)).base.value();
        for i in 0..5 + (run * 7) % 36 {
            let addr = Addr::new(base + ((run * 13 + i * 5) % 700) * 24);
            let access = if i % 3 == 0 {
                Access::store(addr, 4, task, RegionId::new(processor))
            } else {
                Access::load(addr, 4, task, RegionId::new(processor))
            };
            writer.record(processor, cycle, &access);
            cycle += 1;
        }
    }
    let (bytes, _) = writer.finish().unwrap();
    let trace = EncodedTrace::from_bytes(bytes).unwrap();
    assert_eq!(trace.summary().runs, 120);
    assert!(trace.segment_count() > 100);
    assert_streamed_filter_matches_runs_based(&trace, "segment seams");
}

#[test]
fn streamed_filter_matches_runs_based_on_tiny_recordings() {
    for (name, trace) in [
        ("mpeg2", recorded_shared_trace(&mpeg2_experiment())),
        ("jpeg_canny", recorded_shared_trace(&jpeg_experiment())),
    ] {
        assert_streamed_filter_matches_runs_based(trace.trace(), name);
    }
}
