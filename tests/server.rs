//! Loopback tests of the sweep server: the determinism contract (batch
//! results bit-identical to serial `run_grid_layouts` at any worker
//! width), reconnect replay, error handling and failure containment,
//! request-size bounds, wire latency, cancellation, and drain.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use avr::arch::{DesignKind, LayoutKind, SimPool, SystemConfig};
use avr::server::{base_config, metrics_to_json, Client, Json, SweepServer, MAX_REQUEST_LINE};
use avr::sim::RunMetrics;
use avr::types::{BackendKind, BenchScale, CellSpec};
use avr::workloads::{
    all_benchmarks, run_grid_layouts, run_on_design_in, workload_by_name, GridRun, Workload,
};

/// The serial reference: `run_grid_layouts` on one worker, with the
/// backend pinned exact the way the wire layer pins it (`CellSpec::config`
/// defaults to exact so server results never depend on the server's own
/// `AVR_BACKEND` environment).
fn serial_reference(designs: &[DesignKind], layouts: &[LayoutKind]) -> Vec<GridRun> {
    let mut cfg = SystemConfig::tiny();
    cfg.error_model.backend = Some(BackendKind::Exact);
    let suite = all_benchmarks(BenchScale::Tiny);
    run_grid_layouts(&SimPool::new(1), &suite, &cfg, designs, layouts)
}

/// The same cells `run_grid_layouts` enumerates — workload-major,
/// layout-mid, design-minor, layouts intersected with each workload's
/// supported set — as wire specs.
fn grid_cells(designs: &[DesignKind], layouts: &[LayoutKind]) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in all_benchmarks(BenchScale::Tiny) {
        for &layout in layouts.iter().filter(|l| w.layouts().contains(l)) {
            for &design in designs {
                let mut cell = CellSpec::new(w.name());
                cell.design = design;
                cell.layout = layout;
                cells.push(cell);
            }
        }
    }
    cells
}

/// Render a serial result the way the server renders it on the wire.
fn reference_line(run: &GridRun) -> String {
    metrics_to_json(&run.metrics).render()
}

#[test]
fn batches_are_bit_identical_to_serial_grid_runs_at_widths_1_and_4() {
    let designs = [DesignKind::Avr];
    let layouts = LayoutKind::ALL;
    let serial = serial_reference(&designs, &layouts);
    let cells = grid_cells(&designs, &layouts);
    assert_eq!(serial.len(), cells.len(), "cell enumeration must match the grid runner");

    for width in [1usize, 4] {
        let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(width)).unwrap();
        let (addr, handle) = server.spawn();
        let mut client = Client::connect(addr).unwrap();
        let job = client.submit(cells.clone()).unwrap();
        let outcome = client.collect_job(job).unwrap();
        assert_eq!(outcome.completed as usize, cells.len(), "width {width}");
        assert_eq!(outcome.cancelled, 0);
        for (i, run) in serial.iter().enumerate() {
            let event = outcome.results[i]
                .as_ref()
                .unwrap_or_else(|| panic!("width {width}: cell {i} ({}) missing", run.workload));
            assert_eq!(
                event.get("metrics").unwrap().render(),
                reference_line(run),
                "width {width}: cell {i} ({} {:?} {:?}) is not bit-identical",
                run.workload,
                run.design,
                run.layout,
            );
        }
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}

#[test]
fn disconnect_mid_batch_then_reconnect_replays_the_full_stream() {
    let designs = [DesignKind::Baseline, DesignKind::Avr];
    let layouts = [LayoutKind::Soa];
    let serial = serial_reference(&designs, &layouts);
    let cells = grid_cells(&designs, &layouts);

    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(1)).unwrap();
    let (addr, handle) = server.spawn();
    let job = {
        // Scope drop = abrupt disconnect after the first streamed result.
        let mut client = Client::connect(addr).unwrap();
        let job = client.submit(cells.clone()).unwrap();
        let first = client.next_event().unwrap();
        assert_eq!(first.get("event").and_then(Json::as_str), Some("result"));
        job
    };

    let mut client = Client::connect(addr).unwrap();
    let ack = client.results(job, 0).unwrap();
    assert_eq!(ack.get("cells").and_then(Json::as_u64), Some(cells.len() as u64));
    let outcome = client.collect_job(job).unwrap();
    assert_eq!(outcome.completed as usize, cells.len());
    for (i, run) in serial.iter().enumerate() {
        let event = outcome.results[i].as_ref().unwrap();
        assert_eq!(
            event.get("metrics").unwrap().render(),
            reference_line(run),
            "replayed cell {i} ({}) is not bit-identical",
            run.workload,
        );
    }

    // Resuming from a later cell replays only the tail.
    let from = cells.len() - 3;
    client.results(job, from).unwrap();
    let mut tail = Vec::new();
    loop {
        let event = client.next_event().unwrap();
        match event.get("event").and_then(Json::as_str) {
            Some("result") => tail.push(event.get("cell").and_then(Json::as_u64).unwrap()),
            Some("job_done") => break,
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(tail, (from as u64..cells.len() as u64).collect::<Vec<_>>());

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn malformed_and_invalid_requests_get_error_replies_without_wedging() {
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(1)).unwrap();
    let (addr, handle) = server.spawn();

    // Raw socket: drive the wire by hand.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let send = |reader: &mut BufReader<TcpStream>, line: &str| {
        let mut w = &stream;
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Json::parse(reply.trim()).unwrap()
    };

    for bad in [
        "this is not json",
        "{\"cells\":[]}",
        "{\"cmd\":\"fly\"}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"design\":\"warp\"}]}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"design\":\"memo\"}]}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"design\":\"memo_in\"}]}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"warp\"}]}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"layout\":\"partitioned\"}]}",
        "{\"cmd\":\"cancel\",\"job\":999}",
        "{\"cmd\":\"results\",\"job\":999}",
    ] {
        let reply = send(&mut reader, bad);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
        assert!(reply.get("error").is_some(), "{bad}");
    }
    // Out-of-range overrides are refused at submit with an error naming
    // the field — one case per validated knob (JSON has no NaN literal;
    // 1e999 parses to infinity).
    for (field, value) in [
        ("t1", "-1"),
        ("t1", "1.5"),
        ("t2", "0"),
        ("t2", "1e999"),
        ("retention_fail_per_bit", "1.5"),
        ("refresh_multiplier", "0"),
        ("mram_p01", "-0.5"),
        ("mram_p10", "2"),
    ] {
        let bad = format!(
            "{{\"cmd\":\"submit\",\"cells\":[{{\"workload\":\"orbit\",\"{field}\":{value}}}]}}"
        );
        let reply = send(&mut reader, &bad);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
        let error = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(&format!("{field} = ")), "{bad}: {error}");
    }
    // The unknown-workload error names the registry.
    let reply = send(&mut reader, "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"warp\"}]}");
    assert!(reply.get("error").unwrap().as_str().unwrap().contains("heat"));
    // The unknown-design error names the offending label.
    let reply = send(
        &mut reader,
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"design\":\"memo\"}]}",
    );
    assert!(reply.get("error").unwrap().as_str().unwrap().contains("memo"));

    // The connection is still healthy: valid submits go through — including
    // the memoization designs under their real wire labels.
    for cells in [
        "[{\"workload\":\"heat\"}]",
        "[{\"workload\":\"heat\",\"design\":\"memoin\"},{\"workload\":\"heat\",\"design\":\"memoout\"}]",
    ] {
        let n = cells.matches("workload").count() as u64;
        let reply = send(&mut reader, &format!("{{\"cmd\":\"submit\",\"cells\":{cells}}}"));
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{cells}");
        let job = reply.get("job").and_then(Json::as_u64).unwrap();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let event = Json::parse(line.trim()).unwrap();
            if event.get("event").and_then(Json::as_str) == Some("job_done") {
                assert_eq!(event.get("job").and_then(Json::as_u64), Some(job));
                assert_eq!(event.get("completed").and_then(Json::as_u64), Some(n));
                break;
            }
        }
    }

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// Marks the cell [`panic_on_marked_seed`] panics on.
const PANIC_SEED: u64 = 0xdead;

/// `run_on_design_in`, except that a cell with the marked fault seed
/// panics, as a simulator bug would.
fn panic_on_marked_seed(
    workload: &dyn Workload,
    cfg: &SystemConfig,
    design: DesignKind,
    layout: LayoutKind,
) -> RunMetrics {
    assert_ne!(cfg.error_model.seed, PANIC_SEED, "injected cell failure");
    run_on_design_in(workload, cfg, design, layout)
}

/// The direct-run result of `cell`, rendered as the wire renders it.
fn direct_line(cell: &CellSpec) -> String {
    let workload = workload_by_name(&cell.workload, cell.scale).unwrap();
    let cfg = cell.config(&base_config(cell.scale));
    metrics_to_json(&run_on_design_in(workload.as_ref(), &cfg, cell.design, cell.layout)).render()
}

#[test]
fn a_panicking_cell_fails_alone_and_the_engine_keeps_serving() {
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(2))
        .unwrap()
        .with_runner(panic_on_marked_seed);
    let (addr, handle) = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    let mut bad = CellSpec::new("orbit");
    bad.seed = Some(PANIC_SEED);
    let good = CellSpec::new("heat");
    let job = client.submit(vec![bad, good.clone()]).unwrap();
    let mut error = None;
    loop {
        let event = client.next_event().unwrap();
        match event.get("event").and_then(Json::as_str) {
            Some("cell_error") => error = Some(event),
            Some("result") => assert_eq!(event.get("cell").and_then(Json::as_u64), Some(1)),
            Some("job_done") => {
                assert_eq!(event.get("completed").and_then(Json::as_u64), Some(1));
                assert_eq!(event.get("failed").and_then(Json::as_u64), Some(1));
                assert_eq!(event.get("cancelled").and_then(Json::as_u64), Some(0));
                break;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    let error = error.expect("the panicking cell streams a cell_error event");
    assert_eq!(error.get("job").and_then(Json::as_u64), Some(job));
    assert_eq!(error.get("cell").and_then(Json::as_u64), Some(0));
    let message = error.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains("injected cell failure"), "{message}");

    // A replay carries the failure too, and the client counts it.
    client.results(job, 0).unwrap();
    let outcome = client.collect_job(job).unwrap();
    assert_eq!((outcome.completed, outcome.failed, outcome.cancelled), (1, 1, 0));
    assert!(outcome.results[0].is_none(), "a failed cell has no result");

    // The engine survived: a valid cell on the same connection completes
    // and is byte-identical to a direct run.
    let job = client.submit(vec![CellSpec::new("orbit")]).unwrap();
    let outcome = client.collect_job(job).unwrap();
    assert_eq!((outcome.completed, outcome.failed), (1, 0));
    let metrics = outcome.results[0].as_ref().unwrap().get("metrics").unwrap().render();
    assert_eq!(metrics, direct_line(&CellSpec::new("orbit")));
    let status = client.status().unwrap();
    assert_eq!(status.get("failed_cells").and_then(Json::as_u64), Some(1));

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn an_over_long_request_line_is_refused_and_the_server_keeps_serving() {
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(1)).unwrap();
    let (addr, handle) = server.spawn();

    // One byte past the limit, no newline: the server reads exactly this
    // much, replies, and closes the connection.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]).unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let reply = Json::parse(reply.trim()).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains(&MAX_REQUEST_LINE.to_string()), "the error states the limit: {error}");
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "the session closes");

    // A line that is not UTF-8 gets an error reply without ending the
    // session, and a request of exactly the limit is still read.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = b"{\"cmd\":\"status\"}".to_vec();
    line.resize(MAX_REQUEST_LINE, b' ');
    line.push(b'\n');
    for (request, ok) in [(&b"\xff\xfe\n"[..], false), (&line[..], true)] {
        stream.write_all(request).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let reply = Json::parse(reply.trim()).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(ok), "{reply:?}");
    }

    // A fresh connection is served normally.
    let mut client = Client::connect(addr).unwrap();
    let job = client.submit(vec![CellSpec::new("heat")]).unwrap();
    assert_eq!(client.collect_job(job).unwrap().completed, 1);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// A one-cell request must not wait on TCP timers. With Nagle's algorithm
/// on the server's sockets, the result line waited for the client's
/// delayed ACK of the submit ack (>= 40 ms on Linux) on every request.
/// Measured against a direct run of the same cell, so the bound holds in
/// debug builds and on the scalar codec arm alike.
#[test]
fn one_cell_round_trips_pay_no_delayed_ack_stall() {
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(1)).unwrap();
    let (addr, handle) = server.spawn();
    let mut client = Client::connect(addr).unwrap();
    let mut cell = CellSpec::new("kmeans");
    cell.design = DesignKind::Baseline;
    let workload = workload_by_name(&cell.workload, cell.scale).unwrap();
    let cfg = cell.config(&base_config(cell.scale));

    let mut overhead_ms = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let job = client.submit(vec![cell.clone()]).unwrap();
        assert_eq!(client.collect_job(job).unwrap().completed, 1);
        let round_trip = t.elapsed();
        let t = Instant::now();
        run_on_design_in(workload.as_ref(), &cfg, cell.design, cell.layout);
        let direct = t.elapsed();
        overhead_ms.push((round_trip.as_secs_f64() - direct.as_secs_f64()) * 1e3);
    }
    overhead_ms.sort_by(f64::total_cmp);
    let median = overhead_ms[overhead_ms.len() / 2];
    assert!(median < 20.0, "median round-trip overhead {median:.2} ms: {overhead_ms:?}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn cancel_mid_batch_keeps_finished_cells_and_skips_the_rest() {
    // Width 1 ⇒ cells execute one at a time, so a cancel sent right after
    // the first result leaves most of the batch unstarted.
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(1)).unwrap();
    let (addr, handle) = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    let mut cells = Vec::new();
    for name in ["fft", "lattice", "lbm", "wrf"] {
        for design in DesignKind::ALL {
            let mut cell = CellSpec::new(name);
            cell.design = design;
            cells.push(cell);
        }
    }
    let n = cells.len();
    let job = client.submit(cells).unwrap();
    let first = client.next_event().unwrap();
    assert_eq!(first.get("event").and_then(Json::as_str), Some("result"));
    client.cancel(job).unwrap();
    let outcome = client.collect_job(job).unwrap();
    assert_eq!(outcome.completed + outcome.cancelled, n as u64, "every cell accounted for");
    assert!(outcome.completed >= 1, "the streamed cell must be kept");
    assert!(outcome.cancelled >= 1, "cancel right after the first of {n} cells must skip some");
    // A fresh replay serves exactly the kept cells (the first result was
    // consumed pre-cancel above, so count via re-subscription).
    client.results(job, 0).unwrap();
    let mut kept = 0u64;
    loop {
        let event = client.next_event().unwrap();
        match event.get("event").and_then(Json::as_str) {
            Some("result") => kept += 1,
            Some("job_done") => break,
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(kept, outcome.completed, "kept results match the completed count");

    // The job stays queryable after cancellation.
    let status = client.status().unwrap();
    let jobs = status.get("jobs").and_then(Json::as_arr).unwrap();
    let entry = jobs
        .iter()
        .find(|j| j.get("job").and_then(Json::as_u64) == Some(job))
        .expect("cancelled job still listed");
    assert_eq!(entry.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(entry.get("cancelled").and_then(Json::as_u64), Some(outcome.cancelled));

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn drain_finishes_queued_work_then_refuses_submissions_and_exits() {
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(2)).unwrap();
    let (addr, handle) = server.spawn();
    let mut submitter = Client::connect(addr).unwrap();

    let mut cells = Vec::new();
    for design in DesignKind::ALL {
        let mut cell = CellSpec::new("heat");
        cell.design = design;
        cells.push(cell);
    }
    let job = submitter.submit(cells.clone()).unwrap();

    // Drain from a second connection while the batch is in flight.
    let mut controller = Client::connect(addr).unwrap();
    let reply = controller.drain().unwrap();
    assert_eq!(reply.get("phase").and_then(Json::as_str), Some("draining"));
    let err = controller.submit(cells).unwrap_err();
    assert!(err.to_string().contains("draining"), "{err}");
    drop(controller);

    // The in-flight job still completes in full on the submitter's stream.
    let outcome = submitter.collect_job(job).unwrap();
    assert_eq!(outcome.completed, DesignKind::ALL.len() as u64);
    assert_eq!(outcome.cancelled, 0);
    drop(submitter);

    // The server exits once the queue is dry; new connections are refused.
    handle.join().unwrap().unwrap();
    for _ in 0..50 {
        if TcpStream::connect(addr).is_err() {
            return;
        }
        thread::sleep(Duration::from_millis(20));
    }
    panic!("listener still accepting after drain");
}

#[test]
fn golden_cache_amortizes_repeated_submissions() {
    if std::env::var_os("AVR_NO_GOLDEN_CACHE").is_some() {
        return; // cache disabled: nothing to amortize
    }
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(1)).unwrap();
    let (addr, handle) = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    let batch = || {
        DesignKind::ALL
            .into_iter()
            .map(|d| {
                let mut c = CellSpec::new("kmeans");
                c.design = d;
                c
            })
            .collect::<Vec<_>>()
    };
    let job = client.submit(batch()).unwrap();
    client.collect_job(job).unwrap();
    let hits_before = golden_hits(&client.status().unwrap());
    let job = client.submit(batch()).unwrap();
    let outcome = client.collect_job(job).unwrap();
    let n = DesignKind::ALL.len() as u64;
    assert_eq!(outcome.completed, n);
    let hits_after = golden_hits(&client.status().unwrap());
    assert!(
        hits_after >= hits_before + n,
        "resubmitting {n} cells must hit the golden cache {n} more times ({hits_before} -> {hits_after})"
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

fn golden_hits(status: &Json) -> u64 {
    status.get("golden").unwrap().get("hits").and_then(Json::as_u64).unwrap()
}
