// Command wavebench is the repository's benchmark: it drives the real
// wavemind handler (internal/server) in-process over loopback HTTP with
// seeded closed-loop workloads, checks every result, and prints every
// metric by name with its unit. The last line of standard output is a
// JSON summary with the keys correct, attempted, failed and metrics.
//
//	bash wavebench/run.sh --workload ispd-cold --seed 1 --seconds 24 --trace 0
//
// run.sh builds the harness from source (this directory is its own
// module, replacing wavemin with the checkout it sits in) and keeps every
// file it writes under .bench_build/.
//
// # Workloads
//
// All three are closed loop: wavemind callers submit, then poll until
// their result is ready. Clients poll every pollInterval; there is no
// long-poll endpoint, so solver latencies are quantized to it.
//
//   - ispd-cold: one client sends cold (noCache) paper-default solves of
//     ispd09f34 with one seeded leaf's sink load raised. The MOSP solver
//     is most of every request; serving, caches and the power grid do
//     almost nothing. One circuit keeps the latency distribution
//     unimodal.
//   - eco-mix: two clients against an ECO server on s35932. Each
//     schedule block of eight holds one cold noCache solve, five
//     resubmissions the result cache answers, and two noCache 1-leaf ECO
//     deltas chained off the primed base job. MOSP is light; the work
//     spreads over request decoding, tree loading and hashing, golden
//     power-grid measurement, and the result and zone caches.
//   - fleet-yield: two clients against a durable coordinator (DataDir,
//     default batch fsync, no local execution) with two in-process
//     dispatch workers of one solver goroutine each. Each block of three
//     holds two cold noCache s13207 solves and one small noCache yield
//     request. Every job crosses the lease protocol and the journal
//     (persist-before-ack), and yield chunks fan out as sub-leases.
//
// The seed is an argument; the program sees only generated requests. The
// run prints the seed and a digest of the request schedule, so two runs
// can be shown to have sent identical input. -split heldout draws inputs
// from a seed space disjoint from the one the benchmark was tuned on, so
// a claim can be rechecked on inputs not used while writing it.
//
// # Correctness gate
//
// Set-up computes reference result bytes (Runtime zeroed) with in-process
// cold solves of every tree the schedule uses, and reference yield
// reports with a local runner. Cold results must equal their reference
// and report zonesReused == 0; hits must be byte-identical to the cached
// result; each ECO delta must equal a cold solve of its delta tree; yield
// reports must equal the reference for their seed; every result must
// satisfy After.WorstSkew ≤ κ. Non-2xx answers, failed, expired or
// degraded jobs, mismatches, a queue rejection, or a server solver-run
// count that does not match the requests sent make the run fail: they
// count in failed_ratio, set correct=false and exit non-zero.
//
// # End-to-end metrics (-trace 0)
//
// setup_s is the median of three repetitions of server and worker
// start, DataDir open, tree and body generation, reference solves and
// cache priming. jobs_per_s is verified requests per second of the timed
// phase. cold_p50_ms, hit_p50_ms, eco_p50_ms and yield_p50_ms are submit
// → result-bytes latencies per class, each printed with its tail: the
// highest percentile with at least ten samples beyond it. failed_ratio
// counts failures against requests attempted. peak_reduction_pct is the
// mean PeakReduction of cold results and yield_pct the winner's estimated
// yield (quality: must not drop). cpu_s_per_job, alloc_mb_per_job and
// rss_peak_mb are process CPU, allocation and peak resident set.
//
// Shared machines change speed by tens of percent from one minute to the
// next, and every time moves with them. So each end-to-end run times a
// fixed calibration unit (hashing, a sort, map inserts, dependent loads;
// no program code) on every processor in bursts with the workload idle:
// before set-up, and before, after and between the four segments the
// timed phase is cut into. setup_s, and jobs_per_s, every latency and
// cpu_s_per_job of each segment, are scaled by refUnit over the mean
// unit time of the bursts around them, so they read as figures on a
// machine that runs one unit in refUnit. A program change moves them; a
// change of the machine's speed moves the calibration as well and
// cancels. The unscaled setup_s, jobs_per_s, cold_p50_ms and
// cpu_s_per_job are printed beside them with a raw. prefix, and the unit
// times as calib.setup_unit_ms and calib.phase_unit_ms.
//
// The JSON summary carries the metrics every workload has and that hold
// steady between runs: setup_s, jobs_per_s, cold_p50_ms,
// peak_reduction_pct, cpu_s_per_job and alloc_mb_per_job. The per-class
// hit, eco and yield figures, the tails, failed_ratio and rss_peak_mb
// are printed above it; the summary's attempted and failed fields carry
// the failure accounting.
//
// # Per-layer metrics (-trace 1)
//
// The traced run measures one phase in which every second request of
// each class, starting with the first, asks for a per-job service trace,
// records benchmark-side spans (name, start, end, parent; kept in memory
// and written to .bench_build/wavebench at exit), then replays layer by
// layer from outside. Its times are not scaled. No span is added inside
// the program. Each metric, the end-to-end metric it should move, and
// where:
//
//   - Solver path, wavemin facade → internal/polarity → internal/mosp,
//     replayed serially per workload tree with the facade's effective
//     config; the replay must reach the service's assignment.
//     mosp.solve_ms moves cold_p50_ms and jobs_per_s on ispd-cold and
//     barely anything on eco-mix. polarity.candidates_ms,
//     polarity.intervals_ms and polarity.zone_build_ms move cold_p50_ms
//     and eco_p50_ms on eco-mix.
//   - Timing and golden measurement, internal/clocktree,
//     internal/waveform and internal/powergrid: clocktree.timing_ms,
//     measure.peak_ms and powergrid.noise_ms move eco_p50_ms and
//     cold_p50_ms on eco-mix and barely move ispd-cold.
//     layer.unattributed_ms is replay wall time minus the layer self
//     times.
//   - Request path, wavemin facade and internal/canon:
//     wavemin.decode_ms, wavemin.load_tree_ms, wavemin.cache_key_ms and
//     wavemin.result_encode_ms move hit_p50_ms on eco-mix.
//   - Solver counts from the service's own job trace (they repeat
//     exactly): mosp.labels_expanded, mosp.pruned, mosp.dedup_hits,
//     mosp.capped_layers, mosp.frontier, mosp.frontier_ratio,
//     polarity.zones, polarity.intervals_found and zone.candidates move
//     cold_p50_ms on ispd-cold; without a performance change
//     peak_reduction_pct stays put. The replay's label and frontier
//     totals must equal the trace's.
//   - Serving path, internal/server → internal/jobq → internal/dispatch,
//     from job-view timestamps: server.queue_wait_ms, server.run_ms and
//     client.overhead_ms (HTTP plus poll quantization) move every latency
//     on eco-mix and fleet-yield. From MetricsSnapshot deltas:
//     server.solver_runs and jobq.rejected (gated), dispatch.leases,
//     dispatch.requeues, dispatch.stale_rejected and
//     dispatch.completions_per_lease move cold_p50_ms and jobs_per_s on
//     fleet-yield.
//   - Caches and durability, internal/rescache, internal/zonecache,
//     internal/castore, internal/wal: rescache.hit_ratio and
//     rescache.evictions move hit_p50_ms; eco.reuse_ratio moves
//     eco_p50_ms; castore.put_ms and castore.get_ms time the result
//     store from outside (noCache jobs skip the store, so the timed
//     phases write none and a put count would always read 0).
//   - Yield mode, internal/yield → internal/variation: yield.chunks,
//     yield.samples_saved and yield.early_stops from the server, and the
//     in-process replay's yield.candidates_ms and yield.mc_ms, move
//     yield_p50_ms on fleet-yield.
//   - Process: gc.cycles_per_job and gc.pause_ms move alloc_mb_per_job
//     and the tails. trace.overhead_ms and trace.overhead_pct are the
//     traced cold requests' p50 minus the untraced ones', from the same
//     phase, so drift of the machine's speed affects both alike.
//
// A metric that does not apply to a workload reads 0 there.
//
// How they interact: with one client and nothing contending, a faster
// MOSP saves at most mosp.solve_ms's share of ispd-cold, and eco-mix cold
// and ECO latency are predicted unchanged. On eco-mix and fleet-yield two
// clients share two cores, so CPU freed in powergrid, decoding or hashing
// also shortens the other client's queue wait, and latency can fall by
// more than that layer's share. As the queue gets busier, tail latency
// rises before jobs_per_s stops rising.
//
// # Out of scope
//
// internal/cts, internal/bench and internal/cell run in set-up only.
// internal/multimode and internal/adb, internal/shard, internal/spice and
// internal/xorpol are deliberately unmeasured: these workloads target the
// single-mode solver and the serving path.
package main
