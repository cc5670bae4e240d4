package server

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"ltsp/internal/buildinfo"
	"ltsp/internal/obs"
)

// latencyBucketsMs are the upper bounds (milliseconds) of the request
// latency histogram; the last bucket is +Inf.
var latencyBucketsMs = [numBounds]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}

const numBounds = 13

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sumUs   atomic.Int64 // accumulated microseconds
	buckets [numBounds + 1]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.sumUs.Add(d.Microseconds())
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMs) && ms > latencyBucketsMs[i] {
		i++
	}
	h.buckets[i].Add(1)
	// The count goes last: snapshot loads it first, so a concurrent
	// snapshot's le_+Inf can lead the count but never trail it.
	h.count.Add(1)
}

// histogramJSON is the /metrics rendering of a histogram. Every
// histogram shares the same bucket bounds, documented once in the
// document's top-level latency_bounds_ms field rather than repeated
// per histogram.
type histogramJSON struct {
	Count   int64            `json:"count"`
	SumMs   float64          `json:"sum_ms"`
	MeanMs  float64          `json:"mean_ms"`
	Buckets map[string]int64 `json:"buckets"`
}

func (h *Histogram) snapshot() histogramJSON {
	out := histogramJSON{
		Count:   h.count.Load(),
		SumMs:   float64(h.sumUs.Load()) / 1000,
		Buckets: make(map[string]int64, len(h.buckets)),
	}
	if out.Count > 0 {
		out.MeanMs = out.SumMs / float64(out.Count)
	}
	// Buckets are stored disjoint but rendered cumulative (the "le_"
	// convention): le_+Inf always equals count.
	var cum int64
	for i := range h.buckets {
		label := "+Inf"
		if i < len(latencyBucketsMs) {
			label = formatBound(latencyBucketsMs[i])
		}
		cum += h.buckets[i].Load()
		out.Buckets["le_"+label] = cum
	}
	return out
}

func formatBound(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

// Metrics aggregates the service counters exposed at GET /metrics
// (expvar-style JSON, no external dependencies).
type Metrics struct {
	CompileRequests  atomic.Int64
	CompileErrors    atomic.Int64
	SimulateRequests atomic.Int64
	SimulateErrors   atomic.Int64
	// BatchRequests counts POST /v1/compile-batch calls; BatchItems the
	// loops submitted through them; BatchItemErrors the items that failed
	// (the batch itself still returns 200 with per-item errors).
	BatchRequests   atomic.Int64
	BatchItems      atomic.Int64
	BatchItemErrors atomic.Int64
	// Rejected counts requests turned away before doing work: queue-full,
	// oversized body, shutdown in progress, load shedding.
	Rejected atomic.Int64
	// Shed counts requests rejected by deadline-aware admission control
	// (a subset of Rejected): the shedder predicted the remaining deadline
	// could not be met, so the request was refused before consuming a
	// worker slot.
	Shed atomic.Int64
	// Timeouts counts requests abandoned at their deadline.
	Timeouts atomic.Int64
	// InFlight is the number of requests currently holding a worker slot.
	InFlight atomic.Int64

	// CacheHits counts lookups served from a completed cached artifact;
	// CacheDedups counts requests that piggybacked on an identical
	// compilation already in flight (singleflight); CacheMisses counts
	// compilations actually executed; CacheEvictions counts LRU drops.
	CacheHits      atomic.Int64
	CacheDedups    atomic.Int64
	CacheMisses    atomic.Int64
	CacheEvictions atomic.Int64

	// Disk-store layer, counted at the server's lookup sites (the store
	// keeps its own internal counters, reported in the /metrics "disk"
	// section): DiskHits are artifacts served from the persistent store
	// without recompiling; DiskWriteErrors are failed write-throughs (the
	// artifact stayed memory-only).
	DiskHits        atomic.Int64
	DiskMisses      atomic.Int64
	DiskWriteErrors atomic.Int64
	// Peer cache-fill layer: PeerHits are artifacts obtained from a
	// cluster peer instead of compiling; PeerMisses are fills that came
	// back empty (every peer missed, errored or timed out); PeerErrors
	// counts individual failed peer fetches (several can contribute to
	// one miss).
	PeerHits   atomic.Int64
	PeerMisses atomic.Int64
	PeerErrors atomic.Int64
	// Read-repair layer: RepairRuns counts repair evaluations scheduled
	// after an artifact creation; RepairPushes counts entries actually
	// replicated to an under-replicated peer; RepairSkipped counts peers
	// skipped because they already held the entry (or were dead);
	// RepairDropped counts repairs the token budget refused; RepairErrors
	// counts failed pushes.
	RepairRuns    atomic.Int64
	RepairPushes  atomic.Int64
	RepairSkipped atomic.Int64
	RepairDropped atomic.Int64
	RepairErrors  atomic.Int64
	// Anti-entropy layer: SyncRuns counts sync rounds (whole-membership
	// digest exchanges); SyncPulls counts artifacts pulled because a
	// replica peer held an owned key this node lacked; SyncErrors counts
	// failed digest/key/pull requests.
	SyncRuns   atomic.Int64
	SyncPulls  atomic.Int64
	SyncErrors atomic.Int64
	// Provenance layer: ProvenanceFailures counts store entries that no
	// longer matched their provenance record and were quarantined (deleted,
	// never served); ProvenanceMismatches counts sync keys whose remote
	// checksum disagreed with this node's provenance record (config drift
	// or a poisoned peer — the entry is not pulled).
	ProvenanceFailures   atomic.Int64
	ProvenanceMismatches atomic.Int64
	// ArtifactRequests counts GET /v2/artifacts/{hash} serves (peer
	// cache-fill traffic arriving at this node). Materializations counts
	// thin artifacts recompiled on demand for the simulate path.
	ArtifactRequests atomic.Int64
	Materializations atomic.Int64
	// Transfer byte accounting by negotiated wire encoding: bytes of
	// artifact envelopes served by GET /v2/artifacts/{hash}, and bytes of
	// artifact envelopes received by this node's peer cache-fills. These
	// report the true size of whatever encoding actually crossed the wire
	// (binary frames are counted as binary bytes, never re-expressed as
	// their JSON equivalent); storage-layer accounting, by contrast, is
	// always JSON-based (store.EncodedSize) so memory and disk weights
	// stay comparable across mixed-encoding fleets.
	ArtifactBytesJSON   atomic.Int64
	ArtifactBytesBinary atomic.Int64
	PeerBytesJSON       atomic.Int64
	PeerBytesBinary     atomic.Int64

	// VerifyRuns counts compilations put through sampled independent
	// verification; VerifyFailures counts the ones the verifier rejected
	// (each also fails the request with code "internal" and, when a repro
	// directory is configured, leaves a bundle on disk).
	VerifyRuns     atomic.Int64
	VerifyFailures atomic.Int64
	// PanicsRecovered counts panics caught at the containment boundaries
	// (compile flight, worker goroutines, batch items) and converted into
	// error envelopes instead of crashing the process.
	PanicsRecovered atomic.Int64

	// Pipeliner outcomes, incremented once per compilation actually
	// executed (cache hits and singleflight piggybacks do not recount).
	OutcomePipelined      atomic.Int64
	OutcomeReducedLatency atomic.Int64
	OutcomeRaisedII       atomic.Int64
	OutcomeSequential     atomic.Int64
	// outcomesByBackend splits the outcome counters by scheduling backend
	// (heuristic/exact/oracle), lazily keyed by the backend label so a
	// newly registered backend needs no metrics change. The aggregate
	// counters above are authoritative; this map is the per-backend view.
	outcomesByBackend sync.Map // string -> *backendOutcomes

	CompileLatency  Histogram
	SimulateLatency Histogram
	BatchLatency    Histogram
	// PeerFillLatency observes successful peer cache-fills, first request
	// byte to verified artifact.
	PeerFillLatency Histogram

	// Per-stage latency histograms: where a request's wall clock goes
	// inside the serving pipeline. Observed on every request (traced or
	// not) at the stage sites themselves — queue wait in acquire, memory
	// lookup in the artifact cache, disk reads, each hedged peer-fill leg,
	// compile, and sampled verification.
	StageQueueWait Histogram
	StageMemLookup Histogram
	StageDiskRead  Histogram
	StagePeerLeg   Histogram
	StageCompile   Histogram
	StageVerify    Histogram
}

// backendOutcomes is one backend's slice of the outcome counters.
type backendOutcomes struct {
	Pipelined      atomic.Int64
	ReducedLatency atomic.Int64
	RaisedII       atomic.Int64
	Sequential     atomic.Int64
}

func (b *backendOutcomes) count(outcome string) {
	switch outcome {
	case obs.OutcomePipelined:
		b.Pipelined.Add(1)
	case obs.OutcomeReducedLatency:
		b.ReducedLatency.Add(1)
	case obs.OutcomeRaisedII:
		b.RaisedII.Add(1)
	case obs.OutcomeSequential:
		b.Sequential.Add(1)
	}
}

// CountOutcome bumps the counter matching an obs.Outcome* string, both
// in aggregate and under the scheduling backend's label ("" is
// normalized to "heuristic").
func (m *Metrics) CountOutcome(backend, outcome string) {
	switch outcome {
	case obs.OutcomePipelined:
		m.OutcomePipelined.Add(1)
	case obs.OutcomeReducedLatency:
		m.OutcomeReducedLatency.Add(1)
	case obs.OutcomeRaisedII:
		m.OutcomeRaisedII.Add(1)
	case obs.OutcomeSequential:
		m.OutcomeSequential.Add(1)
	}
	if backend == "" {
		backend = "heuristic"
	}
	bo, ok := m.outcomesByBackend.Load(backend)
	if !ok {
		bo, _ = m.outcomesByBackend.LoadOrStore(backend, &backendOutcomes{})
	}
	bo.(*backendOutcomes).count(outcome)
}

// snapshotByBackend renders the per-backend outcome split; map keys are
// the backend labels (encoding/json emits them sorted).
func (m *Metrics) snapshotByBackend() map[string]outcomesJSON {
	out := map[string]outcomesJSON{}
	m.outcomesByBackend.Range(func(k, v any) bool {
		bo := v.(*backendOutcomes)
		out[k.(string)] = outcomesJSON{
			Pipelined:      bo.Pipelined.Load(),
			ReducedLatency: bo.ReducedLatency.Load(),
			RaisedII:       bo.RaisedII.Load(),
			Sequential:     bo.Sequential.Load(),
		}
		return true
	})
	return out
}

// buildInfoJSON is the /metrics build_info block.
type buildInfoJSON struct {
	Version string `json:"version"`
	Go      string `json:"go"`
}

// outcomesJSON is the /metrics compile_outcomes block, keyed to match the
// obs.Outcome* strings.
type outcomesJSON struct {
	Pipelined      int64 `json:"pipelined"`
	ReducedLatency int64 `json:"fallback_reduced_latency"`
	RaisedII       int64 `json:"fallback_raised_ii"`
	Sequential     int64 `json:"sequential"`
}

// diskJSON is the /metrics "disk" section: the persistent artifact
// store's own accounting. Entries/bytes use the same byte accounting as
// the in-memory cache section, so the layers are directly comparable.
type diskJSON struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Writes    int64 `json:"writes"`
	Evictions int64 `json:"evictions"`
	Corrupt   int64 `json:"corrupt"`
	Scans     int64 `json:"scans"`
}

// clusterJSON is the /metrics "cluster" section.
type clusterJSON struct {
	Self        string `json:"self"`
	Peers       int    `json:"peers"` // ring size
	Replication int    `json:"replication"`
	// Health prober / membership accounting.
	PeersAlive    int           `json:"peers_alive"`
	PeersDead     int           `json:"peers_dead"`
	RingSwaps     int64         `json:"ring_swaps"`
	ResolveErrors int64         `json:"resolve_errors"`
	PeerHits      int64         `json:"peer_hits"`
	PeerMisses    int64         `json:"peer_misses"`
	PeerErrors    int64         `json:"peer_errors"`
	RepairRuns    int64         `json:"repair_runs"`
	RepairPushes  int64         `json:"repair_pushes"`
	RepairSkipped int64         `json:"repair_skipped"`
	RepairDropped int64         `json:"repair_dropped"`
	RepairErrors  int64         `json:"repair_errors"`
	SyncRuns      int64         `json:"sync_runs"`
	SyncPulls     int64         `json:"sync_pulls"`
	SyncErrors    int64         `json:"sync_errors"`
	FillLatency   histogramJSON `json:"fill_latency"`
}

// provenanceJSON is the /metrics "provenance" section: the tamper-evident
// creation log's own accounting plus the quarantine counters.
type provenanceJSON struct {
	Records        int64 `json:"records"`
	Batches        int   `json:"batches"`
	Dropped        int64 `json:"dropped"`
	Failures       int64 `json:"failures"`
	PeerMismatches int64 `json:"peer_mismatches"`
}

// stagesJSON is the /metrics "stage_latency" block: one histogram per
// pipeline stage, keyed by stage name.
type stagesJSON struct {
	QueueWait histogramJSON `json:"queue_wait"`
	MemLookup histogramJSON `json:"mem_lookup"`
	DiskRead  histogramJSON `json:"disk_read"`
	PeerLeg   histogramJSON `json:"peer_leg"`
	Compile   histogramJSON `json:"compile"`
	Verify    histogramJSON `json:"verify"`
}

// metricsJSON is the /metrics document. LatencyBounds documents the
// shared histogram bucket upper bounds exactly once; every histogram's
// buckets map uses these bounds cumulatively (le_ convention).
type metricsJSON struct {
	BuildInfo           buildInfoJSON `json:"build_info"`
	UptimeSeconds       float64       `json:"uptime_seconds"`
	LatencyBounds       []float64     `json:"latency_bounds_ms"`
	CompileRequests     int64         `json:"compile_requests"`
	CompileErrors       int64         `json:"compile_errors"`
	SimulateRequests    int64         `json:"simulate_requests"`
	SimulateErrors      int64         `json:"simulate_errors"`
	BatchRequests       int64         `json:"batch_requests"`
	BatchItems          int64         `json:"batch_items"`
	BatchItemErrors     int64         `json:"batch_item_errors"`
	Rejected            int64         `json:"rejected"`
	Shed                int64         `json:"shed"`
	Timeouts            int64         `json:"timeouts"`
	InFlight            int64         `json:"in_flight"`
	CacheHits           int64         `json:"cache_hits"`
	CacheDedups         int64         `json:"cache_dedups"`
	CacheMisses         int64         `json:"cache_misses"`
	CacheEvictions      int64         `json:"cache_evictions"`
	CacheEntries        int           `json:"cache_entries"`
	CacheBytes          int64         `json:"cache_bytes"`
	CacheCapacity       int           `json:"cache_capacity"`
	DiskHits            int64         `json:"disk_hits"`
	DiskMisses          int64         `json:"disk_misses"`
	DiskWriteErrors     int64         `json:"disk_write_errors"`
	ArtifactRequests    int64         `json:"artifact_requests"`
	Materializations    int64         `json:"materializations"`
	ArtifactBytesJSON   int64         `json:"artifact_bytes_json"`
	ArtifactBytesBinary int64         `json:"artifact_bytes_binary"`
	PeerBytesJSON       int64         `json:"peer_fill_bytes_json"`
	PeerBytesBinary     int64         `json:"peer_fill_bytes_binary"`
	VerifyRuns          int64         `json:"verify_runs"`
	VerifyFailures      int64         `json:"verify_failures"`
	PanicsRecovered     int64         `json:"panics_recovered"`
	CompileOutcomes     outcomesJSON  `json:"compile_outcomes"`
	// CompileOutcomesByBackend splits the same counters by scheduling
	// backend label; absent until the first compilation lands.
	CompileOutcomesByBackend map[string]outcomesJSON `json:"compile_outcomes_by_backend,omitempty"`
	CompileLatency           histogramJSON           `json:"compile_latency"`
	SimulateLatency          histogramJSON           `json:"simulate_latency"`
	BatchLatency             histogramJSON           `json:"batch_latency"`
	Stages                   stagesJSON              `json:"stage_latency"`
	Disk                     *diskJSON               `json:"disk,omitempty"`
	Cluster                  *clusterJSON            `json:"cluster,omitempty"`
	Provenance               *provenanceJSON         `json:"provenance,omitempty"`
}

func (m *Metrics) snapshot(cache CacheStats, disk *diskJSON, cluster *clusterJSON, prov *provenanceJSON, uptime time.Duration) metricsJSON {
	return metricsJSON{
		BuildInfo: buildInfoJSON{
			Version: buildinfo.Version,
			Go:      buildinfo.GoVersion(),
		},
		UptimeSeconds:       uptime.Seconds(),
		LatencyBounds:       latencyBucketsMs[:],
		CompileRequests:     m.CompileRequests.Load(),
		CompileErrors:       m.CompileErrors.Load(),
		SimulateRequests:    m.SimulateRequests.Load(),
		SimulateErrors:      m.SimulateErrors.Load(),
		BatchRequests:       m.BatchRequests.Load(),
		BatchItems:          m.BatchItems.Load(),
		BatchItemErrors:     m.BatchItemErrors.Load(),
		Rejected:            m.Rejected.Load(),
		Shed:                m.Shed.Load(),
		Timeouts:            m.Timeouts.Load(),
		InFlight:            m.InFlight.Load(),
		CacheHits:           m.CacheHits.Load(),
		CacheDedups:         m.CacheDedups.Load(),
		CacheMisses:         m.CacheMisses.Load(),
		CacheEvictions:      m.CacheEvictions.Load(),
		CacheEntries:        cache.Entries,
		CacheBytes:          cache.Bytes,
		CacheCapacity:       cache.Capacity,
		DiskHits:            m.DiskHits.Load(),
		DiskMisses:          m.DiskMisses.Load(),
		DiskWriteErrors:     m.DiskWriteErrors.Load(),
		ArtifactRequests:    m.ArtifactRequests.Load(),
		Materializations:    m.Materializations.Load(),
		ArtifactBytesJSON:   m.ArtifactBytesJSON.Load(),
		ArtifactBytesBinary: m.ArtifactBytesBinary.Load(),
		PeerBytesJSON:       m.PeerBytesJSON.Load(),
		PeerBytesBinary:     m.PeerBytesBinary.Load(),
		VerifyRuns:          m.VerifyRuns.Load(),
		VerifyFailures:      m.VerifyFailures.Load(),
		PanicsRecovered:     m.PanicsRecovered.Load(),
		CompileOutcomes: outcomesJSON{
			Pipelined:      m.OutcomePipelined.Load(),
			ReducedLatency: m.OutcomeReducedLatency.Load(),
			RaisedII:       m.OutcomeRaisedII.Load(),
			Sequential:     m.OutcomeSequential.Load(),
		},
		CompileOutcomesByBackend: m.snapshotByBackend(),
		CompileLatency:           m.CompileLatency.snapshot(),
		SimulateLatency:          m.SimulateLatency.snapshot(),
		BatchLatency:             m.BatchLatency.snapshot(),
		Stages: stagesJSON{
			QueueWait: m.StageQueueWait.snapshot(),
			MemLookup: m.StageMemLookup.snapshot(),
			DiskRead:  m.StageDiskRead.snapshot(),
			PeerLeg:   m.StagePeerLeg.snapshot(),
			Compile:   m.StageCompile.snapshot(),
			Verify:    m.StageVerify.snapshot(),
		},
		Disk:       disk,
		Cluster:    cluster,
		Provenance: prov,
	}
}
