package server_test

// Self-healing cluster tests: read-repair replication, the artifact PUT
// endpoint, anti-entropy reconvergence, dynamic membership swaps under
// in-flight hedged fills, and provenance-chain quarantine of tampered
// store entries.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ltsp/internal/cluster"
	"ltsp/internal/faultinject"
	"ltsp/internal/server"
	"ltsp/internal/store"
	"ltsp/internal/wire"
)

// selfhealMetricsDoc picks the /metrics fields the self-healing tests
// assert on.
type selfhealMetricsDoc struct {
	CompileOutcomes struct {
		Pipelined      int64 `json:"pipelined"`
		ReducedLatency int64 `json:"fallback_reduced_latency"`
		RaisedII       int64 `json:"fallback_raised_ii"`
		Sequential     int64 `json:"sequential"`
	} `json:"compile_outcomes"`
	Cluster *struct {
		Self          string `json:"self"`
		Peers         int    `json:"peers"`
		PeersAlive    int    `json:"peers_alive"`
		PeersDead     int    `json:"peers_dead"`
		RingSwaps     int64  `json:"ring_swaps"`
		PeerHits      int64  `json:"peer_hits"`
		RepairRuns    int64  `json:"repair_runs"`
		RepairPushes  int64  `json:"repair_pushes"`
		RepairSkipped int64  `json:"repair_skipped"`
		RepairDropped int64  `json:"repair_dropped"`
		RepairErrors  int64  `json:"repair_errors"`
		SyncRuns      int64  `json:"sync_runs"`
		SyncPulls     int64  `json:"sync_pulls"`
		SyncErrors    int64  `json:"sync_errors"`
	} `json:"cluster,omitempty"`
	Provenance *struct {
		Records        int64 `json:"records"`
		Failures       int64 `json:"failures"`
		PeerMismatches int64 `json:"peer_mismatches"`
	} `json:"provenance,omitempty"`
}

func (m *selfhealMetricsDoc) compiles() int64 {
	o := m.CompileOutcomes
	return o.Pipelined + o.ReducedLatency + o.RaisedII + o.Sequential
}

// selfhealNodes builds n cluster nodes, each with its own persistent
// store and provenance log, replication n (every node owns every hash).
func selfhealNodes(t *testing.T, n int, mutate func(i int, cfg *server.Config)) ([]*server.Server, []*httptest.Server, []*store.Store) {
	t.Helper()
	handlers := make([]*swapHandler, n)
	tss := make([]*httptest.Server, n)
	peers := make([]cluster.Peer, n)
	for i := range handlers {
		handlers[i] = &swapHandler{}
		tss[i] = httptest.NewServer(handlers[i])
		t.Cleanup(tss[i].Close)
		peers[i] = cluster.Peer{ID: tss[i].URL, Addr: tss[i].URL}
	}
	srvs := make([]*server.Server, n)
	stores := make([]*store.Store, n)
	for i := range srvs {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		stores[i] = st
		prov, err := store.OpenLog(t.TempDir(), store.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { prov.Close() })
		cfg := server.Config{
			Store:          st,
			Provenance:     prov,
			Peers:          peers,
			Self:           peers[i].ID,
			Replication:    n,
			PeerTimeout:    2 * time.Second,
			PeerHedgeDelay: 10 * time.Millisecond,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srvs[i] = server.New(cfg)
		t.Cleanup(srvs[i].Close)
		handlers[i].Set(srvs[i])
	}
	return srvs, tss, stores
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReadRepairReplicatesToPeers: compiling on one node of a fully
// replicated pair pushes the artifact to the other node in the
// background — the replica converges without ever seeing the request,
// and both nodes' provenance chains pin the identical checksum.
func TestReadRepairReplicatesToPeers(t *testing.T) {
	checkGoroutineLeaks(t)
	_, tss, stores := selfhealNodes(t, 2, nil)
	req := compileRequest(t, copyAddLoop(4210))
	hash, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, tss[0].URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	// The receiver stores the entry before the pusher's put returns and
	// counts the push, so the replica and the pusher's counters are waited
	// for together.
	var m selfhealMetricsDoc
	waitFor(t, 5*time.Second, "read-repair to replicate the entry and count the push", func() bool {
		if !stores[1].Contains(hash) {
			return false
		}
		m = selfhealMetricsDoc{}
		get(t, tss[0].URL+"/metrics", &m)
		return m.Cluster != nil && m.Cluster.RepairRuns >= 1 && m.Cluster.RepairPushes >= 1
	})
	// The receiver recorded the replica in its own provenance chain, under
	// the same checksum the pusher pinned.
	var p0, p1 wire.ProvenanceResponse
	get(t, tss[0].URL+"/v2/provenance/"+hash, &p0)
	get(t, tss[1].URL+"/v2/provenance/"+hash, &p1)
	if p0.Checksum == "" || p0.Checksum != p1.Checksum {
		t.Fatalf("provenance checksums diverge: %q vs %q", p0.Checksum, p1.Checksum)
	}
	if !p1.Present || !p1.Consistent {
		t.Fatalf("replica provenance = present %v consistent %v", p1.Present, p1.Consistent)
	}
	if len(p1.Records) == 0 || p1.Records[len(p1.Records)-1].Source != store.SourceReadRepair {
		t.Fatalf("replica records = %+v, want a read_repair record", p1.Records)
	}

	// Compiling the same loop again on node 0 serves from memory and, at
	// most, schedules a repair that finds the replica present (skipped) —
	// it must not push again.
	if resp, body := post(t, tss[0].URL+"/v2/compile", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-compile: %s: %s", resp.Status, body)
	}
	get(t, tss[0].URL+"/metrics", &m)
	if m.Cluster.RepairPushes != 1 {
		t.Fatalf("repair_pushes = %d after a memory hit, want 1", m.Cluster.RepairPushes)
	}
}

// TestArtifactPutEndpoint: the read-repair receive endpoint verifies
// pushed envelopes end to end, records provenance, and never overwrites
// an existing entry.
func TestArtifactPutEndpoint(t *testing.T) {
	// A source node to mint a valid envelope from.
	_, src := newTestServer(t, server.Config{})
	req := compileRequest(t, copyAddLoop(4211))
	resp, body := post(t, src.URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	var cr server.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	var ar wire.ArtifactResponse
	get(t, src.URL+"/v2/artifacts/"+cr.Hash, &ar)

	// The receiving node: store + provenance, no cluster needed.
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	prov, err := store.OpenLog(t.TempDir(), store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov.Close() })
	_, ts := newTestServer(t, server.Config{Store: st, Provenance: prov})

	put := func(hash string, env any) *http.Response {
		t.Helper()
		data, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		preq, err := http.NewRequest(http.MethodPut, ts.URL+"/v2/artifacts/"+hash, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		preq.Header.Set("Content-Type", "application/json")
		presp, err := http.DefaultClient.Do(preq)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { presp.Body.Close() })
		return presp
	}

	if presp := put(cr.Hash, &ar); presp.StatusCode != http.StatusCreated {
		t.Fatalf("valid push: %s, want 201", presp.Status)
	}
	if !st.Contains(cr.Hash) {
		t.Fatal("pushed entry not persisted")
	}
	var pr wire.ProvenanceResponse
	get(t, ts.URL+"/v2/provenance/"+cr.Hash, &pr)
	if len(pr.Records) != 1 || pr.Records[0].Source != store.SourceReadRepair {
		t.Fatalf("provenance after push = %+v", pr.Records)
	}

	// Re-push: create-only, reported as already existing.
	if presp := put(cr.Hash, &ar); presp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate push: %s, want 200 (exists)", presp.Status)
	}
	get(t, ts.URL+"/v2/provenance/"+cr.Hash, &pr)
	if len(pr.Records) != 1 {
		t.Fatalf("duplicate push grew the chain: %d records", len(pr.Records))
	}

	// A poisoned envelope — a request section that does not hash to the
	// key — fails the integrity check and is rejected before touching the
	// store.
	forged := ar
	forged.Request = json.RawMessage(`{"forged":true}`)
	if presp := put(cr.Hash, &forged); presp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged push: %s, want 400", presp.Status)
	}
	// A push whose envelope names a different hash than the URL is
	// rejected too.
	if presp := put(otherHash(cr.Hash), &ar); presp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched-hash push: %s, want 400", presp.Status)
	}
}

// otherHash flips the first character of a hex hash.
func otherHash(h string) string {
	c := byte('0')
	if h[0] == '0' {
		c = '1'
	}
	return string(c) + h[1:]
}

// TestAntiEntropyReconvergesEmptyNode: a node that joins (or restarts)
// empty pulls every owned artifact from its replica peers on the first
// anti-entropy round — driven here by the background loop's startup
// poke, no traffic required.
func TestAntiEntropyReconvergesEmptyNode(t *testing.T) {
	checkGoroutineLeaks(t)
	const loops = 3
	srvs, tss, stores := selfhealNodes(t, 2, func(i int, cfg *server.Config) {
		// Isolate anti-entropy: no read-repair, and only node 1 runs the
		// sync loop.
		cfg.RepairBudget = -1
		if i == 1 {
			cfg.AntiEntropyInterval = 30 * time.Millisecond
		}
	})
	hashes := make([]string, loops)
	for k := 0; k < loops; k++ {
		req := compileRequest(t, copyAddLoop(4300+int64(k)))
		h, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[k] = h
		if resp, body := post(t, tss[0].URL+"/v2/compile", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: %s: %s", k, resp.Status, body)
		}
	}
	waitFor(t, 5*time.Second, "anti-entropy to pull every artifact", func() bool {
		for _, h := range hashes {
			if !stores[1].Contains(h) {
				return false
			}
		}
		return true
	})
	var m selfhealMetricsDoc
	get(t, tss[1].URL+"/metrics", &m)
	if m.Cluster == nil || m.Cluster.SyncRuns == 0 || m.Cluster.SyncPulls < loops {
		t.Fatalf("sync metrics: %+v", m.Cluster)
	}
	// Pulled replicas are provenance-recorded as anti-entropy creations
	// and pin the same checksum as the origin.
	for _, h := range hashes {
		var p0, p1 wire.ProvenanceResponse
		get(t, tss[0].URL+"/v2/provenance/"+h, &p0)
		get(t, tss[1].URL+"/v2/provenance/"+h, &p1)
		if p0.Checksum != p1.Checksum {
			t.Fatalf("checksum diverged for %s: %q vs %q", h[:12], p0.Checksum, p1.Checksum)
		}
		if len(p1.Records) == 0 || p1.Records[len(p1.Records)-1].Source != store.SourceAntiEntropy {
			t.Fatalf("puller records for %s = %+v", h[:12], p1.Records)
		}
	}
	// The node that already had everything pulls nothing when it syncs.
	rep := srvs[0].SyncOnce(context.Background())
	if rep.Pulled != 0 || rep.Errors != 0 {
		t.Fatalf("converged node's sync = %+v, want no pulls, no errors", rep)
	}
}

// TestProvenanceQuarantineTamperedEntry is the headline tamper test: an
// attacker rewrites a stored artifact in place, consistently — response
// section swapped, entry checksum restamped — so the store's own
// integrity check passes. The provenance chain still pins the original
// checksum, so the entry is detected, quarantined, counted, and the
// request is served by an honest recompilation, never the tampered
// bytes.
func TestProvenanceQuarantineTamperedEntry(t *testing.T) {
	storeDir, provDir := t.TempDir(), t.TempDir()
	req := compileRequest(t, copyAddLoop(4400))

	// First life: compile, remember the truth, shut down cleanly.
	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prov1, err := store.OpenLog(provDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := server.New(server.Config{Store: st1, Provenance: prov1})
	ts1 := httptest.NewServer(srv1)
	resp, body := post(t, ts1.URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	var original server.CompileResponse
	if err := json.Unmarshal(body, &original); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Close()
	if err := prov1.Close(); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	// Tamper: rewrite the stored response and restamp the section
	// checksum so the entry is self-consistent. Only the provenance chain
	// still knows the original.
	path := filepath.Join(storeDir, original.Hash[:2], original.Hash+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e store.Entry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	forged := original
	forged.Listing = "; poisoned kernel"
	forgedJSON, err := json.Marshal(&forged)
	if err != nil {
		t.Fatal(err)
	}
	e.Response = forgedJSON
	e.Checksum = store.EntryChecksum(&e)
	tampered, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	// Second life over the tampered store. The bare store check passes —
	// which is exactly the attack — so prove the chain catches it.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st2.Close)
	if _, err := st2.Get(original.Hash); err != nil {
		t.Fatalf("consistently restamped entry must pass the store's own check, got %v", err)
	}
	prov2, err := store.OpenLog(provDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov2.Close() })
	srv2 := server.New(server.Config{Store: st2, Provenance: prov2})
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)

	// The provenance endpoint detects and quarantines the entry.
	var pr wire.ProvenanceResponse
	get(t, ts2.URL+"/v2/provenance/"+original.Hash, &pr)
	if !pr.Present || pr.Consistent {
		t.Fatalf("tampered entry reported present=%v consistent=%v, want present, inconsistent", pr.Present, pr.Consistent)
	}
	if st2.Contains(original.Hash) {
		t.Fatal("tampered entry still in the store after quarantine")
	}

	// Serving the request now recompiles honestly — the poisoned listing
	// is never served.
	resp, body = post(t, ts2.URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompile: %s: %s", resp.Status, body)
	}
	var healed server.CompileResponse
	if err := json.Unmarshal(body, &healed); err != nil {
		t.Fatal(err)
	}
	if healed.Listing != original.Listing {
		t.Fatalf("healed listing diverges from the original:\n%s\nvs\n%s", healed.Listing, original.Listing)
	}
	if healed.Listing == forged.Listing {
		t.Fatal("the poisoned listing was served")
	}

	var m selfhealMetricsDoc
	get(t, ts2.URL+"/metrics", &m)
	if m.Provenance == nil || m.Provenance.Failures != 1 {
		t.Fatalf("provenance section = %+v, want failures 1", m.Provenance)
	}
	if m.compiles() != 1 {
		t.Fatalf("healing executed %d compilations, want 1", m.compiles())
	}
	// After the honest recompilation the chain and the store agree again.
	get(t, ts2.URL+"/v2/provenance/"+original.Hash, &pr)
	if !pr.Present || !pr.Consistent {
		t.Fatalf("healed entry reported present=%v consistent=%v", pr.Present, pr.Consistent)
	}
}

// TestChaosPartitionHealAntiEntropyReconverges cuts one node of a
// three-way replicated ring off mid-batch through the seeded fault
// fabric, keeps compiling on the survivors, heals the partition, and
// asserts anti-entropy brings the isolated node back to a full replica
// whose provenance checksums agree with the others — with zero
// goroutine leaks.
func TestChaosPartitionHealAntiEntropyReconverges(t *testing.T) {
	checkGoroutineLeaks(t)
	fabric := faultinject.NewNetwork(chaosSeed(t))
	_, tss, stores := selfhealNodes(t, 3, func(i int, cfg *server.Config) {
		// Convergence must be attributable to anti-entropy alone.
		cfg.RepairBudget = -1
		cfg.AntiEntropyInterval = 50 * time.Millisecond
		cfg.PeerTimeout = 500 * time.Millisecond
		fabric.Register(cfg.Self, cfg.Self)
		cfg.PeerHTTP = &http.Client{Transport: fabric.Transport(cfg.Self, nil)}
	})

	compileOn := func(node int, k int64) string {
		t.Helper()
		req := compileRequest(t, copyAddLoop(k))
		hash, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if resp, body := post(t, tss[node].URL+"/v2/compile", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d on node %d: %s: %s", k, node, resp.Status, body)
		}
		return hash
	}
	allPresent := func(st *store.Store, hashes []string) bool {
		for _, h := range hashes {
			if !st.Contains(h) {
				return false
			}
		}
		return true
	}

	// First half of the batch lands while the ring is whole.
	var hashes []string
	hashes = append(hashes, compileOn(0, 4500), compileOn(1, 4501))

	// Partition node 2 from both survivors, mid-batch.
	fabric.Partition(tss[2].URL, tss[0].URL)
	fabric.Partition(tss[2].URL, tss[1].URL)
	hashes = append(hashes, compileOn(0, 4502), compileOn(1, 4503))

	// The survivors converge on the full batch; the isolated node cannot.
	waitFor(t, 10*time.Second, "survivors to converge", func() bool {
		return allPresent(stores[0], hashes) && allPresent(stores[1], hashes)
	})
	waitFor(t, 10*time.Second, "the isolated node to record sync errors", func() bool {
		var m selfhealMetricsDoc
		get(t, tss[2].URL+"/metrics", &m)
		return m.Cluster != nil && m.Cluster.SyncErrors > 0
	})
	if allPresent(stores[2], hashes[2:]) {
		t.Fatal("the partitioned node somehow received the mid-partition batch")
	}

	// Heal. Anti-entropy repopulates the isolated node.
	fabric.HealAll()
	waitFor(t, 10*time.Second, "anti-entropy to reconverge the healed node", func() bool {
		return allPresent(stores[2], hashes)
	})

	// Every node pins every artifact under the same provenance checksum.
	for _, h := range hashes {
		var want string
		for i := range tss {
			var pr wire.ProvenanceResponse
			get(t, tss[i].URL+"/v2/provenance/"+h, &pr)
			if pr.Checksum == "" || !pr.Present || !pr.Consistent {
				t.Fatalf("node %d, hash %s: checksum %q present %v consistent %v",
					i, h[:12], pr.Checksum, pr.Present, pr.Consistent)
			}
			if i == 0 {
				want = pr.Checksum
			} else if pr.Checksum != want {
				t.Fatalf("node %d disagrees on %s: %q vs %q", i, h[:12], pr.Checksum, want)
			}
		}
	}
}

// srcFunc adapts a function to cluster.Source.
type srcFunc func() ([]cluster.Peer, error)

func (f srcFunc) Resolve() ([]cluster.Peer, error) { return f() }

// loopsOwnedBy finds n distinct copyAdd variants whose artifact hashes
// the ring places on the given peer.
func loopsOwnedBy(t testing.TB, ring *cluster.Ring, owner cluster.Peer, n int) []*wire.CompileRequest {
	t.Helper()
	var reqs []*wire.CompileRequest
	for k := int64(0); k < 2048 && len(reqs) < n; k++ {
		req := compileRequest(t, copyAddLoop(9000+k))
		hash, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := ring.Owner(hash); ok && p.ID == owner.ID {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) < n {
		t.Fatalf("found only %d of %d loop variants hashed onto peer %s", len(reqs), n, owner.ID)
	}
	return reqs
}

// TestMembershipSwapMidHedgedFill: removing a peer from dynamic
// membership while a hedged fill against it is in flight neither drops
// the in-flight leg's result nor routes any later fill to the removed
// peer.
func TestMembershipSwapMidHedgedFill(t *testing.T) {
	checkGoroutineLeaks(t)

	// Peer B: a plain node that owns and has compiled the artifacts,
	// behind a middleware that delays artifact serves and counts them.
	srvB := server.New(server.Config{})
	t.Cleanup(srvB.Close)
	var artifactGets atomic.Int64
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && len(r.URL.Path) > len("/v2/artifacts/") && r.URL.Path[:len("/v2/artifacts/")] == "/v2/artifacts/" {
			artifactGets.Add(1)
			time.Sleep(250 * time.Millisecond)
		}
		srvB.ServeHTTP(w, r)
	}))
	t.Cleanup(tsB.Close)

	handlerA := &swapHandler{}
	tsA := httptest.NewServer(handlerA)
	t.Cleanup(tsA.Close)

	peerA := cluster.Peer{ID: tsA.URL, Addr: tsA.URL}
	peerB := cluster.Peer{ID: tsB.URL, Addr: tsB.URL}
	var members atomic.Value
	members.Store([]cluster.Peer{peerA, peerB})
	srvA := server.New(server.Config{
		Resolver:        srcFunc(func() ([]cluster.Peer, error) { return members.Load().([]cluster.Peer), nil }),
		ResolveInterval: 15 * time.Millisecond,
		Self:            peerA.ID,
		Replication:     1,
		PeerTimeout:     2 * time.Second,
		PeerHedgeDelay:  10 * time.Millisecond,
	})
	t.Cleanup(srvA.Close)
	handlerA.Set(srvA)

	// Two distinct loops owned by B under the two-peer ring, compiled
	// there.
	ring := cluster.New(cluster.Static([]cluster.Peer{peerA, peerB}), 0)
	reqs := loopsOwnedBy(t, ring, peerB, 2)
	for i, req := range reqs {
		if resp, body := post(t, tsB.URL+"/v2/compile", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d on B: %s: %s", i, resp.Status, body)
		}
	}

	// Fire the fill on A; while B's delayed artifact serve is in flight,
	// remove B from membership and wait for the ring swap.
	type out struct {
		status int
		cached bool
		err    error
	}
	done := make(chan out, 1)
	go func() {
		payload, err := json.Marshal(reqs[0])
		if err != nil {
			done <- out{err: err}
			return
		}
		resp, err := http.Post(tsA.URL+"/v2/compile", "application/json", bytes.NewReader(payload))
		if err != nil {
			done <- out{err: err}
			return
		}
		defer resp.Body.Close()
		var cr server.CompileResponse
		err = json.NewDecoder(resp.Body).Decode(&cr)
		done <- out{status: resp.StatusCode, cached: cr.Cached, err: err}
	}()
	waitFor(t, 2*time.Second, "the hedged leg to reach B", func() bool {
		return artifactGets.Load() >= 1
	})
	members.Store([]cluster.Peer{peerA})
	waitFor(t, 2*time.Second, "the ring swap", func() bool {
		var m selfhealMetricsDoc
		get(t, tsA.URL+"/metrics", &m)
		return m.Cluster != nil && m.Cluster.Peers == 1 && m.Cluster.RingSwaps >= 1
	})
	got := <-done
	if got.err != nil {
		t.Fatalf("in-flight fill: %v", got.err)
	}
	if got.status != http.StatusOK || !got.cached {
		t.Fatalf("in-flight fill after swap: status %d cached %v, want 200 cached (the leg's result must not be dropped)", got.status, got.cached)
	}

	// New fills never route to the removed peer: the second loop that the
	// old ring placed on B now belongs to A alone and compiles locally.
	gets := artifactGets.Load()
	if resp, body := post(t, tsA.URL+"/v2/compile", reqs[1]); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap compile: %s: %s", resp.Status, body)
	}
	if artifactGets.Load() != gets {
		t.Fatal("a fill after the swap still routed to the removed peer")
	}
	var m selfhealMetricsDoc
	get(t, tsA.URL+"/metrics", &m)
	if m.Cluster.PeerHits != 1 {
		t.Fatalf("peer_hits = %d, want exactly the in-flight leg's hit", m.Cluster.PeerHits)
	}
}
