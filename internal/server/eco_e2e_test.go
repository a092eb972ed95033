package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"wavemin"
	"wavemin/internal/dispatch"
	"wavemin/internal/faultinject"
	"wavemin/internal/shard"
)

// ecoTreeJSON synthesizes the e2e tree with one sink's load optionally
// nudged — the canonical "one leaf resized" ECO delta. deltaSink < 0
// builds the unmodified base tree.
func ecoTreeJSON(t testing.TB, n, deltaSink int, deltaCap float64) json.RawMessage {
	t.Helper()
	sinks := make([]wavemin.Sink, 0, n)
	for i := 0; i < n; i++ {
		cap := 8.0
		if i == deltaSink {
			cap += deltaCap
		}
		sinks = append(sinks, wavemin.Sink{
			X:   float64(15 + (i%4)*10),
			Y:   float64(15 + (i/4)*10),
			Cap: cap,
		})
	}
	d, err := wavemin.New(sinks)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveTree(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ecoConfig is fastConfig with a zone pitch small enough that the e2e
// die spans several zones — ECO reuse is per zone, so a single-zone die
// would make every delta a full re-solve.
func ecoConfig() map[string]any {
	c := fastConfig()
	c["zoneSize"] = 15
	return c
}

// submitWait posts a request, requires admission, and waits for the job
// to finish; it returns the finished job view.
func (h *harness) submitWait(body []byte) jobView {
	h.t.Helper()
	code, resp := h.post(body)
	if code != http.StatusAccepted && code != http.StatusOK {
		h.t.Fatalf("submit: status %d: %v", code, resp)
	}
	return h.waitJob(jobID(h.t, resp), 30*time.Second)
}

// TestParallelECOBitwiseEquivalence is the ECO correctness contract: a
// delta solve seeded from a base job must return byte-for-byte the result
// a cold solve of the same tree returns — at every worker count, and on
// the dispatched (remote worker) path as well as the local one. The name
// carries "Parallel" so `make check` runs it under the race detector.
func TestParallelECOBitwiseEquivalence(t *testing.T) {
	baseTree := ecoTreeJSON(t, 12, -1, 0)
	deltaTree := ecoTreeJSON(t, 12, 3, 4) // one sink's load resized

	req := func(tree json.RawMessage, workers int, baseJobID string) []byte {
		cfg := ecoConfig()
		cfg["workers"] = workers
		m := map[string]any{"tree": tree, "config": cfg}
		if baseJobID != "" {
			m["baseJobId"] = baseJobID
		}
		return marshalReq(t, m)
	}

	// Cold references on an ECO-disabled dispatch server: canonical bytes
	// (Runtime zeroed), no zone recording anywhere near them.
	ref := newHarness(t, Options{Workers: 1, DefaultTimeout: time.Minute, MaxTimeout: time.Minute,
		Dispatch: &dispatch.Options{LocalExec: true}})
	vb := ref.submitWait(req(baseTree, 1, ""))
	if vb.Status != StatusDone {
		t.Fatalf("cold base finished %s (error %q)", vb.Status, vb.Error)
	}
	_, coldBase := ref.resultBody(vb.JobID)
	vd := ref.submitWait(req(deltaTree, 1, ""))
	if vd.Status != StatusDone {
		t.Fatalf("cold delta finished %s (error %q)", vd.Status, vd.Error)
	}
	_, coldDelta := ref.resultBody(vd.JobID)

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	reusedCounts := make([]int, 0, len(workerCounts)+1)

	runEco := func(t *testing.T, h *harness, workers int) {
		vb := h.submitWait(req(baseTree, workers, ""))
		if vb.Status != StatusDone {
			t.Fatalf("base finished %s (error %q)", vb.Status, vb.Error)
		}
		if vb.ZonesReused != 0 || vb.ZonesResolved == 0 {
			t.Fatalf("base job reused/resolved = %d/%d, want 0/>0", vb.ZonesReused, vb.ZonesResolved)
		}
		_, gotBase := h.resultBody(vb.JobID)
		if !bytes.Equal(gotBase, coldBase) {
			t.Fatalf("eco-recorded base bytes diverged from cold solve\ncold: %s\neco:  %s", coldBase, gotBase)
		}

		vd := h.submitWait(req(deltaTree, workers, vb.JobID))
		if vd.Status != StatusDone {
			t.Fatalf("delta finished %s (error %q)", vd.Status, vd.Error)
		}
		if vd.ZonesReused == 0 {
			t.Fatalf("delta job replayed no zones (reused/resolved = %d/%d); ECO had no effect", vd.ZonesReused, vd.ZonesResolved)
		}
		if vd.ZonesResolved == 0 {
			t.Fatalf("delta job re-solved no zones; the edited leaf's zone key failed to flip")
		}
		_, gotDelta := h.resultBody(vd.JobID)
		if !bytes.Equal(gotDelta, coldDelta) {
			t.Fatalf("delta solve bytes diverged from cold solve\ncold:  %s\ndelta: %s", coldDelta, gotDelta)
		}
		reusedCounts = append(reusedCounts, vd.ZonesReused)
	}

	for _, w := range workerCounts {
		h := newHarness(t, Options{Workers: 1, DefaultTimeout: time.Minute, MaxTimeout: time.Minute,
			Eco: true, Dispatch: &dispatch.Options{LocalExec: true}})
		runEco(t, h, w)
	}

	// Dispatched: the delta executes on a remote worker that shares
	// nothing with the coordinator but the JobSpec — seeds ride out in
	// the spec, solutions ride home in the outcome.
	srv := mustNew(t, Options{Workers: 1, DefaultTimeout: time.Minute, MaxTimeout: time.Minute,
		Eco: true, Dispatch: &dispatch.Options{
			LeaseTTL: 2 * time.Second, MaxAttempts: 3, LocalExec: false,
		}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	stop := startWorker(t, ts.URL, "eco-w1")
	defer stop()
	runEco(t, &harness{t: t, srv: srv, ts: ts}, 2)

	// The reuse accounting is deterministic content: identical at every
	// worker count and on both execution paths.
	for i := 1; i < len(reusedCounts); i++ {
		if reusedCounts[i] != reusedCounts[0] {
			t.Fatalf("zonesReused varies across runs: %v", reusedCounts)
		}
	}
}

// TestECOBaseErrors pins the structured error contract of baseJobId:
// every bad reference is a 4xx with a machine-readable code — a 404 for
// unknown bases, a 409 for bases that cannot seed a delta, a 400 when the
// server has no ECO mode at all — and never a 5xx.
func TestECOBaseErrors(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	tree := ecoTreeJSON(t, 8, -1, 0)
	withBase := func(base string, extra map[string]any) []byte {
		m := map[string]any{"tree": tree, "config": ecoConfig(), "baseJobId": base}
		for k, v := range extra {
			m[k] = v
		}
		return marshalReq(t, m)
	}
	errCode := func(resp map[string]any) string {
		e, _ := resp["error"].(map[string]any)
		c, _ := e["code"].(string)
		return c
	}

	t.Run("EcoDisabled", func(t *testing.T) {
		h := newHarness(t, Options{Workers: 1})
		code, resp := h.post(withBase("j-000001", nil))
		if code != http.StatusBadRequest || errCode(resp) != "eco_disabled" {
			t.Fatalf("status %d code %q, want 400 eco_disabled", code, errCode(resp))
		}
	})

	eco := Options{Workers: 1, DefaultTimeout: time.Minute, MaxTimeout: time.Minute,
		Eco: true, Dispatch: &dispatch.Options{LocalExec: true}}

	t.Run("UnknownBase", func(t *testing.T) {
		h := newHarness(t, eco)
		code, resp := h.post(withBase("j-999999", nil))
		if code != http.StatusNotFound || errCode(resp) != "unknown_base" {
			t.Fatalf("status %d code %q, want 404 unknown_base", code, errCode(resp))
		}
	})

	t.Run("UnfinishedBase", func(t *testing.T) {
		h := newHarness(t, eco)
		release := make(chan struct{})
		started := make(chan struct{}, 16)
		faultinject.Set(faultinject.SitePolarityZone, func() {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
		})
		defer func() { faultinject.Reset(); close(release) }()
		code, resp := h.post(marshalReq(t, map[string]any{"tree": tree, "config": ecoConfig()}))
		if code != http.StatusAccepted {
			t.Fatalf("submit base: status %d: %v", code, resp)
		}
		<-started // base is mid-solve
		code, resp = h.post(withBase(jobID(t, resp), nil))
		if code != http.StatusConflict || errCode(resp) != "base_not_reusable" {
			t.Fatalf("status %d code %q, want 409 base_not_reusable", code, errCode(resp))
		}
	})

	t.Run("CacheHitBase", func(t *testing.T) {
		h := newHarness(t, eco)
		body := marshalReq(t, map[string]any{"tree": tree, "config": ecoConfig()})
		if v := h.submitWait(body); v.Status != StatusDone {
			t.Fatalf("seed job finished %s", v.Status)
		}
		// Same problem again: answered from the result cache, so the job
		// ran no solver and recorded no zones — it cannot seed a delta.
		code, resp := h.post(body)
		if code != http.StatusOK {
			t.Fatalf("resubmit: status %d, want 200 cache hit: %v", code, resp)
		}
		code, resp = h.post(withBase(jobID(t, resp), nil))
		if code != http.StatusConflict || errCode(resp) != "base_not_reusable" {
			t.Fatalf("status %d code %q, want 409 base_not_reusable", code, errCode(resp))
		}
	})

	t.Run("DegradedBase", func(t *testing.T) {
		h := newHarness(t, eco)
		// A solver slowed far past the job deadline degrades down the
		// algorithm ladder: the job completes, but its result is
		// deadline-shaped — and a delta must never seed from it.
		faultinject.Set(faultinject.SitePolarityZone, func() { time.Sleep(100 * time.Millisecond) })
		defer faultinject.Reset()
		code, resp := h.post(marshalReq(t, map[string]any{
			"tree": tree, "config": ecoConfig(), "timeoutMs": 200}))
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d: %v", code, resp)
		}
		id := jobID(t, resp)
		v := h.waitJob(id, 30*time.Second)
		if v.Status == StatusDone && !v.Degraded {
			t.Fatalf("base finished clean despite the wedged solver; cannot exercise the degraded-base path")
		}
		faultinject.Reset()
		code, resp = h.post(withBase(id, nil))
		if code != http.StatusConflict || errCode(resp) != "base_not_reusable" {
			t.Fatalf("status %d code %q, want 409 base_not_reusable", code, errCode(resp))
		}
	})

	t.Run("CorruptZoneSet", func(t *testing.T) {
		// A zone set that does not decode seeds nothing: the delta is
		// admitted and runs unseeded, with exactly the cold solve's bytes.
		deltaTree := ecoTreeJSON(t, 8, 3, 4)
		ref := newHarness(t, Options{Workers: 1, DefaultTimeout: time.Minute, MaxTimeout: time.Minute})
		vc := ref.submitWait(marshalReq(t, map[string]any{"tree": deltaTree, "config": ecoConfig()}))
		if vc.Status != StatusDone {
			t.Fatalf("cold reference finished %s (error %q)", vc.Status, vc.Error)
		}
		_, cold := ref.resultBody(vc.JobID)

		h := newHarness(t, eco)
		vb := h.submitWait(marshalReq(t, map[string]any{"tree": tree, "config": ecoConfig()}))
		if vb.Status != StatusDone {
			t.Fatalf("base finished %s (error %q)", vb.Status, vb.Error)
		}
		for name, c := range map[string]struct{ base, blob string }{
			"garbage": {vb.JobID, "not json"},
			// The pre-zone-set format: a list of zone keys.
			"keyList": {vb.JobID, `["` + zoneSetKey("x") + `"]`},
			// A base the registry never knew (forgotten at restart).
			"unknownBase": {"j-999998", `{"k":"bm90IGEgc29sdXRpb24="}`},
		} {
			h.srv.cache.Put(zoneSetKey(c.base), []byte(c.blob))
			code, resp := h.post(marshalReq(t, map[string]any{
				"tree": deltaTree, "config": ecoConfig(), "baseJobId": c.base, "noCache": true}))
			if code != http.StatusAccepted {
				t.Fatalf("%s: status %d: %v, want 202", name, code, resp)
			}
			v := h.waitJob(jobID(t, resp), 30*time.Second)
			if v.Status != StatusDone || v.ZonesReused != 0 || v.ZonesResolved == 0 {
				t.Fatalf("%s: delta %s, reused/resolved = %d/%d; want done and unseeded",
					name, v.Status, v.ZonesReused, v.ZonesResolved)
			}
			if _, got := h.resultBody(v.JobID); !bytes.Equal(got, cold) {
				t.Fatalf("%s: unseeded delta bytes diverged from cold solve\ncold:  %s\ndelta: %s", name, cold, got)
			}
		}
	})
}

// TestECOCrashRecovery is the crash-mid-ECO scenario: a delta job is
// journaled (with its seed solutions in the spec) and the coordinator
// crashes before solving it. The recovered coordinator must finish the
// delta byte-identically — and must answer NEW deltas that name the
// pre-crash base from its zone set in the durable result store, even
// though its job registry died with the process.
func TestECOCrashRecovery(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	opts := func() Options {
		o := durableOpts(dir)
		o.Eco = true
		return o
	}
	baseTree := ecoTreeJSON(t, 12, -1, 0)
	deltaTree := ecoTreeJSON(t, 12, 3, 4)

	// Cold reference bytes for the delta tree.
	ref := newHarness(t, Options{Dispatch: &dispatch.Options{LocalExec: true}})
	v := ref.submitWait(marshalReq(t, map[string]any{"tree": deltaTree, "config": ecoConfig()}))
	if v.Status != StatusDone {
		t.Fatalf("reference finished %s (error %q)", v.Status, v.Error)
	}
	_, coldDelta := ref.resultBody(v.JobID)

	h1 := newHarness(t, opts())
	vb := h1.submitWait(marshalReq(t, map[string]any{"tree": baseTree, "config": ecoConfig()}))
	if vb.Status != StatusDone {
		t.Fatalf("base finished %s (error %q)", vb.Status, vb.Error)
	}
	baseID := vb.JobID

	// Wedge the solver so the delta is accepted but cannot finish, then
	// cut power mid-solve.
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	faultinject.Set(faultinject.SitePolarityZone, func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	})
	code, resp := h1.post(marshalReq(t, map[string]any{
		"tree": deltaTree, "config": ecoConfig(), "baseJobId": baseID}))
	if code != http.StatusAccepted {
		t.Fatalf("submit delta: status %d: %v", code, resp)
	}
	deltaID := jobID(t, resp)
	<-started
	h1.srv.Crash()
	faultinject.Reset()
	close(release)

	h2 := newHarness(t, opts())
	if rec := h2.srv.Recovery(); !rec.Durable || rec.JobsRestored != 1 {
		t.Fatalf("recovery = %+v, want 1 job restored", rec)
	}
	vd := h2.waitJob(deltaID, 30*time.Second)
	if vd.Status != StatusDone {
		t.Fatalf("recovered delta finished %s (error %q)", vd.Status, vd.Error)
	}
	if vd.ZonesReused == 0 {
		t.Fatalf("recovered delta replayed no zones; the journaled seeds were lost")
	}
	_, got := h2.resultBody(deltaID)
	if !bytes.Equal(got, coldDelta) {
		t.Fatalf("recovered delta bytes diverged from cold solve\ncold:      %s\nrecovered: %s", coldDelta, got)
	}

	// The pre-crash base job ID is gone from the registry, but its zone
	// set survived as a result-cache entry in DataDir/store.
	code, resp = h2.post(marshalReq(t, map[string]any{
		"tree": ecoTreeJSON(t, 12, 5, 4), "config": ecoConfig(), "baseJobId": baseID}))
	if code != http.StatusAccepted {
		t.Fatalf("post-crash delta on pre-crash base: status %d: %v", code, resp)
	}
	vn := h2.waitJob(jobID(t, resp), 30*time.Second)
	if vn.Status != StatusDone {
		t.Fatalf("post-crash delta finished %s (error %q)", vn.Status, vn.Error)
	}
	if vn.ZonesReused == 0 {
		t.Fatalf("post-crash delta replayed no zones; durable result store did not answer")
	}
	// Zone sets live in the result store; no second store is created.
	if _, err := os.Stat(filepath.Join(dir, "zones")); !os.IsNotExist(err) {
		t.Fatalf("Eco+DataDir server created %s/zones (stat err %v)", dir, err)
	}
}

// TestShardFleetECOCrossShardBase: on a sharded fleet a delta runs on
// its own key's owner, which is usually not the node that solved its
// base. The base's zone set is one result-cache entry placed on its
// owner, so every delta — submitted through a node that owns neither the
// base nor the delta — must still be admitted, replay the base's zones,
// and return the bytes of a cold solve. On the durable fleet only the
// zone-set key's owner may hold it in its store.
func TestShardFleetECOCrossShardBase(t *testing.T) {
	m, err := shard.New(1, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	dataRoot := t.TempDir()
	fl := newFleetWithMap(t, m, Options{Eco: true, DefaultTimeout: time.Minute, MaxTimeout: time.Minute},
		func(i int, o *Options) {
			o.DataDir = filepath.Join(dataRoot, strconv.Itoa(i))
			o.CheckpointEvery = time.Hour
		})
	ownerOf := func(body []byte) int {
		t.Helper()
		req, apiErr := decodeOptimizeRequest(body, Options{}.withDefaults())
		if apiErr != nil {
			t.Fatal(apiErr.message)
		}
		owner, err := m.ShardOf(req.key)
		if err != nil {
			t.Fatal(err)
		}
		return owner
	}

	baseBody := marshalReq(t, map[string]any{"tree": ecoTreeJSON(t, 12, -1, 0), "config": ecoConfig()})
	code, resp, _ := fl.post(ownerOf(baseBody), baseBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit base: status %d: %v", code, resp)
	}
	baseID := jobID(t, resp)
	baseNode := jobOwner(t, baseID)
	if v, ok := fl.waitJob(baseNode, baseID, 30*time.Second); !ok || v.Status != StatusDone {
		t.Fatalf("base finished %q (ok=%v, error %q)", v.Status, ok, v.Error)
	}

	// Twelve 1-leaf deltas owned by the two shards that did not solve
	// the base, six each; each goes in through the node owning neither.
	type delta struct {
		tree  json.RawMessage
		owner int
	}
	var deltas []delta
	perOwner := map[int]int{}
	for sink := 0; sink < 12 && len(deltas) < 12; sink++ {
		for _, dc := range []float64{1, 2, 3, 4, 5, 6} {
			tree := ecoTreeJSON(t, 12, sink, dc)
			owner := ownerOf(marshalReq(t, map[string]any{"tree": tree, "config": ecoConfig()}))
			if owner != baseNode && perOwner[owner] < 6 {
				perOwner[owner]++
				deltas = append(deltas, delta{tree, owner})
			}
		}
	}
	if len(deltas) != 12 {
		t.Fatalf("found %d deltas owned off the base's shard, want 12", len(deltas))
	}

	ref := newHarness(t, Options{DefaultTimeout: time.Minute, MaxTimeout: time.Minute})
	for i, d := range deltas {
		entry := 3 - baseNode - d.owner // the node owning neither
		code, resp, _ := fl.post(entry, marshalReq(t, map[string]any{
			"tree": d.tree, "config": ecoConfig(), "baseJobId": baseID}))
		if code != http.StatusAccepted {
			t.Fatalf("delta %d (owner %d) via node %d: status %d: %v", i, d.owner, entry, code, resp)
		}
		id := jobID(t, resp)
		v, ok := fl.waitJob(entry, id, 30*time.Second)
		if !ok || v.Status != StatusDone {
			t.Fatalf("delta %d finished %q (ok=%v, error %q)", i, v.Status, ok, v.Error)
		}
		if v.ZonesReused == 0 {
			t.Fatalf("delta %d (owner %d) replayed no zones; the base's zone set was not found", i, d.owner)
		}
		_, got := fl.resultBody(entry, id)
		vc := ref.submitWait(marshalReq(t, map[string]any{"tree": d.tree, "config": ecoConfig(), "noCache": true}))
		if vc.Status != StatusDone {
			t.Fatalf("cold reference %d finished %s (error %q)", i, vc.Status, vc.Error)
		}
		if _, cold := ref.resultBody(vc.JobID); !bytes.Equal(got, cold) {
			t.Fatalf("delta %d bytes diverged from cold solve\ncold:  %s\ndelta: %s", i, cold, got)
		}
	}

	// Shard purity: the zone set is durable on its owner and nowhere else.
	key := zoneSetKey(baseID)
	zoneOwner, err := m.ShardOf(key)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("base solved on node %d; its zone set is owned by node %d", baseNode, zoneOwner)
	for i, node := range fl.nodes {
		if held := node.srv.Load().store.Contains(key); held != (i == zoneOwner) {
			t.Fatalf("node %d store holds zone set = %v; want it only on owner %d (base solved on %d)",
				i, held, zoneOwner, baseNode)
		}
	}
}
